"""The staged loop of ``dlk.builder.build`` as it was before it tested each
formula's class once and compiled its functional once per build, kept as
the oracle of ``build``.

``match_build`` stages every formula with a ``match`` over the node
classes, asks the functional about each staged-false formula afresh
(``spray``: each functional's former per-call decision, a rule table
through ``fires`` for every term, the plus-syntactic one by printing
every term), and stores a sprayed member after testing that it is
absent.  ``build`` tests ``type(f)`` once, takes the trace's kind from
a class table, asks the functional for one sprayer per build and
stores the member at once.  Both must give the same model (valuation,
interpretation, universe) and the same ``StageTrace``.
"""

from __future__ import annotations

from dlk.builder import (
    BoundsError, BuildError, BuildParams, ConstOne, ConstZero, Functional,
    PlusSyntactic, SpecDriven, StageRow, StageTrace, _buildable, _reaches,
)
from dlk.logics import PROFILES
from dlk.semantics import ModularModel, close_upward
from dlk.syntax import (
    And, Bottom, Formula, Implies, Just, Not, Or, PropVar, Term,
    enumerate_formulas, enumerate_terms, print_formula, print_term,
)


def spray(functional: Functional, formula: Formula, terms):
    """The terms, in order, that accept the staged-false formula, decided
    per call and, unless the functional is constant or spec-driven, per
    (formula, term)."""
    if isinstance(functional, ConstZero):
        return ()
    if isinstance(functional, ConstOne):
        return terms
    if isinstance(functional, SpecDriven):
        return [t for t in functional._targets.get(formula, ()) if t in terms]
    if isinstance(functional, PlusSyntactic):
        return [t for t in terms if "+" in print_term(t)]
    return [t for t in terms if functional.fires(formula, t)]


def match_build(params: BuildParams) -> tuple[ModularModel, StageTrace | None]:
    profile = params.profile
    if not _buildable(profile):
        names = sorted(p.name for p in PROFILES.values() if _buildable(p))
        raise BuildError(f"profile {profile.name!r} is outside the staged "
                         f"construction; use one of {', '.join(names)}")
    if params.fm_size < 1 or params.tm_size < 1:
        raise BoundsError("size bounds must be at least 1")

    terms = enumerate_terms(params.alphabet, params.tm_size, profile.term_ops)
    formulas = enumerate_formulas(params.alphabet, params.fm_size, terms)
    if not terms:
        raise BuildError("the alphabet has no term symbols")
    functional = params.functional
    valuation = dict(params.seed)
    trace = StageTrace() if params.trace else None

    members: dict[Term, dict[Formula, None]] = {t: {} for t in terms}
    stage_added: list[tuple[str, str, str]] = []
    pairing = profile.has_schema("pairing")
    staged: dict[Formula, bool] = {}
    for index, f in enumerate(formulas):
        match f:
            case Bottom():
                kind, value = "bottom", False
            case PropVar(name):
                kind, value = "atom", valuation.get(name, False)
            case Not(b):
                kind, value = "bool", not staged[b]
            case And(l, r):
                kind, value = "bool", staged[l] and staged[r]
            case Or(l, r):
                kind, value = "bool", staged[l] or staged[r]
            case Implies(l, r):
                kind, value = "bool", (not staged[l]) or staged[r]
            case Just(t, b):
                # b came first: if staged false, every term accepting it
                # holds it already
                kind, value = "just", (not staged[b]
                                       and _reaches(members, t, b, pairing))
            case _:
                raise BuildError(f"unexpected formula {f!r}")
        staged[f] = value
        if not value:
            for term in spray(functional, f, members):
                have = members[term]
                if f not in have:
                    have[f] = None
                    if trace is not None:
                        stage_added.append((print_term(term), print_formula(f),
                                            "spray"))
        if trace is not None:
            trace.rows.append(StageRow(index, print_formula(f), kind, value,
                                       tuple(stage_added)))
            stage_added = []

    conjunctions = ([f for f in formulas if isinstance(f, And)]
                    if pairing else None)
    closed = close_upward(members, terms, profile, conjunctions)
    if trace is not None and closed:
        trace.rows.append(StageRow(
            len(formulas), "", "close", False,
            tuple((print_term(t), print_formula(g), via)
                  for t, g, via in closed)))

    model = ModularModel(
        profile, valuation,
        {t: frozenset(members[t]) for t in terms},
        provenance="built",
        formula_universe=frozenset(formulas))
    return model, trace
