"""Staged construction of evidence models over a bounded enumeration.

The builder enumerates the formulas itself and stages each one in the
step that builds it, a size level at a time.  It is the second reader,
after ``syntax.enumerate_formulas``, of the formula rows and the size
splits (``syntax._formula_rows`` and ``_splits``), so it builds the
formulas in enumeration order without a copy of that order.  Each
(row, split) is one comprehension that yields (formula, value) pairs
from the pairs of the smaller levels: variables take the seed
valuation, falsum is false, connectives are valued classically from
their parts' values, and a justified formula ``t:B`` counts as true
when its body is staged false and ``B`` ends up in ``t``
(``_reaches``): the functional accepted it there when ``B`` was staged,
or the closing pass below will carry it there.  So every staged value
is the value in the finished model, and each formula is offered to the
functional once.  Nodes are made through each class's generated
``__new__`` directly: calling the class would run ``type.__call__``
too, which adds about 90 ns to every node, an interned one included.
The functional is compiled once per build, over the enumerated terms,
into a sprayer (``Functional.sprayer``) that maps a staged-false
formula to the terms accepting it; what depends only on a term is
worked out there, once per term, and not once per formula.
Contributions to the evidence interpretation happen as stages close:

* the staged-false formulas of each (row, split) are passed to the
  sprayer, in order, and land at every term it returns (the trace says
  ``spray``).  A level is sprayed before the next one is built, which
  is all ``t:B`` needs: it reads only where the strictly smaller ``B``
  landed;
* once every formula is staged, one pass of ``semantics.close_upward``
  closes the interpretation upward: sum terms absorb the union of their
  parts, application terms the set product of their parts, and, when
  the profile has pairing, pairing terms the conjunctions of their
  parts' members that lie in the enumerated formula universe.  Staging
  never reads the interpretation, so nothing is lost by closing last.

The resulting model records that universe, so audits judge it relative
to the bound it was built under.  Only the unsigned profiles make sense
here; acceptance functionals model denial-style evidence, where firing
spreads falsity, not truth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .logics import PROFILES, LogicProfile, alphabet_from
from .semantics import ModularModel, close_upward, closed_extension, evaluate
from .syntax import (
    Alphabet, And, Formula, Implies, Just, Not, Or, Pair, PropVar, Sum, Term,
    _formula_rows, _formula_start, _splits, enumerate_terms, formula_size,
    formula_terms, print_formula, print_term, term_size,
)


class BuildError(ValueError):
    pass


class BoundsError(BuildError):
    """A formula or term does not fit inside the requested bounds."""


class RealizationError(BuildError):
    """The formulas cannot all hold in one built model."""


# ---------------------------------------------------------------------------
# acceptance functionals


class Functional:
    """Decides which formulas a term accepts as denial evidence.

    ``build`` asks a functional once per build for its ``sprayer`` over
    the enumerated terms, and then calls that once per staged-false
    formula.  A functional implements ``sprayer``, or ``fires`` behind
    the default ``sprayer``, which asks every term."""

    def fires(self, formula: Formula, term: Term) -> bool:
        raise NotImplementedError

    def sprayer(self, terms):
        """A function from a staged-false formula to the terms of
        ``terms`` that accept it, in term order unless the functional
        says otherwise."""
        return lambda formula: [t for t in terms if self.fires(formula, t)]


class ConstZero(Functional):
    """Never accepts; the built interpretation is empty everywhere."""

    def sprayer(self, terms):
        return lambda formula: ()


class ConstOne(Functional):
    """Always accepts; every term collects every false formula."""

    def sprayer(self, terms):
        return lambda formula: terms


class PlusSyntactic(Functional):
    """Accepts at sum terms only (the printed term contains a '+')."""

    def sprayer(self, terms):
        # the answer depends on the term alone: print each once
        sums = [t for t in terms if "+" in print_term(t)]
        return lambda formula: sums


class SpecDriven(Functional):
    """Accepts exactly at the (body, term) positions of the given
    entries; ``suppressed`` positions never accept, whatever else says
    so (they come from negated entries).  A body's terms come in entry
    order."""

    def __init__(self, entries, suppressed=()):
        self._targets: dict[Formula, tuple[Term, ...]] = {}
        suppressed = frozenset(suppressed)
        for entry in entries:
            if not isinstance(entry, Just):
                raise BuildError(
                    f"spec-driven functional needs justified formulas, "
                    f"got {print_formula(entry)!r}")
            if (entry.body, entry.term) in suppressed:
                continue
            terms = self._targets.setdefault(entry.body, ())
            if entry.term not in terms:
                self._targets[entry.body] = terms + (entry.term,)

    def sprayer(self, terms):
        present = set(terms)
        built = {body: [t for t in wanted if t in present]
                 for body, wanted in self._targets.items()}
        return lambda formula: built.get(formula, ())


def _compile_star(pattern: str) -> re.Pattern:
    # '*' is the only wildcard; everything else (brackets included) is literal
    return re.compile(".*".join(map(re.escape, pattern.split("*"))) + r"\Z")


class RuleTable(Functional):
    """First matching (term pattern, formula pattern) rule decides; the
    default is to reject.  Patterns are matched against printed forms,
    with '*' the only wildcard."""

    def __init__(self, rules):
        self.rules = [(str(tp), str(fp), bool(fire)) for tp, fp, fire in rules]
        self._compiled = [(_compile_star(tp), _compile_star(fp), fire)
                          for tp, fp, fire in self.rules]

    def fires(self, formula, term):
        ttext, ftext = print_term(term), print_formula(formula)
        for tpat, fpat, fire in self._compiled:
            if tpat.match(ttext) and fpat.match(ftext):
                return fire
        return False

    def sprayer(self, terms):
        # a term's answer depends only on the rules whose term pattern
        # matches it (its signature), a formula's only on the rules whose
        # formula pattern matches it (its vector): each term is printed
        # and matched once, each formula once, and the terms are decided
        # once per vector
        rules = self._compiled
        signatures = [tuple(i for i, (tpat, _, _) in enumerate(rules)
                            if tpat.match(text))
                      for text in map(print_term, terms)]
        distinct = set(signatures)
        decided: dict[tuple[bool, ...], list[Term]] = {}

        def spray(formula):
            text = print_formula(formula)
            vector = tuple(fpat.match(text) is not None
                           for _, fpat, _ in rules)
            accepting = decided.get(vector)
            if accepting is None:
                verdict = {sig: next((rules[i][2] for i in sig if vector[i]),
                                     False)
                           for sig in distinct}
                accepting = decided[vector] = [
                    t for t, sig in zip(terms, signatures) if verdict[sig]]
            return accepting
        return spray


FUNCTIONALS = {
    "const-zero": ConstZero,
    "const-one": ConstOne,
    "plus-syntactic": PlusSyntactic,
}


# ---------------------------------------------------------------------------
# the build


@dataclass(frozen=True)
class BuildParams:
    profile: LogicProfile
    alphabet: Alphabet
    fm_size: int
    tm_size: int
    functional: Functional
    seed: dict[str, bool] = field(default_factory=dict)
    trace: bool = False


@dataclass(frozen=True)
class StageRow:
    index: int
    formula: str
    kind: str           # bottom | atom | bool | just | close
    value: bool
    added: tuple[tuple[str, str, str], ...]   # (term, formula, via)


@dataclass
class StageTrace:
    rows: list[StageRow] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"stages": [
            {"index": row.index, "formula": row.formula, "kind": row.kind,
             "value": row.value,
             "added": [{"term": t, "formula": f, "via": v}
                       for t, f, v in row.added]}
            for row in self.rows]}


def _buildable(profile: LogicProfile) -> bool:
    """The staged construction covers the unsigned profiles with denial."""
    return not profile.signed and profile.has_schema("denial")


def _reaches(members: dict[Term, dict[Formula, None]], t: Term, b: Formula,
             pairing: bool) -> bool:
    """Whether closing ``members`` upward puts ``b`` into ``t``: it is a
    member already, ``t`` is a sum and ``b`` reaches one of its parts, or
    ``t`` is a pair, ``pairing`` holds and ``b`` is a conjunction whose
    sides reach its parts.  Applications reach nothing: every staged
    member is false, and a false ``A -> B`` needs ``A`` true."""
    if b in members[t]:
        return True
    match t:
        case Sum(left, right):
            return (_reaches(members, left, b, pairing)
                    or _reaches(members, right, b, pairing))
        case Pair(left, right) if pairing and isinstance(b, And):
            return (_reaches(members, left, b.left, pairing)
                    and _reaches(members, right, b.right, pairing))
    return False


# The stagers of the connectives.  Each builds its row's formulas from
# its parts' pools of (formula, value) pairs, through the generated
# constructor, and pairs each with its classical value.

def _stage_not(bodies):
    new = Not.__new__
    return [(new(Not, b), not v) for b, v in bodies]


def _stage_and(lefts, rights):
    new = And.__new__
    return [(new(And, f, g), v and w) for f, v in lefts for g, w in rights]


def _stage_or(lefts, rights):
    new = Or.__new__
    return [(new(Or, f, g), v or w) for f, v in lefts for g, w in rights]


def _stage_implies(lefts, rights):
    new = Implies.__new__
    return [(new(Implies, f, g), (not v) or w)
            for f, v in lefts for g, w in rights]


_CLASSICAL = {Not: _stage_not, And: _stage_and, Or: _stage_or,
              Implies: _stage_implies}


def build(params: BuildParams) -> tuple[ModularModel, StageTrace | None]:
    profile = params.profile
    if not _buildable(profile):
        names = sorted(p.name for p in PROFILES.values() if _buildable(p))
        raise BuildError(f"profile {profile.name!r} is outside the staged "
                         f"construction; use one of {', '.join(names)}")
    if params.fm_size < 1 or params.tm_size < 1:
        raise BoundsError("size bounds must be at least 1")

    terms = enumerate_terms(params.alphabet, params.tm_size, profile.term_ops)
    if not terms:
        raise BuildError("the alphabet has no term symbols")
    spray = params.functional.sprayer(terms)
    valuation = dict(params.seed)
    trace = StageTrace() if params.trace else None

    members: dict[Term, dict[Formula, None]] = {t: {} for t in terms}
    pairing = profile.has_schema("pairing")
    conjunctions: list[And] = []

    def stage_just(ts, bodies):
        # a body is smaller, so sprayed already: if it is staged false,
        # every term accepting it holds it
        new = Just.__new__
        return [(new(Just, t, b), not v and _reaches(members, t, b, pairing))
                for t in ts for b, v in bodies]

    stagers = {**_CLASSICAL, Just: stage_just}

    def land(pairs, kind):
        """Spray the staged-false formulas of ``pairs``, in order, and
        trace each formula as a stage of ``kind``."""
        added = []
        for f, value in pairs:
            if not value:
                for term in spray(f):
                    have = members[term]
                    if trace is not None and f not in have:
                        added.append((print_term(term), print_formula(f),
                                      "spray"))
                    have[f] = None
            if trace is not None:
                trace.rows.append(StageRow(len(trace.rows), print_formula(f),
                                           kind, value, tuple(added)))
                added.clear()

    leaves, terms_by_size = _formula_start(params.alphabet, terms)
    # falsum ranks first among the leaves
    bottom = [(leaves[0], False)]
    atoms = [(a, valuation.get(a.name, False)) for a in leaves[1:]]
    land(bottom, "bottom")
    land(atoms, "atom")
    levels = {1: bottom + atoms}
    rows = _formula_rows(levels, terms_by_size)
    for n in range(2, params.fm_size + 1):
        level = levels[n] = []
        for ctor, pools in rows:
            for sizes in _splits(len(pools), n):
                pairs = stagers[ctor](*(pool.get(k, ())
                                        for pool, k in zip(pools, sizes)))
                land(pairs, "just" if ctor is Just else "bool")
                if ctor is And and pairing:
                    conjunctions.extend(f for f, _ in pairs)
                level += pairs

    universe = [f for level in levels.values() for f, _ in level]
    closed = close_upward(members, terms, profile,
                          conjunctions if pairing else None)
    if trace is not None and closed:
        trace.rows.append(StageRow(
            len(universe), "", "close", False,
            tuple((print_term(t), print_formula(g), via)
                  for t, g, via in closed)))

    model = ModularModel(
        profile, valuation,
        {t: frozenset(members[t]) for t in terms},
        provenance="built",
        formula_universe=frozenset(universe))
    return model, trace


# ---------------------------------------------------------------------------
# realization


def _literal(f: Formula) -> tuple[str, bool] | None:
    """(variable, value) making a propositional literal true, if it is one."""
    match f:
        case PropVar(name):
            return name, True
        case Not(PropVar(name)):
            return name, False
    return None


def inferred_bounds(formulas) -> tuple[int, int]:
    """The formula and term bounds ``realize_spec`` uses when given none:
    the largest body and the largest term of the justified formulas."""
    entries = [f for f in formulas if isinstance(f, Just)]
    return (max((formula_size(e.body) for e in entries), default=1),
            max((term_size(e.term) for e in entries), default=1))


def realize_spec(profile: LogicProfile, formulas, *,
                 fm_size: int | None = None, tm_size: int | None = None,
                 trace: bool = False):
    """Build one model in which every given formula holds.

    Justified formulas drive a spec-driven functional (their bodies must
    come out false, as denial evidence demands); propositional literals
    pin the seed valuation.  Conflicting demands on a variable, bounds
    that exclude a needed formula or term, and members that still come
    out wrong after the build all raise RealizationError/BoundsError.
    Members are judged in the model's ``closed_extension`` over their
    terms, where a term the model leaves uninterpreted, such as ``a+b``
    beside ``a:A``, holds what its parts force.
    """
    wanted = list(formulas)
    entries = [f for f in wanted if isinstance(f, Just)]
    # ~(t:B) members pin the functional to zero at (B, t), so nothing
    # can smuggle B into t behind their back
    suppressed = [(f.body.body, f.body.term) for f in wanted
                  if isinstance(f, Not) and isinstance(f.body, Just)]

    seed: dict[str, bool] = {}
    demands: dict[str, str] = {}

    def demand(name: str, value: bool, why: str):
        if name in seed and seed[name] != value:
            raise RealizationError(
                f"variable {name} must be {'true' if value else 'false'} "
                f"for {why}, but {demands[name]} already fixed it the "
                f"other way")
        seed[name] = value
        demands[name] = why

    for f in wanted:
        lit = _literal(f)
        if lit is not None:
            demand(lit[0], lit[1], f"literal {print_formula(f)!r}")
    for entry in entries:
        lit = _literal(entry.body)
        if lit is not None:
            # the body must be false for the entry to hold
            demand(lit[0], not lit[1], f"entry {print_formula(entry)!r}")

    if fm_size is None or tm_size is None:
        need_fm, need_tm = inferred_bounds(entries)
        fm_size = need_fm if fm_size is None else fm_size
        tm_size = need_tm if tm_size is None else tm_size
    for entry in entries:
        if term_size(entry.term) > tm_size:
            raise BoundsError(f"term of {print_formula(entry)!r} exceeds the "
                              f"term bound {tm_size}")
        if formula_size(entry.body) > fm_size:
            raise BoundsError(f"body of {print_formula(entry)!r} exceeds the "
                              f"formula bound {fm_size}")

    alphabet = alphabet_from(wanted, profile)
    params = BuildParams(profile, alphabet, fm_size, tm_size,
                         SpecDriven(entries, suppressed),
                         seed=seed, trace=trace)
    model, stage_trace = build(params)

    closed = closed_extension(
        model, [t for f in wanted for t in formula_terms(f)])
    failures = [f for f in wanted if not evaluate(closed, f)]
    if failures:
        raise RealizationError(
            "no built model satisfies "
            + ", ".join(print_formula(f) for f in failures))
    return model, stage_trace
