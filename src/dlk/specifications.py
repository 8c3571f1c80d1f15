"""Constant specifications: closure, consistency, extraction, search.

A constant specification is the stock of evidence assertions an agent
reasons from.  Closing it propagates what each assertion commits the
agent to -- denial-style evidence forces the asserted body's negation
into the set, and in the signed profile positive and negative evidence
push the body in opposite directions.  A closure that produces both a
formula and its negation is a clash and the specification is rejected
outright.

``ok_extract`` collects every formula some term provably justifies
within bounds, with a reconstructed proof as witness.  ``blue_pill``
then looks for a plain justification-logic model (no denial link
between evidence and truth) that makes all of these formulas true at
once: the agent's denial-backed conclusions survive transplanting into
a logic that does not treat evidence as falsifying.  The search tries
the empty interpretation, then small interpretation sets grown over the
justified subformulas and closed upward under application and sum, each
with an exhaustive valuation search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .builder import BoundsError, RealizationError, _buildable, realize_spec
from .logics import PROFILES, LogicProfile, RefusalError, get_profile
from .proofs import DerivedSet, Proof, derive_forward
from .semantics import ModularModel, closed_extension, evaluate
from .syntax import (
    POSITIVE, Const, Formula, Just, Not, PropVar, Term, Var,
    formula_sort_key, print_formula, print_term, read_formulas, subformulas,
    term_sign,
)


class SpecFormatError(ValueError):
    """A specification document does not describe a specification."""


class SpecShapeError(ValueError):
    """A formula does not have the evidence-assertion shape."""


class SpecClashError(ValueError):
    """Closure produced a formula together with its negation."""

    def __init__(self, pair: tuple[Formula, Formula]):
        self.pair = pair
        pos, neg = pair
        super().__init__(f"closure yields both {print_formula(pos)!r} "
                         f"and {print_formula(neg)!r}")


@dataclass(frozen=True)
class ConstantSpec:
    profile: LogicProfile
    formulas: tuple[Formula, ...]
    closed: bool = False

    def __iter__(self):
        return iter(self.formulas)

    def __len__(self) -> int:
        return len(self.formulas)

    def __contains__(self, f: Formula) -> bool:
        return f in self.formulas


def _check_shape(f: Formula) -> None:
    """Members are evidence chains over a formula, or negations of one.

    The chain justifiers must be leaves; what they assert is arbitrary.
    """
    g = f.body if isinstance(f, Not) else f
    while isinstance(g, Just):
        if not isinstance(g.term, (Const, Var)):
            raise SpecShapeError(
                f"{print_formula(f)!r} uses the compound justifier "
                f"{print_term(g.term)!r}; specification entries assert "
                f"evidence for leaf terms only")
        g = g.body


def _closure_extensions(f: Formula, profile: LogicProfile) -> list[Formula]:
    """What the closure rules add for one member."""
    if not profile.has_schema("denial"):
        return []
    match f:
        case Just(term, body) | Not(Just(term, body)):
            # positive evidence in a signed profile asserts its content,
            # any other evidence denies it; a negated member flips that
            asserts = profile.signed and term_sign(term) == POSITIVE
            return [body] if asserts != isinstance(f, Not) else [Not(body)]
    return []


def close_spec(raw, profile: LogicProfile) -> ConstantSpec:
    """Least superset of the raw formulas closed under the profile's rules.

    Denial-flavoured profiles push each asserted body's negation in;
    the signed profile splits by the evidence sign.  A complementary
    pair anywhere in the closure raises SpecClashError with the pair.
    """
    ordered: list[Formula] = []
    present: set[Formula] = set()

    def note(f: Formula):
        if f in present:
            return
        if isinstance(f, Not) and f.body in present:
            raise SpecClashError((f.body, f))
        if Not(f) in present:
            raise SpecClashError((f, Not(f)))
        present.add(f)
        ordered.append(f)

    for f in raw:
        _check_shape(f)
        note(f)
    cursor = 0
    while cursor < len(ordered):
        for g in _closure_extensions(ordered[cursor], profile):
            note(g)
        cursor += 1
    return ConstantSpec(profile, tuple(ordered), closed=True)


@dataclass
class ProbeResult:
    status: str                 # model | clash | unknown
    model: ModularModel | None = None
    pair: tuple[Formula, Formula] | None = None
    note: str = ""


def probe_consistency(spec: ConstantSpec, *,
                      fm_size: int | None = None,
                      tm_size: int | None = None) -> ProbeResult:
    """Certify the specification consistent, refute it, or give up.

    A model ``realize_spec`` builds and that respects every member is a
    consistency certificate; ``fm_size``/``tm_size`` default to the
    bounds it infers from the members (the largest entry body and term).
    A complementary pair is a refutation.  Anything else (unbuildable
    profile, bounds too small for a member, a member the built model does
    not satisfy) is unknown -- the question is only semidecidable and
    every verdict here is a bounded one.
    """
    present = set(spec.formulas)
    for f in spec.formulas:
        if isinstance(f, Not) and f.body in present:
            return ProbeResult("clash", pair=(f.body, f))
    if not _buildable(spec.profile):
        return ProbeResult(
            "unknown",
            note=f"no staged model construction for profile "
                 f"{spec.profile.name!r}")
    try:
        model, _ = realize_spec(spec.profile, spec.formulas,
                                fm_size=fm_size, tm_size=tm_size)
    except (RealizationError, BoundsError) as exc:
        return ProbeResult("unknown", note=str(exc))
    return ProbeResult("model", model=model,
                       note="built model respects every member")


# ---------------------------------------------------------------------------
# extraction


@dataclass
class OKSet:
    """Formulas some term provably justifies, in witness order."""

    witnesses: dict[Formula, tuple[Term, Proof]]
    hit_limit: bool = False

    @property
    def members(self) -> tuple[Formula, ...]:
        return tuple(self.witnesses)

    def __iter__(self):
        return iter(self.witnesses)

    def __len__(self) -> int:
        return len(self.witnesses)

    def __contains__(self, f: Formula) -> bool:
        return f in self.witnesses


def ok_extract(spec: ConstantSpec, *,
               depth: int = 3, size: int = 4, term_size: int = 2,
               limit: int | None = 50000) -> OKSet:
    """Bodies of the justified formulas derivable from the specification.

    A bounded under-approximation: each member carries the first term
    found justifying it and a checkable proof of that justified formula.
    Schema instances bind terms up to ``term_size`` -- small by default,
    since compound evidence terms arise inside instance conclusions
    anyway and a wide term pool mostly buys duplicate bodies.  The search
    is ``derive_forward``, so ``limit`` counts the formulas it stores:
    modus ponens conclusions and the instances they rest on, not every
    instance (``tests/exhaustive.py`` builds those).  The proofs are in
    the specification's own profile.
    """
    derived: DerivedSet = derive_forward(
        spec.profile, spec.formulas, size_bound=size, rounds=depth,
        term_size_bound=term_size, limit=limit)
    witnesses: dict[Formula, tuple[Term, Proof]] = {}
    for f in derived.justified():
        if f.body not in witnesses:
            witnesses[f.body] = (f.term, derived.proof_of(f))
    return OKSet(witnesses, hit_limit=derived.hit_limit)


# ``ok_extract``'s bounds and their defaults, by the names the CLI flags
# and the scenario steps use too
EXTRACTION_DEFAULTS = dict(ok_extract.__kwdefaults__)


# ---------------------------------------------------------------------------
# model search


# the fixed bounds of ``search_jl_model`` (see its docstring)
_MAX_CANDIDATES = 12
_MAX_COMBO = 3
_MAX_PER_TERM = 2
_MAX_VARS = 14


def search_jl_model(targets,
                    profile: LogicProfile | None = None) -> ModularModel | None:
    """Deterministic bounded search for a model satisfying the targets.

    The profile defaults to ``jl``.  Interpretations are tried smallest
    first: the empty one, then sets grown over the justified
    subformulas of the targets (the first 12 in formula order, at most 3
    at once, at most 2 members per term), each closed upward under
    application and sum (``semantics.closed_extension`` in ``jl``).
    Each interpretation is tried over valuations in lexicographic order
    (all-false first, sorted variable names), so a purely propositional
    win is found with the least valuation.  The bounds are fixed.
    Returns None when this space is exhausted, or at once when the
    targets have more than 14 propositional variables.
    """
    wanted = list(targets)
    profile = profile or get_profile("jl")
    names = sorted({sub.name for f in wanted for sub in subformulas(f)
                    if isinstance(sub, PropVar)})
    if len(names) > _MAX_VARS:
        return None

    candidates = sorted({sub for f in wanted for sub in subformulas(f)
                         if isinstance(sub, Just)},
                        key=formula_sort_key)[:_MAX_CANDIDATES]

    for r in range(min(_MAX_COMBO, len(candidates)) + 1):
        for combo in combinations(candidates, r):
            interp: dict[Term, frozenset[Formula]] = {}
            for j in combo:
                interp[j.term] = interp.get(j.term, frozenset()) | {j.body}
            if any(len(v) > _MAX_PER_TERM for v in interp.values()):
                continue
            closed = closed_extension(
                ModularModel(PROFILES["jl"], {}, interp), interp).interp
            for bits in product((False, True), repeat=len(names)):
                model = ModularModel(profile, dict(zip(names, bits)), closed,
                                     provenance="search")
                if all(evaluate(model, f) for f in wanted):
                    return model
    return None


@dataclass
class BluePillResult:
    status: str                 # model | failure
    ok: OKSet
    model: ModularModel | None = None
    note: str = ""

    @property
    def found(self) -> bool:
        return self.status == "model"


def blue_pill(spec: ConstantSpec, **bounds) -> BluePillResult:
    """Transplant the extracted conclusions into a denial-free model.

    Extracts the bounded OK set of the specification (``bounds`` are
    ``ok_extract``'s keywords and defaults), then searches for a plain
    justification-logic model satisfying every member.  The evidence
    relation there carries no falsifying force, so success means the
    agent's denial-backed knowledge is jointly tenable on neutral
    ground.  Failure is a bounded report, not an error.  The transplant
    needs the pairing schema: a specification in a profile without it
    raises ``RefusalError`` before any extraction.
    """
    if not spec.profile.has_schema("pairing"):
        names = sorted(p.name for p in PROFILES.values()
                       if p.has_schema("pairing"))
        raise RefusalError(f"the model transplant is defined for profiles "
                           f"{' and '.join(map(repr, names))}, not "
                           f"{spec.profile.name!r}")
    ok = ok_extract(spec, **bounds)
    have = set(ok.members)
    for f in ok.members:
        mate = f.body if isinstance(f, Not) else Not(f)
        if mate in have:
            return BluePillResult(
                "failure", ok,
                note=f"the extracted set contains both "
                     f"{print_formula(f)!r} and {print_formula(mate)!r}; "
                     f"no model can satisfy it")
    model_profile = spec.profile if spec.profile.signed else get_profile("jl")
    model = search_jl_model(ok.members, model_profile)
    if model is None:
        return BluePillResult(
            "failure", ok,
            note="no model found within the search bounds")
    return BluePillResult("model", ok, model=model,
                          note="every extracted formula holds; evidence "
                               "closed under application and sum over "
                               "its occurring terms")


@dataclass
class CoherenceReport:
    status: str                 # coherent-within-bounds | counterexample
    ok: OKSet
    counterexample: Formula | None = None

    @property
    def coherent(self) -> bool:
        return self.status == "coherent-within-bounds"


def check_coherence(spec: ConstantSpec, **bounds) -> CoherenceReport:
    """Each extracted formula must be satisfiable on its own.

    Walks the bounded OK set (``bounds`` are ``ok_extract``'s keywords
    and defaults) member by member and reports the first one no searched
    model satisfies.  An empty extraction is vacuously coherent.  The
    report carries the OK set, so a verdict on a search the budget cut
    short says so (``report.ok.hit_limit``).
    """
    ok = ok_extract(spec, **bounds)
    model_profile = spec.profile if spec.profile.signed else get_profile("jl")
    for member in ok.members:
        if search_jl_model([member], model_profile) is None:
            return CoherenceReport("counterexample", ok,
                                   counterexample=member)
    return CoherenceReport("coherent-within-bounds", ok)


# ---------------------------------------------------------------------------
# documents


def spec_to_dict(spec: ConstantSpec) -> dict:
    return {"profile": spec.profile.name,
            "formulas": [print_formula(f) for f in spec.formulas],
            "closed": spec.closed}


def spec_from_dict(doc, default_profile: LogicProfile | None = None,
                   ) -> ConstantSpec:
    """Read a specification document: an object or a bare formula array."""
    if isinstance(doc, list):
        if default_profile is None:
            raise SpecFormatError(
                "a bare formula array needs a profile from the caller")
        profile, texts, closed = default_profile, doc, False
    elif isinstance(doc, dict):
        try:
            profile = get_profile(doc["profile"]) if "profile" in doc \
                else default_profile
        except KeyError as exc:
            raise SpecFormatError(str(exc))
        if profile is None:
            raise SpecFormatError("specification document names no profile")
        texts = doc.get("formulas")
        closed = doc.get("closed", False)
        if not isinstance(closed, bool):
            raise SpecFormatError(f"'closed' must be true or false, "
                                  f"not {closed!r}")
    else:
        raise SpecFormatError("specification document must be an object "
                              "or an array of formulas")
    formulas = read_formulas(texts, profile.signed, "'formulas'",
                             SpecFormatError)
    return ConstantSpec(profile, tuple(formulas), closed=closed)
