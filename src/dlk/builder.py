"""Staged construction of evidence models over a bounded enumeration.

The builder walks the formula enumeration once.  Every formula gets a
staged truth value: variables from the seed valuation, falsum false,
boolean compounds classically from their (earlier) parts, and a
justified formula ``t:B`` counts as true when its body is staged false
and either the acceptance functional fires at ``(B, t)`` or the closing
pass below will put ``B`` into ``t`` (``_reaches``), so every staged
value is the value in the finished model.  Contributions to the
evidence interpretation happen as stages close:

* a firing justified formula contributes its body to its own term;
* every staged-false formula is offered to all terms, landing wherever
  the functional fires;
* once every formula is staged, one pass of ``semantics.close_upward``
  closes the interpretation upward: sum terms absorb the union of their
  parts, application terms the set product of their parts, and pairing
  terms the conjunctions of their parts' members that lie in the
  enumerated formula universe.  Staging never reads the interpretation,
  so nothing is lost by closing last.

The resulting model records that universe, so audits judge it relative
to the bound it was built under.  Only the unsigned profiles make sense
here; acceptance functionals model denial-style evidence, where firing
spreads falsity, not truth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .logics import PROFILES, LogicProfile, alphabet_from
from .semantics import ModularModel, close_upward, evaluate
from .syntax import (
    Alphabet, And, Bottom, Enumeration, Formula, Implies, Just, Not, Or,
    Pair, PropVar, Sum, Term,
    formula_size, print_formula, print_term, term_size,
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
    """Decides which formulas a term accepts as denial evidence."""

    name = "functional"

    def fires(self, valuation: dict, formula: Formula, term: Term) -> bool:
        raise NotImplementedError

    def spray_targets(self, valuation: dict, formula: Formula):
        """Terms worth offering the formula to; None means try them all."""
        return None


class ConstZero(Functional):
    """Never accepts; the built interpretation is empty everywhere."""

    name = "const-zero"

    def fires(self, valuation, formula, term):
        return False

    def spray_targets(self, valuation, formula):
        return ()


class ConstOne(Functional):
    """Always accepts; every term collects every false formula."""

    name = "const-one"

    def fires(self, valuation, formula, term):
        return True


class PlusSyntactic(Functional):
    """Accepts at sum terms only (the printed term contains a '+')."""

    name = "plus-syntactic"

    def __init__(self):
        self._cache: dict[Term, bool] = {}

    def fires(self, valuation, formula, term):
        hit = self._cache.get(term)
        if hit is None:
            hit = self._cache[term] = "+" in print_term(term)
        return hit


class SpecDriven(Functional):
    """Accepts exactly at the (body, term) positions of the given
    entries; ``suppressed`` positions never accept, whatever else says
    so (they come from negated entries)."""

    name = "spec-driven"

    def __init__(self, entries, suppressed=()):
        self._targets: dict[Formula, tuple[Term, ...]] = {}
        self._suppressed = frozenset(suppressed)
        for entry in entries:
            if not isinstance(entry, Just):
                raise BuildError(
                    f"spec-driven functional needs justified formulas, "
                    f"got {print_formula(entry)!r}")
            if (entry.body, entry.term) in self._suppressed:
                continue
            terms = self._targets.setdefault(entry.body, ())
            if entry.term not in terms:
                self._targets[entry.body] = terms + (entry.term,)

    def fires(self, valuation, formula, term):
        if (formula, term) in self._suppressed:
            return False
        return term in self._targets.get(formula, ())

    def spray_targets(self, valuation, formula):
        return self._targets.get(formula, ())


def _compile_star(pattern: str) -> re.Pattern:
    # '*' is the only wildcard; everything else (brackets included) is literal
    return re.compile(
        "".join(".*" if part is None else re.escape(part)
                for part in _star_split(pattern)) + r"\Z")


def _star_split(pattern: str):
    for i, chunk in enumerate(pattern.split("*")):
        if i:
            yield None
        yield chunk


class RuleTable(Functional):
    """First matching (term pattern, formula pattern) rule decides; the
    default is to reject.  Patterns are matched against printed forms,
    with '*' the only wildcard."""

    name = "rule-table"

    def __init__(self, rules):
        self.rules = [(str(tp), str(fp), bool(fire)) for tp, fp, fire in rules]
        self._compiled = [(_compile_star(tp), _compile_star(fp), fire)
                          for tp, fp, fire in self.rules]
        self._tcache: dict[Term, str] = {}
        self._fcache: dict[Formula, str] = {}

    def fires(self, valuation, formula, term):
        ttext = self._tcache.get(term)
        if ttext is None:
            ttext = self._tcache[term] = print_term(term)
        ftext = self._fcache.get(formula)
        if ftext is None:
            ftext = self._fcache[formula] = print_formula(formula)
        for tpat, fpat, fire in self._compiled:
            if tpat.match(ttext) and fpat.match(ftext):
                return fire
        return False


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

    def lines(self) -> list[str]:
        out = []
        for row in self.rows:
            mark = "1" if row.value else "0"
            out.append(f"{row.index:4d} {mark} {row.kind:6s} {row.formula}")
            for term, formula, via in row.added:
                out.append(f"        -> {term} gets {formula} [{via}]")
        return out

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


def build(params: BuildParams) -> tuple[ModularModel, StageTrace | None]:
    profile = params.profile
    if not _buildable(profile):
        names = sorted(p.name for p in PROFILES.values() if _buildable(p))
        raise BuildError(f"profile {profile.name!r} is outside the staged "
                         f"construction; use one of {', '.join(names)}")
    if params.fm_size < 1 or params.tm_size < 1:
        raise BoundsError("size bounds must be at least 1")

    enum = Enumeration.build(params.alphabet, params.fm_size, params.tm_size,
                             profile.term_ops)
    if not enum.terms:
        raise BuildError("the alphabet has no term symbols")
    functional = params.functional
    valuation = dict(params.seed)
    trace = StageTrace() if params.trace else None

    members: dict[Term, dict[Formula, None]] = {t: {} for t in enum.terms}
    stage_added: list[tuple[str, str, str]] = []

    def add_member(term: Term, f: Formula, via: str):
        if f not in members[term]:
            members[term][f] = None
            if trace is not None:
                stage_added.append((print_term(term), print_formula(f), via))

    pairing = profile.has_schema("pairing")
    staged: dict[Formula, bool] = {}
    for index, f in enumerate(enum.formulas):
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
                kind = "just"
                fires = (not staged[b]) and functional.fires(valuation, b, t)
                if fires:
                    add_member(t, b, "body")
                value = fires or ((not staged[b])
                                  and _reaches(members, t, b, pairing))
            case _:
                raise BuildError(f"unexpected formula {f!r}")
        staged[f] = value
        if not value:
            targets = functional.spray_targets(valuation, f)
            if targets is None:
                for term in enum.terms:
                    if functional.fires(valuation, f, term):
                        add_member(term, f, "spray")
            else:
                for term in targets:
                    if term in members:
                        add_member(term, f, "spray")
        if trace is not None:
            trace.rows.append(StageRow(index, print_formula(f), kind, value,
                                       tuple(stage_added)))
            stage_added = []

    conjunctions = ([f for f in enum.formulas if isinstance(f, And)]
                    if pairing else None)
    closed = close_upward(members, enum.terms, conjunctions)
    if trace is not None and closed:
        trace.rows.append(StageRow(
            len(enum.formulas), "", "close", False,
            tuple((print_term(t), print_formula(g), via)
                  for t, g, via in closed)))

    model = ModularModel(
        profile, valuation,
        {t: frozenset(members[t]) for t in enum.terms},
        provenance="built",
        formula_universe=frozenset(enum.formulas))
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


def realize_spec(profile: LogicProfile, formulas, *,
                 fm_size: int | None = None, tm_size: int | None = None,
                 trace: bool = False):
    """Build one model in which every given formula holds.

    Justified formulas drive a spec-driven functional (their bodies must
    come out false, as denial evidence demands); propositional literals
    pin the seed valuation.  Conflicting demands on a variable, bounds
    that exclude a needed formula or term, and members that still come
    out wrong after the build all raise RealizationError/BoundsError.
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

    need_fm = max((formula_size(e.body) for e in entries), default=1)
    need_tm = max((term_size(e.term) for e in entries), default=1)
    if fm_size is None:
        fm_size = need_fm
    if tm_size is None:
        tm_size = need_tm
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

    failures = [f for f in wanted if not evaluate(model, f)]
    if failures:
        raise RealizationError(
            "no built model satisfies "
            + ", ".join(print_formula(f) for f in failures))
    return model, stage_trace
