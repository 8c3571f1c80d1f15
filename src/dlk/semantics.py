"""Modular models: a propositional valuation plus an evidence
interpretation mapping terms to sets of formulas, with an audit that
checks the closure conditions a profile demands.

``t:F`` is true in a model exactly when ``F`` is a member of the set the
interpretation assigns to ``t``; truth of ``F`` itself is not required,
which is what lets evidence be denial-flavoured.

The audit distinguishes hand-written models from bounded constructions.
A model carrying a ``formula_universe`` (the formula prefix it was built
over) is audited relative to that universe: required members outside it
are ignored, and compounds outside the interpretation's key set are
reported as warnings rather than violations.  A model without a
universe is audited exactly; a compound the interpretation does not
mention is treated as having the empty set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .logics import LogicProfile, get_profile
from .syntax import (
    NEGATIVE, POSITIVE,
    And, App, Bang, Bottom, Formula, Implies, Just, Not, Or, Pair, PropVar,
    SignDisciplineError, Sum, Term, _PARTS, _TERM_OPS,
    formula_sort_key, parse_formula, parse_term, print_formula, print_term,
    subterms, term_sign, term_sort_key,
)


class ModelFormatError(ValueError):
    """A model document does not describe a model of its profile."""


EMPTY: frozenset[Formula] = frozenset()


@dataclass(frozen=True)
class ModularModel:
    profile: LogicProfile
    valuation: dict[str, bool]
    interp: dict[Term, frozenset[Formula]]
    provenance: str = "hand"
    formula_universe: frozenset[Formula] | None = None

    def evidence(self, term: Term) -> frozenset[Formula]:
        return self.interp.get(term, EMPTY)


def evaluate(model: ModularModel, f: Formula) -> bool:
    match f:
        case Bottom():
            return False
        case PropVar(name):
            return model.valuation.get(name, False)
        case Not(b):
            return not evaluate(model, b)
        case And(l, r):
            return evaluate(model, l) and evaluate(model, r)
        case Or(l, r):
            return evaluate(model, l) or evaluate(model, r)
        case Implies(l, r):
            return (not evaluate(model, l)) or evaluate(model, r)
        case Just(t, b):
            return b in model.evidence(t)
    raise TypeError(f"cannot evaluate {f!r}")


def set_product(xs: frozenset[Formula], ys: frozenset[Formula]) -> frozenset[Formula]:
    """Application on evidence sets: conclusions of implications in xs
    whose antecedent lies in ys."""
    return frozenset(x.right for x in xs
                     if isinstance(x, Implies) and x.left in ys)


def _paired(conjunctions, xs, ys) -> list[And]:
    """Pairing inside a formula universe: those of its conjunctions whose
    left side lies in xs and right side in ys."""
    return [c for c in conjunctions if c.left in xs and c.right in ys]


def close_upward(members: dict[Term, dict[Formula, None]], terms,
                 conjunctions=None) -> list[tuple[Term, Formula, str]]:
    """Close evidence sets upward under the compound term operations.

    ``members`` maps every term in ``terms`` to an insertion-ordered set
    of formulas (a dict with None values) and is extended in place: sums
    absorb the members of their parts, applications the ``set_product``
    of their parts, and, when a universe's ``conjunctions`` are given,
    pairs absorb those whose two sides lie in their parts.  ``terms``
    must hold every part of each of its compounds and list it first
    (ascending size does), so one pass reaches the least closure.
    Returns the additions in order as (term, formula, rule) triples.
    """
    added: list[tuple[Term, Formula, str]] = []
    for t in terms:
        match t:
            case Sum(left, right):
                rule, new = "sum", [*members[left], *members[right]]
            case App(left, right):
                rule, new = "app", set_product(members[left], members[right])
            case Pair(left, right) if conjunctions is not None:
                rule, new = "pair", _paired(conjunctions, members[left],
                                            members[right])
            case _:
                continue
        have = members[t]
        for f in new:
            if f not in have:
                have[f] = None
                added.append((t, f, rule))
    return added


def occurring_terms(model: ModularModel) -> list[Term]:
    """Interpretation keys and their subterms, enumeration order."""
    seen: set[Term] = set()
    for key in model.interp:
        seen.update(subterms(key))
    return sorted(seen, key=term_sort_key)


def default_universe(model: ModularModel) -> list[Term]:
    """Occurring terms plus their depth-1 compounds, enumeration order.

    This is the audit universe a caller should use for a hand-written
    model: it surfaces closure gaps at compounds nobody bothered to
    mention.  Bounded constructions audit over their own key set instead.
    """
    base = occurring_terms(model)
    out: set[Term] = set(base)
    for op in model.profile.term_ops:
        ctor, _ = _TERM_OPS[op]
        for parts in product(base, repeat=len(_PARTS[ctor])):
            try:
                out.add(ctor(*parts))
            except SignDisciplineError:
                pass
    return sorted(out, key=term_sort_key)


# ---------------------------------------------------------------------------
# audit


@dataclass(frozen=True)
class Violation:
    condition: str
    terms: tuple[str, ...]
    formula: str
    note: str = ""

    def describe(self) -> str:
        where = ", ".join(self.terms)
        tail = f" ({self.note})" if self.note else ""
        return f"{self.condition}: {where} misses {self.formula}{tail}"


@dataclass
class ConditionReport:
    name: str
    checked: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class AuditReport:
    profile: str
    conditions: list[ConditionReport]
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.conditions)

    def condition(self, name: str) -> ConditionReport:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "profile": self.profile,
            "ok": self.ok,
            "conditions": [
                {"name": c.name, "ok": c.ok, "checked": c.checked,
                 "violations": [
                     {"condition": v.condition, "terms": list(v.terms),
                      "formula": v.formula, "note": v.note}
                     for v in c.violations]}
                for c in self.conditions],
            "warnings": self.warnings,
        }


def _sign_admits(profile: LogicProfile, term: Term, wanted: str) -> bool:
    """In signed profiles a condition applies only to terms of its sign."""
    if not profile.signed:
        return True
    return term_sign(term) == wanted


def _compound(ctor, *parts) -> Term | None:
    """The compound term, or None where the sign discipline forbids it."""
    try:
        return ctor(*parts)
    except SignDisciplineError:
        return None


def audit(model: ModularModel,
          term_universe: list[Term] | None = None) -> AuditReport:
    """Check every closure condition of the model's profile over a
    finite term universe.

    The universe defaults to the terms occurring in the model (see
    ``default_universe`` for the roomier choice).  A compound a pair of
    universe terms demands something of, but which lies outside the
    universe, is reported as a universe-not-closed warning rather than a
    violation; a compound inside the universe is held to its evidence
    set, with the empty set as the default.  When the model carries a
    ``formula_universe``, required members outside it are ignored.

    Each formula is hashed once per call: the formulas of the universe,
    of the evidence sets and of their implications get dense int ids on
    entry, so every check compares int sets, and ids map back to
    formulas only for violations.  The conditions, the ``checked``
    counts and the order of violations and warnings are those of a
    check of every ordered pair of universe terms.
    """
    profile = model.profile
    universe = model.formula_universe
    terms = term_universe if term_universe is not None else occurring_terms(model)
    warnings: list[str] = []
    not_closed: set[str] = set()

    reports: dict[str, ConditionReport] = {}

    def report(name: str) -> ConditionReport:
        if name not in reports:
            reports[name] = ConditionReport(name)
        return reports[name]

    # conditions applicable to this profile
    do_app = "app" in profile.term_ops
    do_sum = "sum" in profile.term_ops
    do_pair = profile.has_schema("pairing")
    do_denial = profile.has_schema("denial")
    do_fact = profile.has_schema("factivity")
    do_intro = (profile.has_schema("introspection")
                and any(isinstance(t, Bang) for t in terms))

    for name, enabled in (("application-closure", do_app),
                          ("sum-closure", do_sum),
                          ("pairing-closure", do_pair),
                          ("denial-falsity", do_denial),
                          ("factivity-truth", do_fact),
                          ("introspection-closure", do_intro)):
        if enabled:
            report(name)

    ids: dict[Formula, int] = {}
    formulas: list[Formula] = []

    def intern(f: Formula) -> int:
        i = ids.get(f)
        if i is None:
            i = ids[f] = len(formulas)
            formulas.append(f)
        return i

    in_universe = (None if universe is None
                   else frozenset(intern(f) for f in universe))
    # the universe's conjunctions by the ids of their sides, for pairing
    by_left: dict[int, list[int]] = {}
    by_right: dict[int, list[int]] = {}
    if do_pair and universe is not None:
        for f in universe:
            if isinstance(f, And):
                by_left.setdefault(intern(f.left), []).append(ids[f])
                by_right.setdefault(intern(f.right), []).append(ids[f])

    # per term: its evidence ids, the same cut to the universe, its
    # implications as (antecedent, consequent) ids, and the universe's
    # conjunctions whose left (right) side it holds
    ev: dict[Term, frozenset[int]] = {}
    rows = []
    for t in terms:
        members = model.evidence(t)
        have = ev[t] = frozenset(intern(f) for f in members)
        rows.append((
            t, have,
            have if in_universe is None or have <= in_universe
            else have & in_universe,
            [(intern(f.left), intern(f.right)) for f in members
             if isinstance(f, Implies)],
            frozenset(c for i in have for c in by_left.get(i, ())),
            frozenset(c for i in have for c in by_right.get(i, ()))))

    def require(name: str, parts: tuple[Term, ...], compound: Term,
                required) -> None:
        """The ids ``required`` (inside the universe) ⊆ evidence(compound)."""
        rep = report(name)
        rep.checked += 1
        if not required:
            return
        have = ev.get(compound)
        if have is None:
            key = print_term(compound)
            if key not in not_closed:
                not_closed.add(key)
                warnings.append(f"universe not closed: {key} is missing "
                                f"({name} has members to check there)")
            return
        missing = required - have
        if not missing:
            return
        where = tuple(print_term(p) for p in (*parts, compound))
        for f in sorted((formulas[i] for i in missing), key=formula_sort_key):
            rep.violations.append(Violation(name, where, print_formula(f)))

    for s, es, cs, imps, lefts, _ in rows:
        for t, et, ct, _, _, rights in rows:
            if do_app and (es or et):
                compound = _compound(App, s, t)
                if compound is not None:
                    needed = {r for l, r in imps if l in et}
                    if in_universe is not None:
                        needed &= in_universe
                    require("application-closure", (s, t), compound, needed)
            if do_sum and (es or et):
                compound = _compound(Sum, s, t)
                if compound is not None:
                    # each part is reported on its own
                    require("sum-closure", (s,), compound, cs)
                    require("sum-closure", (t,), compound, ct)
            if do_pair and es and et:
                compound = _compound(Pair, s, t)
                if compound is not None:
                    if in_universe is not None:
                        needed = lefts & rights
                    else:
                        needed = {intern(And(formulas[l], formulas[r]))
                                  for l in es for r in et}
                    require("pairing-closure", (s, t), compound, needed)

    truth: dict[int, bool] = {}

    def offenders(name: str, t: Term, have: frozenset[int], value: bool,
                  note: str) -> None:
        """Members of ``have`` evaluating to ``value`` violate ``name``."""
        rep = report(name)
        rep.checked += 1
        bad = []
        for i in have:
            if i not in truth:
                truth[i] = bool(evaluate(model, formulas[i]))
            if truth[i] == value:
                bad.append(formulas[i])
        for f in sorted(bad, key=formula_sort_key):
            rep.violations.append(Violation(name, (print_term(t),),
                                            print_formula(f), note))

    for t, have, _, _, _, _ in rows:
        if do_denial and _sign_admits(profile, t, NEGATIVE):
            offenders("denial-falsity", t, have, True,
                      "member evaluates true")
        if do_fact and _sign_admits(profile, t, POSITIVE):
            offenders("factivity-truth", t, have, False,
                      "member evaluates false")
        if do_intro and have and _sign_admits(profile, t, POSITIVE):
            bang = _compound(Bang, t)
            if bang is not None:
                needed = {intern(Just(t, formulas[i])) for i in have}
                if in_universe is not None:
                    needed &= in_universe
                require("introspection-closure", (t,), bang, needed)

    ordered = [reports[n] for n in ("application-closure", "sum-closure",
                                    "pairing-closure", "denial-falsity",
                                    "factivity-truth", "introspection-closure")
               if n in reports]
    return AuditReport(profile.name, ordered, warnings)


# ---------------------------------------------------------------------------
# documents


def model_to_dict(model: ModularModel) -> dict:
    doc: dict = {
        "profile": model.profile.name,
        "valuation": {name: bool(v) for name, v in sorted(model.valuation.items())},
        "interp": {
            print_term(t): [print_formula(f)
                            for f in sorted(fs, key=formula_sort_key)]
            for t in sorted(model.interp, key=term_sort_key)
            for fs in (model.interp[t],)
        },
        "provenance": model.provenance,
    }
    if model.formula_universe is not None:
        doc["formula_universe"] = [print_formula(f) for f in
                                   sorted(model.formula_universe, key=formula_sort_key)]
    return doc


def model_from_dict(doc: dict) -> ModularModel:
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be an object")
    try:
        profile = get_profile(doc.get("profile", "dl"))
    except KeyError as exc:
        raise ModelFormatError(str(exc)) from None
    valuation_doc = doc.get("valuation", {})
    if not isinstance(valuation_doc, dict):
        raise ModelFormatError("'valuation' must map variable names to booleans")
    valuation = {str(k): bool(v) for k, v in valuation_doc.items()}
    interp_doc = doc.get("interp", {})
    if not isinstance(interp_doc, dict):
        raise ModelFormatError("'interp' must map terms to formula lists")
    interp: dict[Term, frozenset[Formula]] = {}
    for term_text, formulas in interp_doc.items():
        try:
            term = parse_term(term_text, signed=profile.signed)
        except ValueError as exc:
            raise ModelFormatError(f"bad term {term_text!r}: {exc}") from None
        if not isinstance(formulas, list):
            raise ModelFormatError(f"evidence for {term_text!r} must be a list")
        parsed = []
        for ftext in formulas:
            try:
                parsed.append(parse_formula(str(ftext), signed=profile.signed))
            except ValueError as exc:
                raise ModelFormatError(f"bad formula {ftext!r}: {exc}") from None
        interp[term] = frozenset(parsed)
    universe = None
    if "formula_universe" in doc:
        texts = doc["formula_universe"]
        if not isinstance(texts, list):
            raise ModelFormatError("'formula_universe' must be a formula list")
        try:
            universe = frozenset(parse_formula(str(ftext),
                                               signed=profile.signed)
                                 for ftext in texts)
        except ValueError as exc:
            raise ModelFormatError(f"bad universe formula: {exc}") from None
    return ModularModel(profile, valuation, interp,
                        provenance=str(doc.get("provenance", "hand")),
                        formula_universe=universe)
