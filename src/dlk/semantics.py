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

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from itertools import product

from .logics import LogicProfile, get_profile
from .syntax import (
    NEGATIVE, POSITIVE,
    And, App, Bang, Bottom, Formula, Implies, Just, Not, Or, Pair, PropVar,
    ParseError, SignDisciplineError, Sum, Term, _FORMATS, _PARTS, _TERM_OPS,
    _parts, formula_sort_key, parse_term, parse_variable, print_formula,
    print_term, read_formulas, subterms, term_sign, term_sort_key,
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
    # one class test per node, the most frequent kinds first
    kind = type(f)
    if kind is PropVar:
        return model.valuation.get(f.name, False)
    if kind is Bottom:
        return False
    if kind is And:
        return evaluate(model, f.left) and evaluate(model, f.right)
    if kind is Not:
        return not evaluate(model, f.body)
    if kind is Or:
        return evaluate(model, f.left) or evaluate(model, f.right)
    if kind is Implies:
        return (not evaluate(model, f.left)) or evaluate(model, f.right)
    if kind is Just:
        return f.body in model.evidence(f.term)
    raise TypeError(f"cannot evaluate {f!r}")


def set_product(xs: frozenset[Formula], ys: frozenset[Formula]) -> frozenset[Formula]:
    """Application on evidence sets: conclusions of implications in xs
    whose antecedent lies in ys."""
    return frozenset(x.right for x in xs
                     if isinstance(x, Implies) and x.left in ys)


def _paired(conjunctions, xs, ys) -> list[And]:
    """Pairing on evidence sets: the conjunctions of a member of xs with
    one of ys; inside a formula universe, those of its ``conjunctions``."""
    if conjunctions is None:
        return [And(l, r) for l in xs for r in ys]
    return [c for c in conjunctions if c.left in xs and c.right in ys]


def _sign_admits(profile: LogicProfile, term: Term, wanted: str) -> bool:
    """In signed profiles a condition applies only to terms of its sign."""
    if not profile.signed:
        return True
    return term_sign(term) == wanted


def close_upward(members: dict[Term, dict[Formula, None]], terms,
                 profile: LogicProfile,
                 conjunctions=None) -> list[tuple[Term, Formula, str]]:
    """Close evidence sets upward under the profile's term operations.

    ``members`` maps every term in ``terms`` to an insertion-ordered set
    of formulas (a dict with None values) and is extended in place: sums
    absorb the members of their parts, applications the ``set_product``
    of their parts, pairs, when the profile has pairing, the ``_paired``
    conjunctions of their parts (a universe's ``conjunctions`` when
    given), and ``!t``, when the profile has introspection and admits
    ``t``, ``t:F`` for each member ``F`` of ``t``.  ``terms`` must hold
    every part of each of its compounds and list it first (ascending
    size does), so one pass reaches the least closure.  Returns the
    additions in order as (term, formula, rule) triples.
    """
    pairing = profile.has_schema("pairing")
    introspection = profile.has_schema("introspection")
    added: list[tuple[Term, Formula, str]] = []
    for t in terms:
        match t:
            case Sum(left, right):
                rule, new = "sum", [*members[left], *members[right]]
            case App(left, right):
                rule, new = "app", set_product(members[left], members[right])
            case Pair(left, right) if pairing:
                rule, new = "pair", _paired(conjunctions, members[left],
                                            members[right])
            case Bang(inner) if introspection \
                    and _sign_admits(profile, inner, POSITIVE):
                rule, new = "bang", [Just(inner, f) for f in members[inner]]
            case _:
                continue
        have = members[t]
        for f in new:
            if f not in have:
                have[f] = None
                added.append((t, f, rule))
    return added


def closed_extension(model: ModularModel, terms) -> ModularModel:
    """The model with the evidence of ``terms`` and of their parts made
    its least closure under the profile's term operations
    (``close_upward``).

    A bounded model leaves compounds outside its universe uninterpreted;
    judged here, such a term holds what its parts force.
    """
    # each term's subterms, every part before the compounds it builds
    order = list(dict.fromkeys(u for t in terms
                               for u in reversed(list(subterms(t)))))
    members = {t: dict.fromkeys(model.evidence(t)) for t in order}
    added = close_upward(members, order, model.profile)
    interp = dict(model.interp)
    for t in dict.fromkeys(t for t, _, _ in added):
        interp[t] = frozenset(members[t])
    return replace(model, interp=interp)


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
    out: set[Term | None] = set(base)
    for op in model.profile.term_ops:
        ctor, _ = _TERM_OPS[op]
        out.update(_compound(ctor, *parts)
                   for parts in product(base, repeat=len(_PARTS[ctor])))
    out.discard(None)
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


class AuditReport:
    """An audit's condition reports and universe-not-closed warnings.

    ``warnings`` may be given as a list or as a function of no arguments
    that gives the list; such a function is called once, on the first
    read, so a caller that reads only ``ok`` and the conditions never
    has the warnings formatted.
    """

    def __init__(self, profile: str, conditions: list[ConditionReport],
                 warnings: list[str] | Callable[[], list[str]] = list):
        self.profile = profile
        self.conditions = conditions
        self._warnings = warnings

    @property
    def warnings(self) -> list[str]:
        if callable(self._warnings):
            self._warnings = self._warnings()
        return self._warnings

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


def _compound(ctor, *parts) -> Term | None:
    """The compound term, or None where the sign discipline forbids it."""
    try:
        return ctor(*parts)
    except SignDisciplineError:
        return None


def _missing(ctor, name: str) -> tuple[str, ...]:
    """The warning on a missing compound, split around its parts' prints
    (a term format never parenthesises a part)."""
    head, *rest = _FORMATS[ctor][0].split("{}")
    rest[-1] += f" is missing ({name} has members to check there)"
    return ("universe not closed: " + head, *rest)


_MISSING = {ctor: _missing(ctor, name) for ctor, name in (
    (App, "application-closure"), (Sum, "sum-closure"),
    (Pair, "pairing-closure"), (Bang, "introspection-closure"))}


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

    The work follows the universe's own compounds and distinct evidence,
    not its term pairs.  Terms with equal evidence sets share one
    numbered row, holding the set and its cut to the formula universe;
    what a check requires of a pair of rows is computed once, by the
    rules ``close_upward`` builds with: ``set_product`` for application,
    ``_paired`` for pairing (over the universe's conjunctions, gathered
    on the first pairing need).  The work splits three ways:

    - violations come from one walk over the universe's compounds whose
      parts are universe terms, keyed by constructor and the parts'
      numbers, each at every listing of its parts in listing order;
    - ``checked`` counts come from counting terms by class (sign, and
      evidence empty or not), since the sign rule that decides whether
      a compound exists reads only its parts' signs;
    - warnings are formatted on the first read of the report's
      ``warnings``, by a walk over the pairs of distinct universe terms
      that reads only the rows, sets and prints the audit holds, never
      the model.

    The conditions, ``checked`` counts and order of violations and
    warnings are those of a check of every ordered pair of terms.
    """
    profile = model.profile
    universe = model.formula_universe
    terms = term_universe if term_universe is not None else occurring_terms(model)

    # the conditions of this profile; each holds jl's application and sum
    do_pair = profile.has_schema("pairing")
    do_denial = profile.has_schema("denial")
    do_fact = profile.has_schema("factivity")
    do_intro = (profile.has_schema("introspection")
                and any(isinstance(t, Bang) for t in terms))

    reports = {name: ConditionReport(name)
               for name, enabled in (("application-closure", True),
                                     ("sum-closure", True),
                                     ("pairing-closure", do_pair),
                                     ("denial-falsity", do_denial),
                                     ("factivity-truth", do_fact),
                                     ("introspection-closure", do_intro))
               if enabled}

    def inside(fs: frozenset[Formula]) -> frozenset[Formula]:
        """The members of ``fs`` the formula universe admits."""
        return fs if universe is None else fs & universe

    # universe terms by number (an equal term given twice counts once),
    # printed on first need
    number = {t: n for n, t in enumerate(terms)}
    prints: list[str | None] = [None] * len(terms)

    def shown(n: int) -> str:
        text = prints[n]
        if text is None:
            text = prints[n] = print_term(terms[n])
        return text

    # one row per distinct evidence set, numbered in order of first use
    row_of: dict[frozenset[Formula], int] = {}
    sets: list[frozenset[Formula]] = []
    term_rows: list[tuple[Term, int, int]] = []
    for t in terms:
        members = model.evidence(t)
        k = row_of.get(members)
        if k is None:
            k = row_of[members] = len(sets)
            sets.append(members)
        term_rows.append((t, number[t], k))
    cut = [inside(members) for members in sets]

    # what application and pairing require of a pair of rows, by the
    # rows' numbers, each computed once; the universe's conjunctions are
    # gathered on the first pairing need
    applied: dict[tuple[int, int], frozenset[Formula]] = {}
    paired: dict[tuple[int, int], frozenset[Formula]] = {}
    conjunctions: list[And] | None = None

    def application(ks: int, kt: int) -> frozenset[Formula]:
        needed = applied.get((ks, kt))
        if needed is None:
            needed = applied[ks, kt] = inside(set_product(sets[ks], sets[kt]))
        return needed

    def pairing(ks: int, kt: int) -> frozenset[Formula]:
        nonlocal conjunctions
        needed = paired.get((ks, kt))
        if needed is None:
            if conjunctions is None and universe is not None:
                conjunctions = [f for f in universe if isinstance(f, And)]
            needed = paired[ks, kt] = frozenset(
                _paired(conjunctions, sets[ks], sets[kt]))
        return needed

    # the universe's compounds over universe terms, by (constructor, the
    # parts' numbers), to their own number and row
    compounds: dict[tuple, tuple[int, int]] = {}
    for t, n, k in term_rows:
        parts = _parts(t)
        if parts and all(p in number for p in parts):
            compounds[(type(t), *(number[p] for p in parts))] = n, k
    gaps: dict[tuple, list[str]] = {}

    def violated(need: tuple, hit: tuple[int, int], parts: tuple[int, ...],
                 required: frozenset[Formula]) -> None:
        """Report at ``parts`` what ``hit`` misses of ``required``, as ``need[0]``."""
        nc, k = hit
        gap = gaps.get((need, k))
        if gap is None:
            gap = gaps[need, k] = [print_formula(f) for f in sorted(
                required - sets[k], key=formula_sort_key)]
        if gap:
            where = (*map(shown, parts), shown(nc))
            reports[need[0]].violations.extend(
                Violation(need[0], where, text) for text in gap)

    # violations: each two-part compound at every pair of its parts'
    # listings, in the order of a walk over the ordered pairs of listings
    listed: dict[int, list[int]] = {}
    for i, (_, n, _) in enumerate(term_rows):
        listed.setdefault(n, []).append(i)
    walk = sorted(((i, j, key, hit) for key, hit in compounds.items()
                   if len(key) == 3
                   for i in listed[key[1]] for j in listed[key[2]]),
                  key=lambda step: step[:2])
    for _, _, (ctor, ns, nt), hit in walk:
        ks, kt = term_rows[ns][2], term_rows[nt][2]
        if not (sets[ks] or sets[kt]):
            continue
        if ctor is App:
            if needed := application(ks, kt):
                violated(("application-closure", ks, kt), hit, (ns, nt),
                         needed)
        elif ctor is Sum:
            # each part is reported on its own
            violated(("sum-closure", ks), hit, (ns,), cut[ks])
            violated(("sum-closure", kt), hit, (nt,), cut[kt])
        elif (do_pair and sets[ks] and sets[kt]
                and (needed := pairing(ks, kt))):
            violated(("pairing-closure", ks, kt), hit, (ns, nt), needed)

    # only signed terms can break the sign discipline, and whether one
    # does reads only the parts' signs: the pair checks are counted over
    # classes of (sign, evidence or none), one listed term standing for each
    signed = profile.signed or any(map(term_sign, terms))
    classes: dict[tuple, list] = {}
    for t, _, k in term_rows:
        cls = (signed and term_sign(t), bool(sets[k]))
        if cls in classes:
            classes[cls][1] += 1
        else:
            classes[cls] = [t, 1]
    apps = sums = pairs = intros = 0
    for (_, full_s), (s, count_s) in classes.items():
        for (_, full_t), (t, count_t) in classes.items():
            if not (full_s or full_t):
                continue
            both = count_s * count_t
            if not signed or _compound(App, s, t) is not None:
                apps += both
            if not signed or _compound(Sum, s, t) is not None:
                sums += 2 * both
            if (do_pair and full_s and full_t
                    and (not signed or _compound(Pair, s, t) is not None)):
                pairs += both
        if (do_intro and full_s and _sign_admits(profile, s, POSITIVE)
                and (not signed or _compound(Bang, s) is not None)):
            intros += count_s

    truth: dict[Formula, bool] = {}
    offending: dict[tuple[int, bool], list[str]] = {}

    def offenders(name: str, n: int, k: int, value: bool,
                  note: str) -> None:
        """Members of row ``k`` evaluating to ``value`` violate ``name``."""
        rep = reports[name]
        rep.checked += 1
        bad = offending.get((k, value))
        if bad is None:
            found = []
            for f in sets[k]:
                if f not in truth:
                    truth[f] = bool(evaluate(model, f))
                if truth[f] == value:
                    found.append(f)
            bad = offending[k, value] = [
                print_formula(f) for f in sorted(found, key=formula_sort_key)]
        if bad:
            where = (shown(n),)
            rep.violations.extend(Violation(name, where, text, note)
                                  for text in bad)

    def introspected(t: Term, k: int) -> frozenset[Formula]:
        return inside(frozenset(Just(t, f) for f in sets[k]))

    for t, n, k in term_rows:
        if do_denial and _sign_admits(profile, t, NEGATIVE):
            offenders("denial-falsity", n, k, True, "member evaluates true")
        if do_fact and _sign_admits(profile, t, POSITIVE):
            offenders("factivity-truth", n, k, False, "member evaluates false")
        if (do_intro and sets[k]
                and (hit := compounds.get((Bang, n))) is not None
                and _sign_admits(profile, t, POSITIVE)):
            violated(("introspection-closure", n), hit, (n,),
                     introspected(t, k))

    for name, count in (("application-closure", apps), ("sum-closure", sums),
                        ("pairing-closure", pairs), ("introspection-closure", intros)):
        if count:
            reports[name].checked = count

    def warnings() -> list[str]:
        """One warning per compound outside the universe that a pair of
        universe terms, or one term, requires members of.  A walk over
        the distinct terms in order of first listing meets each where a
        walk over every pair of listings first does."""
        app0, app1, app2 = _MISSING[App]
        sum0, sum1, sum2 = _MISSING[Sum]
        pair0, pair1, pair2 = _MISSING[Pair]
        bang0, bang1 = _MISSING[Bang]
        distinct = list(dict.fromkeys(term_rows))
        out: list[str] = []
        for s, ns, ks in distinct:
            es = sets[ks]
            for t, nt, kt in distinct:
                et = sets[kt]
                if not (es or et):
                    continue
                if ((App, ns, nt) not in compounds
                        and (not signed or _compound(App, s, t) is not None)
                        and application(ks, kt)):
                    out.append(app0 + shown(ns) + app1 + shown(nt) + app2)
                if ((Sum, ns, nt) not in compounds and (cut[ks] or cut[kt])
                        and (not signed or _compound(Sum, s, t) is not None)):
                    out.append(sum0 + shown(ns) + sum1 + shown(nt) + sum2)
                if (do_pair and es and et and (Pair, ns, nt) not in compounds
                        and (not signed or _compound(Pair, s, t) is not None)
                        and pairing(ks, kt)):
                    out.append(pair0 + shown(ns) + pair1 + shown(nt) + pair2)
        for t, n, k in distinct:
            if (do_intro and sets[k] and (Bang, n) not in compounds
                    and _sign_admits(profile, t, POSITIVE)
                    and (not signed or _compound(Bang, t) is not None)
                    and introspected(t, k)):
                out.append(bang0 + shown(n) + bang1)
        return out

    return AuditReport(profile.name, list(reports.values()), warnings)


# ---------------------------------------------------------------------------
# documents


def model_to_dict(model: ModularModel) -> dict:
    """The model as a JSON document: members and universe in sort key
    order.  Each distinct formula is keyed and printed once, and each
    term's members are sorted by their rank among all of them."""
    universe = model.formula_universe
    named = set().union(*model.interp.values())
    if universe is not None:
        named |= universe
    ranked = sorted(named, key=formula_sort_key)
    rank = {f: i for i, f in enumerate(ranked)}
    texts = [print_formula(f) for f in ranked]
    doc: dict = {
        "profile": model.profile.name,
        "valuation": {name: bool(v) for name, v in sorted(model.valuation.items())},
        "interp": {
            print_term(t): [texts[i] for i in sorted(map(rank.__getitem__,
                                                         model.interp[t]))]
            for t in sorted(model.interp, key=term_sort_key)
        },
        "provenance": model.provenance,
    }
    if universe is not None:
        doc["formula_universe"] = [text for f, text in zip(ranked, texts)
                                   if f in universe]
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
    for name, value in valuation_doc.items():
        try:
            parse_variable(name)
        except ParseError:
            raise ModelFormatError(f"valuation name {name!r} is not a "
                                   f"propositional variable") from None
        if not isinstance(value, bool):
            raise ModelFormatError(f"value of variable {name!r} must be "
                                   f"true or false, not {value!r}")
    valuation = dict(valuation_doc)
    interp_doc = doc.get("interp", {})
    if not isinstance(interp_doc, dict):
        raise ModelFormatError("'interp' must map terms to formula lists")
    interp: dict[Term, frozenset[Formula]] = {}
    spelled: dict[Term, str] = {}
    for term_text, formulas in interp_doc.items():
        try:
            term = parse_term(term_text, signed=profile.signed)
        except ValueError as exc:
            raise ModelFormatError(f"bad term {term_text!r}: {exc}") from None
        if term in spelled:
            raise ModelFormatError(f"terms {spelled[term]!r} and "
                                   f"{term_text!r} are the same term")
        spelled[term] = term_text
        interp[term] = frozenset(read_formulas(
            formulas, profile.signed, f"evidence for {term_text!r}",
            ModelFormatError))
    universe = None
    if "formula_universe" in doc:
        universe = frozenset(read_formulas(
            doc["formula_universe"], profile.signed, "'formula_universe'",
            ModelFormatError))
    provenance = doc.get("provenance", "hand")
    if not isinstance(provenance, str):
        raise ModelFormatError(f"'provenance' must be a string, "
                               f"not {provenance!r}")
    return ModularModel(profile, valuation, interp, provenance=provenance,
                        formula_universe=universe)
