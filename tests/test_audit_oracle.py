"""The id-based ``semantics.audit`` against the pair-loop audit it
replaced, kept here verbatim as a naive reference: both must give the
same report, condition by condition, violation by violation and warning
by warning, on seeded random hand-written models in every profile and
on random built models."""

import random

from hypothesis import given, settings

from dlk.builder import build
from dlk.logics import PROFILES, LogicProfile
from dlk.semantics import (
    AuditReport, ConditionReport, ModularModel, Violation, _paired,
    _sign_admits, audit, close_upward, default_universe, evaluate,
    occurring_terms, set_product,
)
from dlk.syntax import (
    NEGATIVE, POSITIVE, Alphabet, And, App, Bang, Just, Pair,
    SignDisciplineError, Sum, Term, enumerate_formulas, enumerate_terms,
    formula_sort_key, print_formula, print_term,
)

from test_builder import random_builds


# ---------------------------------------------------------------------------
# the reference: the audit as it was before formula ids


def set_pairing(xs, ys):
    """Pairing on evidence sets: all conjunctions across the two sets."""
    return frozenset(And(x, y) for x in xs for y in ys)


def naive_audit(model: ModularModel,
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
    """
    profile = model.profile
    universe = model.formula_universe
    bounded = universe is not None
    terms = term_universe if term_universe is not None else occurring_terms(model)
    term_set = set(terms)
    warnings: list[str] = []
    not_closed: set[str] = set()
    universe_conjunctions: list[And] | None = None
    if bounded:
        universe_conjunctions = [f for f in universe if isinstance(f, And)]

    reports: dict[str, ConditionReport] = {}

    def report(name: str) -> ConditionReport:
        if name not in reports:
            reports[name] = ConditionReport(name)
        return reports[name]

    def require(name: str, parts: tuple[Term, ...], compound: Term,
                required) -> None:
        """required ⊆ evidence(compound), relative to the universes."""
        rep = report(name)
        rep.checked += 1
        if bounded:
            required = [f for f in required if f in universe]
        if not required:
            return
        if compound not in term_set:
            key = print_term(compound)
            if key not in not_closed:
                not_closed.add(key)
                warnings.append(f"universe not closed: {key} is missing "
                                f"({name} has members to check there)")
            return
        have = model.evidence(compound)
        parts_printed = tuple(print_term(p) for p in parts)
        for f in sorted((g for g in required if g not in have),
                        key=formula_sort_key):
            rep.violations.append(Violation(
                name, parts_printed + (print_term(compound),),
                print_formula(f)))

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

    for s in terms:
        es = model.evidence(s)
        for t in terms:
            et = model.evidence(t)
            if do_app and (es or et):
                try:
                    require("application-closure", (s, t), App(s, t),
                            set_product(es, et))
                except SignDisciplineError:
                    pass
            if do_sum and (es or et):
                try:
                    compound = Sum(s, t)
                except SignDisciplineError:
                    compound = None
                if compound is not None:
                    # each part is reported on its own
                    require("sum-closure", (s,), compound, es)
                    require("sum-closure", (t,), compound, et)
            if do_pair and es and et:
                try:
                    pair = Pair(s, t)
                except SignDisciplineError:
                    pair = None
                if pair is not None:
                    if universe_conjunctions is not None:
                        needed = _paired(universe_conjunctions, es, et)
                    else:
                        needed = set_pairing(es, et)
                    require("pairing-closure", (s, t), pair, needed)

    for t in terms:
        ev = model.evidence(t)
        if do_denial and _sign_admits(profile, t, NEGATIVE):
            rep = report("denial-falsity")
            rep.checked += 1
            for f in sorted(ev, key=formula_sort_key):
                if evaluate(model, f):
                    rep.violations.append(Violation(
                        "denial-falsity", (print_term(t),), print_formula(f),
                        "member evaluates true"))
        if do_fact and _sign_admits(profile, t, POSITIVE):
            rep = report("factivity-truth")
            rep.checked += 1
            for f in sorted(ev, key=formula_sort_key):
                if not evaluate(model, f):
                    rep.violations.append(Violation(
                        "factivity-truth", (print_term(t),), print_formula(f),
                        "member evaluates false"))
        if do_intro and ev and _sign_admits(profile, t, POSITIVE):
            try:
                bang = Bang(t)
            except SignDisciplineError:
                bang = None
            if bang is not None:
                require("introspection-closure", (t,), bang,
                        [Just(t, f) for f in ev])

    ordered = [reports[n] for n in ("application-closure", "sum-closure",
                                    "pairing-closure", "denial-falsity",
                                    "factivity-truth", "introspection-closure")
               if n in reports]
    return AuditReport(profile.name, ordered, warnings)


# ---------------------------------------------------------------------------
# seeded hand-written models


def _pools(profile: LogicProfile):
    alphabet = Alphabet(("P", "Q"), ("x", "y"), (), signed=profile.signed)
    terms = enumerate_terms(alphabet, 3, profile.term_ops)
    formulas = enumerate_formulas(alphabet, 4, terms=terms,
                                  term_ops=profile.term_ops)
    return terms, formulas


POOLS = {name: _pools(p) for name, p in PROFILES.items()}
UNIVERSES = {"occurring": occurring_terms, "default": default_universe,
             "implicit": lambda model: None}


def hand_model(rng: random.Random, name: str) -> ModularModel:
    """A few terms with small evidence sets drawn from short formulas (so
    implications meet their antecedents and conjunctions their sides),
    a random valuation, and no universe, the whole formula pool or a
    random part of it.  Half the models are closed upward first, so
    clean compounds sit beside violating ones."""
    profile = PROFILES[name]
    terms, formulas = POOLS[name]
    short = formulas[:len(formulas) // 3]
    interp = {t: frozenset(rng.sample(short, rng.randint(0, 6)))
              for t in rng.sample(terms, rng.randint(1, 5))}
    universe = rng.choice((None, frozenset(formulas),
                           frozenset(rng.sample(formulas, 40))))
    if rng.random() < 0.5:
        model = ModularModel(profile, {}, interp)
        over = occurring_terms(model)
        members = {t: dict.fromkeys(interp.get(t, ())) for t in over}
        conjunctions = None
        if universe is not None and profile.has_schema("pairing"):
            conjunctions = [f for f in universe if isinstance(f, And)]
        close_upward(members, over, conjunctions)
        interp = {t: frozenset(fs) for t, fs in members.items()}
    valuation = {"P": rng.random() < 0.5, "Q": rng.random() < 0.5}
    return ModularModel(profile, valuation, interp,
                        formula_universe=universe)


def test_hand_written_models_audit_as_the_reference_does():
    rng = random.Random(20240601)
    violations: dict[str, int] = {}
    warnings = 0
    for _ in range(30):
        for name in sorted(PROFILES):
            model = hand_model(rng, name)
            for universe in UNIVERSES.values():
                terms = universe(model)
                got = audit(model, terms).as_dict()
                assert got == naive_audit(model, terms).as_dict()
                for c in got["conditions"]:
                    violations[c["name"]] = (violations.get(c["name"], 0)
                                             + len(c["violations"]))
                warnings += len(got["warnings"])
    # the corpus exercises every condition and the not-closed warnings
    assert all(violations.get(n) for n in (
        "application-closure", "sum-closure", "pairing-closure",
        "denial-falsity", "factivity-truth", "introspection-closure"))
    assert warnings


@given(random_builds())
@settings(max_examples=100, deadline=None)
def test_built_models_audit_as_the_reference_does(params):
    model, _ = build(params)
    assert audit(model).as_dict() == naive_audit(model).as_dict()
