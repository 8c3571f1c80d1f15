"""The id-based ``semantics.audit`` against the pair-loop audit it
replaced, kept here as a naive reference that reads the application and
pairing rules from ``evidence_rules.py``, not from ``dlk.semantics``:
both must give the same report, condition by condition, violation by
violation and warning by warning, on seeded random hand-written models
in every profile and on random built models.  The same hand-written
models close as the recursive ``closed_extension`` in ``interpreted``
closed them."""

import copy
import random
from itertools import product

from hypothesis import given, settings

from dlk import semantics
from dlk.builder import FUNCTIONALS, BuildParams, build
from dlk.logics import PROFILES
from dlk.semantics import (
    AuditReport, ConditionReport, ModularModel, Violation, _sign_admits,
    audit, closed_extension, default_universe, evaluate, occurring_terms,
)
from dlk.syntax import (
    NEGATIVE, POSITIVE, Alphabet, App, Bang, Const, Just, Pair,
    SignDisciplineError, Sum, Term, Var, _PARTS, _TERM_OPS, _parts,
    formula_sort_key, parse_formula, parse_term, print_formula, print_term,
)

import interpreted
from builds import random_builds
from evidence_rules import applied, paired
from hand_models import POOLS, hand_model


# ---------------------------------------------------------------------------
# the reference: the audit as it was before formula ids


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
                            applied(es, et))
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
                    require("pairing-closure", (s, t), pair,
                            paired(es, et, universe))

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


UNIVERSES = {"occurring": occurring_terms, "default": default_universe,
             "implicit": lambda model: None}


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


# ---------------------------------------------------------------------------
# shared evidence sets, sign discipline and warning texts


def _same_report(model, terms=None) -> dict:
    got = audit(model, terms).as_dict()
    assert got == naive_audit(model, terms).as_dict()
    return got


def _with_interp(model: ModularModel, interp) -> ModularModel:
    return ModularModel(model.profile, model.valuation, interp,
                        model.provenance, model.formula_universe)


def test_terms_sharing_one_evidence_set_audit_as_the_reference_does():
    """Built models give many terms one evidence set: as one frozenset
    object, as equal copies (formulas copied too) or as built."""
    for name, functional, leaves in (
            ("dl", "const-one", ("x", "y")), ("dl0", "const-one", ("x", "y")),
            ("dl", "plus-syntactic", ("x", "y")),
            ("dl0", "plus-syntactic", ("x", "y")), ("dl", "const-one", ("x",))):
        model, _ = build(BuildParams(
            PROFILES[name], Alphabet(("P", "Q"), leaves, ()), 4, 3,
            FUNCTIONALS[functional](), seed={"P": True}))
        distinct = set(model.interp.values())
        assert len(distinct) <= len(model.interp) // 2
        one = {fs: fs for fs in distinct}
        shared = {t: one[fs] for t, fs in model.interp.items()}
        copies = {t: frozenset(copy.deepcopy(sorted(fs, key=formula_sort_key)))
                  for t, fs in model.interp.items()}
        over = default_universe(model) if len(leaves) == 1 else None
        want = _same_report(model, over)
        assert sum(c["checked"] for c in want["conditions"])
        for interp in (shared, copies):
            assert _same_report(_with_interp(model, interp), over) == want


def test_a_universe_listing_terms_twice_audits_as_the_reference_does():
    """A term universe may list a term twice, here its first five terms
    again: each listing is checked, and a missing compound is still
    named in one warning."""
    rng = random.Random(20241020)
    warnings = 0
    for _ in range(60):
        for name in sorted(PROFILES):
            model = hand_model(rng, name)
            terms = default_universe(model)
            got = _same_report(model, terms + terms[:5])
            assert len(set(got["warnings"])) == len(got["warnings"])
            warnings += len(got["warnings"])
    assert warnings


SIGNED_LEAVES = [parse_term(text, signed=True)
                 for text in ("s+", "t+", "u-", "v-")]


def test_shuffled_universes_with_repeats_audit_as_the_reference_does():
    """Universes listed out of enumeration order, some terms twice, and
    in every profile two signed leaves with evidence among the terms:
    violations follow the listing positions of a compound's parts, not
    the terms' order, and ``checked`` counts follow the terms' signs."""
    rng = random.Random(20261021)
    violations: dict[str, int] = {}
    for _ in range(20):
        for name in sorted(PROFILES):
            model = hand_model(rng, name)
            short = POOLS[name][1][:len(POOLS[name][1]) // 3]
            interp = dict(model.interp)
            for leaf in rng.sample(SIGNED_LEAVES, 2):
                interp[leaf] = frozenset(rng.sample(short, rng.randint(1, 4)))
            model = _with_interp(model, interp)
            terms = default_universe(model)
            terms += rng.sample(terms, min(6, len(terms)))
            rng.shuffle(terms)
            got = _same_report(model, terms)
            for c in got["conditions"]:
                violations[c["name"]] = (violations.get(c["name"], 0)
                                         + len(c["violations"]))
    assert all(violations.get(n) for n in (
        "application-closure", "sum-closure", "pairing-closure",
        "denial-falsity", "factivity-truth", "introspection-closure"))


def test_warnings_are_formatted_on_first_read(monkeypatch):
    """A built model's audit prints no term until its warnings are read;
    they are formatted once, and both reads give the reference's list."""
    model, _ = build(BuildParams(
        PROFILES["dl"], Alphabet(("P",), ("x", "y"), ()), 5, 3,
        FUNCTIONALS["const-one"](), seed={"P": True}))
    printed = []

    def counted(term):
        printed.append(term)
        return print_term(term)
    monkeypatch.setattr(semantics, "print_term", counted)
    report = audit(model)
    assert report.ok and sum(c.checked for c in report.conditions)
    assert not printed
    first = report.warnings
    assert first == naive_audit(model).warnings
    formatted = len(printed)
    assert formatted
    assert report.warnings == first and report.as_dict()["warnings"] == first
    assert len(printed) == formatted


def test_const_zero_model_with_a_universe_audits_as_the_reference_does():
    for name in ("dl", "dl0"):
        model, _ = build(BuildParams(
            PROFILES[name], Alphabet(("P", "Q"), ("x",), ()), 4, 3,
            FUNCTIONALS["const-zero"]()))
        assert model.formula_universe and not any(model.interp.values())
        for terms in (None, default_universe(model)):
            got = _same_report(model, terms)
            assert got["ok"] and not got["warnings"]


def test_sign_discipline_skips_checks_as_the_reference_does():
    """In fused, and in an unsigned profile given signed terms, the pairs
    whose compound the sign discipline forbids are not checked."""
    terms = {text: parse_term(text, signed=True)
             for text in ("s+", "t+", "u-", "v-", "[s+.t+]", "!s+",
                          "[u- & v-]", "[u-+v-]")}
    terms["w"] = Var("w")
    evidence = {
        "s+": ["E", "E -> F", "t+:E"], "t+": ["E", "F"], "u-": ["G", "~E"],
        "v-": ["G -> E", "~E"], "[s+.t+]": ["F"], "[u- & v-]": ["G /\\ ~E"],
        "w": ["E"]}
    interp = {terms[k]: frozenset(parse_formula(f, signed=True) for f in fs)
              for k, fs in evidence.items()}
    for name in ("fused", "dl", "lp"):
        for universe in (None, frozenset(parse_formula(f, signed=True) for f in
                                         ("E", "F", "G /\\ ~E", "~E"))):
            model = ModularModel(PROFILES[name], {"E": True}, interp,
                                 formula_universe=universe)
            for over in (occurring_terms(model), default_universe(model),
                         list(terms.values())):
                got = _same_report(model, over)
                pairs = sum(1 for s in over for t in over
                            if model.evidence(s) or model.evidence(t))
                checked = {c["name"]: c["checked"] for c in got["conditions"]}
                if "application-closure" in checked:
                    assert checked["application-closure"] < pairs


def test_warnings_print_nested_compounds_as_print_term_does():
    """Every compound kind, over compound parts, is named in a warning
    exactly as ``print_term`` prints the built compound."""
    seen = set()
    for name, evidence in (
            ("dl", {"[a.b]": ["P -> Q", "P"], "[[a+b] & c]": ["P", "Q"]}),
            ("lp", {"[!a.b]": ["P -> Q", "P"], "[a+!b]": ["Q"]})):
        profile = PROFILES[name]
        model = ModularModel(profile, {}, {
            parse_term(t): frozenset(map(parse_formula, fs))
            for t, fs in evidence.items()})
        terms = occurring_terms(model)
        got = _same_report(model, terms)
        built = {}
        for op in profile.term_ops:
            ctor, _ = _TERM_OPS[op]
            for parts in product(terms, repeat=len(_PARTS[ctor])):
                compound = ctor(*parts)
                built[print_term(compound)] = compound
        for text in got["warnings"]:
            key = text.removeprefix("universe not closed: ").split(" is ")[0]
            compound = built[key]
            if any(not isinstance(p, (Const, Var)) for p in _parts(compound)):
                seen.add(type(compound))
    assert seen == {App, Sum, Pair, Bang}


# ---------------------------------------------------------------------------
# closed extensions


def test_closed_extensions_close_as_the_recursive_reference_does():
    """Hand models of every profile, closed over their default universe
    and a sample of the pool's terms up to size 3, get the
    interpretation the recursive ``closed_extension`` gives them, and
    every rule adds members somewhere."""
    rng = random.Random(20261020)
    grown = set()
    for _ in range(40):
        for name in sorted(PROFILES):
            model = hand_model(rng, name)
            pool = POOLS[name][0]
            terms = (default_universe(model)
                     + rng.sample(pool, min(20, len(pool))))
            got = closed_extension(model, terms)
            assert (got.interp
                    == interpreted.closed_extension(model, terms).interp)
            grown |= {type(t) for t, fs in got.interp.items()
                      if fs != model.evidence(t)}
    assert grown == {App, Sum, Pair, Bang}
