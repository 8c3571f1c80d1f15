"""Model evaluation, the closure audit, and the JSON round trip."""

import itertools
import re

import pytest

from dlk.logics import get_profile
from dlk.semantics import (
    ModelFormatError, ModularModel, audit, close_upward, closed_extension,
    default_universe, evaluate, model_from_dict, model_to_dict,
    occurring_terms, set_product,
)
from dlk.syntax import (
    And, App, Bang, Implies, Just, Not, Pair, PropVar, Sum, Var,
    parse_formula, parse_term, print_formula, print_term,
)

dl = get_profile("dl")
fused = get_profile("fused")
s, t = Var("s"), Var("t")


def fm(text, signed=False):
    return parse_formula(text, signed=signed)


# ---------------------------------------------------------------------------
# evaluation


def brute_eval(f, valuation, interp):
    """Truth by direct recursion -- the oracle for ``evaluate``."""
    if isinstance(f, PropVar):
        return valuation.get(f.name, False)
    if isinstance(f, Just):
        return f.body in interp.get(f.term, frozenset())
    if isinstance(f, Not):
        return not brute_eval(f.body, valuation, interp)
    if isinstance(f, And):
        return (brute_eval(f.left, valuation, interp)
                and brute_eval(f.right, valuation, interp))
    if isinstance(f, Or):
        return (brute_eval(f.left, valuation, interp)
                or brute_eval(f.right, valuation, interp))
    if isinstance(f, Implies):
        return ((not brute_eval(f.left, valuation, interp))
                or brute_eval(f.right, valuation, interp))
    return False     # Bottom


from dlk.syntax import Or  # noqa: E402  (used by the oracle above)


def test_evaluate_over_all_small_valuations():
    interp = {s: frozenset({fm("P"), fm("Q -> P")}), t: frozenset()}
    formulas = [fm(x) for x in (
        "P", "Q", "~P", "P /\\ Q", "P \\/ Q", "P -> Q", "_|_",
        "s:P", "s:(Q -> P)", "t:P", "~s:P", "s:P -> ~P",
        "s:P /\\ s:(Q -> P)",
    )]
    for bits in itertools.product((False, True), repeat=2):
        valuation = {"P": bits[0], "Q": bits[1]}
        model = ModularModel(dl, valuation, interp)
        for f in formulas:
            assert evaluate(model, f) == brute_eval(f, valuation, interp), \
                print_formula(f)


def test_justification_is_membership_not_truth():
    # t:F can hold while F is false -- that is the whole point
    model = ModularModel(dl, {"P": False}, {t: frozenset({fm("P")})})
    assert evaluate(model, fm("t:P"))
    assert not evaluate(model, fm("P"))
    assert evaluate(model, fm("t:P -> ~P"))


def test_set_operations():
    xs = frozenset({fm("P -> Q"), fm("P")})
    ys = frozenset({fm("P"), fm("R")})
    assert set_product(xs, ys) == frozenset({fm("Q")})


def test_close_upward_reaches_the_least_closure_in_one_pass():
    app, pair = App(s, t), Pair(s, t)
    outer = Sum(app, pair)
    members = {s: dict.fromkeys([fm("P -> Q"), fm("P")]),
               t: dict.fromkeys([fm("P")]), app: {}, pair: {}, outer: {}}
    terms = [s, t, app, pair, outer]
    added = close_upward(members, terms, dl,
                         [fm("P /\\ P"), fm("Q /\\ P")])
    assert added == [(app, fm("Q"), "app"), (pair, fm("P /\\ P"), "pair"),
                     (outer, fm("Q"), "sum"), (outer, fm("P /\\ P"), "sum")]
    assert close_upward(members, terms, dl, [fm("P /\\ P")]) == []
    # in jl pairs are left alone; in dl without a universe's
    # conjunctions, a pair takes every conjunction of its parts' members
    members[pair] = {}
    assert close_upward(members, terms, get_profile("jl")) == []
    assert close_upward(members, terms, dl) == [
        (pair, fm("(P -> Q) /\\ P"), "pair"), (pair, fm("P /\\ P"), "pair"),
        (outer, fm("(P -> Q) /\\ P"), "sum")]


def test_closed_extension_adds_what_the_parts_force():
    lp = get_profile("lp")
    interp = {s: frozenset({fm("P -> Q"), fm("P")}), t: frozenset({fm("P")})}
    app, pair, bang = App(s, t), Pair(s, t), Bang(t)
    outer = Sum(app, Var("u"))
    for profile, forced in (
            (dl, {app: {fm("Q")}, outer: {fm("Q")}, bang: set(),
                  pair: {fm("(P -> Q) /\\ P"), fm("P /\\ P")}}),
            (lp, {app: {fm("Q")}, outer: {fm("Q")}, bang: {fm("t:P")},
                  pair: set()})):
        model = ModularModel(profile, {}, dict(interp))
        closed = closed_extension(model, [outer, pair, bang])
        assert model.interp == interp
        for term, members in forced.items():
            assert closed.evidence(term) == members, print_term(term)
        assert closed.evidence(s) == interp[s]


# ---------------------------------------------------------------------------
# audit


def test_audit_clean_model():
    # sum and app closures satisfied by hand
    interp = {
        s: frozenset({fm("P")}),
        t: frozenset(),
        Sum(s, t): frozenset({fm("P")}),
        Sum(t, s): frozenset({fm("P")}),
        Sum(s, s): frozenset({fm("P")}),
        Sum(t, t): frozenset(),
        App(s, t): frozenset(), App(t, s): frozenset(),
        App(s, s): frozenset(), App(t, t): frozenset(),
        Pair(s, t): frozenset(), Pair(t, s): frozenset(),
        Pair(s, s): frozenset({fm("P /\\ P")}), Pair(t, t): frozenset(),
    }
    model = ModularModel(dl, {"P": False}, interp)
    report = audit(model)
    assert report.ok
    assert report.condition("sum-closure").checked > 0


def test_audit_flags_application_gap():
    model = ModularModel(dl, {}, {
        s: frozenset({fm("P -> Q")}),
        t: frozenset({fm("P")}),
        App(s, t): frozenset(),
    })
    report = audit(model)
    bad = report.condition("application-closure").violations
    assert len(bad) == 1
    assert bad[0].formula == "Q"
    assert not report.ok


def test_audit_flags_true_denial_evidence():
    # in DL every piece of evidence is grounds for denial, so a member
    # that evaluates true is a violation
    model = ModularModel(dl, {"P": True}, {s: frozenset({fm("P")})})
    report = audit(model)
    assert not report.condition("denial-falsity").ok


def test_audit_reports_missing_compounds_as_warnings():
    model = ModularModel(dl, {}, {s: frozenset({fm("P")})})
    report = audit(model)
    assert report.ok     # nothing to check at the one occurring term
    assert any("universe not closed" in w for w in report.warnings)


def test_audit_relative_to_formula_universe():
    # members demanded outside the universe a model was built over are
    # not held against it
    universe = frozenset({fm("P"), fm("Q")})
    model = ModularModel(
        dl, {}, {
            s: frozenset({fm("P -> Q")}),
            t: frozenset({fm("P")}),
            App(s, t): frozenset(),
        },
        provenance="built", formula_universe=universe)
    report = audit(model)
    # P -> Q is outside the universe, so the product demand {Q} stays:
    # Q *is* inside.  The violation survives.
    assert not report.condition("application-closure").ok
    smaller = ModularModel(
        dl, {}, dict(model.interp), provenance="built",
        formula_universe=frozenset({fm("P")}))
    assert audit(smaller).condition("application-closure").ok


def test_audit_signed_conditions():
    sp = Var("s", "+")
    tn = Var("t", "-")
    model = ModularModel(fused, {"P": True, "Q": False}, {
        sp: frozenset({fm("P")}),
        tn: frozenset({fm("Q")}),
    })
    report = audit(model)
    assert report.condition("factivity-truth").ok
    assert report.condition("denial-falsity").ok
    flipped = ModularModel(fused, {"P": False, "Q": True}, dict(model.interp))
    report = audit(flipped)
    assert not report.condition("factivity-truth").ok
    assert not report.condition("denial-falsity").ok


def test_audit_introspection():
    lp = get_profile("lp")
    c = parse_term("x")
    model = ModularModel(lp, {}, {
        c: frozenset({fm("P")}),
        Bang(c): frozenset(),
    })
    report = audit(model)
    bad = report.condition("introspection-closure").violations
    assert [v.formula for v in bad] == ["x:P"]


def test_default_universe_adds_depth_one_compounds():
    model = ModularModel(dl, {}, {s: frozenset({fm("P")})})
    uni = set(default_universe(model))
    assert {s, App(s, s), Sum(s, s), Pair(s, s)} <= uni
    assert occurring_terms(model) == [s]


def test_default_universe_respects_profile_ops():
    model = ModularModel(get_profile("dl0"), {}, {s: frozenset()})
    uni = set(default_universe(model))
    assert Pair(s, s) not in uni
    assert Sum(s, s) in uni


# ---------------------------------------------------------------------------
# files


def test_model_round_trip():
    model = ModularModel(dl, {"P": True, "Q": False}, {
        s: frozenset({fm("Q"), fm("Q -> Q")}),
        App(s, s): frozenset({fm("Q")}),
    })
    back = model_from_dict(model_to_dict(model))
    assert back.valuation == model.valuation
    assert back.interp == model.interp
    assert back.profile.name == "dl"


def test_model_round_trip_signed_and_universe():
    sp = Var("s", "+")
    model = ModularModel(fused, {"E": True},
                         {sp: frozenset({fm("E")})},
                         provenance="built",
                         formula_universe=frozenset({fm("E"), fm("~E")}))
    back = model_from_dict(model_to_dict(model))
    assert back.interp == model.interp
    assert back.formula_universe == model.formula_universe
    assert back.provenance == "built"


@pytest.mark.parametrize("doc", [
    [],
    {"profile": "nosuch"},
    {"profile": "dl", "interp": {"t": "P"}},
    {"profile": "dl", "interp": {"((": ["P"]}},
    {"profile": "dl", "interp": {"t": ["P ->"]}},
    {"profile": "dl", "valuation": ["P"]},
    {"profile": "dl", "valuation": {"P": "false"}},
    {"profile": "dl", "valuation": {"P": 1}},
    {"profile": "dl", "valuation": {"P": None}},
    {"profile": "dl", "interp": {"t": [True]}},
    {"profile": "dl", "interp": {"t": ["P", None]}},
    {"profile": "dl", "formula_universe": [False]},
    {"profile": "dl", "provenance": 7},
    {"profile": "dl", "provenance": None},
])
def test_model_format_errors(doc):
    with pytest.raises(ModelFormatError):
        model_from_dict(doc)


@pytest.mark.parametrize("doc, field", [
    ({"interp": {"t": [True, "P"]}}, "'t'"),
    ({"formula_universe": ["P", 0]}, "'formula_universe'"),
    ({"provenance": 7}, "'provenance'"),
])
def test_model_format_error_names_the_field(doc, field):
    with pytest.raises(ModelFormatError, match=field):
        model_from_dict(doc)


@pytest.mark.parametrize("name", ["p", "P /\\ Q", "", " P", "_|_", "x:P"])
def test_model_valuation_names_must_be_variables(name):
    with pytest.raises(ModelFormatError, match=re.escape(repr(name))):
        model_from_dict({"valuation": {name: True}})


def test_model_valuation_keeps_bracketed_names():
    model = model_from_dict({"valuation": {"X[s-:E]": True, "P": False}})
    assert model.valuation == {"X[s-:E]": True, "P": False}
    assert evaluate(model, fm("X[s-:E]"))


def test_model_format_error_names_the_variable():
    with pytest.raises(ModelFormatError, match="'Q'"):
        model_from_dict({"valuation": {"P": True, "Q": "false"}})


def test_model_rejects_two_spellings_of_one_term():
    doc = {"profile": "dl", "interp": {"[a.b]": ["P"], "[a . b]": []}}
    with pytest.raises(ModelFormatError) as err:
        model_from_dict(doc)
    assert "'[a.b]'" in str(err.value) and "'[a . b]'" in str(err.value)
    # distinct terms that print alike are not confused
    doc["interp"] = {"[a.b]": ["P"], "[b.a]": []}
    assert len(model_from_dict(doc).interp) == 2
