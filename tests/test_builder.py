"""Staged model construction: functionals, realization, traces, errors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlk import (
    Alphabet,
    And,
    BoundsError,
    BuildError,
    BuildParams,
    ConstOne,
    ConstZero,
    Just,
    Pair,
    PlusSyntactic,
    RealizationError,
    RuleTable,
    SpecDriven,
    Sum,
    audit,
    build,
    enumerate_formulas,
    enumerate_terms,
    evaluate,
    get_profile,
    parse_formula,
    parse_term,
    realize_spec,
)
from dlk.builder import FUNCTIONALS

dl = get_profile("dl")
dl0 = get_profile("dl0")

fm = parse_formula
tm = parse_term


def small_params(functional, seed=None, fm_size=3, tm_size=2, trace=False):
    alphabet = Alphabet(("P", "Q"), ("x", "y"), ())
    return BuildParams(dl, alphabet, fm_size, tm_size, functional,
                       seed=seed or {}, trace=trace)


# ---------------------------------------------------------------------------
# the stock functionals


def test_const_zero_builds_the_empty_interpretation():
    model, trace = build(small_params(ConstZero()))
    assert trace is None
    assert all(not members for members in model.interp.values())
    terms = enumerate_terms(Alphabet(("P", "Q"), ("x", "y"), ()), 2,
                            dl.term_ops)
    assert set(model.interp) == set(terms)
    assert audit(model, term_universe=terms).ok


def test_const_zero_falsifies_every_justified_formula():
    model, _ = build(small_params(ConstZero(), seed={"P": True}))
    assert evaluate(model, fm("P"))
    assert not evaluate(model, fm("x:Q"))
    assert not evaluate(model, fm("[x+y]:(P /\\ Q)"))


def test_const_one_collects_exactly_the_false_formulas():
    # with the always-firing functional, membership and falsity coincide,
    # so the finished model is its own oracle
    params = small_params(ConstOne(), seed={"P": True, "Q": False})
    model, _ = build(params)
    alphabet = Alphabet(("P", "Q"), ("x", "y"), ())
    terms = enumerate_terms(alphabet, 2, dl.term_ops)
    formulas = enumerate_formulas(alphabet, 3, terms=terms,
                                  term_ops=dl.term_ops)
    false_set = {f for f in formulas if not evaluate(model, f)}
    for t in terms:
        assert model.interp[t] == false_set
    assert audit(model, term_universe=terms).ok


def test_plus_syntactic_splits_sums_from_their_parts():
    model, _ = build(small_params(PlusSyntactic(), seed={"P": False},
                                  fm_size=2, tm_size=3))
    # the sum holds evidence against P, neither part does
    assert evaluate(model, fm("[x+y]:P"))
    assert not evaluate(model, fm("x:P"))
    assert not evaluate(model, fm("y:P"))
    assert not evaluate(model, fm("[x+y]:P -> (x:P \\/ y:P)"))


def test_spec_driven_fires_only_at_listed_positions():
    functional = SpecDriven([fm("x:P"), fm("y:Q")])
    assert functional.fires({}, fm("P"), tm("x"))
    assert not functional.fires({}, fm("P"), tm("y"))
    assert not functional.fires({}, fm("Q"), tm("x"))
    assert functional.spray_targets({}, fm("P")) == (tm("x"),)
    assert functional.spray_targets({}, fm("P /\\ Q")) == ()


def test_spec_driven_rejects_unjustified_entries():
    with pytest.raises(BuildError):
        SpecDriven([fm("P -> Q")])


def test_rule_table_first_match_wins():
    table = RuleTable([("e1", "*", False), ("*", "*", True)])
    assert not table.fires({}, fm("R"), tm("e1"))
    assert table.fires({}, fm("R"), tm("e2"))


def test_rule_table_star_wildcards_match_printed_forms():
    table = RuleTable([("*+*", "R", True)])
    assert table.fires({}, fm("R"), tm("[e1+e2]"))
    assert not table.fires({}, fm("R"), tm("e1"))
    assert not table.fires({}, fm("Q"), tm("[e1+e2]"))
    exact = RuleTable([("[e1+e2]", "~~R", True)])
    assert exact.fires({}, fm("~~R"), tm("[e1+e2]"))
    assert not exact.fires({}, fm("~R"), tm("[e1+e2]"))


def test_rule_table_defaults_to_rejection():
    assert not RuleTable([]).fires({}, fm("P"), tm("x"))


# ---------------------------------------------------------------------------
# staged values and the trace


def test_trace_rows_agree_with_the_finished_model():
    params = small_params(ConstOne(), seed={"P": True}, trace=True)
    model, trace = build(params)
    assert trace is not None
    checked = 0
    for row in trace.rows:
        if not row.formula:
            continue
        assert row.value == evaluate(model, fm(row.formula))
        checked += 1
    assert checked == len(model.formula_universe)


def test_trace_records_membership_contributions():
    params = small_params(ConstOne(), seed={}, fm_size=1, tm_size=1,
                          trace=True)
    model, trace = build(params)
    added = [(t, f, via) for row in trace.rows for t, f, via in row.added]
    # P and Q are both unseeded, hence false, hence sprayed everywhere
    assert ("x", "P", "spray") in added
    assert ("y", "Q", "spray") in added
    assert trace.lines()
    doc = trace.as_dict()
    assert {stage["formula"] for stage in doc["stages"]} >= {"P", "Q"}

    # sums and pairs fill only the closing row; every member is added once
    functional = SpecDriven([fm("x:P"), fm("y:Q"), fm("[x+y]:P")])
    model, trace = build(small_params(functional, fm_size=3, tm_size=3,
                                      trace=True))
    *stages, close = trace.rows
    assert close.kind == "close"
    assert {via for _, _, via in close.added} == {"sum", "pair"}
    assert {via for row in stages for _, _, via in row.added} <= \
        {"body", "spray"}
    added = [(tm(t), fm(f)) for row in trace.rows for t, f, _ in row.added]
    members = [(t, f) for t, fs in model.interp.items() for f in fs]
    assert len(added) == len(set(added)) == len(members)
    assert set(added) == set(members)


def test_sum_terms_absorb_their_parts():
    functional = SpecDriven([fm("x:P"), fm("y:Q")])
    model, _ = build(small_params(functional, fm_size=3, tm_size=3))
    assert model.interp[tm("x")] == {fm("P")}
    assert model.interp[tm("y")] == {fm("Q")}
    assert model.interp[tm("[x+y]")] == {fm("P"), fm("Q")}


def test_pairing_terms_absorb_conjunctions_inside_the_universe():
    functional = SpecDriven([fm("x:P"), fm("y:Q")])
    model, _ = build(small_params(functional, fm_size=3, tm_size=3))
    assert fm("P /\\ Q") in model.interp[tm("[x & y]")]
    # a conjunction past the formula bound never lands
    clipped, _ = build(small_params(functional, fm_size=2, tm_size=3))
    assert not clipped.interp[tm("[x & y]")]


def test_closure_makes_a_justified_formula_over_a_compound_true():
    # x accepts everything, so [x+y] absorbs P from x: [x+y]:P holds
    # although the functional never fires there, and it must not be
    # sprayed into x as a false formula
    for profile in (dl, dl0):
        params = BuildParams(profile, Alphabet(("P",), ("x", "y"), ()), 5, 3,
                             RuleTable([("x", "*", True)]), trace=True)
        model, trace = build(params)
        assert evaluate(model, fm("[x+y]:P"))
        assert fm("[x+y]:P") not in model.interp[tm("x")]
        assert audit(model).ok
        assert _staged_mismatches(model, trace) == []


def _staged_mismatches(model, trace):
    """Staged rows whose value differs from the formula's value in the
    finished model."""
    return [row.formula for row in trace.rows
            if row.formula and row.value != evaluate(model, fm(row.formula))]


# ---------------------------------------------------------------------------
# realization


def test_realize_spec_satisfies_every_entry():
    wanted = [fm("a:A"), fm("~A"), fm("b:B"), fm("~B")]
    model, trace = realize_spec(dl0, wanted)
    assert trace is None
    for f in wanted:
        assert evaluate(model, f)
    allowed = {fm("A"), fm("B")}
    for members in model.interp.values():
        assert set(members) <= allowed


def test_realize_spec_auto_sizes_to_the_entries():
    model, _ = realize_spec(dl, [fm("s:(P /\\ Q)")])
    assert evaluate(model, fm("s:(P /\\ Q)"))
    assert not evaluate(model, fm("P /\\ Q"))


def test_denying_a_logical_truth_is_unrealizable():
    # the body t:P -> ~P only comes out false when t holds a true member,
    # which the staged construction never produces
    with pytest.raises(RealizationError):
        realize_spec(dl, [fm("s:(t:P -> ~P)")])


def test_negated_members_pin_positions_to_zero():
    wanted = [fm("a:A"), fm("~A"), fm("~(b:A)")]
    model, _ = realize_spec(dl, wanted, tm_size=1)
    assert evaluate(model, fm("~(b:A)"))
    assert not model.interp[tm("b")]


def test_contradictory_members_fail_realization():
    with pytest.raises(RealizationError):
        realize_spec(dl, [fm("b:A"), fm("~(b:A)"), fm("~A")], tm_size=1)


def test_conflicting_literals_fail_realization():
    with pytest.raises(RealizationError, match="already fixed"):
        realize_spec(dl, [fm("A"), fm("~A")])


def test_entry_body_conflicts_with_a_literal():
    # a:A needs A false, the bare literal needs it true
    with pytest.raises(RealizationError):
        realize_spec(dl, [fm("a:A"), fm("A")])


def test_bounds_exclude_a_needed_body():
    with pytest.raises(BoundsError):
        realize_spec(dl, [fm("s:(A /\\ A)")], fm_size=2)
    with pytest.raises(BoundsError):
        realize_spec(dl, [fm("[s+t]:A")], tm_size=1)


def test_realize_spec_can_trace():
    _, trace = realize_spec(dl, [fm("a:A"), fm("~A")], trace=True)
    assert trace is not None and trace.rows


# ---------------------------------------------------------------------------
# guard rails


def test_only_the_denial_profiles_build():
    alphabet = Alphabet(("P",), ("x",), ())
    for name in ("jl", "lp", "fused"):
        params = BuildParams(get_profile(name), alphabet, 2, 2, ConstZero())
        with pytest.raises(BuildError):
            build(params)


def test_degenerate_bounds_are_rejected():
    alphabet = Alphabet(("P",), ("x",), ())
    with pytest.raises(BoundsError):
        build(BuildParams(dl, alphabet, 0, 2, ConstZero()))
    with pytest.raises(BoundsError):
        build(BuildParams(dl, alphabet, 2, 0, ConstZero()))


def test_an_alphabet_without_terms_cannot_build():
    with pytest.raises(BuildError):
        build(BuildParams(dl, Alphabet(("P",), (), ()), 2, 2, ConstZero()))


# ---------------------------------------------------------------------------
# random builds against a naive fixpoint

_TERM_PATTERNS = ("*", "x", "y", "[*", "*+*", "*.*", "*&*")
_FORMULA_PATTERNS = ("*", "P", "Q", "_|_", "~*", "*/\\*", "*->*", "*:*")


@st.composite
def random_builds(draw, max_fm=4):
    profile = draw(st.sampled_from((dl, dl0)))
    atoms = ("P", "Q")[:draw(st.integers(1, 2))]
    leaves = ("x", "y")[:draw(st.integers(1, 2))]
    seed = {a: draw(st.booleans()) for a in atoms}
    stock = st.sampled_from(sorted(FUNCTIONALS)).map(lambda n: FUNCTIONALS[n]())
    rules = st.lists(st.tuples(st.sampled_from(_TERM_PATTERNS),
                               st.sampled_from(_FORMULA_PATTERNS),
                               st.booleans()),
                     min_size=1, max_size=3).map(RuleTable)
    return BuildParams(profile, Alphabet(atoms, leaves, ()),
                       draw(st.integers(1, max_fm)), draw(st.integers(1, 3)),
                       draw(st.one_of(stock, rules)), seed=seed, trace=True)


def _naive_closure(staged, universe, pairing):
    """Repeat until nothing changes: sums take their parts' members, pairs
    every conjunction of their parts' members inside the universe."""
    interp = {t: set(fs) for t, fs in staged.items()}
    changed = True
    while changed:
        changed = False
        for t, have in interp.items():
            if isinstance(t, Sum):
                new = interp[t.left] | interp[t.right]
            elif isinstance(t, Pair) and pairing:
                new = {And(p, q) for p in interp[t.left]
                       for q in interp[t.right]} & universe
            else:
                continue
            if not new <= have:
                have |= new
                changed = True
    return interp


@given(random_builds())
@settings(max_examples=300, deadline=None)
def test_random_builds_pass_their_audit_and_match_a_naive_fixpoint(params):
    model, trace = build(params)
    assert audit(model).ok
    staged = {t: set() for t in model.interp}
    for row in trace.rows:
        for t, f, via in row.added:
            if via in ("body", "spray"):
                staged[tm(t)].add(fm(f))
    expected = _naive_closure(staged, model.formula_universe,
                              params.profile.has_schema("pairing"))
    assert model.interp == expected


# formula size 6 builds take up to ~0.5 s each, so this property draws
# fewer examples than the one above
@given(random_builds(max_fm=6))
@settings(max_examples=40, deadline=None)
def test_staged_values_are_the_built_model_values(params):
    model, trace = build(params)
    assert _staged_mismatches(model, trace) == []
    assert audit(model).ok


_SPEC_FORMULAS = ("A", "B", "~A", "A /\\ B", "A -> B", "~B", "a:A")
_SPEC_TERMS = ("a", "b", "[a+b]", "[b+a]", "[a.b]", "[a & b]", "[a+[a & b]]")


@st.composite
def random_specs(draw):
    profile = draw(st.sampled_from((dl, dl0)))
    bodies = st.sampled_from(_SPEC_FORMULAS).map(fm)
    terms = st.sampled_from(_SPEC_TERMS).filter(
        lambda t: "&" not in t or profile is dl).map(tm)
    entries = st.builds(Just, terms, bodies)
    literals = st.sampled_from(("A", "~A", "B", "~B")).map(fm)
    wanted = draw(st.lists(entries | literals, min_size=1, max_size=4))
    return profile, wanted, draw(st.integers(3, 6))


@given(random_specs())
@settings(max_examples=60, deadline=None)
def test_realized_staged_values_are_the_built_model_values(case):
    profile, wanted, fm_size = case
    try:
        model, trace = realize_spec(profile, wanted, fm_size=fm_size,
                                    tm_size=3, trace=True)
    except (RealizationError, BoundsError):
        return
    assert _staged_mismatches(model, trace) == []
    assert audit(model).ok
