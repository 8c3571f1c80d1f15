"""Constant specifications: closure, probing, extraction, transplanting."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dlk import (
    ConstantSpec,
    RefusalError,
    SpecClashError,
    SpecFormatError,
    SpecShapeError,
    audit,
    blue_pill,
    check_coherence,
    check_proof,
    close_spec,
    evaluate,
    get_profile,
    ok_extract,
    parse_formula,
    parse_term,
    probe_consistency,
    search_jl_model,
    spec_from_dict,
    spec_to_dict,
)
from dlk.syntax import Just

jl = get_profile("jl")
dl = get_profile("dl")
dl0 = get_profile("dl0")
lp = get_profile("lp")
fused = get_profile("fused")

fm = parse_formula
tm = parse_term


def sfm(text):
    return parse_formula(text, signed=True)


# ---------------------------------------------------------------------------
# closure


def test_denial_closure_negates_asserted_bodies():
    spec = close_spec([fm("e:R")], dl)
    assert spec.formulas == (fm("e:R"), fm("~R"))
    assert spec.closed


def test_denial_closure_asserts_undenied_bodies():
    spec = close_spec([fm("~(e:R)")], dl0)
    assert spec.formulas == (fm("~(e:R)"), fm("R"))


def test_closure_iterates_through_evidence_chains():
    spec = close_spec([fm("s:(t:P)")], dl)
    assert spec.formulas == (fm("s:(t:P)"), fm("~(t:P)"), fm("P"))


def test_signed_closure_dispatches_on_the_evidence_sign():
    assert close_spec([sfm("e+:R")], fused).formulas == (sfm("e+:R"), fm("R"))
    assert close_spec([sfm("e-:R")], fused).formulas == (sfm("e-:R"), fm("~R"))
    assert close_spec([sfm("~(e+:R)")], fused).formulas == \
        (sfm("~(e+:R)"), fm("~R"))
    assert close_spec([sfm("~(e-:R)")], fused).formulas == \
        (sfm("~(e-:R)"), fm("R"))


def test_plain_profiles_close_to_themselves():
    for profile in (jl, lp):
        spec = close_spec([fm("e:R"), fm("~(c:Q)")], profile)
        assert spec.formulas == (fm("e:R"), fm("~(c:Q)"))


def test_closure_clash_carries_the_witness_pair():
    with pytest.raises(SpecClashError) as info:
        close_spec([fm("e:P"), fm("P")], dl)
    assert info.value.pair == (fm("P"), fm("~P"))


def test_complementary_raw_members_clash_immediately():
    with pytest.raises(SpecClashError):
        close_spec([fm("R"), fm("~R")], jl)


def test_compound_justifiers_are_rejected():
    with pytest.raises(SpecShapeError):
        close_spec([fm("[s+t]:P")], dl)
    with pytest.raises(SpecShapeError):
        close_spec([fm("~(s:([x.y]:P))")], dl)
    # leaf chains over arbitrary bodies are fine
    close_spec([fm("s:(t:P -> ~P)")], jl)


# ---------------------------------------------------------------------------
# consistency probes


def test_probe_certifies_a_realizable_specification():
    spec = close_spec([fm("a:A"), fm("b:B")], dl0)
    result = probe_consistency(spec)
    assert result.status == "model"
    for f in spec.formulas:
        assert evaluate(result.model, f)


def test_probe_refutes_a_complementary_pair():
    spec = ConstantSpec(dl, (fm("P"), fm("~P")))
    result = probe_consistency(spec)
    assert result.status == "clash"
    assert result.pair == (fm("P"), fm("~P"))


def test_probe_gives_up_outside_the_buildable_profiles():
    spec = close_spec([sfm("e+:R")], fused)
    result = probe_consistency(spec)
    assert result.status == "unknown"
    assert "fused" in result.note


def test_probe_gives_up_when_realization_fails():
    # denying an axiom instance: no complementary pair to refute with,
    # but no staged model respects the member either
    spec = ConstantSpec(dl, (fm("s:(t:P -> ~P)"),))
    result = probe_consistency(spec)
    assert result.status == "unknown"
    assert result.model is None


# ---------------------------------------------------------------------------
# extraction


def test_extracted_members_carry_checkable_witnesses():
    spec = close_spec([fm("a:A"), fm("b:B")], dl)
    ok = ok_extract(spec, depth=2, size=2, term_size=2)
    assert fm("A") in ok and fm("B") in ok
    assert not ok.hit_limit
    for member in ok:
        term, proof = ok.witnesses[member]
        result = check_proof(proof)
        assert result.ok
        assert result.conclusion == Just(term, member)


def test_extraction_keeps_the_first_witness():
    spec = close_spec([fm("a:A")], dl)
    ok = ok_extract(spec, depth=2, size=2, term_size=2)
    term, _ = ok.witnesses[fm("A")]
    assert term == tm("a")


def test_extraction_reports_a_spent_budget():
    spec = close_spec([fm("a:A"), fm("b:B")], dl)
    ok = ok_extract(spec, size=3, term_size=2, limit=10)
    assert ok.hit_limit


def test_pairing_contributes_conjoined_bodies():
    spec = close_spec([fm("a:A"), fm("b:B")], dl)
    ok = ok_extract(spec, depth=2, size=3, term_size=2, limit=None)
    assert fm("A /\\ B") in ok
    # without the pairing schema the conjunction never gets evidence
    bare = close_spec([fm("a:A"), fm("b:B")], dl0)
    assert fm("A /\\ B") not in ok_extract(bare, depth=2, size=3,
                                           term_size=2, limit=None)


# ---------------------------------------------------------------------------
# model search


def test_search_finds_the_least_valuation():
    model = search_jl_model([fm("~P")])
    assert model is not None
    assert not model.valuation.get("P", False)
    assert not model.interp


def test_search_grows_evidence_when_the_targets_need_it():
    model = search_jl_model([fm("x:P"), fm("P")])
    assert model is not None
    assert evaluate(model, fm("x:P"))
    assert model.valuation["P"]


def test_search_gives_up_on_a_contradiction():
    assert search_jl_model([fm("_|_")]) is None
    assert search_jl_model([fm("P"), fm("~P")]) is None


@pytest.mark.parametrize("targets, compound, closed", [
    (["a:A", "b:B", "[a+b]:A"], "[a+b]", ["A", "B"]),
    (["a:(A -> B)", "b:A", "[a.b]:A"], "[a.b]", ["A", "B"]),
], ids=["sum", "app"])
def test_search_closes_candidates_over_members_no_target_offers(
        targets, compound, closed):
    # B is never a candidate for the compound, yet closure puts it there
    targets = [fm(t) for t in targets]
    model = search_jl_model(targets)
    assert model is not None
    assert all(evaluate(model, f) for f in targets)
    assert model.interp[tm(compound)] == {fm(f) for f in closed}


_SEARCH_LEAVES = {"jl": ("a", "b"), "fused": ("a+", "b-", "c+")}
_BODIES = st.recursive(
    st.sampled_from(("A", "B", "C")),
    lambda inner: st.one_of(
        inner.map(lambda b: f"~{b}"),
        st.builds(lambda l, op, r: f"({l} {op} {r})",
                  inner, st.sampled_from(("->", "/\\", "\\/")), inner)),
    max_leaves=3)


@st.composite
def search_cases(draw):
    name = draw(st.sampled_from(sorted(_SEARCH_LEAVES)))
    profile = get_profile(name)
    terms = st.recursive(
        st.sampled_from(_SEARCH_LEAVES[name]),
        lambda inner: st.builds(lambda l, op, r: f"[{l}{op}{r}]",
                                inner, st.sampled_from("+."), inner),
        max_leaves=3)
    justified = st.builds(lambda t, b: f"{t}:{b}", terms, _BODIES)
    target = st.one_of(justified, justified, justified.map(lambda j: f"~{j}"),
                       _BODIES)
    texts = draw(st.lists(target, min_size=2, max_size=4))
    try:
        return profile, [parse_formula(t, signed=profile.signed)
                         for t in texts]
    except ValueError:
        assume(False)


@given(search_cases())
@settings(max_examples=200, deadline=None)
def test_found_models_satisfy_their_targets_and_are_closed(case):
    profile, targets = case
    model = search_jl_model(targets, profile)
    assume(model is not None)
    assert all(evaluate(model, f) for f in targets)
    report = audit(model)
    for name in ("application-closure", "sum-closure"):
        assert report.condition(name).ok, report.condition(name).violations


# ---------------------------------------------------------------------------
# the transplant


def test_blue_pill_transplants_a_denial_spec():
    spec = close_spec([fm("s:E")], dl)
    result = blue_pill(spec, size=3)
    assert result.found
    assert fm("E") in result.ok
    for member in result.ok:
        assert evaluate(result.model, member)
    # the note claims the closure the model search builds, no audit
    assert "closed under application and sum" in result.note
    report = audit(result.model)
    assert report.condition("application-closure").ok
    assert report.condition("sum-closure").ok


def test_blue_pill_reports_a_complementary_extraction():
    spec = ConstantSpec(dl, (fm("a:A"), fm("b:(~A)")))
    result = blue_pill(spec, size=3)
    assert result.status == "failure"
    assert "no model can satisfy" in result.note
    assert result.model is None


def test_blue_pill_requires_a_denial_or_signed_profile():
    for profile in (jl, dl0, lp):
        with pytest.raises(RefusalError, match="model transplant"):
            blue_pill(ConstantSpec(profile, (fm("a:A"),)))


def test_coherence_is_pointwise_not_joint():
    # jointly untenable conclusions can still each stand alone
    spec = ConstantSpec(dl, (fm("a:A"), fm("b:(~A)")))
    report = check_coherence(spec, size=3)
    assert report.coherent
    assert blue_pill(spec, size=3).status == "failure"


def test_coherence_flags_an_unsatisfiable_member():
    spec = ConstantSpec(dl, (fm("a:_|_"),))
    report = check_coherence(spec, size=3)
    assert report.status == "counterexample"
    assert report.counterexample == fm("_|_")


def test_coherence_carries_the_ok_set_and_its_budget():
    spec = close_spec([fm("a:A"), fm("b:B")], dl)
    report = check_coherence(spec, limit=200)
    assert report.coherent
    assert report.ok.hit_limit
    assert report.ok.members == ok_extract(spec, limit=200).members
    assert not check_coherence(ConstantSpec(dl, (fm("s:E"),)),
                               size=3).ok.hit_limit


# ---------------------------------------------------------------------------
# documents


def test_spec_documents_round_trip():
    spec = close_spec([fm("a:A"), fm("b:B")], dl0)
    doc = spec_to_dict(spec)
    assert doc["profile"] == "dl0"
    assert doc["closed"]
    back = spec_from_dict(doc)
    assert back.profile.name == "dl0"
    assert back.formulas == spec.formulas
    assert back.closed


def test_signed_documents_parse_signed_formulas():
    doc = {"profile": "fused", "formulas": ["s-:E", "t+:C"]}
    spec = spec_from_dict(doc)
    assert spec.formulas == (sfm("s-:E"), sfm("t+:C"))


def test_bare_arrays_need_a_caller_profile():
    spec = spec_from_dict(["a:A", "~A"], default_profile=dl)
    assert spec.profile.name == "dl"
    assert not spec.closed
    with pytest.raises(SpecFormatError):
        spec_from_dict(["a:A"])


@pytest.mark.parametrize("doc", [
    "a:A",
    {"profile": "dl"},
    {"profile": "dl", "formulas": "a:A"},
    {"profile": "no-such-logic", "formulas": []},
    {"profile": "dl", "formulas": ["P ->"]},
    {"profile": "dl", "formulas": ["s+:E"]},
    {"formulas": ["a:A"]},
    {"profile": "dl", "formulas": [True]},
    {"profile": "dl", "formulas": ["a:A", None]},
    {"profile": "dl", "formulas": ["a:A"], "closed": "false"},
    {"profile": "dl", "formulas": ["a:A"], "closed": 0},
])
def test_malformed_documents_are_rejected(doc):
    with pytest.raises(SpecFormatError):
        spec_from_dict(doc)


def test_format_errors_name_the_field():
    with pytest.raises(SpecFormatError, match="formula 1"):
        spec_from_dict({"profile": "dl", "formulas": ["a:A", False]})
    with pytest.raises(SpecFormatError, match="formula 0"):
        spec_from_dict([None], default_profile=dl)
    with pytest.raises(SpecFormatError, match="'closed'"):
        spec_from_dict({"profile": "dl", "formulas": [], "closed": "false"})
