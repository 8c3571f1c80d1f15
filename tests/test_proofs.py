"""Proof checking, bounded forward chaining, internalization, and the
nonderivability reports."""

import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from dlk.builder import RealizationError, realize_spec
from dlk.logics import (
    Binding, RefusalError, SCHEMAS, get_profile, instantiate,
)
from dlk.proofs import (
    MissingConstantError, Proof, ProofFormatError, axiom_line,
    check_nonderivability, check_proof, derive_forward, hyp_line,
    internalize, mp_line, proof_from_dict, proof_to_dict,
)
from dlk.semantics import ModularModel
from dlk.syntax import (
    Alphabet, Bottom, Const, FMeta, Just, Not,
    enumerate_terms, formula_terms, parse_formula, parse_term,
    print_formula, subformulas,
)

from exhaustive import derive_exhaustive

jl = get_profile("jl")
dl = get_profile("dl")
dl0 = get_profile("dl0")
fused = get_profile("fused")


def fm(text, signed=False):
    return parse_formula(text, signed=signed)


def tm(text, signed=False):
    return parse_term(text, signed=signed)


def denial_replay() -> Proof:
    """Three lines: from s:(t:P -> ~P) conclude ~(t:P -> ~P)."""
    hyp = fm("s:(t:P -> ~P)")
    inst = fm("s:(t:P -> ~P) -> ~(t:P -> ~P)")
    binding = Binding({"P": fm("t:P -> ~P")}, {"t": tm("s")})
    return Proof(dl, (
        hyp_line(hyp, 0),
        axiom_line("denial", binding, inst),
        mp_line(1, 0, fm("~(t:P -> ~P)")),
    ), (hyp,))


# ---------------------------------------------------------------------------
# checking


def test_denial_replay_accepted():
    result = check_proof(denial_replay())
    assert result.ok, result.describe()
    assert result.conclusion == fm("~(t:P -> ~P)")


def test_signed_factivity_denial_chain():
    # t+:(s-:E) |- ~E
    hyp = fm("t+:(s-:E)", signed=True)
    proof = Proof(fused, (
        hyp_line(hyp, 0),
        axiom_line("factivity",
                   Binding({"P": fm("s-:E", signed=True)},
                           {"t": tm("t+", signed=True)}),
                   fm("t+:(s-:E) -> s-:E", signed=True)),
        mp_line(1, 0, fm("s-:E", signed=True)),
        axiom_line("denial",
                   Binding({"P": fm("E")}, {"t": tm("s-", signed=True)}),
                   fm("s-:E -> ~E", signed=True)),
        mp_line(3, 2, fm("~E")),
    ), (hyp,))
    result = check_proof(proof)
    assert result.ok, result.describe()
    assert result.conclusion == fm("~E")


def test_mp_citing_later_line_rejected():
    hyp = fm("P")
    proof = Proof(dl, (
        mp_line(1, 2, fm("Q")),
        hyp_line(hyp, 0),
        hyp_line(hyp, 0),
    ), (hyp,))
    result = check_proof(proof)
    assert not result.ok
    assert result.problems[0][0] == 0


def test_axiom_line_must_restate_its_instance():
    binding = Binding({"P": fm("P")}, {"t": tm("t")})
    proof = Proof(dl, (
        axiom_line("denial", binding, fm("t:P -> ~Q")),
    ))
    assert not check_proof(proof).ok


def test_hypothesis_must_be_on_the_list():
    proof = Proof(dl, (hyp_line(fm("P"), 0),), (fm("Q"),))
    assert not check_proof(proof).ok


def test_schema_must_belong_to_profile():
    binding = Binding({"P": fm("P")}, {"t": tm("t")})
    inst = fm("t:P -> ~P")
    proof = Proof(jl, (axiom_line("denial", binding, inst),))
    assert not check_proof(proof).ok


def test_positive_denial_axiom_rejected_in_fused():
    binding = Binding({"P": fm("P")}, {"t": tm("t+", signed=True)})
    inst = fm("t+:P -> ~P", signed=True)
    proof = Proof(fused, (axiom_line("denial", binding, inst),))
    result = check_proof(proof)
    assert not result.ok


def test_mp_shape_checked():
    h1, h2 = fm("P -> Q"), fm("R")
    proof = Proof(dl, (
        hyp_line(h1, 0), hyp_line(h2, 1), mp_line(0, 1, fm("Q")),
    ), (h1, h2))
    assert not check_proof(proof).ok


def test_proof_json_round_trip():
    proof = denial_replay()
    back = proof_from_dict(proof_to_dict(proof))
    assert back == proof
    assert check_proof(back).ok


@pytest.mark.parametrize("doc", [
    [],
    {"profile": "dl"},
    {"profile": "dl", "lines": [{"kind": "axiom"}]},
    {"profile": "dl", "lines": [{"kind": "mp", "formula": "P"}]},
    {"profile": "dl", "lines": [{"kind": "zig", "formula": "P"}]},
    {"profile": "dl", "hypotheses": ["P ->"], "lines": []},
    {"profile": "dl", "hypotheses": [False], "lines": []},
    {"profile": "dl", "lines": [{"kind": "hyp", "formula": True}]},
    {"profile": "dl", "hypotheses": ["P"],
     "lines": [{"kind": "hyp", "formula": "P", "hyp_index": True}]},
    {"profile": "dl", "hypotheses": ["P"],
     "lines": [{"kind": "hyp", "formula": "P", "hyp_index": "0"}]},
    {"profile": "dl", "lines": [{"kind": "mp", "formula": "Q",
                                 "premises": [1.7, "0"]}]},
    {"profile": "dl", "lines": [{"kind": "mp", "formula": "Q",
                                 "premises": [1, False]}]},
    {"profile": "dl", "lines": [{"kind": "axiom", "formula": "P -> P",
                                 "schema": 7}]},
    {"profile": "dl", "lines": [{"kind": "axiom", "formula": "P -> P",
                                 "schema": "k", "binding": {
                                     "formulas": {"A": True}}}]},
    {"profile": "dl", "lines": [{"kind": "axiom", "formula": "P -> P",
                                 "schema": "k", "binding": {
                                     "terms": {"t": 0}}}]},
])
def test_proof_format_errors(doc):
    with pytest.raises(ProofFormatError):
        proof_from_dict(doc)


@pytest.mark.parametrize("line, field", [
    ({"kind": "hyp", "formula": False}, "'formula'"),
    ({"kind": "hyp", "formula": "P", "hyp_index": True}, "hyp_index"),
    ({"kind": "mp", "formula": "P", "premises": [0, 1.7]}, "premise"),
    ({"kind": "axiom", "formula": "P", "schema": None}, "'schema'"),
])
def test_proof_format_error_names_the_field(line, field):
    doc = {"profile": "dl", "hypotheses": ["P"], "lines": [line]}
    with pytest.raises(ProofFormatError, match=field):
        proof_from_dict(doc)


def test_proof_format_error_names_the_hypotheses():
    with pytest.raises(ProofFormatError, match="'hypotheses'"):
        proof_from_dict({"profile": "dl", "hypotheses": ["P", False],
                         "lines": []})


# ---------------------------------------------------------------------------
# forward chaining


def test_importing_dlk_leaves_the_search_engine_unloaded():
    # derive_forward loads dlk.demand on its first call
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, dlk; print('dlk.demand' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "False\n")


def _template_metas(template):
    fnames = sorted({m.name for m in subformulas(template)
                     if isinstance(m, FMeta)})
    tnames = sorted({m.name for m in formula_terms(template)
                     if hasattr(m, "polarity")})
    return fnames, tnames


def brute_instances(profile, pool, terms):
    out = set()
    for sid in profile.schema_ids:
        template = SCHEMAS[sid].template
        fnames, tnames = _template_metas(template)
        for fvals in product(pool, repeat=len(fnames)):
            for tvals in product(terms, repeat=len(tnames)):
                try:
                    out.add(instantiate(
                        template,
                        Binding(dict(zip(fnames, fvals)),
                                dict(zip(tnames, tvals))),
                        signed=profile.signed))
                except ValueError:
                    continue
    return out


def test_single_round_is_exactly_the_instance_set():
    derived = derive_exhaustive(jl, [], size_bound=2, rounds=1)
    terms = enumerate_terms(Alphabet((), ("x", "y"), (), signed=False),
                            2, jl.term_ops)
    assert set(derived.order) == brute_instances(jl, [Bottom()], terms)
    assert {derived.provenance[f][0] for f in derived.order} == {"axiom"}


def test_derive_from_negative_entry():
    derived = derive_forward(dl, [fm("s:E"), fm("~E")],
                             size_bound=3, rounds=2, term_size_bound=2)
    assert fm("s:E") in derived
    assert fm("~E") in derived
    # sums inherit the justification
    assert fm("[s+x]:E") in derived
    assert fm("[x+s]:E") in derived
    assert any(j.body == fm("E") for j in derived.justified())


def test_derive_the_denial_replay_conclusion():
    goal = fm("~(t:P -> ~P)")
    derived = derive_forward(dl, [fm("s:(t:P -> ~P)")],
                             size_bound=6, rounds=2, term_size_bound=2,
                             goal=goal)
    assert goal in derived
    proof = derived.proof_of(goal)
    result = check_proof(proof)
    assert result.ok and result.conclusion == goal


def test_every_derived_formula_has_a_checking_proof():
    derived = derive_forward(dl, [fm("s:E"), fm("~E")],
                             size_bound=2, rounds=2, term_size_bound=2)
    assert len(derived) > 50
    for f in derived.order:
        result = check_proof(derived.proof_of(f))
        assert result.ok, print_formula(f)
        assert result.conclusion == f


def test_monotone_in_both_bounds():
    hyps = [fm("s:E"), fm("~E")]
    base = set(derive_forward(dl, hyps, size_bound=2, rounds=2,
                              term_size_bound=2).order)
    wider = set(derive_forward(dl, hyps, size_bound=3, rounds=2,
                               term_size_bound=2).order)
    deeper = set(derive_forward(dl, hyps, size_bound=2, rounds=3,
                                term_size_bound=2).order)
    assert base <= wider
    assert base <= deeper


def test_goal_stops_the_search():
    goal = fm("~(t:P -> ~P)")
    derived = derive_forward(dl, [fm("s:(t:P -> ~P)")], size_bound=6,
                             rounds=3, term_size_bound=2, goal=goal)
    assert goal in derived


def test_limit_truncates_deterministically():
    hyps = [fm("s:E"), fm("~E")]
    full = derive_forward(dl, hyps, size_bound=3, rounds=2,
                          term_size_bound=2)
    capped = derive_forward(dl, hyps, size_bound=3, rounds=2,
                            term_size_bound=2, limit=40)
    assert capped.hit_limit and not full.hit_limit
    assert capped.order == full.order[:len(capped.order)]
    assert len(capped.order) >= 40


def test_contradiction_watch():
    derived = derive_forward(dl, [fm("P"), fm("~P")], size_bound=2,
                             rounds=1, watch_contradiction=True)
    assert derived.contradiction is not None
    a, b = derived.contradiction
    assert Not(a) == b or Not(b) == a


# ---------------------------------------------------------------------------
# internalization


def test_internalize_single_axiom_line():
    inst = fm("c+:P -> P", signed=True)
    proof = Proof(fused, (
        axiom_line("factivity",
                   Binding({"P": fm("P")}, {"t": tm("c+", signed=True)}),
                   inst),
    ))
    entry = Just(Const("e", "+"), inst)
    lifted = internalize(proof, [entry])
    assert lifted.conclusion.term == Const("e", "+")
    assert lifted.conclusion == Just(Const("e", "+"), inst)
    assert check_proof(lifted).ok


def test_internalize_mp_builds_application():
    h1, h2 = fm("P -> Q"), fm("P")
    proof = Proof(fused, (
        hyp_line(h1, 0), hyp_line(h2, 1), mp_line(0, 1, fm("Q")),
    ), (h1, h2))
    entries = [Just(Const("a", "+"), h1), Just(Const("b", "+"), h2)]
    lifted = internalize(proof, entries)
    assert print_formula(lifted.conclusion) == "[a+.b+]:Q"
    result = check_proof(lifted)
    assert result.ok, result.describe()


def test_internalize_reports_uncovered_line():
    h = fm("P")
    proof = Proof(fused, (hyp_line(h, 0),), (h,))
    with pytest.raises(MissingConstantError):
        internalize(proof, [])


@pytest.mark.parametrize("name", ["jl", "dl", "dl0"])
def test_internalize_refuses_profiles_without_introspection(name):
    proof = Proof(get_profile(name), (hyp_line(fm("P"), 0),), (fm("P"),))
    with pytest.raises(RefusalError) as caught:
        internalize(proof, [fm("a:P")])
    assert str(caught.value) == ("internalization lifts proofs in the fused "
                                 f"or lp profiles, not {name!r}")


@pytest.mark.parametrize("name", ["lp", "fused"])
def test_internalize_lifts_in_the_introspective_profiles(name):
    profile = get_profile(name)
    p = fm("P")
    entry = fm("a+:P" if profile.signed else "a:P", signed=profile.signed)
    lifted = internalize(Proof(profile, (hyp_line(p, 0),), (p,)), [entry])
    assert lifted.conclusion == entry
    assert check_proof(lifted).ok


def test_internalize_refuses_broken_proofs():
    proof = Proof(fused, (mp_line(0, 0, fm("P")),))
    with pytest.raises(RefusalError, match="does not check"):
        internalize(proof, [])


# ---------------------------------------------------------------------------
# nonderivability


def test_axiom_goal_is_derivable():
    report = check_nonderivability(dl, [], fm("t:P -> ~P"),
                                   size_bound=6, rounds=1,
                                   term_size_bound=2)
    assert report.status == "derivable"
    assert check_proof(report.proof).ok


def test_signed_spec_refutes_a_positive_justifier():
    hyps = [fm("s+:C", signed=True), fm("t-:E", signed=True),
            fm("C"), fm("~E")]
    report = check_nonderivability(
        fused, hyps, fm("C -> E"), exists_term=True, positive_only=True,
        size_bound=3, rounds=2, term_size_bound=2, limit=60000)
    assert report.status == "refuted"
    assert report.contradiction is not None
    for proof in report.refutation_proofs:
        assert check_proof(proof).ok


def test_countermodel_closes_the_question():
    hyps = [fm("a:A"), fm("~A"), fm("b:B"), fm("~B")]
    model, _ = realize_spec(dl0, hyps)
    report = check_nonderivability(
        dl0, hyps, fm("A /\\ B"), exists_term=True,
        size_bound=3, rounds=2, term_size_bound=4, countermodel=model)
    assert report.status == "countermodeled"
    assert "size 4" in report.note


def test_a_countermodel_holds_a_sum_to_its_parts():
    # the model leaves a+b uninterpreted, so by its interpretation alone
    # it satisfies ~[a+b]:A; closed under sum, a+b holds A, as sum-left
    # derives
    a, b = parse_term("a"), parse_term("b")
    model = ModularModel(dl, {"A": False}, {a: frozenset({fm("A")}),
                                            b: frozenset()})
    target = fm("[a+b]:A")
    assert check_nonderivability(dl, [fm("a:A")], target).status \
        == "derivable"
    report = check_nonderivability(dl, [fm("a:A")], target,
                                   countermodel=model)
    assert report.status == "open"
    assert report.note == "countermodel satisfies the target"


def test_no_model_is_realized_for_a_sum_its_parts_contradict():
    # sum-left derives [a+b]:A from a:A, so the spec is DL-inconsistent
    with pytest.raises(RealizationError,
                       match=r"no built model satisfies ~\[a\+b\]:A"):
        realize_spec(dl, [fm("a:A"), fm("~[a+b]:A")])


def test_a_countermodel_holds_a_pair_to_its_parts():
    # dl pairs a:A and b:B into [a & b]:(A /\ B), which a bounded model of
    # the hypotheses does not interpret
    hyps = [fm("a:A"), fm("b:B")]
    model, _ = realize_spec(dl, hyps)
    body = fm("A /\\ B")
    assert check_nonderivability(dl, hyps, body, exists_term=True,
                                 term_size_bound=3).status == "derivable"
    report = check_nonderivability(dl, hyps, body, exists_term=True,
                                   term_size_bound=3, countermodel=model)
    assert report.status == "open"
    assert report.note == "countermodel satisfies '[a & b]:(A /\\\\ B)'"


def test_open_names_an_exhausted_budget():
    hyps = [fm("e1:R"), fm("~R")]
    capped = check_nonderivability(dl, hyps, fm("Z"), limit=200)
    assert capped.status == "open"
    assert "budget of 200 formulas ran out" in capped.note
    free = check_nonderivability(dl, hyps, fm("Z"), size_bound=2, rounds=2)
    assert free.note == "no proof and no refutation within size 2, 2 round(s)"


def test_open_when_nothing_decides():
    hyps = [fm("a:A"), fm("~A"), fm("b:B"), fm("~B")]
    report = check_nonderivability(
        dl0, hyps, fm("A /\\ B"), exists_term=True,
        size_bound=3, rounds=2, term_size_bound=2, limit=60000)
    assert report.status == "open"
    assert not report.established
