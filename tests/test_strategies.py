"""Demand-driven saturation against the exhaustive loop, its oracle, on
cases the seeded corpus of ``test_engine_oracles.py`` does not single
out.

``derive_exhaustive`` (``exhaustive.py``) builds every schema instance;
``derive_forward`` builds only those modus ponens uses.  Both must
reach the same hypotheses and modus ponens conclusions ("D"), in the same
order with the same provenance, the same contradiction, goal and rounds,
and every instance the demand run stores must be an exhaustive instance
with the same schema and binding.  A capped demand run goes further than
the capped exhaustive one, along the uncapped run.
"""

import pytest

from dlk import logics
from dlk.proofs import check_proof, derive_forward
from dlk.syntax import Implies

from engine_cases import assert_same, d_part, dl, fm, fused, hypotheses, jl
from exhaustive import derive_exhaustive


def both(profile, hyps, **bounds):
    full = derive_exhaustive(profile, hyps, **bounds)
    lean = derive_forward(profile, hyps, **bounds)
    assert_same(lean, full, exhaustive=True)
    goal = bounds.get("goal")
    if goal is not None:
        assert (goal in lean) == (goal in full)
    return full, lean


def test_conclusion_equal_to_an_earlier_instance_stays_an_axiom():
    # MP on the k instance A -> (_|_ -> A) concludes _|_ -> A in round 2,
    # which ex-falso already built over round 1's pool: it keeps that
    # provenance and is not fed to the pools as a conclusion (fed, it
    # would reorder round 3)
    full, lean = both(jl, [fm("A")], size_bound=3, rounds=3,
                      term_size_bound=1)
    falsum = fm("_|_ -> A")
    assert full.provenance[falsum][0] == "axiom"
    assert lean.provenance[falsum] == full.provenance[falsum]
    assert fm("A -> (_|_ -> A)") in lean


def test_instance_major_with_an_instance_antecedent():
    # s applied to a k instance: both premises are instances
    full, lean = both(jl, [fm("A")], size_bound=2, rounds=2)
    target = fm("(A -> A) -> (A -> A)")
    kind, major, minor = lean.provenance[target]
    assert kind == "mp"
    assert lean.provenance[major][1] == "s"
    assert lean.provenance[minor][1] == "k"


def test_derived_implication_with_an_instance_antecedent():
    hyps = [fm("(A -> (B -> A)) -> C")]
    full, lean = both(jl, hyps, size_bound=2, rounds=2)
    kind, major, minor = lean.provenance[fm("C")]
    assert (kind, major) == ("mp", hyps[0])
    assert lean.provenance[minor] == full.provenance[minor]
    assert lean.provenance[minor][1] == "k"


def test_goal_reached_by_an_instance_of_the_last_round():
    goal = fm("A -> (A -> A)")
    full, lean = both(jl, [fm("A")], size_bound=2, rounds=1,
                      goal=goal)
    assert goal in lean
    assert lean.provenance[goal] == ("axiom", "k", full.provenance[goal][2])


def test_contradiction_with_an_instance_of_the_last_round():
    denied = fm("~(A -> (A -> A))")
    full, lean = both(jl, [denied], size_bound=2, rounds=1,
                      watch_contradiction=True)
    assert lean.contradiction == (denied.body, denied)
    for f in lean.contradiction:
        result = check_proof(lean.proof_of(f))
        assert result.ok and result.conclusion == f


@pytest.mark.parametrize("limit", [40, 150])
def test_a_capped_demand_run_extends_the_capped_exhaustive_run(limit):
    hyps = [fm("s:E"), fm("~E")]
    bounds = {"size_bound": 3, "rounds": 2, "term_size_bound": 2}
    uncapped, _ = both(dl, hyps, **bounds)
    full = derive_exhaustive(dl, hyps, limit=limit, **bounds)
    lean = derive_forward(dl, hyps, limit=limit, **bounds)
    assert full.hit_limit and lean.hit_limit and len(lean) >= limit
    assert d_part(lean)[:len(d_part(full))] == d_part(full)
    assert d_part(uncapped)[:len(d_part(lean))] == d_part(lean)
    assert len(d_part(lean)) > len(d_part(full))
    for f, prov in lean.provenance.items():
        assert uncapped.provenance[f] == prov


def test_without_goal_or_pair_only_premises_are_stored():
    hyps = hypotheses(dl, ["a:A", "b:B"], True)
    lean = derive_forward(dl, hyps, size_bound=2, rounds=3,
                          term_size_bound=2)
    premises = {p for prov in lean.provenance.values() if prov[0] == "mp"
                for p in prov[1:]}
    for f, prov in lean.provenance.items():
        if prov[0] == "axiom":
            assert f in premises and isinstance(f, Implies)


def test_every_demand_conclusion_has_a_checking_proof():
    lean = derive_forward(fused, hypotheses(fused, ["s+:C", "t-:E"], True),
                          size_bound=2, rounds=2, term_size_bound=2)
    for f in lean.order:
        result = check_proof(lean.proof_of(f))
        assert result.ok and result.conclusion == f


def test_the_engine_matches_and_instantiates_through_logics(monkeypatch):
    # the benchmark's tracer wraps these module attributes; an engine
    # that bound or cached the functions would hide its calls from it
    calls = {"match_template": 0, "instantiate": 0}
    for name in calls:
        real = getattr(logics, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(logics, name, counted)
    lean = derive_forward(jl, [fm("A")], size_bound=2, rounds=2)
    assert len(lean) > 1
    assert calls["match_template"] > 0 and calls["instantiate"] > 0
