"""Demand-driven saturation against the exhaustive loop, its oracle.

``derive_exhaustive`` (``exhaustive.py``) builds every schema instance;
``derive_forward`` builds only those modus ponens uses.  Both must
reach the same hypotheses and modus ponens conclusions ("D"), in the same
order with the same provenance, the same contradiction, goal and rounds,
and every instance the demand run stores must be an exhaustive instance
with the same schema and binding.
"""

import random

import pytest

from dlk import logics
from dlk.logics import get_profile
from dlk.proofs import check_proof, derive_forward
from dlk.specifications import close_spec
from dlk.syntax import Implies, Just, parse_formula

from exhaustive import derive_exhaustive

jl, dl, dl0, lp, fused = (get_profile(n)
                          for n in ("jl", "dl", "dl0", "lp", "fused"))


def fm(text, profile=dl):
    return parse_formula(text, signed=profile.signed)


def d_part(derived):
    return [(f, derived.provenance[f]) for f in derived.order
            if derived.provenance[f][0] != "axiom"]


def both(profile, hyps, **bounds):
    full = derive_exhaustive(profile, hyps, **bounds)
    lean = derive_forward(profile, hyps, **bounds)
    for f, prov in lean.provenance.items():
        if prov[0] == "axiom":
            assert full.provenance.get(f) == prov, f
    return full, lean


def assert_same(profile, hyps, **bounds):
    full, lean = both(profile, hyps, **bounds)
    assert d_part(lean) == d_part(full)
    assert lean.contradiction == full.contradiction
    assert lean.rounds_used == full.rounds_used
    assert lean.hit_limit == full.hit_limit
    goal = bounds.get("goal")
    if goal is not None:
        assert (goal in lean) == (goal in full)
    return full, lean


# hypothesis sets: the benchmark's saturate shapes (closed specifications)
# and the sets the other tests and the bundled scenarios use
SETS = [
    (dl, ["a:A"], True), (dl, ["a:A", "b:B"], True), (dl, ["s:(t:P)"], True),
    (dl0, ["a:A"], True), (dl0, ["a:A", "b:B"], True),
    (fused, ["s+:C", "t-:E"], True), (fused, ["t+:(s-:E)"], True),
    (fused, ["s-:E"], True),
    (dl, ["s:E", "~E"], False), (dl, ["e1:R", "~R"], False),
    (dl, ["s:(t:P -> ~P)"], False), (dl, ["P", "~P"], False),
    (dl, ["a:A", "b:(~A)"], False), (jl, ["A"], False),
    (jl, ["a:(A -> B)", "b:A"], False), (lp, ["a:A"], False),
    (lp, ["x:(A -> B)", "x:A"], False),
]


def hypotheses(profile, texts, closed):
    formulas = [fm(t, profile) for t in texts]
    return close_spec(formulas, profile).formulas if closed else formulas


def _corpus(seed=20):
    """(profile, hypotheses, mode, bounds) for every set, each in the four
    stopping regimes, at seeded sizes 2-3 and rounds 1-3 (one round at
    size 3, where the exhaustive reference gets slow)."""
    rng = random.Random(seed)
    cases = []
    for profile, texts, closed in SETS:
        hyps = hypotheses(profile, texts, closed)
        for mode in ("none", "goal", "goal_filter", "watch"):
            size = rng.choice((2, 2, 3)) if mode != "watch" else 2
            rounds = rng.choice((1, 2, 3)) if size == 2 else 1
            bounds = {"size_bound": size, "rounds": rounds,
                      "term_size_bound": 2}
            if mode == "watch":
                bounds["watch_contradiction"] = True
            name = f"{profile.name}:{','.join(texts)}:{mode}:s{size}r{rounds}"
            cases.append(pytest.param(profile, hyps, mode, bounds, id=name))
    return cases


# sets whose exhaustive runs stay quick at term size 3
TERM_BOUND_SETS = [
    (dl0, ["a:A"], True), (dl, ["P", "~P"], False), (jl, ["A"], False),
    (jl, ["a:(A -> B)", "b:A"], False), (lp, ["a:A"], False),
    (lp, ["x:(A -> B)", "x:A"], False), (fused, ["s-:E"], False),
]


def _term_bound_corpus(seed=31):
    """(profile, hypotheses, mode, bounds) at size 2 and term sizes 1 and
    3, on either side of ``_corpus``'s term size 2: every set at each
    term size, the stopping regimes in turn from a seeded start, at
    seeded rounds 1-2."""
    rng = random.Random(seed)
    modes = ("none", "goal", "goal_filter", "watch")
    cases = []
    for tbound in (1, 3):
        start = rng.randrange(len(modes))
        for i, (profile, texts, closed) in enumerate(TERM_BOUND_SETS):
            hyps = hypotheses(profile, texts, closed)
            mode = modes[(start + i) % len(modes)]
            rounds = rng.choice((1, 2))
            bounds = {"size_bound": 2, "rounds": rounds,
                      "term_size_bound": tbound}
            if mode == "watch":
                bounds["watch_contradiction"] = True
            name = (f"{profile.name}:{','.join(texts)}:{mode}:"
                    f"r{rounds}t{tbound}")
            cases.append(pytest.param(profile, hyps, mode, bounds, id=name))
    return cases


@pytest.mark.parametrize("profile, hyps, mode, bounds",
                         _corpus() + _term_bound_corpus())
def test_strategies_agree(profile, hyps, mode, bounds):
    if mode == "goal":
        # a goal in the middle of the exhaustive run's conclusions
        reached = [f for f, _ in d_part(derive_exhaustive(profile, hyps,
                                                          **bounds))]
        bounds = dict(bounds, goal=reached[len(reached) // 2])
    elif mode == "goal_filter":
        bodies = {h.body for h in hyps if isinstance(h, Just)}
        bounds = dict(bounds, goal_filter=lambda f: isinstance(f, Just)
                      and f.body not in bodies)
    assert_same(profile, hyps, **bounds)


def test_conclusion_equal_to_an_earlier_instance_stays_an_axiom():
    # MP on the k instance A -> (_|_ -> A) concludes _|_ -> A in round 2,
    # which ex-falso already built over round 1's pool: it keeps that
    # provenance and is not fed to the pools as a conclusion (fed, it
    # would reorder round 3)
    full, lean = assert_same(jl, [fm("A")], size_bound=3, rounds=3,
                             term_size_bound=1)
    falsum = fm("_|_ -> A")
    assert full.provenance[falsum][0] == "axiom"
    assert lean.provenance[falsum] == full.provenance[falsum]
    assert fm("A -> (_|_ -> A)") in lean


def test_instance_major_with_an_instance_antecedent():
    # s applied to a k instance: both premises are instances
    full, lean = assert_same(jl, [fm("A")], size_bound=2, rounds=2)
    target = fm("(A -> A) -> (A -> A)")
    kind, major, minor = lean.provenance[target]
    assert kind == "mp"
    assert lean.provenance[major][1] == "s"
    assert lean.provenance[minor][1] == "k"


def test_derived_implication_with_an_instance_antecedent():
    hyps = [fm("(A -> (B -> A)) -> C")]
    full, lean = assert_same(jl, hyps, size_bound=2, rounds=2)
    kind, major, minor = lean.provenance[fm("C")]
    assert (kind, major) == ("mp", hyps[0])
    assert lean.provenance[minor] == full.provenance[minor]
    assert lean.provenance[minor][1] == "k"


def test_goal_reached_by_an_instance_of_the_last_round():
    goal = fm("A -> (A -> A)")
    full, lean = assert_same(jl, [fm("A")], size_bound=2, rounds=1,
                             goal=goal)
    assert goal in lean
    assert lean.provenance[goal] == ("axiom", "k", full.provenance[goal][2])


def test_contradiction_with_an_instance_of_the_last_round():
    denied = fm("~(A -> (A -> A))")
    full, lean = assert_same(jl, [denied], size_bound=2, rounds=1,
                             watch_contradiction=True)
    assert lean.contradiction == (denied.body, denied)
    for f in lean.contradiction:
        result = check_proof(lean.proof_of(f))
        assert result.ok and result.conclusion == f


@pytest.mark.parametrize("limit", [40, 150])
def test_a_capped_demand_run_extends_the_capped_exhaustive_run(limit):
    hyps = [fm("s:E"), fm("~E")]
    bounds = {"size_bound": 3, "rounds": 2, "term_size_bound": 2}
    uncapped, _ = assert_same(dl, hyps, **bounds)
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
