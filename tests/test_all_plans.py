"""``DemandSaturation`` against ``AllPlans``, which joins every plan.

``queue_phase`` leaves out the plans (schema pairs) with a compound entry
of a kind the snapshot lacks; ``AllPlans`` (``all_plans.py``) joins every
one of them.  The two must store the same formulas in the same order
with the same provenance, axioms included, and agree on the
contradiction, ``rounds_used`` and ``hit_limit``.  A work counter pins
the joins of one fixed case, so that losing the skip fails here even
though no result changes.
"""

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings

from dlk.demand import DemandSaturation
from dlk.logics import PROFILES
from dlk.proofs import derive_forward
from dlk.syntax import Just

from all_plans import AllPlans, derive_all_plans
from test_eager_rounds import small_runs
from test_strategies import SETS, d_part, hypotheses

dl = PROFILES["dl"]


def assert_same(profile, hyps, **bounds):
    every = derive_all_plans(profile, hyps, **bounds)
    live = derive_forward(profile, hyps, **bounds)
    assert list(live.provenance.items()) == list(every.provenance.items())
    assert live.contradiction == every.contradiction
    assert live.rounds_used == every.rounds_used
    assert live.hit_limit == every.hit_limit


MODES = ("none", "goal", "goal_filter", "watch", "limit")


def _corpus(seed=20):
    """Every set in every stopping regime at rounds 1-3, term size 2:
    formula size 3 up to two rounds and under a seeded limit, size 2
    otherwise."""
    rng = random.Random(seed)
    cases = []
    for profile, texts, closed in SETS:
        for mode in MODES:
            for rounds in (1, 2, 3):
                size = 3 if rounds < 3 or mode == "limit" else 2
                limit = rng.randrange(10, 300) if mode == "limit" else None
                name = f"{profile.name}:{','.join(texts)}:{mode}:r{rounds}"
                cases.append(pytest.param(profile, texts, closed, mode,
                                          size, rounds, limit, id=name))
    return cases


def test_the_corpus_covers_every_profile():
    assert {profile.name for profile, _, _ in SETS} == set(PROFILES)


def corpus_bounds(profile, hyps, mode, size, rounds, limit) -> dict:
    """The keywords of one ``_corpus`` case: its bounds and the stopping
    rule its mode names."""
    bounds = {"size_bound": size, "rounds": rounds, "term_size_bound": 2,
              "limit": limit}
    if mode == "goal":
        # a conclusion in the middle of the unstopped run
        reached = [f for f, _ in d_part(derive_all_plans(profile, hyps,
                                                         **bounds))]
        if reached:
            bounds["goal"] = reached[len(reached) // 2]
    elif mode == "goal_filter":
        bodies = {h.body for h in hyps if isinstance(h, Just)}
        bounds["goal_filter"] = (lambda f: isinstance(f, Just)
                                 and f.body not in bodies)
    elif mode == "watch":
        bounds["watch_contradiction"] = True
    return bounds


@pytest.mark.parametrize("profile, texts, closed, mode, size, rounds, limit",
                         _corpus())
def test_live_plans_agree_with_every_plan(profile, texts, closed, mode,
                                          size, rounds, limit):
    hyps = hypotheses(profile, texts, closed)
    assert_same(profile, hyps, **corpus_bounds(profile, hyps, mode, size,
                                               rounds, limit))


@given(small_runs())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_runs_agree_with_every_plan(case):
    profile, hyps, bounds = case
    assert_same(profile, hyps, **bounds)


def _joins(engine, monkeypatch) -> tuple[dict, dict]:
    """The plans ``engine`` joins in each round of ``close_spec([a:A,
    b:B])`` in dl, size 2, 3 rounds, term size 2, and the bindings the
    joins find."""
    joins, found = Counter(), Counter()
    solutions = DemandSaturation.solutions

    def counted(self, plan, round_no):
        joins[round_no] += 1
        values = solutions(self, plan, round_no)
        found[round_no] += len(values)
        return values

    monkeypatch.setattr(DemandSaturation, "solutions", counted)
    hyps = hypotheses(dl, ["a:A", "b:B"], True)
    derived = engine(dl, hyps, size_bound=2, rounds=3, term_size_bound=2,
                     limit=None).run()
    assert len(derived) == 700
    return dict(joins), dict(found)


def test_the_engine_joins_only_the_plans_the_snapshot_can_feed(monkeypatch):
    # 99 plans in dl; the snapshots hold members of the kinds of 4 of them
    # (no implication fits in size 2), and those 4 find every binding
    assert len(DemandSaturation(dl, (), size_bound=2, rounds=1,
                                term_size_bound=2,
                                limit=None).book.plans) == 99
    bindings = {1: 53, 2: 23}
    assert _joins(AllPlans, monkeypatch) == ({1: 99, 2: 99}, bindings)
    assert _joins(DemandSaturation, monkeypatch) == ({1: 4, 2: 4}, bindings)
