"""The demand engine against its four oracles, on one seeded corpus and
on random runs (``engine_cases.py``).

Each case runs ``derive_forward`` once and compares its ``DerivedSet``
with those of ``EagerRounds``, ``AllPlans`` and ``MergedEntries`` (which
also checks every stream the engine queues), and on the cases the
exhaustive loop affords with ``derive_exhaustive``: one test per case and
oracle, the engine's run kept for the case's next oracle.  A goal is
taken from an oracle's run, never from the engine's.
"""

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings

from dlk.logics import PROFILES
from dlk.proofs import derive_forward

from all_plans import derive_all_plans
from eager_rounds import derive_eager
from engine_cases import SETS, assert_same, corpus, small_runs, stopping
from exhaustive import derive_exhaustive
from merged_entries import derive_merged


def check_merged(engine, profile, hyps, bounds):
    merged, streams = derive_merged(profile, hyps, **bounds)
    # only a search that stops at a hypothesis queues no stream
    assert streams > 0 or merged.rounds_used == 0
    assert_same(engine, merged)


def check_exhaustive(engine, profile, hyps, bounds):
    full = derive_exhaustive(profile, hyps, **bounds)
    assert_same(engine, full, exhaustive=True)
    goal = bounds.get("goal")
    if goal is not None:
        assert (goal in engine) == (goal in full)


ORACLES = {
    "eager_rounds": lambda engine, profile, hyps, bounds:
        assert_same(engine, derive_eager(profile, hyps, **bounds)),
    "all_plans": lambda engine, profile, hyps, bounds:
        assert_same(engine, derive_all_plans(profile, hyps, **bounds)),
    "merged_entries": check_merged,
    "exhaustive": check_exhaustive,
}

# the corpus by case id; the exhaustive loop is compared on the cases
# that afford it
CASES = {param.id: param.values for param in corpus()}


@lru_cache(maxsize=1)
def engine_run(case_id):
    """The case's bounds with its stopping rule, and the engine's run."""
    profile, hyps, stop, bounds, exhaustive = CASES[case_id]
    oracle = derive_exhaustive if exhaustive else derive_eager
    bounds = stopping(profile, hyps, stop, bounds, oracle)
    return bounds, derive_forward(profile, hyps, **bounds)


def test_the_corpus_covers_every_profile():
    assert {profile.name for profile, _, _ in SETS} == set(PROFILES)


@pytest.mark.parametrize("case_id, oracle", [
    pytest.param(case_id, oracle, id=f"{case_id}:{oracle}")
    for case_id, (*_, exhaustive) in CASES.items()
    for oracle in ORACLES if exhaustive or oracle != "exhaustive"])
def test_the_engine_derives_what_each_oracle_derives(case_id, oracle):
    profile, hyps, *_ = CASES[case_id]
    bounds, engine = engine_run(case_id)
    ORACLES[oracle](engine, profile, hyps, bounds)


@given(small_runs())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_runs_derive_what_each_oracle_derives(case):
    # a capped exhaustive run stores instances the engine never builds,
    # so it stops elsewhere (see test_strategies.py)
    profile, hyps, bounds = case
    engine = derive_forward(profile, hyps, **bounds)
    for name, check in ORACLES.items():
        if name != "exhaustive" or "limit" not in bounds:
            check(engine, profile, hyps, bounds)
