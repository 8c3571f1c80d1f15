"""``DemandSaturation.entries`` against the merged per-rule streams.

``MergedEntries`` (``merged_entries.py``) checks every stream the engine
queues, at each addition and each instance phase, against the
``heapq.merge`` of one ``extend`` stream per rule that the engine used
to queue.  It runs over the seeded corpus and the random runs of
``test_all_plans.py``, and over one case per profile of a conclusion
that was a pool member before, and its result must be the engine's.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from dlk.logics import PROFILES
from dlk.proofs import derive_forward
from dlk.syntax import parse_formula

from merged_entries import derive_merged
from test_all_plans import _corpus, corpus_bounds
from test_eager_rounds import small_runs
from test_strategies import hypotheses


def assert_same(profile, hyps, **bounds):
    checked, streams = derive_merged(profile, hyps, **bounds)
    # only a search that stops at a hypothesis queues no stream
    assert streams > 0 or checked.rounds_used == 0
    engine = derive_forward(profile, hyps, **bounds)
    assert list(checked.provenance.items()) \
        == list(engine.provenance.items())
    assert checked.contradiction == engine.contradiction
    assert checked.rounds_used == engine.rounds_used
    assert checked.hit_limit == engine.hit_limit


@pytest.mark.parametrize("profile, texts, closed, mode, size, rounds, limit",
                         _corpus())
def test_one_stream_per_addition_yields_the_merged_entries(
        profile, texts, closed, mode, size, rounds, limit):
    hyps = hypotheses(profile, texts, closed)
    assert_same(profile, hyps, **corpus_bounds(profile, hyps, mode, size,
                                               rounds, limit))


@given(small_runs())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_runs_yield_the_merged_entries(case):
    profile, hyps, bounds = case
    assert_same(profile, hyps, **bounds)


@pytest.mark.parametrize("profile", sorted(PROFILES.values(),
                                           key=lambda p: p.name),
                         ids=lambda p: p.name)
def test_a_conclusion_already_in_the_pool_starts_its_rules_in_schema_order(
        profile):
    # A /\ B is a pool member from the start and concluded in round 2, so
    # its bare-antecedent rules (k, and-intro, the or-intros) have
    # instances of round 1 beside and-elim's; the corpus above has no
    # such addition
    hyps = [parse_formula(text, profile.signed)
            for text in ("A", "B", "A /\\ B -> C")]
    derived = derive_forward(profile, hyps, size_bound=3, rounds=2,
                             term_size_bound=2, limit=None)
    conjunction = parse_formula("A /\\ B", profile.signed)
    assert derived.provenance[conjunction][0] == "mp"
    assert_same(profile, hyps, size_bound=3, rounds=2, term_size_bound=2,
                limit=None)
