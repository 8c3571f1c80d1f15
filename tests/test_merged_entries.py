"""``DemandSaturation.entries`` against the merged per-rule streams.

``MergedEntries`` (``merged_entries.py``) checks every stream the engine
queues, at each addition and each instance phase, against the
``heapq.merge`` of one ``extend`` stream per rule that the engine used
to queue.  ``test_engine_oracles.py`` runs it over the seeded corpus
and the random runs; here it runs over one case per profile of a
conclusion that was a pool member before, and its result must be the
engine's.
"""

import pytest

from dlk.logics import PROFILES
from dlk.proofs import derive_forward
from dlk.syntax import parse_formula

from engine_cases import assert_same
from merged_entries import derive_merged


@pytest.mark.parametrize("profile", sorted(PROFILES.values(),
                                           key=lambda p: p.name),
                         ids=lambda p: p.name)
def test_a_conclusion_already_in_the_pool_starts_its_rules_in_schema_order(
        profile):
    # A /\ B is a pool member from the start and concluded in round 2, so
    # its bare-antecedent rules (k, and-intro, the or-intros) have
    # instances of round 1 beside and-elim's; the seeded corpus has no
    # such addition
    hyps = [parse_formula(text, profile.signed)
            for text in ("A", "B", "A /\\ B -> C")]
    derived = derive_forward(profile, hyps, size_bound=3, rounds=2,
                             term_size_bound=2, limit=None)
    conjunction = parse_formula("A /\\ B", profile.signed)
    assert derived.provenance[conjunction][0] == "mp"
    checked, streams = derive_merged(profile, hyps, size_bound=3, rounds=2,
                                     term_size_bound=2, limit=None)
    assert streams > 0
    assert_same(derived, checked)
