"""``DemandSaturation`` against ``AllPlans``, which joins every plan.

``queue_phase`` leaves out the plans (schema pairs) with a compound entry
of a kind the snapshot lacks; ``AllPlans`` (``all_plans.py``) joins every
one of them.  The two must store the same formulas in the same order
with the same provenance, axioms included, and agree on the
contradiction, ``rounds_used`` and ``hit_limit``, which
``test_engine_oracles.py`` checks on the seeded corpus and on random
runs.  A work counter pins the joins of one fixed case, so that losing
the skip fails here even though no result changes.  Building the plans
runs no sign rule, so a search's traced ``term_sign`` count does not
depend on whether it was the first to build its profile's rule book.
"""

from collections import Counter

from dlk import syntax
from dlk.demand import DemandSaturation, _RuleBook
from dlk.logics import PROFILES

from all_plans import AllPlans
from engine_cases import dl, hypotheses


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


def test_building_a_rule_book_calls_no_sign_rule(monkeypatch):
    # plans over syntax nodes would run the sign rules, which call the
    # traced term_sign, on the first search of a profile only
    calls = []
    term_sign = syntax.term_sign

    def counted(t):
        calls.append(t)
        return term_sign(t)

    monkeypatch.setattr(syntax, "term_sign", counted)
    for profile in PROFILES.values():
        assert _RuleBook(profile.schema_ids).plans
    assert calls == []
