"""``DemandSaturation.run`` against the eager round loop, its oracle.

``derive_eager`` (``eager_rounds.py``) feeds every conclusion to the
pools as it is added and runs the whole instance phase after every round;
``derive_forward`` feeds a round's conclusions at its snapshot and, after
the last round, looks only for the goal and the first complementary pair,
and only when one of them can be found.  The two must store the same
formulas in the same order with the same provenance, axioms included,
and agree on the contradiction, ``rounds_used`` and ``hit_limit``.  The
seeded corpus and the random runs are compared in
``test_engine_oracles.py``; the cases here single out the last round.
"""

import pytest

from dlk.demand import DemandSaturation
from dlk.proofs import check_proof, derive_forward
from dlk.syntax import Implies

from eager_rounds import derive_eager
from engine_cases import assert_same, dl, fm, hypotheses, jl


def both(profile, hyps, **bounds):
    lean = derive_forward(profile, hyps, **bounds)
    assert_same(lean, derive_eager(profile, hyps, **bounds))
    return lean


class _Recording(DemandSaturation):
    """Records the rounds whose snapshot is taken."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.snapshots = []

    def snapshot(self, round_no):
        self.snapshots.append(round_no)
        return super().snapshot(round_no)


def _snapshots(profile, hyps, size, rounds, goal=None, watch=False):
    run = _Recording(profile, hyps, size_bound=size, rounds=rounds,
                     term_size_bound=2, limit=None, goal=goal,
                     watch_contradiction=watch)
    run.run()
    return run.snapshots


def test_implication_goal_found_by_the_last_rounds_snapshot():
    # the k instance is a goal, and the only round is the last one: only
    # its snapshot makes the goal an instance; A -> B is concluded in it
    hyps = [fm("A", jl), fm("A -> B", jl)]
    goal = fm("B -> (A -> B)", jl)
    lean = both(jl, hyps, size_bound=3, rounds=1, goal=goal)
    assert lean.provenance[goal][:2] == ("axiom", "k")
    assert lean.rounds_used == 1 and fm("B", jl) in lean
    assert _snapshots(jl, hyps, 3, 1, goal) == [1]


def test_non_implication_goal_skips_the_last_phase():
    # no instance is ever a bare atom, so the last round ends at its
    # modus ponens phase: no pool feeding, no snapshot, no notes
    hyps = hypotheses(dl, ["a:A", "b:B"], True)
    goal = fm("C")
    lean = both(dl, hyps, size_bound=2, rounds=3,
                term_size_bound=2, goal=goal)
    assert goal not in lean and lean.rounds_used == 3
    assert _snapshots(dl, hyps, 2, 3, goal) == [1, 2]
    # an implication goal keeps the last snapshot
    assert _snapshots(dl, hyps, 2, 3, fm("C -> D")) == [1, 2, 3]


def test_limit_hit_in_the_last_modus_ponens_phase():
    hyps = [fm("s:E"), fm("~E")]
    bounds = {"size_bound": 3, "rounds": 2, "term_size_bound": 2}
    one_round = derive_forward(dl, hyps, **dict(bounds, rounds=1))
    uncapped = both(dl, hyps, **bounds)
    limit = (len(one_round) + len(uncapped)) // 2
    assert len(one_round) < limit < len(uncapped)
    lean = both(dl, hyps, limit=limit, **bounds)
    assert lean.hit_limit and lean.rounds_used == 2 and len(lean) >= limit
    assert lean.order == uncapped.order[:len(lean)]


@pytest.mark.parametrize("watch", [False, True])
def test_a_single_round(watch):
    # the first round is the last: its notes find the pair and the goal,
    # the pair's instance first, and a watched pair stops the run there;
    # a goal concluded by modus ponens stops it before the snapshot
    denied = fm("~(A -> (B -> A))", jl)
    hyps = [fm("A", jl), fm("A -> B", jl), denied]
    bounds = {"size_bound": 3, "rounds": 1, "watch_contradiction": watch}
    lean = both(jl, hyps, **bounds)
    assert lean.contradiction == (denied.body, denied)
    goal = fm("B -> (A -> B)", jl)
    lean = both(jl, hyps, goal=goal, **bounds)
    assert lean.contradiction == (denied.body, denied)
    assert (goal in lean) == (not watch)
    lean = both(jl, hyps, goal=fm("B", jl), **bounds)
    assert lean.order[-1] == fm("B", jl) and lean.contradiction is None
    assert _snapshots(jl, hyps, 3, 1, fm("B", jl), watch) == []


def test_negation_note_without_watch_sets_the_pair_and_goes_on():
    # round 1 concludes ~g, and g, a k instance, is the antecedent of a
    # hypothesis: the note stores g and records the pair, the run goes
    # on, and round 2 uses the stored g as the minor premise for R
    g = fm("Q -> (P -> Q)", jl)
    hyps = [fm("P", jl), Implies(fm("P", jl), fm("~(Q -> (P -> Q))", jl)),
            Implies(g, fm("R", jl))]
    lean = both(jl, hyps, size_bound=3, rounds=2)
    assert lean.contradiction == (g, fm("~(Q -> (P -> Q))", jl))
    assert lean.provenance[g][:2] == ("axiom", "k")
    assert lean.provenance[fm("R", jl)] == ("mp", hyps[2], g)
    assert lean.rounds_used == 2
    for f in (g, fm("R", jl)):
        result = check_proof(lean.proof_of(f))
        assert result.ok and result.conclusion == f
