"""The round loop of ``dlk.demand`` before it deferred work nobody reads,
kept as the oracle of ``DemandSaturation.run``.

``EagerRounds.run`` feeds each modus ponens conclusion to the pools as
soon as it is added, and after every round, the last one included, takes
the snapshot and runs the whole instance phase: the queue for the next
round, then the goal and complementary-pair notes.  ``DemandSaturation``
feeds a round's conclusions just before its snapshot, takes the notes
after round 1 only, and ends a last round after the first at its modus
ponens phase, since by facts (a)-(c) of its module docstring no later
snapshot settles anything round 1's left open.  Both must return the
same ``DerivedSet``: order, provenance, contradiction, ``rounds_used``
and ``hit_limit``.  ``EagerRounds`` inherits the rest of
the engine, so its ``queue_phase`` also joins only the plans that
``live_plans`` returns; ``all_plans.py`` is the oracle of that skip.
"""

from __future__ import annotations

from dlk import logics
from dlk.demand import DemandSaturation
from dlk.logics import InstantiationError
from dlk.proofs import DerivedSet


class EagerRounds(DemandSaturation):

    def run(self) -> DerivedSet:
        for i, h in enumerate(self.hyps):
            if h not in self.out.provenance:
                self.now = (0, 0, i)
                self.add(h, ("hyp", i))
            if self.done:
                break
        for round_no in range(1, self.rounds + 1):
            if self.done:
                break
            self.out.rounds_used = round_no
            n = 0
            while self.queue and not self.done:
                entry = next(self.queue[0], None)
                if entry is None:
                    self.queue.popleft()
                    continue
                major, route, left_route = entry
                if major is None:
                    try:
                        major = logics.instantiate(
                            route[0].template, route[1], self.signed)
                    except InstantiationError:
                        continue
                if (major.right in self.out.provenance
                        or self.instance(major.right) is not None):
                    continue
                if route is not None:
                    self.store(major, *route)
                if left_route is not None:
                    self.store(major.left, *left_route)
                self.now = (round_no, 0, n)
                n += 1
                self.add(major.right, ("mp", major, major.left))
                self.feed_pool(major.right)
            if self.done or not self.snapshot(round_no):
                break
            self.queue_phase(round_no)
            self.note_phase()
        return self.out


def derive_eager(profile, hypotheses, *, size_bound: int = 4,
                 rounds: int = 3, term_size_bound: int | None = None,
                 limit: int | None = None, **stops) -> DerivedSet:
    """``proofs.derive_forward`` over the eager round loop."""
    return EagerRounds(profile, hypotheses, size_bound=size_bound,
                       rounds=rounds, term_size_bound=term_size_bound,
                       limit=limit, **stops).run()
