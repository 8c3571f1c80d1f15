"""The queue streams of ``dlk.demand`` before one generator per addition,
kept as the oracle of ``DemandSaturation.entries``.

The engine once queued, for each addition, ``heapq.merge`` over the
addition's majors and one ``extend`` generator per matching rule, and for
each instance phase the merge of the plan events with one ``extend`` per
watched antecedent match.  ``MergedEntries`` keeps ``extend`` as it was
and checks, at every addition and every instance phase, that the
generator the engine queues yields the same entries, entry for entry,
sort keys included.
The generator is run to the end when it is made; the pools do not change
before the queue would have drawn it, so nothing else changes.
"""

from __future__ import annotations

import heapq
from operator import itemgetter

from dlk.demand import DemandSaturation, _Rule
from dlk.logics import Binding
from dlk.proofs import DerivedSet


class MergedEntries(DemandSaturation):

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.made: list[list] = []      # what each entries() call yielded
        self.checked = 0                # additions and phases compared

    def entries(self, majors, starts, first):
        made = list(super().entries(majors, starts, first))
        self.made.append(made)
        return iter(made)

    def extend(self, rule: _Rule, bound: Binding, round_no: int | None):
        """Queue entries, in key order, for the instances of ``rule`` whose
        antecedent has the bound part, the free metavariables ranging over
        the current snapshot: all of them (``round_no`` None) or those
        first built in ``round_no``.  Bindings that break a sign are left
        for the queue to drop."""
        fm, tm = bound.formulas, bound.terms
        newest = 1
        fidx, tidx = [], []
        for names, values, pool, idx in zip(rule.bound, (fm, tm), self.pools,
                                            (fidx, tidx)):
            for name in names:
                at = pool.index.get(values[name])
                if at is None or at >= len(pool.round):
                    return
                newest = max(newest, pool.round[at])
                idx.append(at)
        fidx, tidx = tuple(fidx), tuple(tidx)
        everything = round_no is None or newest == round_no
        if rule.free is None:
            if everything:
                yield (((newest, 1, rule.pos, fidx, tidx), 0, ()),
                       (None, (rule, bound), None))
            return
        # one free metavariable, the last of its kind: keys grow with its
        # pool index
        term, name = rule.free
        pool = self.pools[term]
        items, rounds, marks = pool.items, pool.round, pool.marks
        for at in range(0 if everything else marks[round_no - 1], marks[-1]):
            key = (max(newest, rounds[at]), 1, rule.pos)
            if not term:
                key += (fidx + (at,), tidx)
                binding = Binding({**fm, name: items[at]}, dict(tm))
            else:
                key += (fidx, tidx + (at,))
                binding = Binding(dict(fm), {**tm, name: items[at]})
            yield ((key, 0, ()), (None, (rule, binding), None))

    def add(self, f, prov):
        majors = self.by_antecedent.get(f)
        streams = [[((key, 0, ()), (m, None, None)) for key, m in majors]] \
            if majors else []
        watched, made = len(self.ante_watch), len(self.made)
        super().add(f, prov)
        streams += [self.extend(rule, bound, None)
                    for rule, bound in self.ante_watch[watched:]]
        got = self.made[made:]
        if self.done:
            # an addition that stops the search queues nothing
            assert not got and len(self.ante_watch) == watched
            return
        assert len(got) <= 1
        assert (got[0] if got else []) == list(heapq.merge(
            *streams, key=itemgetter(0))), f
        self.checked += 1

    def queue_phase(self, round_no):
        made = len(self.made)
        super().queue_phase(round_no)
        (got,) = self.made[made:]
        assert got == list(heapq.merge(
            *(self.extend(rule, bound, round_no)
              for rule, bound in self.ante_watch),
            key=itemgetter(0))), round_no
        self.checked += 1


def derive_merged(profile, hypotheses, *, size_bound: int = 4,
                  rounds: int = 3, term_size_bound: int | None = None,
                  limit: int | None = None, **stops
                  ) -> tuple[DerivedSet, int]:
    """``proofs.derive_forward`` with every queued stream checked against
    the merged one, and the number of streams checked."""
    engine = MergedEntries(profile, hypotheses, size_bound=size_bound,
                           rounds=rounds, term_size_bound=term_size_bound,
                           limit=limit, **stops)
    return engine.run(), engine.checked
