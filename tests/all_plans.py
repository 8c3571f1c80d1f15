"""The demand engine joining every schema pair, kept as the oracle of
``DemandSaturation.live_plans``.

``queue_phase`` joins the plans (schema pairs, such as ``s`` over ``k``)
that ``live_plans`` returns: those whose every compound entry has a
member of its head kind in the snapshot.  ``AllPlans`` joins every plan
of the rule book in every round, as the engine did before it left the
others out.  Both must return the same ``DerivedSet``: provenance in
order, contradiction, ``rounds_used`` and ``hit_limit``.
"""

from __future__ import annotations

from dlk.demand import DemandSaturation
from dlk.proofs import DerivedSet


class AllPlans(DemandSaturation):

    def live_plans(self):
        return self.book.plans


def derive_all_plans(profile, hypotheses, *, size_bound: int = 4,
                     rounds: int = 3, term_size_bound: int | None = None,
                     limit: int | None = None, **stops) -> DerivedSet:
    """``proofs.derive_forward`` joining every plan in every round."""
    return AllPlans(profile, hypotheses, size_bound=size_bound,
                    rounds=rounds, term_size_bound=term_size_bound,
                    limit=limit, **stops).run()
