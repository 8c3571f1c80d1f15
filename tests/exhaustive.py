"""The exhaustive saturation loop, kept as the oracle of ``derive_forward``.

``derive_exhaustive`` builds and stores every schema instance of every
round; ``dlk.derive_forward`` builds only the instances modus ponens
uses.  Both must reach the same hypotheses and modus ponens conclusions
in the same order with the same provenance, the same contradiction,
goal and ``rounds_used``, and every instance the demand-driven run
stores must be an exhaustive instance with the same schema and binding.
Two differences are by design: ``limit`` counts the formulas stored, so
a capped demand-driven run returns a longer prefix of the same
conclusions; and ``goal_filter`` sees only stored formulas, so a filter
that accepts an implication may fire later than here (every instance is
an implication).

It is slow by construction (criterion 6 builds 155,909 instances to find
7 justified formulas) and is meant for tests only.
"""

from __future__ import annotations

from collections import deque
from itertools import product as _cartesian

from dlk.demand import _meta_names
from dlk.logics import (
    SCHEMAS, Binding, InstantiationError, LogicProfile, alphabet_from,
    instantiate,
)
from dlk.proofs import DerivedSet
from dlk.syntax import (
    BOTTOM, Formula, Implies, Not, SignDisciplineError, Term,
    enumerate_terms, formula_size, formula_terms, subformulas, subterms,
    term_size,
)


def derive_exhaustive(profile: LogicProfile, hypotheses, *,
                      size_bound: int = 4, rounds: int = 3,
                      term_size_bound: int | None = None,
                      goal: Formula | None = None, goal_filter=None,
                      extra_pool=(), limit: int | None = None,
                      watch_contradiction: bool = False) -> DerivedSet:
    """Saturate the hypotheses under every schema instance of every round
    and modus ponens; the bounds and stopping rules are those of
    ``derive_forward``."""
    hyps = tuple(hypotheses)
    out = DerivedSet(profile, hyps)
    tbound = size_bound if term_size_bound is None else term_size_bound

    pool: list[Formula] = []
    pool_set: set[Formula] = set()
    term_pool: list[Term] = []
    term_set: set[Term] = set()
    fresh_f: list[Formula] = []
    fresh_t: list[Term] = []

    def feed_term(t: Term):
        if t not in term_set and term_size(t) <= tbound:
            term_set.add(t)
            term_pool.append(t)
            fresh_t.append(t)

    def feed_pool(f: Formula):
        for sub in subformulas(f):
            if sub not in pool_set and formula_size(sub) <= size_bound:
                pool_set.add(sub)
                pool.append(sub)
                fresh_f.append(sub)
                for t in formula_terms(sub):
                    for part in subterms(t):
                        feed_term(part)

    done = False

    def note_contradiction(f: Formula):
        nonlocal done
        if out.contradiction is not None:
            return
        if isinstance(f, Not) and f.body in out.provenance:
            out.contradiction = (f.body, f)
        elif Not(f) in out.provenance:
            out.contradiction = (f, Not(f))
        if out.contradiction is not None and watch_contradiction:
            done = True

    by_antecedent: dict[Formula, list[Implies]] = {}
    mp_queue: deque[tuple[Implies, Formula]] = deque()

    def add(f: Formula, prov: tuple) -> bool:
        nonlocal done
        if f in out.provenance:
            return False
        out.provenance[f] = prov
        if isinstance(f, Implies):
            by_antecedent.setdefault(f.left, []).append(f)
            if f.left in out.provenance:
                mp_queue.append((f, f.left))
        for major in by_antecedent.get(f, ()):
            mp_queue.append((major, f))
        note_contradiction(f)
        if goal is not None and f == goal:
            done = True
        if goal_filter is not None and goal_filter(f):
            done = True
        if limit is not None and len(out.provenance) >= limit:
            out.hit_limit = True
            done = True
        return True

    seeds = list(hyps) + ([goal] if goal is not None else []) + [BOTTOM]
    seeds += list(extra_pool)
    alphabet = alphabet_from(seeds, profile, extra_term_vars=("x", "y"))
    for t in enumerate_terms(alphabet, tbound, profile.term_ops):
        feed_term(t)
    for f in seeds:
        feed_pool(f)
    for i, h in enumerate(hyps):
        add(h, ("hyp", i))
        if done:
            break

    schemas = [SCHEMAS[sid] for sid in profile.schema_ids]
    metas = {sch.id: _meta_names(sch.template) for sch in schemas}

    for round_no in range(1, rounds + 1):
        if done:
            break
        out.rounds_used = round_no

        # modus ponens first: close the working set (hypotheses, then
        # whatever earlier rounds queued) before widening it; only these
        # conclusions feed the candidate pools
        while mp_queue and not done:
            major, minor = mp_queue.popleft()
            if add(major.right, ("mp", major, minor)):
                feed_pool(major.right)
        if done:
            break

        new_f = set(fresh_f)
        new_t = set(fresh_t)
        fresh_f, fresh_t = [], []
        if round_no > 1 and not new_f and not new_t:
            break
        f_snapshot = list(pool)
        t_snapshot = list(term_pool)

        # term-metavariable assignments, full and newness-filtered,
        # cached per schema arity for the round
        t_full: dict[int, list[tuple[Term, ...]]] = {}
        t_delta: dict[int, list[tuple[Term, ...]]] = {}

        def t_assignments(arity: int, need_new: bool) -> list[tuple[Term, ...]]:
            if arity not in t_full:
                t_full[arity] = list(_cartesian(*[t_snapshot] * arity))
                t_delta[arity] = [a for a in t_full[arity]
                                  if any(v in new_t for v in a)]
            return t_delta[arity] if need_new else t_full[arity]

        for sch in schemas:
            if done:
                break
            fnames, tnames = metas[sch.id]
            template = sch.template
            for fvals in _cartesian(*[f_snapshot] * len(fnames)):
                if done:
                    break
                f_is_new = round_no == 1 or any(v in new_f for v in fvals)
                tvals_list = t_assignments(len(tnames), not f_is_new)
                if not tvals_list:
                    continue
                fpart = dict(zip(fnames, fvals))
                for tvals in tvals_list:
                    binding = Binding(fpart, dict(zip(tnames, tvals)))
                    try:
                        inst = instantiate(template, binding, profile.signed)
                    except (InstantiationError, SignDisciplineError):
                        continue
                    add(inst, ("axiom", sch.id, binding))
                    if done:
                        break
    return out
