"""The seeded corpus and the random runs on which the demand engine is
compared with its oracles, and the comparison itself.

The oracles are ``exhaustive.derive_exhaustive``, the paper's bounded
saturation, and three engines that each keep one strategy the demand
engine dropped: ``eager_rounds.EagerRounds``, ``all_plans.AllPlans`` and
``merged_entries.MergedEntries``.  The last three must return the
engine's ``DerivedSet`` itself; the exhaustive loop stores every
instance, so it must reach the same hypotheses and modus ponens
conclusions ("D") with the same provenance, and hold every instance the
engine stores.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from dlk.logics import PROFILES
from dlk.specifications import close_spec
from dlk.syntax import (
    Alphabet, Just, enumerate_formulas, enumerate_terms, parse_formula,
)

jl, dl, dl0, lp, fused = (PROFILES[n] for n in ("jl", "dl", "dl0", "lp",
                                                 "fused"))


def fm(text, profile=dl):
    return parse_formula(text, signed=profile.signed)


# hypothesis sets: the benchmark's saturate shapes (closed specifications)
# and the sets the other tests and the bundled scenarios use
SETS = [
    (dl, ["a:A"], True), (dl, ["a:A", "b:B"], True), (dl, ["s:(t:P)"], True),
    (dl0, ["a:A"], True), (dl0, ["a:A", "b:B"], True),
    (fused, ["s+:C", "t-:E"], True), (fused, ["t+:(s-:E)"], True),
    (fused, ["s-:E"], True),
    (dl, ["s:E", "~E"], False), (dl, ["e1:R", "~R"], False),
    (dl, ["s:(t:P -> ~P)"], False), (dl, ["P", "~P"], False),
    (dl, ["a:A", "b:(~A)"], False), (jl, ["A"], False),
    (jl, ["a:(A -> B)", "b:A"], False), (lp, ["a:A"], False),
    (lp, ["x:(A -> B)", "x:A"], False),
]

# sets whose exhaustive runs stay quick at term size 3
TERM_BOUND_SETS = [
    (dl0, ["a:A"], True), (dl, ["P", "~P"], False), (jl, ["A"], False),
    (jl, ["a:(A -> B)", "b:A"], False), (lp, ["a:A"], False),
    (lp, ["x:(A -> B)", "x:A"], False), (fused, ["s-:E"], False),
]

STOPS = ("none", "goal", "goal_filter", "watch")


def hypotheses(profile, texts, closed):
    formulas = [fm(t, profile) for t in texts]
    return close_spec(formulas, profile).formulas if closed else formulas


def d_part(derived):
    """The hypotheses and modus ponens conclusions, in order, with their
    provenance."""
    return [(f, derived.provenance[f]) for f in derived.order
            if derived.provenance[f][0] != "axiom"]


def _exhaustive_cases():
    """The cases the exhaustive loop affords: every set at term size 2 in
    each stopping regime at seeded sizes 2-3 and rounds 1-3 (one round
    at size 3); then the sets of ``TERM_BOUND_SETS`` at size 2 and term
    sizes 1 and 3, the stopping regimes in turn from a seeded start, at
    seeded rounds 1-2."""
    rng = random.Random(20)
    for profile, texts, closed in SETS:
        for stop in STOPS:
            size = rng.choice((2, 2, 3)) if stop != "watch" else 2
            rounds = rng.choice((1, 2, 3)) if size == 2 else 1
            yield profile, tuple(texts), closed, stop, size, rounds, 2, None
    rng = random.Random(31)
    for tbound in (1, 3):
        start = rng.randrange(len(STOPS))
        for i, (profile, texts, closed) in enumerate(TERM_BOUND_SETS):
            stop = STOPS[(start + i) % len(STOPS)]
            rounds = rng.choice((1, 2))
            yield profile, tuple(texts), closed, stop, 2, rounds, tbound, None


def _round_cases():
    """Every set at rounds 1-3 and term size 2, formula size 3 up to two
    rounds and 2 at three: in each stopping regime, and without one under
    the limits 40 and 150; and at size 3 under a seeded limit."""
    rng = random.Random(20)
    for profile, texts, closed in SETS:
        for regime in STOPS + (40, 150, "seeded"):
            for rounds in (1, 2, 3):
                stop, limit = (regime, None) if regime in STOPS \
                    else ("none", regime)
                size = 3 if rounds < 3 or limit == "seeded" else 2
                if limit == "seeded":
                    limit = rng.randrange(10, 300)
                yield profile, tuple(texts), closed, stop, size, rounds, 2, \
                    limit


def corpus():
    """The seeded corpus, each case once: (profile, hypotheses, stop,
    bounds, whether the exhaustive loop is compared too)."""
    cases = {case: False for case in _round_cases()}
    cases.update((case, True) for case in _exhaustive_cases())
    params = []
    for case, exhaustive in cases.items():
        profile, texts, closed, stop, size, rounds, tbound, limit = case
        bounds = {"size_bound": size, "rounds": rounds,
                  "term_size_bound": tbound, "limit": limit}
        name = (f"{profile.name}:{'+' if closed else ''}{','.join(texts)}:"
                f"{stop}:s{size}r{rounds}t{tbound}"
                + (f":limit{limit}" if limit else ""))
        params.append(pytest.param(profile, hypotheses(profile, texts, closed),
                                   stop, bounds, exhaustive, id=name))
    return params


def stopping(profile, hyps, stop, bounds, oracle) -> dict:
    """``bounds`` with the stopping rule ``stop`` names: a goal in the
    middle of the conclusions of ``oracle``'s unstopped run, a filter for
    a justified formula whose body no hypothesis justifies, or watching
    for a complementary pair."""
    if stop == "goal":
        reached = [f for f, _ in d_part(oracle(profile, hyps, **bounds))]
        if reached:
            return dict(bounds, goal=reached[len(reached) // 2])
    elif stop == "goal_filter":
        bodies = {h.body for h in hyps if isinstance(h, Just)}
        return dict(bounds, goal_filter=lambda f: isinstance(f, Just)
                    and f.body not in bodies)
    elif stop == "watch":
        return dict(bounds, watch_contradiction=True)
    return bounds


def _pools(signed: bool, ops):
    alphabet = Alphabet(("P", "Q"), ("x",), ("a",), signed=signed)
    terms = enumerate_terms(alphabet, 2, ops)
    return enumerate_formulas(alphabet, 3, terms=terms[:6]), terms


# each profile's formulas up to size 3 and terms up to size 2
POOLS = {name: _pools(p.signed, p.term_ops) for name, p in PROFILES.items()}


@st.composite
def small_runs(draw):
    """A profile, one to three hypotheses from its pool, and the bounds
    of a run at size 2 and rounds 1-3 under a stopping rule: none, a
    goal from the pool, watching for a pair, or a limit."""
    name = draw(st.sampled_from(sorted(PROFILES)))
    formulas, _ = POOLS[name]
    hyps = draw(st.lists(st.sampled_from(formulas), min_size=1, max_size=3))
    bounds = {"size_bound": 2, "rounds": draw(st.integers(1, 3)),
              "term_size_bound": 2}
    stop = draw(st.sampled_from(("none", "goal", "watch", "limit")))
    if stop == "goal":
        bounds["goal"] = draw(st.sampled_from(formulas))
    elif stop == "watch":
        bounds["watch_contradiction"] = True
    elif stop == "limit":
        bounds["limit"] = draw(st.integers(1, 200))
    return PROFILES[name], hyps, bounds


def assert_same(engine, oracle, *, exhaustive=False):
    """The engine's ``DerivedSet`` is the oracle's: the same formulas in
    the same order with the same provenance, or, against the exhaustive
    loop, the same D and an instance of it for each instance stored; and
    the same contradiction, ``rounds_used`` and ``hit_limit``."""
    if exhaustive:
        assert d_part(engine) == d_part(oracle)
        for f, prov in engine.provenance.items():
            if prov[0] == "axiom":
                assert oracle.provenance.get(f) == prov, f
    else:
        assert engine.order == oracle.order
        assert list(engine.provenance.items()) \
            == list(oracle.provenance.items())
    assert engine.contradiction == oracle.contradiction
    assert engine.rounds_used == oracle.rounds_used
    assert engine.hit_limit == oracle.hit_limit
