"""Seeded hand-written models in every profile, shared by the audit's and
the model writer's oracle tests.

Terms and formulas come from one pool per profile: the terms up to size
3 and the formulas up to size 4 over ``P``, ``Q`` and ``x``, ``y``, signed
where the profile is.
"""

import random

from dlk.logics import PROFILES, LogicProfile
from dlk.semantics import ModularModel, close_upward, occurring_terms
from dlk.syntax import Alphabet, And, enumerate_formulas, enumerate_terms


def _pools(profile: LogicProfile):
    alphabet = Alphabet(("P", "Q"), ("x", "y"), (), signed=profile.signed)
    terms = enumerate_terms(alphabet, 3, profile.term_ops)
    formulas = enumerate_formulas(alphabet, 4, terms=terms)
    return terms, formulas


POOLS = {name: _pools(p) for name, p in PROFILES.items()}


def hand_model(rng: random.Random, name: str) -> ModularModel:
    """A few terms with small evidence sets drawn from short formulas (so
    implications meet their antecedents and conjunctions their sides),
    a random valuation, and no universe, the whole formula pool or a
    random part of it.  Half the models are closed upward first, so
    clean compounds sit beside violating ones."""
    profile = PROFILES[name]
    terms, formulas = POOLS[name]
    short = formulas[:len(formulas) // 3]
    interp = {t: frozenset(rng.sample(short, rng.randint(0, 6)))
              for t in rng.sample(terms, rng.randint(1, 5))}
    universe = rng.choice((None, frozenset(formulas),
                           frozenset(rng.sample(formulas, 40))))
    if rng.random() < 0.5:
        model = ModularModel(profile, {}, interp)
        over = occurring_terms(model)
        members = {t: dict.fromkeys(interp.get(t, ())) for t in over}
        conjunctions = None
        if universe is not None and profile.has_schema("pairing"):
            conjunctions = [f for f in universe if isinstance(f, And)]
        close_upward(members, over,
                     PROFILES["jl" if conjunctions is None else "dl"],
                     conjunctions)
        interp = {t: frozenset(fs) for t, fs in members.items()}
    valuation = {"P": rng.random() < 0.5, "Q": rng.random() < 0.5}
    return ModularModel(profile, valuation, interp,
                        formula_universe=universe)
