"""``semantics.model_to_dict`` against the document writer it replaced,
its oracle (``printed_models.py``).

Built models cover every functional (the three presets, a rule table
and a spec-driven one) in ``dl`` and ``dl0``; hand-written models are
``hand_models.hand_model``'s, with no universe, the whole formula
pool or a part of it, and members outside it.  Both writers must give
the same document, key order included, so the JSON text written by
``build-model --out`` and printed by ``--json`` is the same byte for
byte.
"""

import json
import random

import pytest

from dlk.builder import build
from dlk.logics import PROFILES
from dlk.semantics import model_to_dict

import printed_models as oracle
from builds import SEEDED, seeded_params
from hand_models import hand_model


def _same_text(model):
    doc = model_to_dict(model)
    assert json.dumps(doc, indent=2) == json.dumps(oracle.model_to_dict(model),
                                                   indent=2)
    return doc


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("functional", SEEDED)
@pytest.mark.parametrize("profile", ("dl", "dl0"))
def test_built_models_write_the_oracles_document(profile, functional, seed):
    model, _ = build(seeded_params(PROFILES[profile], functional, seed, False))
    doc = _same_text(model)
    assert len(doc["formula_universe"]) == len(model.formula_universe)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_hand_written_models_write_the_oracles_document(name):
    rng = random.Random(name)
    for _ in range(40):
        _same_text(hand_model(rng, name))
