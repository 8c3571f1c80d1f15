"""``builder.build`` against the ``match``-based staged loop, its oracle
(``staged_build.py``).

A seeded corpus covers every functional (the three presets, two rule
tables, one of whose first matching rules rejects, and a spec-driven
one) in ``dl`` and ``dl0``, with the trace off and on:
alphabets of one or two atoms and one or two term leaves, formula sizes
3-5, term sizes 1-3 and a random seed valuation.  Both loops must give
the same valuation, interpretation (terms in the same order), universe
and provenance, and the same stage trace row for row.
"""

import random

import pytest

from dlk.builder import (
    BuildParams, ConstOne, ConstZero, PlusSyntactic, RuleTable, SpecDriven,
    build,
)
from dlk.logics import PROFILES
from dlk.syntax import Alphabet, parse_formula

from staged_build import match_build


def _spec_driven():
    entries = [parse_formula(text) for text in
               ("x:A", "[x+y]:A", "y:(A /\\ B)", "a:(~B)",
                "[x & y]:(A /\\ B)")]
    return SpecDriven(entries, suppressed=[(parse_formula("B"),
                                            entries[0].term)])


FUNCTIONALS = {
    "const-zero": ConstZero,
    "const-one": ConstOne,
    "plus-syntactic": PlusSyntactic,
    "rule-table": lambda: RuleTable([("x", "A", True), ("*+*", "*", True),
                                     ("[* & *]", "~*", True),
                                     ("y", "*->*", True)]),
    # the first matching rule rejects ahead of a catch-all, and '~(*'
    # matches only a negation the printer parenthesises
    "rule-table-rejecting": lambda: RuleTable([("x", "*", False),
                                               ("y", "~(*", True),
                                               ("*", "*->*", False),
                                               ("*", "*", True)]),
    "spec-driven": _spec_driven,
}


def _params(profile, functional, seed, trace):
    rng = random.Random(seed)
    atoms = tuple(sorted(rng.sample(("A", "B"), rng.randint(1, 2))))
    leaves = rng.sample(("x", "y", "a"), rng.randint(1, 2))
    alphabet = Alphabet(atoms, tuple(sorted(l for l in leaves if l != "a")),
                        tuple(l for l in leaves if l == "a"))
    valuation = {atom: rng.random() < 0.5 for atom in atoms}
    return BuildParams(profile, alphabet, rng.randint(3, 5), rng.randint(1, 3),
                       FUNCTIONALS[functional](), seed=valuation, trace=trace)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("functional", FUNCTIONALS)
@pytest.mark.parametrize("profile", ("dl", "dl0"))
def test_build_agrees_with_the_match_loop(profile, functional, seed):
    for trace in (False, True):
        built, built_trace = build(
            _params(PROFILES[profile], functional, seed, trace))
        oracle, oracle_trace = match_build(
            _params(PROFILES[profile], functional, seed, trace))
        assert built.valuation == oracle.valuation
        assert list(built.interp.items()) == list(oracle.interp.items())
        assert built.formula_universe == oracle.formula_universe
        assert built.provenance == oracle.provenance == "built"
        if functional in ("const-zero", "const-one"):
            assert any(built.interp.values()) == (functional == "const-one")
        if trace:
            assert built_trace.rows == oracle_trace.rows
        else:
            assert built_trace is None and oracle_trace is None
