"""``builder.build`` against the ``match``-based staged loop, its oracle
(``staged_build.py``).

A seeded corpus (``builds.seeded_params``) covers every functional of
``builds.SEEDED`` (the three presets, two rule tables, one of whose
first matching rules rejects, and a spec-driven one) in ``dl`` and
``dl0``, with the trace off and on: alphabets of one or two atoms and
one or two term leaves, formula sizes 3-5, term sizes 1-3 and a random
seed valuation, and then fixed bounds of formula size 1 or 2 or term
size 1, whose levels have no split of a binary node or no compound
term.
Both loops must give the same valuation, interpretation (terms in the
same order), universe and provenance, and the same stage trace row for
row.

A property widens the alphabets to none to three atoms and one to three
constant or variable leaves, with formula sizes 1-5, term sizes 1-3,
rule tables and spec-driven functionals over random positions: the
trace must list the formulas in ``enumerate_formulas`` order, since
``build`` stages them in the pass that builds them, and the model must
be the oracle's.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlk.builder import BuildParams, RuleTable, SpecDriven, build
from dlk.logics import PROFILES
from dlk.syntax import (
    Alphabet, Just, enumerate_formulas, enumerate_terms, print_formula,
)

from builds import FORMULA_PATTERNS, SEEDED, TERM_PATTERNS, seeded_params
from staged_build import match_build


def _assert_agrees(make_params, check=lambda built: None):
    """``build`` and the oracle agree on ``make_params(trace)``, with the
    trace off and on; ``check`` is asserted on each built model."""
    for trace in (False, True):
        built, built_trace = build(make_params(trace))
        oracle, oracle_trace = match_build(make_params(trace))
        assert built.valuation == oracle.valuation
        assert list(built.interp.items()) == list(oracle.interp.items())
        assert built.formula_universe == oracle.formula_universe
        assert built.provenance == oracle.provenance == "built"
        if trace:
            assert built_trace.rows == oracle_trace.rows
        else:
            assert built_trace is None and oracle_trace is None
        check(built)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("functional", SEEDED)
@pytest.mark.parametrize("profile", ("dl", "dl0"))
def test_build_agrees_with_the_match_loop(profile, functional, seed):
    def check(built):
        if functional in ("const-zero", "const-one"):
            assert any(built.interp.values()) == (functional == "const-one")

    _assert_agrees(lambda trace: seeded_params(
        PROFILES[profile], functional, seed, trace), check)


@pytest.mark.parametrize("bounds", [(1, 1), (2, 1), (1, 3), (2, 3), (4, 1)])
@pytest.mark.parametrize("functional", SEEDED)
@pytest.mark.parametrize("profile", ("dl", "dl0"))
def test_levels_without_a_split_agree_with_the_match_loop(profile,
                                                          functional, bounds):
    _assert_agrees(lambda trace: seeded_params(PROFILES[profile], functional,
                                               0, trace, bounds))


@st.composite
def wide_builds(draw):
    profile = PROFILES[draw(st.sampled_from(("dl", "dl0")))]
    atoms = draw(st.lists(st.sampled_from("PQR"), max_size=3, unique=True))
    leaves = draw(st.lists(st.sampled_from("abxyz"), min_size=1, max_size=3,
                           unique=True))
    alphabet = Alphabet(tuple(sorted(atoms)),
                        tuple(sorted(l for l in leaves if l >= "f")),
                        tuple(sorted(l for l in leaves if l < "f")))
    fm_size, tm_size = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("const-zero", "const-one", "plus-syntactic",
                                 "rule-table", "spec-driven")))
    if kind == "rule-table":
        functional = RuleTable(draw(st.lists(
            st.tuples(st.sampled_from(TERM_PATTERNS),
                      st.sampled_from(FORMULA_PATTERNS), st.booleans()),
            min_size=1, max_size=3)))
    elif kind == "spec-driven":
        terms = enumerate_terms(alphabet, tm_size, profile.term_ops)
        bodies = enumerate_formulas(alphabet, min(fm_size, 3), terms)
        positions = st.tuples(st.sampled_from(bodies), st.sampled_from(terms))
        entries = draw(st.lists(positions, max_size=5))
        functional = SpecDriven([Just(t, b) for b, t in entries],
                                draw(st.lists(positions, max_size=2)))
    else:
        functional = SEEDED[kind]()
    seed = {atom: draw(st.booleans()) for atom in atoms}
    return lambda trace: BuildParams(profile, alphabet, fm_size, tm_size,
                                     functional, seed=seed, trace=trace)


@given(wide_builds())
@settings(max_examples=80, deadline=None)
def test_build_stages_in_enumeration_order(make_params):
    _assert_agrees(make_params)
    params = make_params(True)
    _, trace = build(params)
    formulas = enumerate_formulas(
        params.alphabet, params.fm_size,
        enumerate_terms(params.alphabet, params.tm_size,
                        params.profile.term_ops))
    stages = [row for row in trace.rows if row.kind != "close"]
    assert [row.formula for row in stages] == list(map(print_formula,
                                                       formulas))
    assert [row.index for row in stages] == list(range(len(formulas)))
