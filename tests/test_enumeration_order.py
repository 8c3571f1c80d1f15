"""The enumerations in construction order against the sorted ones they
replaced (``tests/sorted_enumeration.py``).

Alphabets are random: up to three propositional variables, term
variables and constants each, names possibly repeated, signed or not.
Term operations are any subset of app, sum, pair and bang; term bounds
run from 1 to 4 and formula bounds from 1 to 5.  The term list handed to
``enumerate_formulas`` is a full term enumeration, a prefix of one, a
shuffled copy or a shuffled copy with repeats.  Each enumeration must be
the oracle's with its repeats removed, node for node and in order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from dlk.syntax import Alphabet, enumerate_formulas, enumerate_terms

import sorted_enumeration as oracle

ALPHABETS = st.builds(
    Alphabet,
    st.lists(st.sampled_from("PQR"), max_size=3).map(tuple),
    st.lists(st.sampled_from("xyz"), max_size=3).map(tuple),
    st.lists(st.sampled_from("abc"), max_size=3).map(tuple),
    st.booleans())
OP_SETS = st.sets(st.sampled_from(("app", "sum", "pair", "bang"))) \
    .map(frozenset)


def _distinct(nodes: list) -> list:
    return list(dict.fromkeys(nodes))


@st.composite
def term_lists(draw, terms: list) -> list:
    """The terms in full, a prefix, shuffled, or shuffled with repeats."""
    how = draw(st.sampled_from(("full", "prefix", "shuffled", "repeated")))
    if how == "prefix":
        return terms[:draw(st.integers(0, len(terms)))]
    if how == "full":
        return terms
    out = list(terms)
    if how == "repeated":
        out += terms[draw(st.integers(0, len(terms))):]
    draw(st.randoms()).shuffle(out)
    return out


@settings(max_examples=150, deadline=None)
@given(ALPHABETS, OP_SETS, st.integers(1, 4))
def test_terms_come_in_sorted_order(alphabet, ops, bound):
    got = enumerate_terms(alphabet, bound, ops)
    assert got == _distinct(oracle.enumerate_terms(alphabet, bound, ops))
    assert len(set(got)) == len(got)


@settings(max_examples=150, deadline=None)
@given(ALPHABETS, OP_SETS, st.integers(1, 4), st.integers(1, 5), st.data())
def test_formulas_come_in_sorted_order(alphabet, ops, term_bound,
                                       formula_bound, data):
    terms = data.draw(term_lists(enumerate_terms(alphabet, term_bound, ops)))
    got = enumerate_formulas(alphabet, formula_bound, terms)
    assert got == _distinct(oracle.enumerate_formulas(alphabet, formula_bound,
                                                      terms))
    assert len(set(got)) == len(got)
