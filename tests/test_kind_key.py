"""The rule index's generated kind key against ``kind_walk.top``.

``demand._TOP`` holds one generated function per node class, giving a
node the kinds of its top two levels; ``kind_walk.top`` reads them
through the parts table.  They must agree on every node of all 15
classes however it came about: built, parsed, instantiated from a
schema or enumerated.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlk.demand import _TOP
from dlk.logics import (
    PROFILES, SCHEMAS, Binding, InstantiationError, instantiate,
)
from dlk.syntax import (
    Alphabet, FMeta, Formula, ParseError, TMeta, _PARTS, _parts,
    enumerate_formulas, enumerate_terms, parse_formula, parse_term,
    print_formula, print_term,
)

from kind_walk import top
from test_size_slot import FORMULAS, TERMS, _metas


def assert_keyed(node) -> set[type]:
    """The generated key of the node and of every node below it is the
    walk's; returns the classes seen."""
    stack, seen = [node], set()
    while stack:
        part = stack.pop()
        assert _TOP[type(part)](part) == top(part), repr(part)
        seen.add(type(part))
        stack.extend(_parts(part))
    return seen


def test_every_class_has_a_generated_key():
    assert set(_TOP) == set(_PARTS) and len(_TOP) == 15


@given(TERMS | FORMULAS)
@settings(max_examples=300, deadline=None)
def test_the_key_is_the_walk_on_built_and_parsed_nodes(node):
    assert_keyed(node)
    text = (print_formula if isinstance(node, Formula) else print_term)(node)
    parse = parse_formula if isinstance(node, Formula) else parse_term
    for signed in (False, True):
        try:
            assert_keyed(parse(text, signed))
        except ParseError:
            pass


@given(st.sampled_from(sorted(PROFILES)).flatmap(
    lambda name: st.tuples(st.just(PROFILES[name]),
                           st.sampled_from(PROFILES[name].schema_ids))),
    st.lists(FORMULAS, min_size=4, max_size=4),
    st.lists(TERMS, min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_the_key_is_the_walk_on_instances(case, formulas, terms):
    profile, sid = case
    template = SCHEMAS[sid].template
    assert_keyed(template)
    fnames = sorted({m.name for m in _metas(template)
                     if isinstance(m, FMeta)})
    tnames = sorted({m.name for m in _metas(template)
                     if isinstance(m, TMeta)})
    binding = Binding(dict(zip(fnames, formulas)), dict(zip(tnames, terms)))
    try:
        instance = instantiate(template, binding, profile.signed)
    except InstantiationError:
        return
    assert_keyed(instance)


@pytest.mark.parametrize("signed", (False, True))
def test_the_key_is_the_walk_on_enumerated_nodes(signed):
    alphabet = Alphabet(("P", "Q"), ("x",), ("a",), signed)
    ops = frozenset(("app", "sum", "pair", "bang"))
    terms = enumerate_terms(alphabet, 4, ops)
    formulas = enumerate_formulas(alphabet, 5, terms[:12])
    seen = set().union(*map(assert_keyed, terms + formulas))
    assert seen == set(_PARTS) - {TMeta, FMeta}
