"""Every node's ``_size`` slot against the bounded size walk.

The slot is filled once, when a node is built; the walk of
``size_walk.py`` recounts the parts.  They must agree on every node of
every class however it came about: parsed, enumerated, instantiated from
a schema, copied, deep-copied, pickled, or rebuilt from a pattern by the
demand engine's ``_fill``.
"""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlk.demand import _fill, _pattern
from dlk.logics import (
    PROFILES, SCHEMAS, Binding, InstantiationError, instantiate,
)
from dlk.syntax import (
    BOTTOM, NEGATIVE, POSITIVE, UNSIGNED, Alphabet, And, App, Bang, Const,
    FMeta, Formula, Implies, Just, Not, Or, Pair, ParseError, PropVar,
    SignDisciplineError, Sum, TMeta, Var, _PARTS, _parts, enumerate_formulas,
    enumerate_terms, formula_size, parse_formula, parse_term, print_formula,
    print_term, term_size,
)

from size_walk import size_upto


def assert_sized(node):
    """The slot of the node and of every node below it is the walk's
    size, and answers each bound as the bounded walk does."""
    stack = [node]
    while stack:
        part = stack.pop()
        size = size_upto(part, math.inf)
        assert part._size == size, print_term(part) \
            if not isinstance(part, Formula) else print_formula(part)
        for limit in (size - 1, size):
            assert (part._size <= limit) == (size_upto(part, limit) <= limit)
        stack.extend(_parts(part))


def _build(kind, *parts):
    """``kind`` over ``parts``, or the first part where they break the
    sign discipline."""
    try:
        return kind(*parts)
    except SignDisciplineError:
        return parts[0]


SIGNS = st.sampled_from((UNSIGNED, POSITIVE, NEGATIVE))
TERMS = st.recursive(
    st.builds(Const, st.sampled_from("ab"), SIGNS)
    | st.builds(Var, st.sampled_from("xy"), SIGNS)
    | st.sampled_from([TMeta(name, polarity) for name, polarity in
                       zip("stuv", ("any", "pos", "neg", "sigma"))]),
    lambda kids: st.one_of(
        [st.builds(_build, st.just(kind), kids, kids)
         for kind in (App, Sum, Pair)]
        + [st.builds(_build, st.just(Bang), kids)]),
    max_leaves=8)
FORMULAS = st.recursive(
    st.just(BOTTOM) | st.builds(PropVar, st.sampled_from("PQ"))
    | st.builds(FMeta, st.sampled_from("AB")),
    lambda kids: (st.builds(Not, kids) | st.builds(And, kids, kids)
                  | st.builds(Or, kids, kids) | st.builds(Implies, kids, kids)
                  | st.builds(Just, TERMS, kids)),
    max_leaves=16)


def _metas(node) -> list:
    stack, found = [node], []
    while stack:
        part = stack.pop()
        if isinstance(part, (FMeta, TMeta)):
            found.append(part)
        stack.extend(_parts(part))
    return found


@given(TERMS | FORMULAS)
@settings(max_examples=300, deadline=None)
def test_the_slot_is_the_walk_on_built_copied_and_filled_nodes(node):
    assert_sized(node)
    for twin in (copy.copy(node), copy.deepcopy(node),
                 pickle.loads(pickle.dumps(node))):
        assert twin == node
        assert_sized(twin)
    env = {"m" + meta.name: meta for meta in _metas(node)}
    filled = _fill(_pattern(node, "m"), env)
    assert filled == node
    assert_sized(filled)
    text = (print_formula if isinstance(node, Formula) else print_term)(node)
    parse = parse_formula if isinstance(node, Formula) else parse_term
    for signed in (False, True):
        try:
            assert_sized(parse(text, signed))
        except ParseError:
            pass


@given(st.sampled_from(sorted(PROFILES)).flatmap(
    lambda name: st.tuples(st.just(PROFILES[name]),
                           st.sampled_from(PROFILES[name].schema_ids))),
    st.lists(FORMULAS, min_size=4, max_size=4),
    st.lists(TERMS, min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_the_slot_is_the_walk_on_instances(case, formulas, terms):
    profile, sid = case
    template = SCHEMAS[sid].template
    assert_sized(template)
    fnames = sorted({m.name for m in _metas(template)
                     if isinstance(m, FMeta)})
    tnames = sorted({m.name for m in _metas(template)
                     if isinstance(m, TMeta)})
    binding = Binding(dict(zip(fnames, formulas)), dict(zip(tnames, terms)))
    try:
        instance = instantiate(template, binding, profile.signed)
    except InstantiationError:
        return
    assert_sized(instance)


@pytest.mark.parametrize("signed", (False, True))
def test_the_slot_is_the_walk_on_enumerated_and_parsed_nodes(signed):
    alphabet = Alphabet(("P", "Q"), ("x",), ("a",), signed)
    ops = frozenset(("app", "sum", "pair", "bang"))
    terms = enumerate_terms(alphabet, 4, ops)
    formulas = enumerate_formulas(alphabet, 5, terms[:12])
    assert {type(node) for node in terms + formulas} == \
        set(_PARTS) - {TMeta, FMeta}
    for t in terms:
        assert term_size(t) == size_upto(t, math.inf)
        assert_sized(parse_term(print_term(t), signed))
    for f in formulas:
        assert formula_size(f) == size_upto(f, math.inf)
        assert_sized(parse_formula(print_formula(f), signed))
