"""Facts every syntax node keeps, however it came about.

A node keeps its size in the ``_size`` slot, filled when it is built,
and its two-level kind key comes from a function generated per class
(``demand._TOP``); ``interpreted.size_upto`` and ``interpreted.top`` walk
the parts instead, and both must agree.  Nodes are hash-consed, so a
node rebuilt from its fields is the node itself.  ``assert_node_facts``
checks the three on a node and on every node below it.  The nodes are
those of ``nodes.py``: built from random recipes, by position or
keyword; parsed from their printed text; instantiated from a schema;
enumerated; copied, deep-copied, pickled, remade by
``dataclasses.replace``, or rebuilt from a pattern by the demand engine's
``_fill``.  Every route to one structure gives the identical node.
"""

import copy
import dataclasses
import math
import pickle
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlk.demand import _TOP, _fill, _pattern
from dlk.logics import (
    PROFILES, SCHEMAS, Binding, InstantiationError, instantiate,
)
from dlk.syntax import (
    BOTTOM, UNSIGNED, Const, FMeta, Formula, Just, ParseError, PropVar,
    TMeta, Var, _PARTS, _parts, formula_size, parse_formula, parse_term,
    print_formula, print_term, term_size,
)

from interpreted import size_upto, top
from nodes import (
    FORMULAS, SIGNS, TERMS, below, built, enumerated, instantiated, lenient,
    make, metavariables,
)


def _show(node) -> str:
    return (print_formula if isinstance(node, Formula) else print_term)(node)


def _parse(node):
    return parse_formula if isinstance(node, Formula) else parse_term


def assert_interned(twin, node):
    """The twin is the interned node itself, so equal and equally hashed."""
    assert twin is node and twin == node and hash(twin) == hash(node)


def assert_node_facts(node):
    """On the node and on every node below it: the slot is the walk's
    size and answers each bound as the bounded walk does, the generated
    key is the walk's, and the node built again from its fields is the
    node."""
    for part in below(node):
        size = size_upto(part, math.inf)
        assert part._size == size, _show(part)
        for limit in (size - 1, size):
            assert (part._size <= limit) == (size_upto(part, limit) <= limit)
        assert _TOP[type(part)](part) == top(part), _show(part)
        assert_interned(type(part)(*(getattr(part, f.name)
                                     for f in fields(part))), part)


def test_every_class_has_a_generated_key():
    assert set(_TOP) == set(_PARTS) and len(_TOP) == 15


def _schematic(node, binding: Binding):
    """The node with every leaf but ``_|_`` a metavariable that
    ``binding`` maps back to the leaf."""
    if isinstance(node, PropVar):
        binding.formulas[node.name] = node
        return FMeta(node.name)
    if isinstance(node, (Const, Var)):
        name = f"{node.name}{SIGNS.index(node.sign)}"
        binding.terms[name] = node
        return TMeta(name)
    parts = _parts(node)
    return type(node)(*map(lambda p: _schematic(p, binding), parts)) \
        if parts else node


@given(TERMS | FORMULAS)
@settings(max_examples=300, deadline=None)
def test_every_route_to_a_built_node_gives_the_node(recipe):
    node = make(recipe, lenient)
    assert_node_facts(node)
    assert_interned(make(recipe, lenient, keywords=True), node)
    for twin in (copy.copy(node), copy.deepcopy(node),
                 pickle.loads(pickle.dumps(node)), dataclasses.replace(node)):
        assert_interned(twin, node)
    for f in fields(node):
        assert_interned(dataclasses.replace(
            node, **{f.name: getattr(node, f.name)}), node)
    metas = metavariables(node)
    env = {"m" + meta.name: meta for meta in metas}
    if len(env) == len(set(metas)):     # patterns name metavariables only
        assert_interned(_fill(_pattern(node, "m"), env), node)
    text, parse = _show(node), _parse(node)
    for signed in (False, True):
        try:
            assert_node_facts(parse(text, signed))
        except ParseError:
            pass
    if metas:
        return
    formula = node if isinstance(node, Formula) else Just(node, BOTTOM)
    binding = Binding({}, {})
    template = _schematic(formula, binding)
    signs = {leaf.sign != UNSIGNED for leaf in binding.terms.values()}
    if len(signs) > 1:      # signed and unsigned leaves: neither syntax
        return
    signed = True in signs
    assert_interned(instantiate(template, binding, signed), formula)
    assert_interned(parse(text, signed), node)


@given(st.sampled_from(sorted(PROFILES)).flatmap(
    lambda name: st.tuples(st.just(PROFILES[name]),
                           st.sampled_from(PROFILES[name].schema_ids))),
    st.lists(built(FORMULAS), min_size=4, max_size=4),
    st.lists(built(TERMS), min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_instances_of_random_values_keep_the_facts(case, formulas, terms):
    profile, sid = case
    template = SCHEMAS[sid].template
    metas = metavariables(template)
    fnames = sorted({m.name for m in metas if isinstance(m, FMeta)})
    tnames = sorted({m.name for m in metas if isinstance(m, TMeta)})
    binding = Binding(dict(zip(fnames, formulas)), dict(zip(tnames, terms)))
    try:
        instance = instantiate(template, binding, profile.signed)
    except InstantiationError:
        return
    assert_node_facts(instance)


@pytest.mark.parametrize("signed", (False, True))
def test_enumerated_parsed_and_instantiated_nodes_keep_the_facts(signed):
    terms, formulas = enumerated(signed)
    assert {type(node) for node in terms + formulas} == \
        set(_PARTS) - {TMeta, FMeta}
    again = enumerated(signed)
    assert list(map(id, again[0] + again[1])) == \
        list(map(id, terms + formulas))
    for t in terms:
        assert term_size(t) == size_upto(t, math.inf)
    for f in formulas:
        assert formula_size(f) == size_upto(f, math.inf)
    for node in terms + formulas:
        assert_node_facts(node)
        assert_interned(_parse(node)(_show(node), signed), node)
    for node in instantiated(signed):
        assert_node_facts(node)
