"""The generated node constructors against the sealed dataclasses, their
oracle (``sealed_nodes.py``).

Random trees of all fifteen node classes, with leaves of every sign and
metavariables of every polarity, are built both ways: the nodes must
have the same class, fields and size at every level, and each sign
violation must raise the same ``SignDisciplineError`` text.  The sealed
nodes are not interned, so the two are compared structurally.  Nodes are
hash-consed, so a node of one structure must be the identical object
however it came about: built by position or keyword, parsed, enumerated,
instantiated from a schema, rebuilt from a pattern by the demand
engine's ``_fill``, copied, deep-copied, pickled or remade by
``dataclasses.replace``.
"""

import copy
import dataclasses
import pickle
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dlk.demand import _fill, _pattern
from dlk.logics import Binding, instantiate
from dlk.syntax import (
    BOTTOM, NEGATIVE, POSITIVE, UNSIGNED, Alphabet, And, App, Bang, Bottom,
    Const, FMeta, Formula, Implies, Just, Not, Or, Pair, PropVar,
    SignDisciplineError, Sum, Term, TMeta, Var, _PARTS, _parts,
    enumerate_formulas,
    enumerate_terms, parse_formula, parse_term, print_formula, print_term,
)

from sealed_nodes import build_sealed

SIGNS = (UNSIGNED, POSITIVE, NEGATIVE)
POLARITIES = ("any", "pos", "neg", "sigma")


def _terms(signs):
    """Recipes of terms, ``(class, *arguments)``, a part being a recipe;
    a leaf recipe without its last argument takes the default."""
    leaf = (st.tuples(st.just(Const), st.sampled_from("ab"), signs)
            | st.tuples(st.just(Var), st.sampled_from("xy"), signs)
            | st.sampled_from(((Const, "a"), (Var, "x")))
            | st.tuples(st.just(TMeta), st.sampled_from("st"),
                        st.sampled_from(POLARITIES))
            | st.tuples(st.just(TMeta), st.sampled_from("st")))
    return st.recursive(
        leaf,
        lambda kids: (st.tuples(st.sampled_from((App, Sum, Pair)), kids, kids)
                      | st.tuples(st.just(Bang), kids)),
        max_leaves=6)


def _formulas(terms):
    return st.recursive(
        st.just((Bottom,)) | st.tuples(st.just(PropVar), st.sampled_from("PQ"))
        | st.tuples(st.just(FMeta), st.sampled_from("AB")),
        lambda kids: (st.tuples(st.just(Not), kids)
                      | st.tuples(st.sampled_from((And, Or, Implies)),
                                  kids, kids)
                      | st.tuples(st.just(Just), terms, kids)),
        max_leaves=8)


# trees whose signed leaves share one sign, which mostly build, and trees
# mixing the signs, which mostly break the discipline somewhere
TERMS = st.one_of([_terms(st.just(sign)) for sign in SIGNS]
                  + [_terms(st.sampled_from(SIGNS))])
FORMULAS = _formulas(TERMS)


def make(recipe, build, keywords=False):
    """The node a recipe stands for, each node made by ``build(class,
    *arguments)`` or, with ``keywords``, by keyword; or ``("refused",
    text)`` for the first sign violation, parts first."""
    kind, *args = recipe
    values = []
    for arg in args:
        if isinstance(arg, tuple):
            arg = make(arg, build, keywords)
            if isinstance(arg, tuple):
                return arg
        values.append(arg)
    try:
        if keywords:
            return build(kind, **{f.name: value
                                  for f, value in zip(fields(kind), values)})
        return build(kind, *values)
    except SignDisciplineError as exc:
        return ("refused", str(exc))


def _construct(kind, *args, **kwargs):
    return kind(*args, **kwargs)


def assert_same_structure(node, sealed):
    """The two nodes are of one class and one size and have equal
    fields, the parts compared so in turn, level by level."""
    stack = [(node, sealed)]
    while stack:
        a, b = stack.pop()
        assert type(a) is type(b) and a._size == b._size
        for f in fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(x, (Term, Formula)):
                stack.append((x, y))
            else:
                assert x == y


VIOLATIONS = [
    (App, (Var, "x", POSITIVE), (Var, "y", NEGATIVE)),
    (Sum, (Var, "x", NEGATIVE), (Const, "a", POSITIVE)),
    (Sum, (Var, "x"), (Const, "a", POSITIVE)),
    (Pair, (Var, "x", POSITIVE), (Var, "y", POSITIVE)),
    (Pair, (Var, "x", NEGATIVE), (Var, "y", POSITIVE)),
    (Bang, (Var, "x", NEGATIVE)),
    (Just, (Bang, (Pair, (Var, "x", NEGATIVE), (Var, "y", NEGATIVE))),
     (Bottom,)),
]


@pytest.mark.parametrize("recipe", VIOLATIONS, ids=lambda r: r[0].__name__)
def test_each_sign_rule_refuses_with_the_sealed_text(recipe):
    refused = make(recipe, _construct)
    assert refused[0] == "refused"
    assert make(recipe, build_sealed) == refused


@given(TERMS | FORMULAS, st.booleans())
@example((Pair, (Var, "x", POSITIVE), (Var, "y", POSITIVE)), False)
@example((Pair, (Var, "x", NEGATIVE), (Var, "y", NEGATIVE)), True)
@settings(max_examples=400, deadline=None)
def test_constructors_build_what_the_sealed_dataclasses_built(recipe,
                                                               keywords):
    node = make(recipe, _construct, keywords)
    sealed = make(recipe, build_sealed, keywords)
    if isinstance(node, tuple) or isinstance(sealed, tuple):
        assert node == sealed
    else:
        assert_same_structure(node, sealed)


def _walk(node):
    stack = [node]
    while stack:
        part = stack.pop()
        yield part
        stack.extend(_parts(part))


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


def assert_interned(twin, node):
    """The twin is the interned node itself, so equal and equally hashed."""
    assert twin is node and twin == node and hash(twin) == hash(node)


@given(TERMS | FORMULAS)
@settings(max_examples=300, deadline=None)
def test_equal_nodes_hash_equal_by_every_route(recipe):
    node = make(recipe, _construct)
    if isinstance(node, tuple):
        return
    assert_interned(make(recipe, _construct, keywords=True), node)
    for twin in (copy.copy(node), copy.deepcopy(node),
                 pickle.loads(pickle.dumps(node)), dataclasses.replace(node)):
        assert_interned(twin, node)
    for f in fields(node):
        assert_interned(dataclasses.replace(
            node, **{f.name: getattr(node, f.name)}), node)
    metas = [part for part in _walk(node) if isinstance(part, (FMeta, TMeta))]
    env = {"m" + meta.name: meta for meta in metas}
    if len(env) == len(set(metas)):     # patterns name metavariables only
        assert_interned(_fill(_pattern(node, "m"), env), node)
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
    text = (print_formula if isinstance(node, Formula) else print_term)(node)
    parse = parse_formula if isinstance(node, Formula) else parse_term
    assert_interned(parse(text, signed), node)


@pytest.mark.parametrize("signed", (False, True))
def test_enumerated_nodes_hash_as_parsed_and_rebuilt_ones(signed):
    alphabet = Alphabet(("P", "Q"), ("x",), ("a",), signed)
    ops = frozenset(("app", "sum", "pair", "bang"))
    terms = enumerate_terms(alphabet, 3, ops)
    formulas = enumerate_formulas(alphabet, 4, terms[:8])
    assert {type(node) for node in terms + formulas} == \
        set(_PARTS) - {TMeta, FMeta}
    again = enumerate_terms(alphabet, 3, ops)
    again += enumerate_formulas(alphabet, 4, again[:8])
    assert list(map(id, again)) == list(map(id, terms + formulas))
    for node in terms + formulas:
        parse, show = (parse_formula, print_formula) \
            if isinstance(node, Formula) else (parse_term, print_term)
        assert_interned(parse(show(node), signed), node)
        values = [getattr(node, f.name) for f in fields(node)]
        assert_interned(type(node)(*values), node)
        assert_same_structure(node, build_sealed(type(node), *values))
