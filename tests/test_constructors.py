"""The generated node constructors against the sealed dataclasses, their
oracle (``sealed_nodes.py``).

Random trees of all fifteen node classes, with leaves of every sign and
metavariables of every polarity, are built both ways: the nodes must
have the same class, fields and size at every level, and each sign
violation must raise the same ``SignDisciplineError`` text.  The sealed
nodes are not interned, so the two are compared structurally, as are
the enumerated nodes of ``nodes.py`` and their sealed rebuilds.  That
every route to one structure gives the identical node is a node fact of
``test_node_facts.py``.  ``builder.build`` calls a class's generated
``__new__`` directly, skipping ``type.__call__``: that
call must give the node the class call gives, on a hit and on a miss,
and run the sign rule all the same.
"""

from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dlk.syntax import (
    NEGATIVE, POSITIVE, And, App, Bang, Bottom, Const, FMeta, Formula,
    Implies, Just, Not, Or, Pair, PropVar, Sum, Term, TMeta, Var, _PARTS,
)

from nodes import FORMULAS, TERMS, construct, enumerated, make
from sealed_nodes import build_sealed


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
    refused = make(recipe, construct)
    assert refused[0] == "refused"
    assert make(recipe, build_sealed) == refused


@given(TERMS | FORMULAS, st.booleans())
@example((Pair, (Var, "x", POSITIVE), (Var, "y", POSITIVE)), False)
@example((Pair, (Var, "x", NEGATIVE), (Var, "y", NEGATIVE)), True)
@settings(max_examples=400, deadline=None)
def test_constructors_build_what_the_sealed_dataclasses_built(recipe,
                                                               keywords):
    node = make(recipe, construct, keywords)
    sealed = make(recipe, build_sealed, keywords)
    if isinstance(node, tuple) or isinstance(sealed, tuple):
        assert node == sealed
    else:
        assert_same_structure(node, sealed)


@pytest.mark.parametrize("signed", (False, True))
def test_enumerated_nodes_are_what_the_sealed_dataclasses_build(signed):
    for node in sum(enumerated(signed), []):
        values = [getattr(node, f.name) for f in fields(node)]
        assert_same_structure(node, build_sealed(type(node), *values))


def direct(kind, *args, **kwargs):
    """``kind``'s node through its generated ``__new__``, not its call."""
    return kind.__new__(kind, *args, **kwargs)


@given(TERMS | FORMULAS, st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_the_direct_constructor_gives_the_called_node(recipe, direct_first,
                                                      keywords):
    # the first build of a drawn tree mostly misses, the second hits
    ways = (direct, construct) if direct_first else (construct, direct)
    first, second = (make(recipe, way, keywords) for way in ways)
    if isinstance(first, tuple):
        assert first == second and first[0] == "refused"
    else:
        assert first is second


# one recipe per node class, over names no other test uses, so that the
# first build of each is a miss
FRESH = [
    (Const, "afresh", POSITIVE), (Var, "xfresh"), (TMeta, "sfresh", "neg"),
    (App, (Var, "xfresh"), (Const, "afresh")),
    (Sum, (Const, "afresh"), (Var, "xfresh")),
    (Pair, (Var, "xfresh", NEGATIVE), (Var, "yfresh", NEGATIVE)),
    (Bang, (Const, "bfresh", POSITIVE)),
    (Bottom,), (PropVar, "Fresh"), (FMeta, "Fresh"),
    (Not, (PropVar, "Fresh")), (And, (PropVar, "Fresh"), (Bottom,)),
    (Or, (Bottom,), (PropVar, "Fresh")),
    (Implies, (PropVar, "Fresh"), (FMeta, "Fresh")),
    (Just, (Var, "xfresh"), (PropVar, "Fresh")),
]


@pytest.mark.parametrize("direct_first", (True, False))
def test_every_node_class_gives_one_node_either_way(direct_first):
    assert {recipe[0] for recipe in FRESH} == set(_PARTS)
    for recipe in FRESH:
        ways = (direct, construct) if direct_first else (construct, direct)
        first, second = (make(recipe, way) for way in ways)
        assert type(first) is recipe[0] and first is second


@pytest.mark.parametrize("recipe", VIOLATIONS, ids=lambda r: r[0].__name__)
def test_the_direct_constructor_runs_the_sign_rule(recipe):
    refused = make(recipe, construct)
    # built once already, and refused again through ``__new__``
    assert make(recipe, direct) == refused
