"""The generated node constructors against the sealed dataclasses, their
oracle (``sealed_nodes.py``).

Random trees of all fifteen node classes, with leaves of every sign and
metavariables of every polarity, are built both ways: the nodes must
have the same class, fields and size at every level, and each sign
violation must raise the same ``SignDisciplineError`` text.  The sealed
nodes are not interned, so the two are compared structurally, as are
the enumerated nodes of ``nodes.py`` and their sealed rebuilds.  That
every route to one structure gives the identical node is a node fact of
``test_node_facts.py``.
"""

from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dlk.syntax import (
    NEGATIVE, POSITIVE, App, Bang, Bottom, Const, Formula, Just, Pair, Sum,
    Term, Var,
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
