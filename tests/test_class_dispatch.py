"""``syntax.term_sign`` and ``semantics.evaluate``, which test a node's
class once per node, against the class-pattern ``match`` ladders they
replaced (``tests/interpreted.py``).

Both are asked about every node below a node of the ``nodes.py``
population: random recipes built leniently, metavariables included, and
the enumerated nodes and schema instances of either syntax.  A term
must get the ladder's sign, a formula the ladder's truth value under a
random model, and anything else the same ``TypeError`` with the same
message.  The random models give random subterms random sets of
subformulas, so that ``t:F`` is true as often as not; a formula
metavariable behind a short circuit is never reached, in either.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interpreted
from dlk.logics import PROFILES
from dlk.semantics import ModularModel, evaluate
from dlk.syntax import (
    And, FMeta, Formula, Implies, Not, Or, PropVar, Term, TMeta, Var,
    term_sign,
)
from nodes import FORMULAS, TERMS, below, enumerated, instantiated, lenient, make


def outcome(fn, *args):
    """What ``fn`` returns, or the message of the ``TypeError`` it raises."""
    try:
        return fn(*args)
    except TypeError as exc:
        return ("TypeError", str(exc))


def assert_same_answers(model: ModularModel, node) -> None:
    """Every node below ``node`` gets the ladders' sign and value."""
    for part in below(node):
        assert outcome(term_sign, part) == \
            outcome(interpreted.term_sign, part), part
        assert outcome(evaluate, model, part) == \
            outcome(interpreted.evaluate, model, part), part


def random_model(rng: random.Random, nodes) -> ModularModel:
    """A valuation of P and Q (R left to the default), and evidence for
    some terms below ``nodes`` drawn from the formulas below them."""
    parts = [part for node in nodes for part in below(node)]
    formulas = [p for p in parts if isinstance(p, Formula)]
    terms = [p for p in parts if isinstance(p, Term)]
    interp = {t: frozenset(rng.sample(formulas, rng.randint(0, len(formulas))))
              for t in rng.sample(terms, rng.randint(0, len(terms)))}
    return ModularModel(PROFILES["dl"], {"P": rng.random() < 0.5,
                                         "Q": rng.random() < 0.5}, interp)


@given(TERMS | FORMULAS, st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_random_nodes_get_the_ladders_answers(recipe, rng):
    node = make(recipe, lenient)
    for _ in range(3):
        assert_same_answers(random_model(rng, [node]), node)


@pytest.mark.parametrize("signed", (False, True))
def test_enumerated_and_instantiated_nodes_get_the_ladders_answers(signed):
    terms, formulas = enumerated(signed)
    nodes = terms + formulas + instantiated(signed)
    rng = random.Random(25)
    for _ in range(4):
        model = random_model(rng, rng.sample(nodes, 40))
        for node in nodes:
            assert_same_answers(model, node)


def test_a_metavariable_raises_unless_a_short_circuit_skips_it():
    A, P, Q = FMeta("A"), PropVar("P"), PropVar("Q")
    model = ModularModel(PROFILES["dl"], {"P": True}, {})
    for f in (A, Not(A), And(P, A), Or(Q, A), Implies(A, P), Implies(P, A)):
        with pytest.raises(TypeError, match=r"cannot evaluate FMeta"):
            evaluate(model, f)
        assert_same_answers(model, f)
    for f, value in ((Or(P, A), True), (And(Q, A), False),
                     (Implies(Q, A), True)):
        assert evaluate(model, f) is value
        assert_same_answers(model, f)
    with pytest.raises(TypeError, match=r"cannot evaluate Var"):
        evaluate(model, Var("x"))
    with pytest.raises(TypeError, match=r"not a term: FMeta"):
        term_sign(A)
    assert term_sign(TMeta("s", "pos")) is None
