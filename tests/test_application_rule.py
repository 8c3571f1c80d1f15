"""The application rule of evidence, stated in ``evidence_rules.py``
from its definition and not read from ``dlk.semantics``: for every
``A -> B`` in the evidence of ``s`` and ``A`` in that of ``t``, ``B`` is
in the evidence of ``s·t``.  ``set_product`` is the model layer's one
statement of it, which the builder and the audit read, so it is checked
against that one; so is ``_paired``, the model layer's pairing, against
the pairing stated there.

The evidence sets are drawn from the population of ``nodes.py``:
implications between ground formulas, whose antecedents may or may not
be in the other set, beside formulas of every other kind.  A seeded
case pairs every formula class, as antecedent and as conclusion, so
that conjunctions, justified formulas and negations all occur on both
sides.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from dlk.semantics import _paired, set_product
from dlk.syntax import And, Formula, Implies, _PARTS

from evidence_rules import applied, paired
from nodes import enumerated, ground_formulas


FORMULAS = ground_formulas(False, max_leaves=6, term_leaves=3)


@given(st.lists(st.tuples(FORMULAS, FORMULAS, st.booleans()), max_size=8),
       st.lists(FORMULAS, max_size=4), st.lists(FORMULAS, max_size=4))
@settings(max_examples=300, deadline=None)
def test_set_product_applies_every_implication_to_its_antecedent(
        implications, xs_others, ys_others):
    xs = frozenset([Implies(a, b) for a, b, _ in implications] + xs_others)
    ys = frozenset([a for a, _, given in implications if given] + ys_others)
    assert set_product(xs, ys) == applied(xs, ys)


def test_every_formula_kind_is_applied_on_either_side():
    _, formulas = enumerated(False)
    first = {}
    for f in formulas:
        first.setdefault(type(f), f)
    kinds = [kind for kind in _PARTS
             if issubclass(kind, Formula) and kind in first]
    assert len(kinds) == 7
    examples = [first[kind] for kind in kinds]
    xs = frozenset(Implies(a, b) for a in examples for b in examples)
    for held in examples:
        ys = frozenset([held])
        assert set_product(xs, ys) == applied(xs, ys) == set(examples)
        assert set_product(xs - {Implies(held, held)}, ys) == \
            set(examples) - {held}
    assert set_product(xs, frozenset()) == frozenset()


@given(st.lists(FORMULAS, max_size=4), st.lists(FORMULAS, max_size=4),
       st.lists(st.tuples(FORMULAS, FORMULAS), max_size=6),
       st.lists(FORMULAS, max_size=3))
@settings(max_examples=100, deadline=None)
def test_paired_pairs_every_member_with_every_member(xs, ys, pairs, others):
    # the universe holds conjunctions of members and of non-members alike
    xs, ys = frozenset(xs), frozenset(ys)
    universe = frozenset([And(a, b) for a, b in pairs] + others
                         + [And(x, y) for x in xs for y in ys][:3])
    conjunctions = [f for f in universe if isinstance(f, And)]
    assert frozenset(_paired(None, xs, ys)) == paired(xs, ys)
    assert frozenset(_paired(conjunctions, xs, ys)) \
        == paired(xs, ys, universe)
