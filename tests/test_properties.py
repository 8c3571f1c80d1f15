"""Property-based checks with ``hypothesis``.

Matching must invert instantiation for every schema, since the demand
strategy finds instances by matching; and on random small hypothesis
sets both saturation strategies must reach the same conclusions.  On
random syntax trees, printing must round-trip through the parser and
instantiating a ground formula must rebuild it part for part.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dlk.logics import (
    PROFILES, SCHEMAS, Binding, InstantiationError, instantiate,
    match_template,
)
from dlk.proofs import derive_forward
from dlk.syntax import (
    BOTTOM, NEGATIVE, POSITIVE, UNSIGNED, Alphabet, And, App, Bang, Const,
    FMeta, Implies, Just, Not, Or, Pair, PropVar, Sum, TMeta, Var,
    enumerate_formulas, enumerate_terms, formula_terms, parse_formula,
    print_formula, subformulas,
)


def _pools(signed: bool, ops):
    alphabet = Alphabet(("P", "Q"), ("x",), ("a",), signed=signed)
    terms = enumerate_terms(alphabet, 2, ops)
    return enumerate_formulas(alphabet, 3, terms=terms[:6]), terms


POOLS = {name: _pools(p.signed, p.term_ops) for name, p in PROFILES.items()}


@st.composite
def schema_bindings(draw):
    name = draw(st.sampled_from(sorted(PROFILES)))
    profile = PROFILES[name]
    sid = draw(st.sampled_from(profile.schema_ids))
    formulas, terms = POOLS[name]
    template = SCHEMAS[sid].template
    fnames = {f.name for f in subformulas(template) if isinstance(f, FMeta)}
    tnames = {t.name for t in formula_terms(template) if isinstance(t, TMeta)}
    binding = Binding(
        {n: draw(st.sampled_from(formulas)) for n in sorted(fnames)},
        {n: draw(st.sampled_from(terms)) for n in sorted(tnames)})
    return profile, sid, binding


@given(schema_bindings())
@settings(max_examples=300, deadline=None)
def test_matching_inverts_instantiation(case):
    profile, sid, binding = case
    template = SCHEMAS[sid].template
    try:
        instance = instantiate(template, binding, profile.signed)
    except InstantiationError:
        assume(False)
    assert match_template(template, instance, profile.signed) == binding


@st.composite
def small_hypothesis_sets(draw):
    name = draw(st.sampled_from(sorted(PROFILES)))
    formulas, _ = POOLS[name]
    hyps = draw(st.lists(st.sampled_from(formulas), min_size=1, max_size=3))
    return PROFILES[name], hyps, draw(st.integers(1, 2))


def _d_part(derived):
    return [(f, derived.provenance[f]) for f in derived.order
            if derived.provenance[f][0] != "axiom"]


@given(small_hypothesis_sets())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_strategies_reach_the_same_conclusions(case):
    profile, hyps, rounds = case
    bounds = {"size_bound": 2, "rounds": rounds, "term_size_bound": 2}
    full = derive_forward(profile, hyps, **bounds)
    lean = derive_forward(profile, hyps, strategy="demand", **bounds)
    assert _d_part(lean) == _d_part(full)
    assert lean.contradiction == full.contradiction


# ---------------------------------------------------------------------------
# random syntax trees, deeper than the enumerations of test_syntax.py


def _terms(sign: str):
    """Terms whose leaves all carry ``sign``; pairing joins negative
    terms, '!' positive ones, and unsigned terms take every operator."""
    leaves = st.builds(Const, st.sampled_from("ab"), st.just(sign)) \
        | st.builds(Var, st.sampled_from("xy"), st.just(sign))

    def extend(kids):
        ops = [st.builds(App, kids, kids), st.builds(Sum, kids, kids)]
        if sign != POSITIVE:
            ops.append(st.builds(Pair, kids, kids))
        if sign != NEGATIVE:
            ops.append(st.builds(Bang, kids))
        return st.one_of(ops)

    return st.recursive(leaves, extend, max_leaves=8)


def _formulas(signed: bool):
    terms = _terms(POSITIVE) | _terms(NEGATIVE) if signed \
        else _terms(UNSIGNED)
    leaves = st.just(BOTTOM) | st.builds(PropVar, st.sampled_from("PQR"))

    def extend(kids):
        return (st.builds(Not, kids) | st.builds(And, kids, kids)
                | st.builds(Or, kids, kids) | st.builds(Implies, kids, kids)
                | st.builds(Just, terms, kids))

    return st.recursive(leaves, extend, max_leaves=24)


SIGNED_AND_FORMULA = (st.tuples(st.just(False), _formulas(False))
                      | st.tuples(st.just(True), _formulas(True)))


@given(SIGNED_AND_FORMULA)
@settings(max_examples=300, deadline=None)
def test_printing_round_trips(case):
    signed, f = case
    assert parse_formula(print_formula(f), signed) == f


@given(SIGNED_AND_FORMULA)
@settings(max_examples=300, deadline=None)
def test_instantiating_a_ground_formula_rebuilds_it(case):
    signed, f = case
    assert instantiate(f, Binding({}, {}), signed) == f
