"""Property-based checks with ``hypothesis``.

Matching must invert instantiation for every schema, since the demand
strategy finds instances by matching; and on random small hypothesis
sets both saturation strategies must reach the same conclusions.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dlk.logics import (
    PROFILES, SCHEMAS, Binding, InstantiationError, instantiate,
    match_template,
)
from dlk.proofs import derive_forward
from dlk.syntax import (
    Alphabet, FMeta, TMeta, enumerate_formulas, enumerate_terms,
    formula_terms, subformulas,
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
