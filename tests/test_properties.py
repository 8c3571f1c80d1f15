"""Property-based checks with ``hypothesis``.

Matching must invert instantiation for every schema, since the demand
engine finds instances by matching (the engine's own oracles run in
``test_engine_oracles.py``).  On random syntax trees, printing must
round-trip through the parser, instantiating a ground formula must
rebuild it part for part, and the unsigning translation must be an
injective homomorphism.  The engine's
rule index must offer every rule a formula matches with values within
the bounds, and its memoized rule lists must be the cap filter over the
rules of the formula's kinds.  On random small specifications, what
forward chaining derives must hold in the audited model ``realize_spec``
builds, wherever its bounds reach.
"""

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from dlk.builder import RealizationError, realize_spec
from dlk.demand import (
    _TOP, _RuleIndex, _admits, _cap, _meta_names, _rule_book, _rule_index,
)
from dlk.logics import (
    PROFILES, SCHEMAS, Binding, InstantiationError, check_in_profile,
    instantiate, match_template, translate,
)
from dlk.proofs import derive_forward
from dlk.semantics import audit, evaluate
from dlk.specifications import SpecClashError, close_spec
from dlk.syntax import (
    NEGATIVE, POSITIVE, UNSIGNED, And, Const, FMeta, Formula, Implies, Just,
    Not, Or, PropVar, TMeta, Var, _parts, formula_size, formula_terms,
    parse_formula, print_formula, subformulas, term_size,
)

from engine_cases import POOLS
from nodes import ground_formulas, ground_terms


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


# ---------------------------------------------------------------------------
# random syntax trees, deeper than the enumerations of test_syntax.py


SIGNED_AND_FORMULA = (st.tuples(st.just(False), ground_formulas(False))
                      | st.tuples(st.just(True), ground_formulas(True)))


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


FUSED_FORMULAS = ground_formulas(True).filter(
    lambda f: not check_in_profile(f, PROFILES["fused"]))


@given(FUSED_FORMULAS, FUSED_FORMULAS, ground_terms(POSITIVE))
@settings(max_examples=200, deadline=None)
# two denials of one body: their atoms must differ
@example(parse_formula("x-:P", signed=True), parse_formula("y-:P", signed=True),
         Var("x", POSITIVE))
def test_translate_is_an_injective_homomorphism(f, g, t):
    tf, tg = translate(f), translate(g)
    assert translate(Not(f)) == Not(tf)
    for kind in (And, Or, Implies):
        assert translate(kind(f, g)) == kind(tf, tg)
    assert translate(Just(t, f)) == Just(t, tf)
    # distinct inputs, distinct images: over every subformula of both
    subs = set(subformulas(f)) | set(subformulas(g))
    assert len({translate(h) for h in subs}) == len(subs)


# ---------------------------------------------------------------------------
# the demand engine's rule index


def _lookup(draw, profile):
    """A formula to look up: a random one or an instance of one of the
    profile's schemas or of its antecedent, whose values may or may not
    fit the bounds; None when the drawn values break a sign."""
    values = ground_formulas(profile.signed, 3, 2)
    terms = ground_terms(POSITIVE if profile.signed else UNSIGNED, 3)
    if profile.signed:
        terms |= ground_terms(NEGATIVE, 3)
    if draw(st.booleans()):
        return draw(ground_formulas(profile.signed, 5, 2))
    template = SCHEMAS[draw(st.sampled_from(profile.schema_ids))].template
    template = draw(st.sampled_from((template, template.left)))
    fnames, tnames = _meta_names(template)
    binding = Binding({n: draw(values) for n in fnames},
                      {n: draw(terms) for n in tnames})
    try:
        return instantiate(template, binding, profile.signed)
    except InstantiationError:
        return None


@st.composite
def indexed_formulas(draw):
    """A profile, bounds, and a formula to look up (see ``_lookup``)."""
    name = draw(st.sampled_from(sorted(PROFILES)))
    profile = PROFILES[name]
    size_bound, term_bound = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    f = _lookup(draw, profile)
    assume(f is not None)
    return profile, size_bound, term_bound, f


@given(indexed_formulas())
@settings(max_examples=400, deadline=None)
def test_the_rule_index_keeps_every_match_that_fits(case):
    # a match the index leaves out must bind a value too large for the
    # pools: the index may only drop what could yield nothing
    profile, size_bound, term_bound, f = case
    rules = _rule_book(profile.schema_ids).rules
    index = _rule_index(profile.schema_ids, size_bound, term_bound)

    def fits(binding):
        return all(formula_size(v) <= size_bound
                   for v in binding.formulas.values()) \
            and all(term_size(v) <= term_bound
                    for v in binding.terms.values())

    tried = index.antecedent_rules(f)
    for rule in rules:
        binding = match_template(rule.template.left, f, profile.signed)
        if binding is not None and fits(binding):
            assert rule in tried, rule.sid
    if isinstance(f, Implies):
        tried = index.template_rules(f)
        for rule in rules:
            binding = match_template(rule.template, f, profile.signed)
            if binding is not None and fits(binding):
                assert rule in tried, rule.sid


def _deeper(f):
    """``f`` with each formula two levels down negated: the same kinds at
    the top two levels, and a larger size if it has such a formula."""
    def negated_parts(node):
        parts = _parts(node) if isinstance(node, Formula) else ()
        return type(node)(*(Not(q) if isinstance(q, Formula) else q
                            for q in parts)) if parts else node

    parts = _parts(f)
    return type(f)(*map(negated_parts, parts)) if parts else f


@st.composite
def index_lookups(draw):
    """A profile, bounds, and formulas to look up in turn in one index:
    each drawn formula (see ``_lookup``), then two of the same kinds and
    larger sizes."""
    profile = PROFILES[draw(st.sampled_from(sorted(PROFILES)))]
    size_bound, term_bound = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    found = []
    for _ in range(draw(st.integers(1, 3))):
        f = _lookup(draw, profile)
        if f is not None:
            found += [f, _deeper(f), _deeper(_deeper(f))]
    return profile, size_bound, term_bound, found


@given(index_lookups())
@settings(max_examples=100, deadline=None)
# a conjunction instantiates the antecedents of and-elim (a conjunction)
# and of and-intro (a bare metavariable), which comes later in schema order
@example((PROFILES["dl"], 4, 2, [parse_formula("P /\\ Q")]))
def test_the_rule_lists_are_the_cap_filter_on_a_first_call_and_a_hit(case):
    # a fresh index, so that the first lookup of a key fills its table
    profile, size_bound, term_bound, formulas = case
    rules = _rule_book(profile.schema_ids).rules
    index = _RuleIndex(rules, size_bound, term_bound)

    def capped(f, whole):
        """The rules admitting the kinds of ``f``'s top two levels, or of
        each side's, in schema order, less those whose cap ``f``
        exceeds."""
        if not whole:
            return tuple(r for r in rules
                         if _admits(r.template.left, _TOP[type(f)](f))
                         and f._size <= _cap(r.template.left, size_bound,
                                             term_bound))
        return tuple(r for r in rules
                     if _admits(r.template.left, _TOP[type(f.left)](f.left))
                     and _admits(r.template.right,
                                 _TOP[type(f.right)](f.right))
                     and f._size <= _cap(r.template, size_bound, term_bound))

    for f in formulas + formulas:
        got = index.antecedent_rules(f)
        assert got == capped(f, False) and type(got) is tuple
        assert index.antecedent_rules(f) is got
        if isinstance(f, Implies):
            got = index.template_rules(f)
            assert got == capped(f, True) and type(got) is tuple
            assert index.template_rules(f) is got


# ---------------------------------------------------------------------------
# derived theorems in built models


@st.composite
def small_specs(draw):
    atom = st.sampled_from("AB").map(PropVar)
    leaf = st.builds(Const, st.sampled_from("ab"))
    entry = (st.builds(Just, leaf, atom)
             | st.builds(Just, leaf, st.builds(Not, atom))
             | st.builds(Just, leaf, st.builds(And, atom, atom))
             | st.builds(Not, atom))
    name = draw(st.sampled_from(("dl", "dl0")))
    return PROFILES[name], draw(st.lists(entry, min_size=1, max_size=3))


@given(small_specs())
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_derived_theorems_hold_in_audited_respecting_models(case):
    profile, raw = case
    try:
        spec = close_spec(raw, profile)
        model, _ = realize_spec(profile, spec.formulas, fm_size=4, tm_size=3)
    except (SpecClashError, RealizationError):
        assume(False)
    assert audit(model).ok
    derived = derive_forward(profile, spec.formulas, size_bound=3, rounds=2,
                             term_size_bound=2, limit=3000)
    universe = model.formula_universe
    for f in derived.order:
        # the audit holds the model to its closure conditions inside the
        # universe only; a justified formula of the universe has its term
        # among the model's terms
        lines = derived.proof_of(f).lines
        if all(sub in universe for line in lines
               for sub in subformulas(line.formula) if isinstance(sub, Just)):
            assert evaluate(model, f), print_formula(f)
