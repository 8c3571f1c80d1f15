"""The compiled matcher and filler of ``dlk.logics`` against the
recursive ones they replaced (``tests/interpreted.py``).

Templates are every schema, every schema's antecedent, and random
templates with repeated metavariables of every polarity, concrete
leaves of every sign and compounds of every kind.  Matching is tried,
signed and unsigned, on instances and on near misses, instances with
one node swapped for another; the binding must be the oracle's, keys in
the same order, or None with it.  Filling is tried on bindings that may
leave a metavariable unbound or bind a term of the wrong sign or one
that breaks sign discipline in a compound; the instance must be the
oracle's, or the error of the same type with the same message.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from dlk.logics import (
    SCHEMAS, Binding, InstantiationError, instantiate, match_template,
)
from dlk.syntax import (
    BOTTOM, NEGATIVE, POSITIVE, UNSIGNED, And, App, Bang, Const, FMeta,
    Implies, Just, Not, Or, Pair, PropVar, SignDisciplineError, Sum, Term,
    TMeta, Var, _parts, formula_terms, subformulas,
)

import interpreted

SIGNS = (UNSIGNED, POSITIVE, NEGATIVE)
POLARITIES = ("any", "pos", "neg", "sigma")
LEAF_TERMS = [ctor(name, sign) for ctor, name in ((Const, "a"), (Var, "x"))
              for sign in SIGNS]
TERM_POOL = LEAF_TERMS + [
    Var("y", sign) for sign in SIGNS] + [
    App(Var("x", "+"), Var("y", "+")), Sum(Var("x", "-"), Const("a", "-")),
    Pair(Var("x", "-"), Var("y", "-")), Bang(Var("x", "+")),
    App(Var("x"), Var("y")), Pair(Var("x"), Const("a")), Bang(Var("y"))]
A, B = PropVar("A"), PropVar("B")
FORMULA_POOL = [BOTTOM, A, B, Not(A), And(A, B), Or(B, A), Implies(A, B),
                Just(Var("x"), A), Just(Var("x", "-"), B),
                Just(Var("y", "+"), Not(A))]

SCHEMA_TEMPLATES = [sch.template for sch in SCHEMAS.values()] \
    + [sch.template.left for sch in SCHEMAS.values()]


def _term(ctor, *parts):
    """The compound, or its first part where its signs clash."""
    try:
        return ctor(*parts)
    except SignDisciplineError:
        return parts[0]


TERM_TEMPLATES = st.recursive(
    st.builds(TMeta, st.sampled_from("st"), st.sampled_from(POLARITIES))
    | st.sampled_from(LEAF_TERMS),
    lambda kids: st.builds(_term, st.sampled_from([App, Sum, Pair]),
                           kids, kids)
    | st.builds(_term, st.just(Bang), kids),
    max_leaves=4)

FORMULA_TEMPLATES = st.recursive(
    st.builds(FMeta, st.sampled_from("PQR"))
    | st.sampled_from([BOTTOM, A, B]),
    lambda kids: st.builds(Not, kids) | st.builds(And, kids, kids)
    | st.builds(Or, kids, kids) | st.builds(Implies, kids, kids)
    | st.builds(Just, TERM_TEMPLATES, kids),
    max_leaves=10)

TEMPLATES = st.sampled_from(SCHEMA_TEMPLATES) | FORMULA_TEMPLATES


def _metas(template):
    fnames = {f.name for f in subformulas(template) if isinstance(f, FMeta)}
    tnames = {t.name for t in formula_terms(template) if isinstance(t, TMeta)}
    return sorted(fnames), sorted(tnames)


@st.composite
def bindings(draw, template, unbound: bool):
    """A binding of the template's metavariables, in a drawn order, to
    pool members; with ``unbound`` about one in five is left out."""
    fnames, tnames = _metas(template)
    keep = st.integers(0, 4).map(bool) if unbound else st.just(True)
    fm = {n: draw(st.sampled_from(FORMULA_POOL))
          for n in draw(st.permutations(fnames)) if draw(keep)}
    tm = {n: draw(st.sampled_from(TERM_POOL))
          for n in draw(st.permutations(tnames)) if draw(keep)}
    return Binding(fm, tm)


def _nodes(node):
    yield node
    for part in _parts(node):
        yield from _nodes(part)


def _replace(node, at: int, new):
    """The node with its ``at``-th node in pre-order replaced by ``new``."""
    count = 0

    def walk(n):
        nonlocal count
        count += 1
        if count - 1 == at:
            return new
        parts = _parts(n)
        return type(n)(*map(walk, parts)) if parts else n

    return walk(node)


@st.composite
def near_miss(draw, formula):
    """The formula with one node swapped for a pool member of its sort,
    or the formula itself where the swap breaks sign discipline."""
    nodes = list(_nodes(formula))
    at = draw(st.integers(0, len(nodes) - 1))
    pool = TERM_POOL if isinstance(nodes[at], Term) else FORMULA_POOL
    try:
        return _replace(formula, at, draw(st.sampled_from(pool)))
    except SignDisciplineError:
        return formula


@st.composite
def match_cases(draw, templates):
    """A template and formulas to match against it: an instance (built
    unsigned, so its terms may have the wrong sign for a signed match),
    or a pool formula where none can be built, and a near miss of it."""
    template = draw(templates)
    binding = draw(bindings(template, unbound=False))
    try:
        instance = interpreted.instantiate(template, binding, False)
    except InstantiationError:
        instance = draw(st.sampled_from(FORMULA_POOL))
    return template, [instance, draw(near_miss(instance))]


def _keys_and_values(binding):
    if binding is None:
        return None
    return list(binding.formulas.items()), list(binding.terms.items())


def _outcome(fill, *args):
    try:
        return "instance", fill(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _check_matches(template, formulas):
    for f in formulas:
        for signed in (False, True):
            assert _keys_and_values(match_template(template, f, signed)) \
                == _keys_and_values(
                    interpreted.match_template(template, f, signed))


@given(match_cases(st.sampled_from(SCHEMA_TEMPLATES)))
@settings(max_examples=400, deadline=None)
def test_compiled_matcher_agrees_on_schemas(case):
    _check_matches(*case)


@given(match_cases(FORMULA_TEMPLATES))
@settings(max_examples=400, deadline=None)
def test_compiled_matcher_agrees_on_random_templates(case):
    _check_matches(*case)


def test_schema_instances_match_as_the_oracle_does():
    # every schema and antecedent matches instances of its own, and
    # signed matching turns some away for a term of the wrong sign
    rejected = 0
    for template in SCHEMA_TEMPLATES:
        fnames, tnames = _metas(template)
        matched = 0
        for t in (Var("x"), Var("x", "+"), Var("x", "-")):
            binding = Binding(dict(zip(fnames, (A, Not(B), And(A, B)))),
                              dict.fromkeys(tnames, t))
            try:
                instance = interpreted.instantiate(template, binding, False)
            except InstantiationError:
                continue
            _check_matches(template, [instance])
            matched += match_template(template, instance) == binding
            rejected += match_template(template, instance, True) is None
        assert matched
    assert rejected


def test_a_repeated_term_metavariable_is_checked_where_the_oracle_checks():
    # matching checks the polarity of its first occurrence only, filling
    # that of every occurrence
    template = Implies(Just(TMeta("s"), FMeta("P")),
                       Just(TMeta("s", "neg"), Just(TMeta("s", "pos"), A)))
    for t in (Var("x"), Var("x", "+"), Var("x", "-")):
        binding = Binding({"P": B}, {"s": t})
        for signed in (False, True):
            assert _outcome(instantiate, template, binding, signed) == \
                _outcome(interpreted.instantiate, template, binding, signed)
        _check_matches(template, [interpreted.instantiate(template, binding)])


@st.composite
def fill_cases(draw):
    template = draw(TEMPLATES)
    return template, draw(bindings(template, unbound=True)), draw(st.booleans())


@given(fill_cases())
@settings(max_examples=600, deadline=None)
def test_compiled_filler_agrees(case):
    template, binding, signed = case
    assert _outcome(instantiate, template, binding, signed) == \
        _outcome(interpreted.instantiate, template, binding, signed)
