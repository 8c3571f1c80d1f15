"""One population of syntax nodes for the properties of node construction
and of the walks over nodes.

The strategies draw recipes, ``(class, *arguments)``, a part being a
recipe and a leaf recipe without its last argument taking the default,
so that one tree can be built by the generated constructors, by keyword,
or by the sealed dataclasses of ``sealed_nodes.py``.  Terms come with
leaves of every sign and metavariables of every polarity; ``built``
builds them leniently, a node whose parts break the sign discipline
giving way to its first part.  ``ground_terms`` and ``ground_formulas``
draw built trees without metavariables, each term's leaves of one sign,
which always build and print as text the parser reads back.

The seeded lists hold, for either syntax, the nodes enumerated over a
small alphabet and every profile's schema instances over them.
"""

from __future__ import annotations

import random
from dataclasses import fields

from hypothesis import strategies as st

from dlk.logics import (
    PROFILES, SCHEMAS, Binding, InstantiationError, instantiate,
)
from dlk.syntax import (
    NEGATIVE, POSITIVE, UNSIGNED, Alphabet, And, App, Bang, Bottom, Const,
    FMeta, Implies, Just, Not, Or, Pair, PropVar, SignDisciplineError, Sum,
    TMeta, Var, _parts, enumerate_formulas, enumerate_terms,
)

SIGNS = (UNSIGNED, POSITIVE, NEGATIVE)
POLARITIES = ("any", "pos", "neg", "sigma")
TERM_OPS = (App, Sum, Pair, Bang)
# the operators under which a term keeps the sign its leaves share:
# pairing joins negative terms, '!' positive ones
KEEPING_SIGN = {UNSIGNED: TERM_OPS, POSITIVE: (App, Sum, Bang),
                NEGATIVE: (App, Sum, Pair)}


def term_recipes(signs, max_leaves=8, ops=TERM_OPS, metas=True):
    """Recipes of terms over ``ops`` whose leaves take the drawn
    ``signs``; with ``metas``, also leaves at their default sign and term
    metavariables, with or without a polarity."""
    leaf = (st.tuples(st.just(Const), st.sampled_from("ab"), signs)
            | st.tuples(st.just(Var), st.sampled_from("xy"), signs))
    if metas:
        leaf |= (st.sampled_from(((Const, "a"), (Var, "x")))
                 | st.tuples(st.just(TMeta), st.sampled_from("st"),
                             st.sampled_from(POLARITIES))
                 | st.tuples(st.just(TMeta), st.sampled_from("st")))

    def extend(kids):
        return st.one_of([st.tuples(st.just(Bang), kids) if op is Bang
                          else st.tuples(st.just(op), kids, kids)
                          for op in ops])

    return st.recursive(leaf, extend, max_leaves=max_leaves)


def formula_recipes(terms, max_leaves=16, metas=True):
    """Recipes of formulas of every connective, justified by the recipes
    ``terms`` draws; with ``metas``, also formula metavariables."""
    leaf = st.just((Bottom,)) \
        | st.tuples(st.just(PropVar), st.sampled_from("PQR"))
    if metas:
        leaf |= st.tuples(st.just(FMeta), st.sampled_from("AB"))
    return st.recursive(
        leaf,
        lambda kids: st.one_of([st.tuples(st.just(Not), kids)]
                               + [st.tuples(st.just(kind), kids, kids)
                                  for kind in (And, Or, Implies)]
                               + [st.tuples(st.just(Just), terms, kids)]),
        max_leaves=max_leaves)


# trees whose signed leaves share one sign, which mostly build, and trees
# mixing the signs, which mostly break the discipline somewhere
TERMS = st.one_of([term_recipes(st.just(sign)) for sign in SIGNS]
                  + [term_recipes(st.sampled_from(SIGNS))])
FORMULAS = formula_recipes(TERMS)


def construct(kind, *args, **kwargs):
    return kind(*args, **kwargs)


def lenient(kind, *args, **kwargs):
    """``kind`` over the arguments, or the first of them where they break
    the sign discipline."""
    try:
        return kind(*args, **kwargs)
    except SignDisciplineError:
        return (*args, *kwargs.values())[0]


def make(recipe, build=construct, keywords=False):
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


def built(recipes):
    """The nodes ``recipes`` stand for, built leniently."""
    return recipes.map(lambda recipe: make(recipe, lenient))


def _ground(sign, max_leaves):
    return term_recipes(st.just(sign), max_leaves, KEEPING_SIGN[sign],
                        metas=False)


def ground_terms(sign, max_leaves=8):
    """Built terms whose leaves all carry ``sign``."""
    return built(_ground(sign, max_leaves))


def ground_formulas(signed: bool, max_leaves=24, term_leaves=8):
    """Built formulas of one syntax, each term's leaves of one sign."""
    terms = _ground(POSITIVE, term_leaves) | _ground(NEGATIVE, term_leaves) \
        if signed else _ground(UNSIGNED, term_leaves)
    return built(formula_recipes(terms, max_leaves, metas=False))


def below(node):
    """The node and every node below it."""
    stack = [node]
    while stack:
        part = stack.pop()
        yield part
        stack.extend(_parts(part))


def metavariables(node) -> list:
    return [part for part in below(node) if isinstance(part, (FMeta, TMeta))]


def enumerated(signed: bool) -> tuple[list, list]:
    """Every term up to size 4 over every operator, and every formula up
    to size 5 over the first twelve terms, in enumeration order."""
    alphabet = Alphabet(("P", "Q"), ("x",), ("a",), signed)
    terms = enumerate_terms(alphabet, 4, frozenset(("app", "sum", "pair",
                                                    "bang")))
    return terms, enumerate_formulas(alphabet, 5, terms[:12])


def instantiated(signed: bool, seed: int = 11, per_schema: int = 8) -> list:
    """Each schema of every profile of this syntax, then instances of it
    under ``per_schema`` seeded bindings to ``enumerated`` nodes, less
    those that break a sign."""
    rng = random.Random(seed)
    terms, formulas = enumerated(signed)
    found = []
    for profile in PROFILES.values():
        if profile.signed != signed:
            continue
        for sid in profile.schema_ids:
            template = SCHEMAS[sid].template
            found.append(template)
            metas = dict.fromkeys(metavariables(template))
            for _ in range(per_schema):
                binding = Binding(
                    {m.name: rng.choice(formulas) for m in metas
                     if isinstance(m, FMeta)},
                    {m.name: rng.choice(terms) for m in metas
                     if isinstance(m, TMeta)})
                try:
                    found.append(instantiate(template, binding, signed))
                except InstantiationError:
                    pass
    return found
