"""Axiom schemas, logic profiles, schema matching, and the embedding
translation that turns signed justified formulas into unsigned ones.

A profile names a logic by its schema inventory and term operations:

* ``jl``    -- application and sum only (the common core)
* ``dl``    -- jl plus denial and evidence pairing
* ``dl0``   -- jl plus denial, without pairing
* ``lp``    -- jl plus factivity and introspection
* ``fused`` -- signed syntax; denial/pairing on negative terms,
  factivity/introspection on positive ones, in one system

Schemas are templates over metavariables (``FMeta``/``TMeta``); a
``Binding`` instantiates them.  Term metavariables carry a polarity that
is enforced only in signed profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import (
    BOTTOM, NEGATIVE, POSITIVE, UNSIGNED,
    Alphabet, And, App, Bang, Const, FMeta, Formula, Implies, Just, Not, Or,
    Pair, PropVar, SignDisciplineError, Sum, Term, TMeta, Var, _TERM_OPS,
    _parts, formula_terms, print_formula, print_term, subformulas, term_sign,
)


class InstantiationError(ValueError):
    """A schema instance could not be formed from the given binding."""


@dataclass(frozen=True)
class AxiomSchema:
    id: str
    template: Formula
    kind: str               # "classical" | "modal"
    note: str = ""


def _schemas() -> dict[str, AxiomSchema]:
    P, Q, R = FMeta("P"), FMeta("Q"), FMeta("R")
    s, t = TMeta("s"), TMeta("t")
    s_neg, t_neg = TMeta("s", "neg"), TMeta("t", "neg")
    t_pos = TMeta("t", "pos")
    table = [
        AxiomSchema("k", Implies(P, Implies(Q, P)), "classical",
                    "weakening"),
        AxiomSchema("s", Implies(Implies(P, Implies(Q, R)),
                                 Implies(Implies(P, Q), Implies(P, R))),
                    "classical", "distribution"),
        AxiomSchema("and-elim-left", Implies(And(P, Q), P), "classical"),
        AxiomSchema("and-elim-right", Implies(And(P, Q), Q), "classical"),
        AxiomSchema("and-intro", Implies(P, Implies(Q, And(P, Q))), "classical"),
        AxiomSchema("or-intro-left", Implies(P, Or(P, Q)), "classical"),
        AxiomSchema("or-intro-right", Implies(Q, Or(P, Q)), "classical"),
        AxiomSchema("or-elim", Implies(Implies(P, R),
                                       Implies(Implies(Q, R),
                                               Implies(Or(P, Q), R))),
                    "classical"),
        AxiomSchema("ex-falso", Implies(BOTTOM, P), "classical"),
        AxiomSchema("classical-negation", Implies(Implies(Not(P), BOTTOM), P),
                    "classical"),
        AxiomSchema("neg-intro", Implies(Implies(P, BOTTOM), Not(P)), "classical"),
        AxiomSchema("neg-elim", Implies(Not(P), Implies(P, BOTTOM)), "classical"),
        AxiomSchema("application",
                    Implies(Just(s, Implies(P, Q)),
                            Implies(Just(t, P), Just(App(s, t), Q))),
                    "modal", "evidence application"),
        AxiomSchema("sum-left", Implies(Just(s, P), Just(Sum(s, t), P)), "modal"),
        AxiomSchema("sum-right", Implies(Just(t, P), Just(Sum(s, t), P)), "modal"),
        AxiomSchema("denial", Implies(Just(t_neg, P), Not(P)), "modal",
                    "denial evidence refutes"),
        AxiomSchema("pairing",
                    Implies(And(Just(s_neg, P), Just(t_neg, Q)),
                            Just(Pair(s_neg, t_neg), And(P, Q))),
                    "modal", "evidence pairing"),
        AxiomSchema("factivity", Implies(Just(t_pos, P), P), "modal"),
        AxiomSchema("introspection",
                    Implies(Just(t_pos, P), Just(Bang(t_pos), Just(t_pos, P))),
                    "modal", "positive introspection"),
    ]
    return {sch.id: sch for sch in table}


SCHEMAS: dict[str, AxiomSchema] = _schemas()

_CLASSICAL_IDS = tuple(sid for sid, sch in SCHEMAS.items() if sch.kind == "classical")
_CORE_MODAL = ("application", "sum-left", "sum-right")


@dataclass(frozen=True)
class LogicProfile:
    name: str
    signed: bool
    schema_ids: tuple[str, ...]
    term_ops: frozenset[str]
    description: str = ""

    def schemas(self) -> list[AxiomSchema]:
        return [SCHEMAS[sid] for sid in self.schema_ids]

    def has_schema(self, schema_id: str) -> bool:
        return schema_id in self.schema_ids


PROFILES: dict[str, LogicProfile] = {
    "jl": LogicProfile(
        "jl", False, _CLASSICAL_IDS + _CORE_MODAL,
        frozenset({"app", "sum"}),
        "application and sum core"),
    "dl": LogicProfile(
        "dl", False, _CLASSICAL_IDS + _CORE_MODAL + ("denial", "pairing"),
        frozenset({"app", "sum", "pair"}),
        "denial with evidence pairing"),
    "dl0": LogicProfile(
        "dl0", False, _CLASSICAL_IDS + _CORE_MODAL + ("denial",),
        frozenset({"app", "sum"}),
        "denial without pairing"),
    "lp": LogicProfile(
        "lp", False, _CLASSICAL_IDS + _CORE_MODAL + ("factivity", "introspection"),
        frozenset({"app", "sum", "bang"}),
        "factive evidence with introspection"),
    "fused": LogicProfile(
        "fused", True,
        _CLASSICAL_IDS + _CORE_MODAL + ("denial", "pairing", "factivity",
                                        "introspection"),
        frozenset({"app", "sum", "pair", "bang"}),
        "signed terms; denial-side and factive-side evidence together"),
}


def get_profile(name: str) -> LogicProfile:
    if isinstance(name, str) and name in PROFILES:
        return PROFILES[name]
    raise KeyError(f"unknown logic profile {name!r}; "
                   f"expected one of {', '.join(sorted(PROFILES))}")


# ---------------------------------------------------------------------------
# instantiation and matching


@dataclass(frozen=True)
class Binding:
    """Assignment of metavariables for one schema instance."""

    formulas: dict[str, Formula] = field(default_factory=dict)
    terms: dict[str, Term] = field(default_factory=dict)

    def __hash__(self):
        return hash((tuple(sorted(self.formulas.items(), key=lambda kv: kv[0])),
                     tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))


def _polarity_ok(polarity: str, term: Term, signed: bool) -> bool:
    if not signed or polarity in ("any", "sigma"):
        return True
    sign = term_sign(term)
    return sign == (POSITIVE if polarity == "pos" else NEGATIVE)


def instantiate(template: Formula, binding: Binding, signed: bool = False) -> Formula:
    """Fill a schema template; raises InstantiationError on bad bindings."""
    try:
        return _subst(template, binding, signed)
    except SignDisciplineError as exc:
        raise InstantiationError(str(exc)) from None


def _subst(node, binding: Binding, signed: bool):
    kind = type(node)
    if kind is FMeta:
        if node.name not in binding.formulas:
            raise InstantiationError(f"unbound formula metavariable {node.name!r}")
        return binding.formulas[node.name]
    if kind is TMeta:
        if node.name not in binding.terms:
            raise InstantiationError(f"unbound term metavariable {node.name!r}")
        bound = binding.terms[node.name]
        if not _polarity_ok(node.polarity, bound, signed):
            raise InstantiationError(
                f"term {print_term(bound)!r} has the wrong sign for "
                f"metavariable {node.name!r} ({node.polarity})")
        return bound
    parts = _parts(node)
    if not parts:
        return node
    return kind(*[_subst(part, binding, signed) for part in parts])


def _match(pattern, node, fm: dict, tm: dict, signed: bool) -> bool:
    kind = type(pattern)
    if kind is FMeta:
        if pattern.name in fm:
            return fm[pattern.name] == node
        fm[pattern.name] = node
        return True
    if kind is TMeta:
        if pattern.name in tm:
            return tm[pattern.name] == node
        if not _polarity_ok(pattern.polarity, node, signed):
            return False
        tm[pattern.name] = node
        return True
    if type(node) is not kind:
        return False
    parts = _parts(pattern)
    if not parts:
        return pattern == node
    for part, sub in zip(parts, _parts(node)):
        if not _match(part, sub, fm, tm, signed):
            return False
    return True


def match_template(template: Formula, formula: Formula,
                   signed: bool = False) -> Binding | None:
    """Match a formula against one template; None when it does not fit."""
    fm: dict[str, Formula] = {}
    tm: dict[str, Term] = {}
    if _match(template, formula, fm, tm, signed):
        return Binding(fm, tm)
    return None


def match_axiom(formula: Formula, profile: LogicProfile) -> list[tuple[str, Binding]]:
    """Every profile schema the formula instantiates, with the binding.

    First-order matching of a ground formula yields at most one binding
    per schema, so the list holds one pair per matching schema, in the
    profile's fixed schema order.
    """
    hits: list[tuple[str, Binding]] = []
    for sid in profile.schema_ids:
        binding = match_template(SCHEMAS[sid].template, formula, profile.signed)
        if binding is not None:
            hits.append((sid, binding))
    return hits


# ---------------------------------------------------------------------------
# profile conformance


def check_in_profile(formula: Formula, profile: LogicProfile) -> list[str]:
    """Problems that make the formula fall outside the profile's language."""
    problems: list[str] = []
    ops = {ctor: (op, symbol) for op, (ctor, symbol) in _TERM_OPS.items()}
    seen_ops: set[str] = set()
    for t in formula_terms(formula):
        if isinstance(t, (Const, Var)):
            if profile.signed and t.sign == UNSIGNED:
                problems.append(f"leaf {t.name!r} is unsigned in a signed profile")
            elif not profile.signed and t.sign != UNSIGNED:
                problems.append(f"leaf {t.name}{t.sign} is signed in an unsigned profile")
            continue
        op, symbol = ops[type(t)]
        if op not in profile.term_ops and op not in seen_ops:
            seen_ops.add(op)
            problems.append(f"term operation '{symbol}' is not part of "
                            f"profile {profile.name!r}")
    return problems


def alphabet_from(formulas, profile: LogicProfile,
                  extra_prop_vars=(), extra_term_vars=()) -> Alphabet:
    """Smallest alphabet covering the symbols the formulas use."""
    prop_vars: set[str] = set(extra_prop_vars)
    consts: set[str] = set()
    term_vars: set[str] = set(extra_term_vars)
    for f in formulas:
        for sub in subformulas(f):
            if isinstance(sub, PropVar):
                prop_vars.add(sub.name)
        for t in formula_terms(f):
            if isinstance(t, Const):
                consts.add(t.name)
            elif isinstance(t, Var):
                term_vars.add(t.name)
    if not consts and not term_vars:
        term_vars.add("x")
    return Alphabet(tuple(sorted(prop_vars)), tuple(sorted(term_vars)),
                    tuple(sorted(consts)), signed=profile.signed)


# ---------------------------------------------------------------------------
# the unsigning translation


def _fresh_atom(negative_part: Formula) -> PropVar:
    return PropVar("X[" + print_formula(negative_part) + "]")


def translate(f: Formula) -> Formula:
    """Rewrite negatively justified subformulas into fresh atoms.

    Positive justifications are kept; every subformula ``t:E`` with a
    negative ``t`` becomes an atom whose name spells the (recursively
    translated) original, so distinct denials stay distinct and repeated
    ones collapse to the same atom.  The image uses only positive terms
    and is a formula of the factive profile once signs are dropped.
    """
    if isinstance(f, Just):
        sign = term_sign(f.term)
        if sign == POSITIVE:
            return Just(f.term, translate(f.body))
        if sign == NEGATIVE:
            return _fresh_atom(Just(f.term, translate(f.body)))
        raise ValueError(
            f"cannot translate {print_formula(f)!r}: term has no sign")
    parts = _parts(f)
    return type(f)(*map(translate, parts)) if parts else f


def translation_table(f: Formula) -> dict[str, str]:
    """Printed negative justified subformulas -> their fresh atom names."""
    table: dict[str, str] = {}

    def walk(g: Formula):
        for part in _parts(g):
            if isinstance(part, Formula):
                walk(part)
        if isinstance(g, Just) and term_sign(g.term) == NEGATIVE:
            translated = Just(g.term, translate(g.body))
            table[print_formula(g)] = _fresh_atom(translated).name

    walk(f)
    return table
