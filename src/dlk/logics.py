"""Axiom schemas, logic profiles, schema matching, and the embedding
translation that turns signed justified formulas into unsigned ones.

A profile names a logic by its schema inventory; its term operations
are those whose constructors the schemas use:

* ``jl``    -- application and sum only (the common core)
* ``dl``    -- jl plus denial and evidence pairing
* ``dl0``   -- jl plus denial, without pairing
* ``lp``    -- jl plus factivity and introspection
* ``fused`` -- signed syntax; denial/pairing on negative terms,
  factivity/introspection on positive ones, in one system

Schemas are templates over metavariables (``FMeta``/``TMeta``); a
``Binding`` instantiates them.  Term metavariables carry a polarity that
is enforced only in signed profiles.

``match_template`` and ``instantiate`` compile each template once, on
its first use, into a straight-line Python function that tests (or
builds) the template's nodes one after another, instead of walking
``_PARTS`` on every call; the compiled functions are cached by template.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .syntax import (
    BOTTOM, NEGATIVE, POSITIVE, UNSIGNED,
    Alphabet, And, App, Bang, Const, FMeta, Formula, Implies, Just, Not, Or,
    Pair, PropVar, SignDisciplineError, Sum, Term, TMeta, Var, _PARTS,
    _TERM_OPS, _parts, formula_terms, print_formula, print_term, subformulas,
    term_sign,
)


class InstantiationError(ValueError):
    """A schema instance could not be formed from the given binding."""


class RefusalError(ValueError):
    """The call is not defined for this input (``internalize`` on a DL
    proof, say); the command line reports it as a negative verdict."""


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

# jl, the core every profile holds: the classical schemas, application
# and sum
_CORE = (*(sid for sid, sch in SCHEMAS.items() if sch.kind == "classical"),
         "application", "sum-left", "sum-right")


@dataclass(frozen=True)
class LogicProfile:
    name: str
    signed: bool
    schema_ids: tuple[str, ...]
    # the term operations whose constructors the schema templates use
    term_ops: frozenset[str] = field(init=False)

    def __post_init__(self):
        kinds = {type(t) for sid in self.schema_ids
                 for t in formula_terms(SCHEMAS[sid].template)}
        object.__setattr__(self, "term_ops", frozenset(
            op for op, (ctor, _) in _TERM_OPS.items() if ctor in kinds))

    def has_schema(self, schema_id: str) -> bool:
        return schema_id in self.schema_ids


PROFILES: dict[str, LogicProfile] = {p.name: p for p in (
    LogicProfile("jl", False, _CORE),
    LogicProfile("dl", False, _CORE + ("denial", "pairing")),
    LogicProfile("dl0", False, _CORE + ("denial",)),
    LogicProfile("lp", False, _CORE + ("factivity", "introspection")),
    LogicProfile("fused", True, _CORE + ("denial", "pairing", "factivity",
                                         "introspection")),
)}


def get_profile(name: str) -> LogicProfile:
    if isinstance(name, str) and name in PROFILES:
        return PROFILES[name]
    raise KeyError(f"unknown logic profile {name!r}; "
                   f"expected one of {', '.join(sorted(PROFILES))}")


# ---------------------------------------------------------------------------
# instantiation and matching


@dataclass(slots=True)
class Binding:
    """Assignment of metavariables for one schema instance.

    Slotted and not frozen, so that building one, which the engine does
    for every instance it queues, costs a plain ``__init__``; nothing
    assigns to a binding once built, and the hash reads the values by
    metavariable name."""

    formulas: dict[str, Formula] = field(default_factory=dict)
    terms: dict[str, Term] = field(default_factory=dict)

    def __hash__(self):
        return hash((tuple(sorted(self.formulas.items(), key=lambda kv: kv[0])),
                     tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))


# Each template is compiled, on its first use, into two straight-line
# functions read off ``_PARTS``: a matcher, which tests the formula's
# nodes in pre-order and reads each part once, and a filler, which looks
# each metavariable up once and builds the instance bottom-up.  Both do
# what a recursive walk of the template does, in the same order: binding
# keys come in order of first occurrence, a term metavariable's polarity
# is checked, in signed profiles only, at its first occurrence when
# matching and at every occurrence when filling, and filling raises the
# first error that walk meets.


def _expected_sign(polarity: str) -> str | None:
    """The sign a polarity demands in signed profiles; None for any."""
    if polarity in ("any", "sigma"):
        return None
    return POSITIVE if polarity == "pos" else NEGATIVE


def _unbound(what: str, name: str) -> InstantiationError:
    return InstantiationError(f"unbound {what} metavariable {name!r}")


def _wrong_sign(term: Term, name: str, polarity: str) -> InstantiationError:
    return InstantiationError(
        f"term {print_term(term)!r} has the wrong sign for metavariable "
        f"{name!r} ({polarity})")


class _Source:
    """A generated function: its body, and the node classes and template
    leaves it reads from closure cells.  Its other free names are this
    module's globals, looked up as it runs, so that a wrapper installed
    over ``term_sign`` sees every call."""

    def __init__(self):
        self.lines: list[str] = []
        self.cells: dict[str, object] = {}

    def cell(self, value) -> str:
        """The name of a cell holding a node class or a template leaf."""
        name = value.__name__ if isinstance(value, type) \
            else f"leaf{len(self.cells)}"
        self.cells[name] = value
        return name

    def define(self, header: str):
        name = header.partition("(")[0]
        source = (f"def make({', '.join(self.cells)}):\n    def {header}:\n"
                  + "".join(f"        {line}\n" for line in self.lines)
                  + f"    return {name}\n")
        namespace: dict = {}
        exec(source, globals(), namespace)
        return namespace["make"](**self.cells)


@lru_cache(maxsize=1024)
def _matcher(template):
    """``match(n, signed)``: the binding that makes ``n`` the template's
    instance, or None."""
    src = _Source()
    seen: dict[type, dict[str, str]] = {FMeta: {}, TMeta: {}}

    def visit(pattern, var: str) -> None:
        kind = type(pattern)
        if kind in seen:
            earlier = seen[kind].setdefault(pattern.name, var)
            if earlier != var:
                src.lines.append(f"if {earlier} != {var}: return None")
            elif kind is TMeta and (sign := _expected_sign(pattern.polarity)):
                src.lines.append(f"if signed and term_sign({var}) != "
                                 f"{sign!r}: return None")
        elif not _PARTS[kind]:
            src.lines.append(f"if {var} != {src.cell(pattern)}: "
                             f"return None")
        else:
            src.lines.append(f"if type({var}) is not {src.cell(kind)}: "
                             f"return None")
            for i, (attr, part) in enumerate(zip(_PARTS[kind],
                                                 _parts(pattern))):
                src.lines.append(f"{var}_{i} = {var}.{attr}")
                visit(part, f"{var}_{i}")

    visit(template, "n")
    fs, ts = (", ".join(f"{name!r}: {var}" for name, var in seen[kind].items())
              for kind in (FMeta, TMeta))
    src.lines.append(f"return Binding({{{fs}}}, {{{ts}}})")
    return src.define("match(n, signed)")


@lru_cache(maxsize=1024)
def _filler(template):
    """``fill(F, T, signed)``: the template's instance under the formula
    and term bindings ``F`` and ``T``."""
    src = _Source()
    local: dict[tuple[type, str], str] = {}

    def visit(node, var: str) -> str:
        """Emit the lines that put the node's instance in ``var``, or in
        the variable already holding it; return that variable."""
        kind = type(node)
        if kind is FMeta or kind is TMeta:
            earlier = local.setdefault((kind, node.name), var)
            if earlier == var:
                what, table = ("formula", "F") if kind is FMeta else ("term", "T")
                src.lines += [f"try: {var} = {table}[{node.name!r}]",
                              f"except KeyError: raise _unbound({what!r}, "
                              f"{node.name!r}) from None"]
            if kind is TMeta and (sign := _expected_sign(node.polarity)):
                src.lines.append(
                    f"if signed and term_sign({earlier}) != {sign!r}: raise "
                    f"_wrong_sign({earlier}, {node.name!r}, {node.polarity!r})")
            return earlier
        if not _PARTS[kind]:
            return src.cell(node)
        parts = [visit(part, f"{var}_{i}")
                 for i, part in enumerate(_parts(node))]
        src.lines.append(f"{var} = {src.cell(kind)}({', '.join(parts)})")
        return var

    src.lines.append(f"return {visit(template, 'v')}")
    return src.define("fill(F, T, signed)")


def instantiate(template: Formula, binding: Binding, signed: bool = False) -> Formula:
    """Fill a schema template; raises InstantiationError on bad bindings."""
    try:
        return _filler(template)(binding.formulas, binding.terms, signed)
    except SignDisciplineError as exc:
        raise InstantiationError(str(exc)) from None


def match_template(template: Formula, formula: Formula,
                   signed: bool = False) -> Binding | None:
    """Match a formula against one template; None when it does not fit."""
    return _matcher(template)(formula, signed)


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
                  extra_term_vars=()) -> Alphabet:
    """Smallest alphabet covering the symbols the formulas use."""
    prop_vars: set[str] = set()
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
    An atom is fresh only if the input has no variable of its name, so
    input holding one (``X[s-:E] /\\ s-:E``) raises a ``RefusalError``
    naming it, as does a justified formula whose term has no sign.
    """
    return _translation([f])[0][0]


def _translation(formulas) -> tuple[list[Formula], dict[Just, PropVar]]:
    """``translate``'s image of each formula and the atom it mints for
    each negative justified subformula of any of them.  The atoms are
    fresh across the whole input: one formula's variable is never
    another's atom."""
    minted: dict[Just, PropVar] = {}
    images = [_unsign(f, minted) for f in formulas]
    if taken := set(minted.values()).intersection(
            sub for f in formulas for sub in subformulas(f)):
        raise RefusalError(
            f"the translation would mint {min(atom.name for atom in taken)}, "
            f"a variable of the input")
    return images, minted


def _unsign(f: Formula, minted: dict[Just, PropVar]) -> Formula:
    """``translate``'s image of ``f``, its atoms added to ``minted``
    under the subformulas they stand for."""
    if isinstance(f, Just):
        sign = term_sign(f.term)
        if sign == POSITIVE:
            return Just(f.term, _unsign(f.body, minted))
        if sign == NEGATIVE:
            minted[f] = _fresh_atom(Just(f.term, _unsign(f.body, minted)))
            return minted[f]
        raise RefusalError(
            f"cannot translate {print_formula(f)!r}: term has no sign")
    parts = _parts(f)
    return type(f)(*(_unsign(part, minted) for part in parts)) \
        if parts else f
