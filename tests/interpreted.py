"""The recursive walks that generated code replaced, kept as its oracles.

``match_template`` and ``instantiate`` here walk the template through
``syntax._PARTS`` on every call, as ``dlk.logics`` did before it compiled
each template into a straight-line function.  The compiled functions
must return the same binding, with its keys in the same order, or None,
and the same instance or an ``InstantiationError`` with the same
message.  ``_polarity_ok``, ``_subst`` and ``_match`` are the old code,
verbatim.

The demand engine measured a formula or a bound value with ``size_upto``
(``_size_upto`` in ``dlk.demand``, verbatim below) until every node kept
its size in a slot, filled by its constructor (``syntax._constructor``).
The rule index keyed its tables with ``top`` (``_top`` in
``dlk.demand``, verbatim below), which reads a node's parts through
``syntax._parts`` on every lookup, until each node class got a generated
function that reads the parts' classes directly (``demand._kind_key``).
Every node's slot must be the walk's size and its generated key the
walk's key, however the node was built.

``term_sign`` (from ``dlk.syntax``) and ``evaluate`` (from
``dlk.semantics``), verbatim below, dispatched on the node's class by a
class-pattern ``match`` until each was written as one ``type(node) is``
test per node.  Both must give the same sign, the same truth value or
a ``TypeError`` with the same message, on every node; ``_polarity_ok``
here reads this ``term_sign``.

``closed_extension`` (from ``dlk.semantics``), below, closed each term
by its own recursion until it became a wrapper over ``close_upward``,
the rules the builder closes with.  It is kept verbatim but for the
application and pairing rules, which it reads from ``evidence_rules.py``
rather than from the library.  Both must give the same interpretation.
"""

from __future__ import annotations

from dataclasses import replace

from dlk.logics import Binding, InstantiationError
from dlk.semantics import EMPTY, ModularModel, _sign_admits
from dlk.syntax import (
    NEGATIVE, POSITIVE, UNSIGNED, And, App, Bang, Bottom, Const, FMeta,
    Formula, Implies, Just, Not, Or, Pair, PropVar, SignDisciplineError, Sum,
    Term, TMeta, Var, _GET_PARTS, _parts, print_term,
)

from evidence_rules import applied, paired


def term_sign(t: Term) -> str | None:
    """Sign of a term, computed from its leaves; None for schematic terms."""
    match t:
        case Const(_, s) | Var(_, s):
            return s
        case App(l, _) | Sum(l, _):
            return term_sign(l)
        case Pair(l, _):
            s = term_sign(l)
            return s if s is None else (NEGATIVE if s == NEGATIVE else UNSIGNED)
        case Bang(i):
            s = term_sign(i)
            return s if s is None else (POSITIVE if s == POSITIVE else UNSIGNED)
        case TMeta():
            return None
    raise TypeError(f"not a term: {t!r}")


def evaluate(model: ModularModel, f: Formula) -> bool:
    match f:
        case Bottom():
            return False
        case PropVar(name):
            return model.valuation.get(name, False)
        case Not(b):
            return not evaluate(model, b)
        case And(l, r):
            return evaluate(model, l) and evaluate(model, r)
        case Or(l, r):
            return evaluate(model, l) or evaluate(model, r)
        case Implies(l, r):
            return (not evaluate(model, l)) or evaluate(model, r)
        case Just(t, b):
            return b in model.evidence(t)
    raise TypeError(f"cannot evaluate {f!r}")


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


def size_upto(node, limit: int) -> int:
    """``formula_size``/``term_size`` of the node, or ``limit + 1`` when
    it is larger; looks at no more than ``limit + 1`` nodes."""
    stack = [node]
    size = 0
    while stack:
        size += 1
        if size > limit:
            break
        node = stack.pop()
        stack.extend(_GET_PARTS[type(node)](node))
    return size


def top(node) -> tuple:
    """The node kinds of a node's top two levels: its own, then its
    parts'."""
    return (type(node), *map(type, _parts(node)))


def closed_extension(model: ModularModel, terms) -> ModularModel:
    """The model with the evidence of ``terms`` and of their parts made
    its least closure under the profile's term operations.

    Each term keeps its interpretation and absorbs what the closure
    rules give from its parts' closed evidence: a sum their union, an
    application what ``evidence_rules.applied`` gives, a pair, when the
    profile has pairing, what ``evidence_rules.paired`` gives, and
    ``!t``, when the profile has introspection and admits ``t``, ``t:F``
    for each member ``F`` of ``t``.  A bounded model
    leaves compounds outside its universe uninterpreted; judged here,
    such a term holds what its parts force.
    """
    profile = model.profile
    pairing = profile.has_schema("pairing")
    introspection = profile.has_schema("introspection")
    interp = dict(model.interp)
    closed: set[Term] = set()

    def close(t: Term) -> frozenset[Formula]:
        if t not in closed:
            closed.add(t)
            parts = [close(part) for part in _parts(t)]
            match t:
                case Sum():
                    new = parts[0] | parts[1]
                case App():
                    new = applied(*parts)
                case Pair() if pairing:
                    new = paired(*parts)
                case Bang(inner) if introspection \
                        and _sign_admits(profile, inner, POSITIVE):
                    new = frozenset(Just(inner, f) for f in parts[0])
                case _:
                    new = EMPTY
            have = model.evidence(t)
            if not new <= have:
                interp[t] = have | new
        return interp.get(t, EMPTY)

    for t in terms:
        close(t)
    return replace(model, interp=interp)
