"""Demand-driven saturation, the engine of ``proofs.derive_forward``.

The exhaustive loop -- build every schema instance of every round, kept
as this module's oracle in ``tests/exhaustive.py`` -- adds, in a fixed
order, hypotheses, modus ponens conclusions and schema instances; call
the first two "D".  Every addition gets a key that sorts like that order:
(0, 0, i) for hypothesis i, (r, 0, n) for the n-th conclusion of round
r's modus ponens phase, and (r, 1, schema position, formula pool indices,
term pool indices) for an instance first built in round r, i.e. one whose
binding is in round r's snapshot of the pools but not in round r-1's.  A
pair (major, major.left) enters the modus ponens queue once, at the later
of the two additions, and an instance that is never such a premise
changes D only by being present: an equal conclusion is not added again.
This module therefore replays only the queue entries, ordered by key, and
asks "is this formula an instance, and since when" by matching it against
the schemas.  Instances come from matching each schema's antecedent
against D, from matching D's implications' antecedents against the
schemas, and from pairs of schemas one of whose antecedent unifies with
the other's template (``s`` over ``k`` and the like), in the manner of a
given-clause loop with the schemas as rules.

A formula is matched only against the schemas that the two-level rule
index (``_rule_index``) lets through: those whose antecedent, or whole
template, agrees with the node kinds of the formula's top two levels, and
whose size cap the formula does not exceed, the cap being the largest
size of an instance whose values fit the size bounds.  Every node keeps
its size in a slot, filled when it is built, and the index keeps each
list of rules by the kinds and the size together, so a lookup is one
dict hit.  The kinds come from one function per node class, generated as
the node constructors are.  The index leaves out only matches that yield
nothing, so instances and keys are those of matching every schema.

Each addition queues one generator of its entries in key order (see
``entries``): round by round, the majors concluded by that round, then
the instances first built in it whose antecedent is the added formula,
rule by rule in schema order, the free metavariable ranging over the
pool items new in that round in pool order.  A round's instance phase
queues the merge of its plan events with one more such generator, over
every antecedent match so far.  A generator builds an entry only when
the queue draws it, so a search that stops early never builds the rest.
``tests/merged_entries.py`` keeps, as the oracle, the merge of one
stream per rule that the engine queued before.

Likewise a round joins only the schema pairs whose compound entries all
have a member of their head kind in the snapshot (``live_plans``): an
entry's value must be a snapshot member of that kind, so a pair with an
absent kind has no solution, and the join is never entered.
``tests/all_plans.py`` keeps, as the oracle, the loop that joins every
pair in every round.

Only a snapshot reads the pools, so a round's conclusions are fed to them
just before its snapshot, in the order they were added, and not at all
when the search stops within the round.  Nothing drains what the last
round's instances would queue, so it is not built: the last round is
examined only for the goal and the first complementary pair, and only
when an instance can reach one of them, i.e. the goal is an implication
or a negated implication waits for its pair.  ``tests/eager_rounds.py``
keeps, as the oracle, the loop that feeds each conclusion as it is added
and runs the whole instance phase after every round.

``proofs`` imports this module on the first call of ``derive_forward``,
so importing ``dlk`` does not load it.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from functools import cache
from itertools import starmap
from operator import itemgetter

from . import logics, syntax
from .logics import SCHEMAS, Binding, InstantiationError
from .proofs import DerivedSet
from .syntax import (
    BOTTOM, Formula, FMeta, Implies, Not, SignDisciplineError, Term, TMeta,
    _parts, formula_terms, subformulas, subterms,
)

# Functions of other modules are called through their module, so that a
# wrapper installed there (the benchmark's tracer) sees the calls even
# though this module is imported late.


def _meta_names(template: Formula) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The formula and term metavariable names of a template, in order of
    first occurrence: the order in which the exhaustive loop binds them."""
    fnames = dict.fromkeys(f.name for f in subformulas(template)
                           if isinstance(f, FMeta))
    tnames = dict.fromkeys(t.name for t in formula_terms(template)
                           if isinstance(t, TMeta))
    return tuple(fnames), tuple(tnames)


def _kind_key(kind):
    """The function giving a node of class ``kind`` the node kinds of its
    top two levels: its own, then its parts'.  Generated, as the node
    constructors are, so that a call reads the parts' classes and looks
    nothing up; a leaf's key is one constant tuple."""
    parts = syntax._PARTS[kind]
    env = {"kind": kind, "key": (kind,)}
    body = "key" if not parts else \
        "(kind, " + "".join(f"type(node.{part}), " for part in parts) + ")"
    exec(f"def top(node):\n    return {body}\n", env)
    return env["top"]


# node class -> the function giving a node of it its two-level kind key
_TOP = {kind: _kind_key(kind) for kind in syntax._PARTS}


def _admits(pattern, top: tuple) -> bool:
    """Whether a node whose top two levels have the kinds ``top`` can be
    an instance of ``pattern``; a metavariable admits any kind."""
    if isinstance(pattern, (FMeta, TMeta)):
        return True
    return type(pattern) is top[0] and all(
        isinstance(part, (FMeta, TMeta)) or type(part) is kind
        for part, kind in zip(_parts(pattern), top[1:]))


def _cap(pattern, size_bound: int, term_bound: int) -> int:
    """The size of the largest instance of ``pattern`` whose formula
    values have at most ``size_bound`` nodes and term values at most
    ``term_bound``."""
    if isinstance(pattern, FMeta):
        return size_bound
    if isinstance(pattern, TMeta):
        return term_bound
    return 1 + sum(_cap(part, size_bound, term_bound)
                   for part in _parts(pattern))


# Schema pairs are joined over light patterns rather than syntax nodes:
# a metavariable is its name (a str), a compound is (constructor, *parts),
# and a leaf is itself.  Building them calls no syntax constructor, and
# that is why they are tuples: a constructor runs its class's sign rule,
# which calls ``syntax.term_sign``, and the rule book is built on the
# first search of a profile.  Plans over renamed nodes would add those
# calls to the first search only, so a process's traced ``term_sign``
# count would depend on what it searched before.

def _pattern(node, tag: str):
    if isinstance(node, (FMeta, TMeta)):
        return tag + node.name
    parts = _parts(node)
    return (type(node), *(_pattern(part, tag) for part in parts)) \
        if parts else node


def _chase(p, subst: dict):
    while isinstance(p, str) and p in subst:
        p = subst[p]
    return p


def _occurs(name: str, p, subst: dict) -> bool:
    p = _chase(p, subst)
    if isinstance(p, str):
        return p == name
    return isinstance(p, tuple) and any(_occurs(name, q, subst)
                                        for q in p[1:])


def _unify(a, b, subst: dict) -> bool:
    """Extend ``subst`` to a most general unifier of two patterns.

    Polarities are ignored: a unifier only proposes candidates, and every
    candidate is checked by instantiating and matching the real schemas.
    """
    a, b = _chase(a, subst), _chase(b, subst)
    if isinstance(b, str) and not isinstance(a, str):
        a, b = b, a
    if isinstance(a, str):
        if a == b:
            return True
        if _occurs(a, b, subst):
            return False
        subst[a] = b
        return True
    if not (isinstance(a, tuple) and isinstance(b, tuple)):
        return a == b
    return a[0] is b[0] and all(_unify(x, y, subst)
                                for x, y in zip(a[1:], b[1:]))


def _resolve(p, subst: dict):
    p = _chase(p, subst)
    if isinstance(p, tuple):
        return (p[0], *(_resolve(q, subst) for q in p[1:]))
    return p


def _variables(p, found: dict) -> dict:
    if isinstance(p, str):
        found[p] = None
    elif isinstance(p, tuple):
        for q in p[1:]:
            _variables(q, found)
    return found


def _fill(p, env: dict):
    """The term or formula a pattern stands for under ``env``."""
    if isinstance(p, str):
        return env[p]
    if isinstance(p, tuple):
        return p[0](*(_fill(q, env) for q in p[1:]))
    return p


def _bind(p, value, env: dict) -> bool:
    """One-sided matching; extends ``env``, which is spoilt on failure."""
    if isinstance(p, str):
        have = env.get(p)
        if have is None:
            env[p] = value
            return True
        return have == value
    if isinstance(p, tuple):
        return type(value) is p[0] and all(
            _bind(q, v, env) for q, v in zip(p[1:], _parts(value)))
    return p == value


@dataclass(frozen=True)
class _Rule:
    """A profile schema with its metavariables in the exhaustive loop's
    order, as (formula names, term names): all, and those its antecedent
    binds (a prefix of each); ``free`` is (is a term, name) or None."""

    pos: int
    sid: str
    template: Implies
    names: tuple[tuple[str, ...], tuple[str, ...]]
    bound: tuple[tuple[str, ...], tuple[str, ...]]
    free: tuple[bool, str] | None


@dataclass(frozen=True)
class _Plan:
    """Instances of ``major`` whose antecedent is an instance of another
    schema: one entry per distinct pattern the metavariables of both take
    under the most general unifier, bare variables last; each entry is
    (holds a term, pattern, its variables).  ``slots`` gives the entry of
    each of the major's metavariables.  ``kinds`` is the set of (holds a
    term, head kind) of the compound entries: a value of such an entry is
    a snapshot member of that kind, so the plan's join finds nothing
    while the snapshot lacks one of them."""

    major: _Rule
    entries: tuple[tuple[bool, object, tuple[str, ...]], ...]
    slots: dict
    kinds: frozenset[tuple[bool, type]]


def _plan(major: _Rule, minor: _Rule) -> _Plan | None:
    subst: dict = {}
    if not _unify(_pattern(major.template.left, "1"),
                  _pattern(minor.template, "2"), subst):
        return None
    is_term = {}
    for tag, rule in (("1", major), ("2", minor)):
        for term in (False, True):
            is_term.update({tag + n: term for n in rule.names[term]})
    patterns = {name: _resolve(name, subst) for name in is_term}
    terms = {p for name, p in patterns.items() if is_term[name]}
    distinct = sorted(dict.fromkeys(patterns.values()),
                      key=lambda p: isinstance(p, str))
    entries = tuple((p in terms, p, tuple(_variables(p, {})))
                    for p in distinct)
    at = {p: i for i, p in enumerate(distinct)}
    slots = {name: at[patterns["1" + name]]
             for name in major.names[0] + major.names[1]}
    kinds = frozenset((is_term, p[0]) for is_term, p, _ in entries
                      if isinstance(p, tuple))
    return _Plan(major, entries, slots, kinds)


class _RuleBook:
    """A profile's schemas as rules, which ``_rule_index`` indexes for the
    formulas they can match, and the pairs whose instances can feed each
    other.

    A formula can instantiate a pattern only if the node kinds of its top
    two levels agree with the pattern's, a metavariable admitting any
    kind, so the rules are indexed by those kinds: for ``add``, by the
    kinds of the formula matched against the antecedents, and for
    ``instance``, by those of the implication's antecedent and consequent
    matched against the whole templates.  At given size bounds each
    pattern also has a size cap: 1 per node that is not a metavariable,
    the formula size bound per formula metavariable occurrence and the
    term bound per term metavariable occurrence.  A larger formula binds
    some metavariable to a value larger than its bound, which never
    enters the pools, so the instance never gets a key and the antecedent
    match queues nothing.  A formula's size is its ``_size`` slot, and the
    index keys its tables by size as well as kinds, so a lookup makes no
    cap test at all once its key was seen.  The index only leaves out
    matches that could yield nothing, so the engine makes the same
    instances, in the same order, as it would by matching every rule.

    ``plans`` are the pairs in the order rounds join them; each records
    the kinds its compound entries need, so that a round passes over the
    pairs whose kinds its snapshot lacks, which can yield nothing
    either."""

    def __init__(self, schema_ids: tuple[str, ...]):
        rules = []
        for pos, sid in enumerate(schema_ids):
            template = SCHEMAS[sid].template
            names = _meta_names(template)
            bound = _meta_names(template.left)
            free = [(term, name) for term in (False, True)
                    for name in names[term][len(bound[term]):]]
            if len(free) > 1 or free and not free[0][0] and names[1]:
                # entries() relies on the keys of one bound part's
                # instances growing with the free value, and on no other
                # bound part's keys falling between them
                raise ValueError(f"schema {sid!r} leaves more than one "
                                 f"metavariable, or a formula one beside "
                                 f"term ones, free in its antecedent")
            rules.append(_Rule(pos, sid, template, names, bound,
                               free[0] if free else None))
        self.rules = rules
        self.plans = [p for major in rules for minor in rules
                      if (p := _plan(major, minor)) is not None]


class _RuleIndex:
    """A rule book's tables at one pair of size bounds, filled on demand.
    A lookup is one dict hit, keyed by the node kinds of the formula's
    top two levels, or of each side's, and by its size: a kind fixes how
    many part kinds follow it, so the kinds are unambiguous, and with the
    size in the key each rule's cap is tested once per key, not once per
    lookup.  The tables hold tuples, which every caller shares."""

    def __init__(self, rules: list[_Rule], size_bound: int, term_bound: int):
        self.rules = rules
        self.antecedent_caps = [_cap(r.template.left, size_bound, term_bound)
                                for r in rules]
        self.template_caps = [_cap(r.template, size_bound, term_bound)
                              for r in rules]
        self.by_antecedent: dict[tuple, tuple[_Rule, ...]] = {}
        self.by_template: dict[tuple, tuple[_Rule, ...]] = {}

    def antecedent_rules(self, f: Formula) -> tuple[_Rule, ...]:
        """The rules whose antecedent ``f`` may instantiate with every
        value within the bounds, in schema order."""
        key = (_TOP[type(f)](f), f._size)
        hit = self.by_antecedent.get(key)
        if hit is None:
            top, size = key
            hit = self.by_antecedent[key] = tuple(
                r for r, cap in zip(self.rules, self.antecedent_caps)
                if size <= cap and _admits(r.template.left, top))
        return hit

    def template_rules(self, f: Implies) -> tuple[_Rule, ...]:
        """The rules of which ``f`` may be an instance with every value
        within the bounds, in schema order."""
        a, c = f.left, f.right
        key = (_TOP[type(a)](a), _TOP[type(c)](c), f._size)
        hit = self.by_template.get(key)
        if hit is None:
            left, right, size = key
            hit = self.by_template[key] = tuple(
                r for r, cap in zip(self.rules, self.template_caps)
                if size <= cap and _admits(r.template.left, left)
                and _admits(r.template.right, right))
        return hit


@cache
def _rule_book(schema_ids: tuple[str, ...]) -> _RuleBook:
    return _RuleBook(schema_ids)


@cache
def _rule_index(schema_ids: tuple[str, ...], size_bound: int,
                term_bound: int) -> _RuleIndex:
    """The rule book's tables at these bounds, made on the first call."""
    return _RuleIndex(_rule_book(schema_ids).rules, size_bound, term_bound)


@dataclass(slots=True)
class _Pool:
    """The candidate formulas, or terms, in the exhaustive loop's order,
    none larger than ``bound``.  ``index`` gives each item's position,
    ``round[i]`` the first round whose snapshot holds item i, ``marks[r]``
    the pool size at round r's snapshot and ``shapes`` the snapshot's
    positions by kind."""

    bound: int
    items: list = field(default_factory=list)
    index: dict = field(default_factory=dict)
    round: list[int] = field(default_factory=list)
    marks: list[int] = field(default_factory=lambda: [0])
    shapes: dict[type, list[int]] = field(default_factory=dict)

    def add(self, item):
        """Append an item that is not in the pool."""
        self.index[item] = len(self.items)
        self.items.append(item)


class DemandSaturation:
    """One demand-driven saturation; ``run`` returns its ``DerivedSet``."""

    def __init__(self, profile, hypotheses, *, size_bound, rounds,
                 term_size_bound, limit, goal=None, goal_filter=None,
                 extra_pool=(), watch_contradiction=False):
        self.hyps = tuple(hypotheses)
        self.out = DerivedSet(profile, self.hyps)
        self.signed = profile.signed
        self.rounds = rounds
        tbound = size_bound if term_size_bound is None else term_size_bound
        self.book = _rule_book(profile.schema_ids)
        self.index = _rule_index(profile.schema_ids, size_bound, tbound)
        self.goal, self.goal_filter = goal, goal_filter
        self.limit, self.watch = limit, watch_contradiction
        self.done = False
        self.now = (0, 0, 0)            # key of the addition being made

        # the candidate pools, indexed by "is a term"
        self.formulas = _Pool(size_bound)
        self.terms = _Pool(tbound)
        self.pools = (self.formulas, self.terms)
        # nodes too large for the pool whose parts were already fed
        self.fed: set[Formula] = set()

        # D implications by antecedent, with their keys; the modus ponens
        # queue, of iterators of entries (see ``entries``)
        self.by_antecedent: dict[Formula, list[tuple[tuple, Implies]]] = {}
        self.queue: deque = deque()
        # the bodies of the D members that are negations
        self.negated: set[Formula] = set()
        # instance -> (key, rule, binding) of its first appearance
        self.first: dict[Formula, tuple] = {}
        # what later rounds must look for: schemas whose antecedent a D
        # member matches, absent antecedents of D implications, absent
        # implications whose negation is in D
        self.ante_watch: list[tuple[_Rule, Binding]] = []
        self.left_watch: dict[Formula, list[tuple[tuple, Implies]]] = {}
        self.neg_watch: dict[Formula, Not] = {}

        seeds = list(self.hyps) + ([goal] if goal is not None else [])
        seeds += [BOTTOM] + list(extra_pool)
        alphabet = logics.alphabet_from(seeds, profile,
                                        extra_term_vars=("x", "y"))
        for t in syntax.enumerate_terms(alphabet, tbound,
                                        profile.term_ops):
            self.feed_term(t)
        for f in seeds:
            self.feed_pool(f)

    # pools ---------------------------------------------------------------

    def feed_term(self, t: Term):
        terms = self.terms
        if t not in terms.index and syntax.term_size(t) <= terms.bound:
            terms.add(t)

    def feed_pool(self, f: Formula):
        """The exhaustive loop's ``feed_pool``, walking each node too
        large for the pool once (conclusions share their parts)."""
        if f in self.fed:
            return
        formulas = self.formulas
        if f._size > formulas.bound:
            self.fed.add(f)
            for kid in _parts(f):
                if isinstance(kid, Formula) and kid not in self.fed:
                    self.feed_pool(kid)
            return
        if f in formulas.index:         # and so is every part of it
            return
        for sub in subformulas(f):
            if sub not in formulas.index:
                formulas.add(sub)
                for t in formula_terms(sub):
                    for part in subterms(t):
                        self.feed_term(part)

    def snapshot(self, round_no: int) -> bool:
        """Take round ``round_no``'s snapshot; False when nothing is new."""
        if round_no > 1 and all(len(pool.items) == len(pool.round)
                                for pool in self.pools):
            return False
        for pool in self.pools:
            items, rounds, shapes = pool.items, pool.round, pool.shapes
            for i in range(len(rounds), len(items)):
                rounds.append(round_no)
                shapes.setdefault(type(items[i]), []).append(i)
            pool.marks.append(len(items))
        return True

    def indices(self, names: tuple, binding: Binding) -> tuple | None:
        """(formula pool indices, term pool indices, newest round) of the
        values of these (formula names, term names), or None when one is
        outside the snapshots so far.  A loop over ``pools`` ran 3% slower."""
        fnames, tnames = names
        fm, tm = binding.formulas, binding.terms
        index, rounds = self.formulas.index, self.formulas.round
        newest = 1
        fidx = []
        for name in fnames:
            at = index.get(fm[name])
            if at is None or at >= len(rounds):
                return None
            if rounds[at] > newest:
                newest = rounds[at]
            fidx.append(at)
        index, rounds = self.terms.index, self.terms.round
        tidx = []
        for name in tnames:
            at = index.get(tm[name])
            if at is None or at >= len(rounds):
                return None
            if rounds[at] > newest:
                newest = rounds[at]
            tidx.append(at)
        return tuple(fidx), tuple(tidx), newest

    def start(self, rule: _Rule, bound: Binding) -> tuple | None:
        """Where ``entries`` starts the instances of ``rule`` whose
        antecedent has the bound part: (schema position, bound formula
        indices, bound term indices, newest round of a bound value, rule,
        bound part), or None when a bound value is outside the snapshots
        taken so far."""
        found = self.indices(rule.bound, bound)
        return None if found is None else (rule.pos, *found, rule, bound)

    # instances -----------------------------------------------------------

    def instance(self, f: Formula) -> tuple | None:
        """(key, rule, binding) of the first instance equal to ``f`` over
        the snapshots taken so far, or None."""
        hit = self.first.get(f)
        if hit is not None or not isinstance(f, Implies):
            return hit
        for rule in self.index.template_rules(f):
            binding = logics.match_template(rule.template, f, self.signed)
            if binding is None:
                continue
            found = self.indices(rule.names, binding)
            if found is None:
                continue
            fidx, tidx, newest = found
            key = (newest, 1, rule.pos, fidx, tidx)
            if hit is None or key < hit[0]:
                hit = (key, rule, binding)
        if hit is not None:
            self.first[f] = hit
        return hit

    def store(self, f: Formula, rule: _Rule, binding: Binding):
        """Record an instance that a stored formula relies on."""
        if f not in self.out.provenance:
            self.out.provenance[f] = ("axiom", rule.sid, binding)

    def solutions(self, plan: _Plan, round_no: int) -> list[tuple]:
        """Values of the plan's entries, each in the snapshot, the newest
        first seen in round ``round_no``."""
        entries = plan.entries
        vals: list = [None] * len(entries)
        found: list[tuple] = []

        def step(i: int, newest: int, env: dict):
            if i == len(entries):
                if newest == round_no:
                    found.append(tuple(vals))
                return
            is_term, pattern, names = entries[i]
            pool = self.pools[is_term]
            items, index, rounds = pool.items, pool.index, pool.round
            if all(name in env for name in names):
                try:
                    value = _fill(pattern, env)
                except SignDisciplineError:
                    return
                at = index.get(value)
                if at is not None and at < len(rounds):
                    vals[i] = value
                    step(i + 1, max(newest, rounds[at]), env)
                return
            candidates = range(len(rounds)) if isinstance(pattern, str) \
                else pool.shapes.get(pattern[0], ())
            for at in candidates:
                trial = dict(env)
                if _bind(pattern, items[at], trial):
                    vals[i] = items[at]
                    step(i + 1, max(newest, rounds[at]), trial)

        step(0, 1, {})
        return found

    def live_plans(self) -> list[_Plan]:
        """The book's plans, in order, that have a snapshot member of each
        of their compound entries' kinds; the others' joins find nothing,
        since a pool's ``shapes`` lists exactly the snapshot's members."""
        have = {(is_term, kind) for is_term in (False, True)
                for kind in self.pools[is_term].shapes}
        return [plan for plan in self.book.plans if plan.kinds <= have]

    # additions -----------------------------------------------------------
    #
    # A queue entry is (major, route, left route): the major premise, or
    # None when it is the instance ``route`` = (rule, binding) still to be
    # built, and the routes of the premises that are instances and must be
    # stored if the entry yields a conclusion.  An entry may be queued
    # twice (a formula that instantiates two schemas, an instance that
    # reappears in a later round); the second copy comes later and finds
    # its conclusion present, so it changes nothing.  The queue holds
    # iterators of entries: one ``entries`` generator per addition, which
    # yields the addition's entries in key order, and per instance phase
    # the merge of that phase's plan events with one more such generator.
    # A generator builds an entry only when the queue draws it, so a
    # search that stops early never builds the rest.

    def entries(self, majors, starts, first: int):
        """Queue entries in key order, each as (sort key, entry), for
        ``heapq.merge``, and built when the queue draws it.

        Round by round from ``first`` to the last snapshot's: the majors,
        [(key, implication)] in key order, concluded by that round, then
        the instances first built in it of each start's rule (see
        ``start``) whose antecedent has the start's bound part, start by
        start in sorted order, the free metavariable, if any, ranging over
        the pool items new in that round (or all, in the bound part's own
        round) in pool order.  Last come the majors of the round being
        concluded.  Bindings that break a sign are left for the queue to
        drop."""
        m = 0
        for r in range(first, len(self.formulas.marks)):
            while m < len(majors) and majors[m][0][0] <= r:
                key, major = majors[m]
                m += 1
                yield (key, 0, ()), (major, None, None)
            for pos, fidx, tidx, newest, rule, bound in starts:
                if newest > r:
                    continue
                if rule.free is None:
                    if newest == r:
                        yield (((r, 1, pos, fidx, tidx), 0, ()),
                               (None, (rule, bound), None))
                    continue
                is_term, name = rule.free
                pool = self.pools[is_term]
                for at in range(0 if newest == r else pool.marks[r - 1],
                                pool.marks[r]):
                    values = [dict(bound.formulas), dict(bound.terms)]
                    values[is_term][name] = pool.items[at]
                    idx = [fidx, tidx]
                    idx[is_term] += (at,)
                    yield (((r, 1, pos, *idx), 0, ()),
                           (None, (rule, Binding(*values)), None))
        for key, major in majors[m:]:
            yield (key, 0, ()), (major, None, None)

    def fits(self, binding: Binding) -> bool:
        """Whether every value is within its size bound; a larger one
        never enters the pools, so its instances never get a key."""
        bound = self.formulas.bound
        for v in binding.formulas.values():
            if v._size > bound:
                return False
        bound = self.terms.bound
        for v in binding.terms.values():
            if v._size > bound:
                return False
        return True

    def add(self, f: Formula, prov: tuple):
        """Add a hypothesis or modus ponens conclusion at key ``now``."""
        out = self.out
        provenance = out.provenance
        provenance[f] = prov
        body = f.body if isinstance(f, Not) else None
        if body is not None:
            self.negated.add(body)
        if out.contradiction is None:
            if body is not None and body not in provenance \
                    and (hit := self.instance(body)) is not None:
                self.store(body, *hit[1:])
            if body is not None and body in provenance:
                out.contradiction = (body, f)
            elif f in self.negated:
                out.contradiction = (f, Not(f))
            if out.contradiction is not None and self.watch:
                self.done = True
        if self.goal is not None and f == self.goal:
            self.done = True
        if self.goal_filter is not None and self.goal_filter(f):
            self.done = True
        self.check_limit()
        if self.done:
            return

        if isinstance(f, Implies):
            self.by_antecedent.setdefault(f.left, []).append((self.now, f))
            if f.left in provenance:
                self.queue.append(iter([(f, None, None)]))
            elif (hit := self.instance(f.left)) is not None:
                self.queue.append(iter([(f, None, hit[1:])]))
            else:
                self.left_watch.setdefault(f.left, []).append((self.now, f))
        if isinstance(f, Not) and isinstance(f.body, Implies) \
                and out.contradiction is None:
            self.neg_watch.setdefault(f.body, f)
        majors = self.by_antecedent.get(f)
        starts = []
        for rule in self.index.antecedent_rules(f):
            left = rule.template.left
            if isinstance(left, FMeta):
                bound = Binding({left.name: f}, {})
            else:
                bound = logics.match_template(left, f, self.signed)
                if bound is None or not self.fits(bound):
                    continue
            self.ante_watch.append((rule, bound))
            start = self.start(rule, bound)
            if start is not None:
                starts.append(start)
        if majors or starts:
            # the rules come in schema order, so the starts are sorted
            self.queue.append(map(itemgetter(1), self.entries(
                tuple(majors or ()), starts, 0)))

    def check_limit(self):
        if self.limit is not None and len(self.out.provenance) >= self.limit:
            self.out.hit_limit = True
            self.done = True

    def queue_phase(self, round_no: int):
        """Queue, in key order, the entries round ``round_no``'s instances
        make for the next round's modus ponens phase."""
        events = []

        def event(key, sub, tie, what):
            events.append(((key, sub, tie), what))

        for left in list(self.left_watch):
            if left in self.out.provenance:
                del self.left_watch[left]
                continue
            hit = self.instance(left)
            if hit is not None:
                for key, major in self.left_watch.pop(left):
                    event(hit[0], 1, key, (major, None, hit[1:]))

        for plan in self.live_plans():
            fnames, tnames = plan.major.names
            for vals in self.solutions(plan, round_no):
                binding = Binding({n: vals[plan.slots[n]] for n in fnames},
                                  {n: vals[plan.slots[n]] for n in tnames})
                try:
                    major = logics.instantiate(plan.major.template,
                                               binding, self.signed)
                except InstantiationError:
                    continue
                own, left = self.instance(major), self.instance(major.left)
                if own is None or left is None \
                        or max(own[0], left[0])[0] != round_no:
                    continue
                entry = (major, own[1:], left[1:])
                if own[0] > left[0]:
                    event(own[0], 0, (), entry)
                else:
                    event(left[0], 1, own[0], entry)

        events.sort(key=itemgetter(0))
        starts = sorted(filter(None, starmap(self.start, self.ante_watch)),
                        key=itemgetter(0, 1, 2))
        self.queue.append(map(itemgetter(1), heapq.merge(
            events, self.entries((), starts, round_no),
            key=itemgetter(0))))

    def may_note(self) -> bool:
        """Whether ``note_phase`` can store anything; ``instance`` finds
        implications only."""
        return isinstance(self.goal, Implies) \
            or (self.out.contradiction is None and bool(self.neg_watch))

    def note_phase(self):
        """Store the first instances, over the snapshots taken so far, that
        reach the goal or complete the first complementary pair.

        The goal, or a watched pair, stops the search at the first
        instance reaching it; what the round queued after that is never
        drained.  Runs after ``queue_phase``, whose ``left_watch`` loop
        must not see the instances stored here."""
        notes = []
        if self.goal is not None and self.goal not in self.out.provenance:
            hit = self.instance(self.goal)
            if hit is not None:
                notes.append(hit + (self.goal,))
        if self.out.contradiction is None:
            for g in self.neg_watch:
                hit = self.instance(g)
                if hit is not None:
                    notes.append(hit + (g,))
        notes.sort(key=itemgetter(0))
        stop = None
        for key, rule, binding, f in notes:
            if stop is not None and key != stop:
                break
            self.store(f, rule, binding)
            if f == self.goal:
                self.done = True
            if f in self.neg_watch and self.out.contradiction is None:
                self.out.contradiction = (f, self.neg_watch[f])
                self.done = self.done or self.watch
            self.check_limit()
            if self.done:
                stop = key

    def run(self) -> DerivedSet:
        provenance = self.out.provenance
        for i, h in enumerate(self.hyps):
            if h not in provenance:
                self.now = (0, 0, i)
                self.add(h, ("hyp", i))
            if self.done:
                break
        for round_no in range(1, self.rounds + 1):
            if self.done:
                break
            self.out.rounds_used = round_no
            n = 0
            concluded = []
            while self.queue and not self.done:
                entry = next(self.queue[0], None)
                if entry is None:
                    self.queue.popleft()
                    continue
                major, route, left_route = entry
                if major is None:
                    try:
                        major = logics.instantiate(
                            route[0].template, route[1], self.signed)
                    except InstantiationError:
                        continue
                right = major.right
                if right in provenance or self.instance(right) is not None:
                    continue
                # the premises that are instances, as ``store`` records them
                if route is not None and major not in provenance:
                    provenance[major] = ("axiom", route[0].sid, route[1])
                left = major.left
                if left_route is not None and left not in provenance:
                    provenance[left] = ("axiom", left_route[0].sid,
                                        left_route[1])
                self.now = (round_no, 0, n)
                n += 1
                self.add(right, ("mp", major, left))
                concluded.append(right)
            last = round_no == self.rounds
            if self.done or (last and not self.may_note()):
                break
            for f in concluded:
                self.feed_pool(f)
            if not self.snapshot(round_no):
                break
            if not last:
                self.queue_phase(round_no)
            self.note_phase()
        return self.out
