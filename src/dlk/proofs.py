"""Hilbert-style proofs and proof search.

A proof is a sequence of lines, each one an axiom-schema instance (with
an explicit binding -- the checker re-instantiates rather than searching
for one), a declared hypothesis, or modus ponens from two earlier lines.
``derive_forward`` saturates a hypothesis set under schema instances and
modus ponens within size/round bounds and can reconstruct a checkable
proof for anything it reaches.  ``internalize`` lifts a proof of F to a
proof of t:F, reading evidence for axioms and hypotheses off a constant
specification and gluing steps with the application schema.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import product as _cartesian

from .logics import (
    SCHEMAS, Binding, InstantiationError, LogicProfile, alphabet_from,
    check_in_profile, get_profile, instantiate, match_axiom,
)
from .syntax import (
    BOTTOM, NEGATIVE, POSITIVE, UNSIGNED,
    App, Const, FMeta, Formula, Implies, Just, Not,
    SignDisciplineError, Term, TMeta, Var, enumerate_terms, formula_size,
    formula_terms, parse_formula, parse_term, print_formula, print_term,
    subformulas, subterms, term_sign, term_size,
)


class ProofFormatError(ValueError):
    """A proof document does not describe a proof."""


class MissingConstantError(KeyError):
    """The specification offers no evidence for a required formula."""

    def __init__(self, formula: Formula):
        self.formula = formula
        super().__init__(print_formula(formula))

    def __str__(self):
        return f"no specification entry justifies {print_formula(self.formula)!r}"


@dataclass(frozen=True)
class ProofLine:
    kind: str                        # "axiom" | "hyp" | "mp"
    formula: Formula
    schema: str | None = None
    binding: Binding | None = None
    hyp_index: int | None = None
    premises: tuple[int, int] | None = None   # (major, minor), zero-based


def axiom_line(schema: str, binding: Binding, formula: Formula) -> ProofLine:
    return ProofLine("axiom", formula, schema=schema, binding=binding)


def hyp_line(formula: Formula, index: int | None = None) -> ProofLine:
    return ProofLine("hyp", formula, hyp_index=index)


def mp_line(major: int, minor: int, formula: Formula) -> ProofLine:
    return ProofLine("mp", formula, premises=(major, minor))


@dataclass(frozen=True)
class Proof:
    profile: LogicProfile
    lines: tuple[ProofLine, ...]
    hypotheses: tuple[Formula, ...] = ()

    @property
    def conclusion(self) -> Formula | None:
        return self.lines[-1].formula if self.lines else None


@dataclass
class CheckResult:
    ok: bool
    problems: list[tuple[int, str]]
    conclusion: Formula | None

    def describe(self) -> list[str]:
        return [f"line {i}: {msg}" for i, msg in self.problems]


def check_proof(proof: Proof) -> CheckResult:
    """Validate every line; all problems are collected, none is fatal."""
    profile = proof.profile
    problems: list[tuple[int, str]] = []

    for i, line in enumerate(proof.lines):
        for msg in check_in_profile(line.formula, profile):
            problems.append((i, msg))
        if line.kind == "axiom":
            if line.schema is None or line.binding is None:
                problems.append((i, "axiom line needs a schema and a binding"))
                continue
            if not profile.has_schema(line.schema):
                problems.append(
                    (i, f"schema {line.schema!r} is not available in "
                        f"profile {profile.name!r}"))
                continue
            try:
                instance = instantiate(SCHEMAS[line.schema].template,
                                       line.binding, profile.signed)
            except (InstantiationError, SignDisciplineError) as exc:
                problems.append((i, f"schema {line.schema!r}: {exc}"))
                continue
            if instance != line.formula:
                problems.append(
                    (i, f"stated formula differs from the {line.schema!r} "
                        f"instance {print_formula(instance)!r}"))
        elif line.kind == "hyp":
            if line.hyp_index is not None:
                if not (0 <= line.hyp_index < len(proof.hypotheses)):
                    problems.append((i, f"hypothesis index {line.hyp_index} "
                                        f"out of range"))
                elif proof.hypotheses[line.hyp_index] != line.formula:
                    problems.append(
                        (i, "stated formula differs from hypothesis "
                            f"{line.hyp_index}"))
            elif line.formula not in proof.hypotheses:
                problems.append((i, "formula is not a declared hypothesis"))
        elif line.kind == "mp":
            if line.premises is None:
                problems.append((i, "modus ponens line needs two premises"))
                continue
            major, minor = line.premises
            if not (0 <= major < i and 0 <= minor < i):
                problems.append((i, "premises must point at earlier lines"))
                continue
            major_f = proof.lines[major].formula
            minor_f = proof.lines[minor].formula
            if major_f != Implies(minor_f, line.formula):
                problems.append(
                    (i, f"line {major} is not {print_formula(minor_f)!r} "
                        f"-> stated formula"))
        else:
            problems.append((i, f"unknown line kind {line.kind!r}"))

    if not proof.lines:
        problems.append((0, "proof has no lines"))
    return CheckResult(not problems, problems, proof.conclusion)


# ---------------------------------------------------------------------------
# forward derivation


def _meta_names(template: Formula) -> tuple[tuple[str, ...], tuple[str, ...]]:
    fnames = dict.fromkeys(f.name for f in subformulas(template)
                           if isinstance(f, FMeta))
    tnames = dict.fromkeys(t.name for t in formula_terms(template)
                           if isinstance(t, TMeta))
    return tuple(fnames), tuple(tnames)


@dataclass
class DerivedSet:
    """Formulas reached by saturation, each with enough provenance to
    rebuild a checkable proof."""

    profile: LogicProfile
    hypotheses: tuple[Formula, ...]
    provenance: dict[Formula, tuple] = field(default_factory=dict)
    order: list[Formula] = field(default_factory=list)
    contradiction: tuple[Formula, Formula] | None = None
    rounds_used: int = 0
    hit_limit: bool = False

    def __contains__(self, f: Formula) -> bool:
        return f in self.provenance

    def __len__(self) -> int:
        return len(self.provenance)

    def justified(self) -> list[Just]:
        return [f for f in self.order if isinstance(f, Just)]

    def proof_of(self, f: Formula) -> Proof:
        if f not in self.provenance:
            raise KeyError(f"not derived: {print_formula(f)!r}")
        lines: list[ProofLine] = []
        placed: dict[Formula, int] = {}

        def emit(g: Formula) -> int:
            if g in placed:
                return placed[g]
            prov = self.provenance[g]
            if prov[0] == "hyp":
                line = hyp_line(g, prov[1])
            elif prov[0] == "axiom":
                line = axiom_line(prov[1], prov[2], g)
            else:
                major = emit(prov[1])
                minor = emit(prov[2])
                line = mp_line(major, minor, g)
            lines.append(line)
            placed[g] = len(lines) - 1
            return placed[g]

        emit(f)
        return Proof(self.profile, tuple(lines), self.hypotheses)


def derive_forward(profile: LogicProfile, hypotheses, *,
                   size_bound: int = 4, rounds: int = 3,
                   term_size_bound: int | None = None,
                   goal: Formula | None = None, goal_filter=None,
                   extra_pool=(), extra_terms=(),
                   limit: int | None = None,
                   watch_contradiction: bool = False,
                   strategy: str = "exhaustive") -> DerivedSet:
    """Saturate the hypotheses under schema instances and modus ponens.

    Formula metavariable candidates are the subformulas, up to
    ``size_bound``, of the hypotheses, the goal, the ``extra_pool``
    seeds, falsum, and everything modus ponens concludes -- axiom
    instances themselves feed nothing, which keeps the pools from
    swallowing their own output.  Term candidates are the terms
    enumerated up to ``term_size_bound`` (defaulting to ``size_bound``)
    over the occurring symbols plus fallback variables x and y, the
    subterms of pooled formulas, and ``extra_terms``.  Each round
    instantiates every schema over assignments that bind at least one
    candidate unseen in earlier rounds, then closes under modus ponens.
    The search stops early on reaching ``goal``, on any formula
    satisfying ``goal_filter``, when ``limit`` formulas have been
    derived (recorded as ``hit_limit``; a cap truncates the derivation
    order but never reorders it), or, when ``watch_contradiction`` is
    set, on a complementary pair.

    ``strategy="exhaustive"`` builds and stores every instance of every
    round.  ``strategy="demand"`` stores only the instances modus ponens
    uses as a premise, the goal and a half of the first complementary
    pair, and finds them by matching schema antecedents against what is
    derived.  Both reach the same hypotheses and modus ponens conclusions
    in the same order with the same provenance, the same contradiction,
    goal and ``rounds_used``, with two differences: ``limit`` counts the
    formulas stored, so a capped demand run returns a longer prefix of
    the same conclusions; and ``goal_filter`` sees only stored formulas,
    so a filter that accepts an implication may fire later than in the
    exhaustive run (every instance is an implication).
    """
    if strategy == "demand":
        from .demand import DemandSaturation    # loaded on first use
        return DemandSaturation(profile, hypotheses, size_bound, rounds,
                                term_size_bound, goal, goal_filter,
                                extra_pool, extra_terms, limit,
                                watch_contradiction).run()
    if strategy != "exhaustive":
        raise ValueError(f"unknown saturation strategy {strategy!r}")
    hyps = tuple(hypotheses)
    out = DerivedSet(profile, hyps)
    tbound = size_bound if term_size_bound is None else term_size_bound

    pool: list[Formula] = []
    pool_set: set[Formula] = set()
    term_pool: list[Term] = []
    term_set: set[Term] = set()
    fresh_f: list[Formula] = []
    fresh_t: list[Term] = []

    def feed_term(t: Term):
        if t not in term_set and term_size(t) <= tbound:
            term_set.add(t)
            term_pool.append(t)
            fresh_t.append(t)

    def feed_pool(f: Formula):
        for sub in subformulas(f):
            if sub not in pool_set and formula_size(sub) <= size_bound:
                pool_set.add(sub)
                pool.append(sub)
                fresh_f.append(sub)
                for t in formula_terms(sub):
                    for part in subterms(t):
                        feed_term(part)

    done = False

    def note_contradiction(f: Formula):
        nonlocal done
        if out.contradiction is not None:
            return
        if isinstance(f, Not) and f.body in out.provenance:
            out.contradiction = (f.body, f)
        elif Not(f) in out.provenance:
            out.contradiction = (f, Not(f))
        if out.contradiction is not None and watch_contradiction:
            done = True

    by_antecedent: dict[Formula, list[Implies]] = {}
    mp_queue: deque[tuple[Implies, Formula]] = deque()

    def add(f: Formula, prov: tuple) -> bool:
        nonlocal done
        if f in out.provenance:
            return False
        out.provenance[f] = prov
        out.order.append(f)
        if isinstance(f, Implies):
            by_antecedent.setdefault(f.left, []).append(f)
            if f.left in out.provenance:
                mp_queue.append((f, f.left))
        for major in by_antecedent.get(f, ()):
            mp_queue.append((major, f))
        note_contradiction(f)
        if goal is not None and f == goal:
            done = True
        if goal_filter is not None and goal_filter(f):
            done = True
        if limit is not None and len(out.provenance) >= limit:
            out.hit_limit = True
            done = True
        return True

    seeds = list(hyps) + ([goal] if goal is not None else []) + [BOTTOM]
    seeds += list(extra_pool)
    alphabet = alphabet_from(seeds, profile, extra_term_vars=("x", "y"))
    for t in enumerate_terms(alphabet, tbound, profile.term_ops):
        feed_term(t)
    for t in extra_terms:
        if t not in term_set:
            term_set.add(t)
            term_pool.append(t)
            fresh_t.append(t)
    for f in seeds:
        feed_pool(f)
    for i, h in enumerate(hyps):
        add(h, ("hyp", i))
        if done:
            break

    schemas = profile.schemas()
    metas = {sch.id: _meta_names(sch.template) for sch in schemas}

    for round_no in range(1, rounds + 1):
        if done:
            break
        out.rounds_used = round_no

        # modus ponens first: close the working set (hypotheses, then
        # whatever earlier rounds queued) before widening it; only these
        # conclusions feed the candidate pools
        while mp_queue and not done:
            major, minor = mp_queue.popleft()
            if add(major.right, ("mp", major, minor)):
                feed_pool(major.right)
        if done:
            break

        new_f = set(fresh_f)
        new_t = set(fresh_t)
        fresh_f, fresh_t = [], []
        if round_no > 1 and not new_f and not new_t:
            break
        f_snapshot = list(pool)
        t_snapshot = list(term_pool)

        # term-metavariable assignments, full and newness-filtered,
        # cached per schema arity for the round
        t_full: dict[int, list[tuple[Term, ...]]] = {}
        t_delta: dict[int, list[tuple[Term, ...]]] = {}

        def t_assignments(arity: int, need_new: bool) -> list[tuple[Term, ...]]:
            if arity not in t_full:
                t_full[arity] = list(_cartesian(*[t_snapshot] * arity))
                t_delta[arity] = [a for a in t_full[arity]
                                  if any(v in new_t for v in a)]
            return t_delta[arity] if need_new else t_full[arity]

        for sch in schemas:
            if done:
                break
            fnames, tnames = metas[sch.id]
            template = sch.template
            for fvals in _cartesian(*[f_snapshot] * len(fnames)):
                if done:
                    break
                f_is_new = round_no == 1 or any(v in new_f for v in fvals)
                tvals_list = t_assignments(len(tnames), not f_is_new)
                if not tvals_list:
                    continue
                fpart = dict(zip(fnames, fvals))
                for tvals in tvals_list:
                    binding = Binding(fpart, dict(zip(tnames, tvals)))
                    try:
                        inst = instantiate(template, binding, profile.signed)
                    except (InstantiationError, SignDisciplineError):
                        continue
                    add(inst, ("axiom", sch.id, binding))
                    if done:
                        break
    return out


# ---------------------------------------------------------------------------
# internalization


@dataclass(frozen=True)
class Internalization:
    proof: Proof
    term: Term

    @property
    def conclusion(self) -> Formula | None:
        return self.proof.conclusion


def internalize(proof: Proof, entries) -> Internalization:
    """Lift a checked proof of F to a proof of t:F.

    ``entries`` are justified formulas (a closed specification's
    entries); axiom and hypothesis lines each need an entry whose body is
    the line's formula, justified by a leaf term.  Modus ponens becomes
    an application-schema instance plus two modus ponens steps.
    """
    result = check_proof(proof)
    if not result.ok:
        raise ValueError("cannot internalize a proof that does not check: "
                         + "; ".join(result.describe()))
    by_body: dict[Formula, Just] = {}
    for entry in entries:
        if isinstance(entry, Just) and entry.body not in by_body:
            by_body[entry.body] = entry
        elif isinstance(entry, Just) and isinstance(entry.term, Const):
            by_body[entry.body] = entry     # constants win over variables

    profile = proof.profile
    lines: list[ProofLine] = []
    hyps: list[Formula] = []
    hyp_pos: dict[Formula, int] = {}
    term_of: dict[int, int] = {}            # source line -> lifted line index
    lifted_term: dict[int, Term] = {}

    def cite(entry: Just) -> int:
        if entry not in hyp_pos:
            hyp_pos[entry] = len(hyps)
            hyps.append(entry)
        lines.append(hyp_line(entry, hyp_pos[entry]))
        return len(lines) - 1

    for i, line in enumerate(proof.lines):
        if line.kind in ("axiom", "hyp"):
            entry = by_body.get(line.formula)
            if entry is None:
                raise MissingConstantError(line.formula)
            term_of[i] = cite(entry)
            lifted_term[i] = entry.term
        else:
            major, minor = line.premises
            a, b = lifted_term[major], lifted_term[minor]
            minor_f, this_f = proof.lines[minor].formula, line.formula
            try:
                compound = Just(App(a, b), this_f)
            except SignDisciplineError as exc:
                raise ValueError(f"application cannot combine "
                                 f"{print_term(a)} with {print_term(b)}: {exc}")
            binding = Binding({"P": minor_f, "Q": this_f}, {"s": a, "t": b})
            step = instantiate(SCHEMAS["application"].template, binding,
                               profile.signed)
            lines.append(axiom_line("application", binding, step))
            schema_at = len(lines) - 1
            lines.append(mp_line(schema_at, term_of[major], step.right))
            first_mp = len(lines) - 1
            lines.append(mp_line(first_mp, term_of[minor], compound))
            term_of[i] = len(lines) - 1
            lifted_term[i] = compound.term

    last = len(proof.lines) - 1
    return Internalization(Proof(profile, tuple(lines), tuple(hyps)),
                           lifted_term[last])


# ---------------------------------------------------------------------------
# nonderivability


@dataclass
class NonderivabilityReport:
    target: Formula
    status: str                 # derivable | refuted | countermodeled | open
    note: str = ""
    exists_term: bool = False
    proof: Proof | None = None
    found: Formula | None = None
    contradiction: tuple[Formula, Formula] | None = None
    refutation_proofs: tuple[Proof, Proof] | None = None

    @property
    def established(self) -> bool:
        return self.status in ("refuted", "countermodeled")


def _fresh_var_name(taken: set[str]) -> str:
    for name in ("j", "k", "l", "m", "n"):
        if name not in taken:
            return name
    i = 1
    while f"j{i}" in taken:
        i += 1
    return f"j{i}"


def check_nonderivability(profile: LogicProfile, hypotheses, target: Formula, *,
                          exists_term: bool = False, positive_only: bool = False,
                          size_bound: int = 4, rounds: int = 3,
                          term_size_bound: int | None = None,
                          limit: int | None = None,
                          countermodel=None) -> NonderivabilityReport:
    """Try to establish that the hypotheses do not yield the target.

    With ``exists_term`` the target is a body and the question is
    whether *any* term justifies it (``positive_only`` restricts the
    quantifier to positive terms in signed profiles).  A supplied
    countermodel settles the matter semantically.  Otherwise a direct
    bounded search may find a proof (defeating the claim); failing that,
    the target is assumed -- with a fresh term variable as justifier in
    the existential reading, so the refutation covers every term -- and
    a contradiction is searched for.  When nothing fires the question
    stays open within the given bounds.
    """
    from .semantics import audit, evaluate   # local import, no cycle at load

    hyps = tuple(hypotheses)
    tbound = size_bound if term_size_bound is None else term_size_bound
    if not profile.signed:
        assumed_signs = (UNSIGNED,)
    elif positive_only:
        assumed_signs = (POSITIVE,)
    else:
        assumed_signs = (POSITIVE, NEGATIVE)

    if countermodel is not None:
        report = audit(countermodel)
        false_hyp = next((h for h in hyps if not evaluate(countermodel, h)), None)
        if not report.ok:
            return NonderivabilityReport(
                target, "open", exists_term=exists_term,
                note="countermodel fails its own audit")
        if false_hyp is not None:
            return NonderivabilityReport(
                target, "open", exists_term=exists_term,
                note=f"countermodel falsifies hypothesis "
                     f"{print_formula(false_hyp)!r}")
        if exists_term:
            alphabet = alphabet_from(hyps + (target,), profile,
                                     extra_term_vars=("x", "y"))
            sweep = enumerate_terms(alphabet, tbound, profile.term_ops)
            witness = next(
                (t for t in sweep
                 if (not positive_only or term_sign(t) == POSITIVE)
                 and evaluate(countermodel, Just(t, target))), None)
            if witness is not None:
                return NonderivabilityReport(
                    target, "open", exists_term=True,
                    note=f"countermodel satisfies "
                         f"{print_formula(Just(witness, target))!r}")
            note = (f"audited model satisfies every hypothesis and "
                    f"falsifies t:{print_formula(target)} for all "
                    f"{len(sweep)} enumerated terms up to size {tbound}")
        else:
            if evaluate(countermodel, target):
                return NonderivabilityReport(
                    target, "open", note="countermodel satisfies the target")
            note = ("audited model satisfies every hypothesis and falsifies "
                    "the target")
        return NonderivabilityReport(target, "countermodeled",
                                     exists_term=exists_term, note=note)

    if exists_term:
        def hit(f: Formula) -> bool:
            return (isinstance(f, Just) and f.body == target
                    and (not positive_only or term_sign(f.term) == POSITIVE))

        direct = derive_forward(profile, hyps, size_bound=size_bound,
                                rounds=rounds, term_size_bound=tbound,
                                goal_filter=hit, extra_pool=(target,),
                                limit=limit, strategy="demand")
        found = next((f for f in direct.order if hit(f)), None)
        if found is not None:
            return NonderivabilityReport(
                target, "derivable", exists_term=True, found=found,
                note=f"derived {print_formula(found)!r} after all",
                proof=direct.proof_of(found))
        taken: set[str] = set()
        for h in hyps + (target,):
            for t in formula_terms(h):
                for part in subterms(t):
                    if isinstance(part, (Const, Var)):
                        taken.add(part.name)
        fresh = _fresh_var_name(taken)
        assumptions = [Just(Var(fresh, s), target) for s in assumed_signs]
    else:
        # immediate hits skip the saturation sweep entirely
        if target in hyps:
            quick = Proof(profile, (hyp_line(target, hyps.index(target)),),
                          hyps)
            return NonderivabilityReport(
                target, "derivable", note="the target is a hypothesis",
                proof=quick)
        hits = match_axiom(target, profile)
        if hits:
            sid, binding = hits[0]
            quick = Proof(profile, (axiom_line(sid, binding, target),), hyps)
            return NonderivabilityReport(
                target, "derivable",
                note=f"the target instantiates {sid!r}", proof=quick)
        direct = derive_forward(profile, hyps, size_bound=size_bound,
                                rounds=rounds, term_size_bound=tbound,
                                goal=target, limit=limit, strategy="demand")
        if target in direct:
            return NonderivabilityReport(
                target, "derivable", note="the target is derivable after all",
                proof=direct.proof_of(target))
        assumptions = [target]

    # the claim is refuted only if every assumption shape clashes
    first_pair: tuple[Formula, Formula] | None = None
    first_proofs: tuple[Proof, Proof] | None = None
    cut = direct.hit_limit
    for assumption in assumptions:
        assumed = derive_forward(profile, hyps + (assumption,),
                                 size_bound=size_bound, rounds=rounds,
                                 term_size_bound=tbound, limit=limit,
                                 watch_contradiction=True, strategy="demand")
        cut = cut or assumed.hit_limit
        if assumed.contradiction is None:
            first_pair = None
            break
        if first_pair is None:
            pos, neg = assumed.contradiction
            first_pair = (pos, neg)
            first_proofs = (assumed.proof_of(pos), assumed.proof_of(neg))

    if first_pair is not None:
        what = (f"assuming a justifier (fresh term variable {fresh!r}) "
                f"for the body" if exists_term else "assuming the target")
        return NonderivabilityReport(
            target, "refuted", exists_term=exists_term,
            note=f"{what} derives a complementary pair, so no consistent "
                 f"hypothesis set can prove it",
            contradiction=first_pair,
            refutation_proofs=first_proofs)

    if cut:
        return NonderivabilityReport(
            target, "open", exists_term=exists_term,
            note=f"no proof and no refutation before the search budget of "
                 f"{limit} formulas ran out, within size {size_bound}, "
                 f"{rounds} round(s)")
    return NonderivabilityReport(
        target, "open", exists_term=exists_term,
        note=f"no proof and no refutation within size {size_bound}, "
             f"{rounds} round(s)")


# ---------------------------------------------------------------------------
# documents


def _binding_to_dict(binding: Binding) -> dict:
    return {"formulas": {k: print_formula(v)
                         for k, v in sorted(binding.formulas.items())},
            "terms": {k: print_term(v)
                      for k, v in sorted(binding.terms.items())}}


def _binding_from_dict(doc, signed: bool) -> Binding:
    if not isinstance(doc, dict):
        raise ProofFormatError("a binding must be an object")
    formulas, terms = doc.get("formulas", {}), doc.get("terms", {})
    if not (isinstance(formulas, dict) and isinstance(terms, dict)):
        raise ProofFormatError("a binding maps metavariable names to "
                               "formulas and terms")
    try:
        return Binding(
            {k: parse_formula(str(v), signed=signed)
             for k, v in formulas.items()},
            {k: parse_term(str(v), signed=signed) for k, v in terms.items()})
    except ValueError as exc:
        raise ProofFormatError(f"bad binding: {exc}") from None


def _index(value, what: str, n: int) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ProofFormatError(f"line {n}: {what} must be an integer, "
                               f"not {value!r}") from None


def proof_to_dict(proof: Proof) -> dict:
    lines = []
    for line in proof.lines:
        entry: dict = {"kind": line.kind,
                       "formula": print_formula(line.formula)}
        if line.schema is not None:
            entry["schema"] = line.schema
        if line.binding is not None:
            entry["binding"] = _binding_to_dict(line.binding)
        if line.hyp_index is not None:
            entry["hyp_index"] = line.hyp_index
        if line.premises is not None:
            entry["premises"] = list(line.premises)
        lines.append(entry)
    return {"profile": proof.profile.name,
            "hypotheses": [print_formula(h) for h in proof.hypotheses],
            "lines": lines}


def proof_from_dict(doc: dict) -> Proof:
    if not isinstance(doc, dict) or not isinstance(doc.get("lines"), list):
        raise ProofFormatError("proof document must be an object with 'lines'")
    if not isinstance(doc.get("hypotheses", []), list):
        raise ProofFormatError("'hypotheses' must be a formula list")
    try:
        profile = get_profile(doc.get("profile", "dl"))
    except KeyError as exc:
        raise ProofFormatError(str(exc)) from None
    signed = profile.signed
    try:
        hyps = tuple(parse_formula(str(h), signed=signed)
                     for h in doc.get("hypotheses", []))
    except ValueError as exc:
        raise ProofFormatError(f"bad hypothesis: {exc}") from None
    lines: list[ProofLine] = []
    for n, entry in enumerate(doc["lines"]):
        if not isinstance(entry, dict) or "formula" not in entry:
            raise ProofFormatError(f"line {n}: each line needs a formula")
        kind = entry.get("kind", "")
        try:
            formula = parse_formula(str(entry["formula"]), signed=signed)
        except ValueError as exc:
            raise ProofFormatError(f"line {n}: {exc}") from None
        if kind == "axiom":
            try:
                binding = _binding_from_dict(entry.get("binding", {}), signed)
            except ProofFormatError as exc:
                raise ProofFormatError(f"line {n}: {exc}") from None
            lines.append(axiom_line(str(entry.get("schema", "")), binding,
                                    formula))
        elif kind == "hyp":
            idx = entry.get("hyp_index")
            lines.append(hyp_line(formula, None if idx is None else
                                  _index(idx, "hyp_index", n)))
        elif kind == "mp":
            prem = entry.get("premises")
            if not (isinstance(prem, list) and len(prem) == 2):
                raise ProofFormatError(
                    f"line {n}: modus ponens needs premises [major, minor]")
            lines.append(mp_line(_index(prem[0], "a premise", n),
                                 _index(prem[1], "a premise", n), formula))
        else:
            raise ProofFormatError(f"line {n}: unknown kind {kind!r}")
    return Proof(profile, tuple(lines), hyps)
