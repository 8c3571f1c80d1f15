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

from dataclasses import dataclass, field
from functools import partial

from .logics import (
    PROFILES, SCHEMAS, Binding, InstantiationError, LogicProfile,
    RefusalError, alphabet_from, check_in_profile, get_profile, instantiate,
    match_axiom,
)
from .semantics import audit, closed_extension, evaluate
from .syntax import (
    NEGATIVE, POSITIVE, UNSIGNED, App, Const, Formula, Implies, Just,
    SignDisciplineError, Var, enumerate_terms, formula_terms, parse_formula,
    parse_term, print_formula, print_term, read_formulas, term_sign,
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
            except InstantiationError as exc:
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


@dataclass
class DerivedSet:
    """What ``derive_forward`` stores, in derivation order: hypotheses,
    modus ponens conclusions and the schema instances they rest on, each
    with enough provenance to rebuild a checkable proof."""

    profile: LogicProfile
    hypotheses: tuple[Formula, ...]
    provenance: dict[Formula, tuple] = field(default_factory=dict)
    contradiction: tuple[Formula, Formula] | None = None
    rounds_used: int = 0
    hit_limit: bool = False

    def __contains__(self, f: Formula) -> bool:
        return f in self.provenance

    def __len__(self) -> int:
        return len(self.provenance)

    @property
    def order(self) -> list[Formula]:
        return list(self.provenance)

    def justified(self) -> list[Just]:
        return [f for f in self.provenance if isinstance(f, Just)]

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
                   extra_pool=(), limit: int | None = None,
                   watch_contradiction: bool = False) -> DerivedSet:
    """Saturate the hypotheses under schema instances and modus ponens.

    Formula metavariable candidates are the subformulas, up to
    ``size_bound``, of the hypotheses, the goal, the ``extra_pool``
    seeds, falsum, and everything modus ponens concludes -- axiom
    instances themselves feed nothing, which keeps the pools from
    swallowing their own output.  Term candidates are the terms
    enumerated up to ``term_size_bound`` (defaulting to ``size_bound``)
    over the occurring symbols plus fallback variables x and y, and the
    subterms of pooled formulas.  Each round's instances are those over
    assignments that bind at least one candidate unseen in earlier
    rounds; a round closes under modus ponens before the pools widen.
    The search stops early on reaching ``goal``, on any formula
    satisfying ``goal_filter``, when ``limit`` formulas have been stored
    (recorded as ``hit_limit``; a cap truncates the derivation order but
    never reorders it), or, when ``watch_contradiction`` is set, on a
    complementary pair.

    Saturation is demand-driven (``dlk.demand``): it stores only the
    instances modus ponens uses as a premise, the goal and a half of the
    first complementary pair, and finds them by matching schema
    antecedents against what is derived.  The pools are fed at each
    round's snapshot, the goal and the first complementary pair are
    looked for once, at round 1's, and a last round after the first ends
    at its modus ponens phase.  The hypotheses and
    modus ponens conclusions, their order and provenance, the
    contradiction, goal and ``rounds_used`` are those of building every
    instance of every round, which ``tests/exhaustive.py`` does as the
    oracle.  Since instances nobody uses are never stored, ``limit``
    counts stored formulas only, and ``goal_filter`` sees stored formulas
    only.
    """
    from .demand import DemandSaturation    # loaded on first call
    return DemandSaturation(
        profile, hypotheses, size_bound=size_bound, rounds=rounds,
        term_size_bound=term_size_bound, limit=limit, goal=goal,
        goal_filter=goal_filter, extra_pool=extra_pool,
        watch_contradiction=watch_contradiction).run()


# ---------------------------------------------------------------------------
# internalization


def internalize(proof: Proof, entries) -> Proof:
    """Lift a checked proof of F to a proof whose conclusion is t:F.

    ``entries`` are justified formulas (a closed specification's
    entries); axiom and hypothesis lines each need an entry whose body is
    the line's formula, justified by a leaf term.  Modus ponens becomes
    an application-schema instance plus two modus ponens steps.

    Internalization is inconsistent with DL, so a proof outside the
    profiles with introspection (``lp``, ``fused``) raises
    ``RefusalError``, as do a proof that does not check and a step whose
    terms no application combines.
    """
    profile = proof.profile
    if not profile.has_schema("introspection"):
        names = sorted(p.name for p in PROFILES.values()
                       if p.has_schema("introspection"))
        raise RefusalError(f"internalization lifts proofs in the "
                           f"{' or '.join(names)} profiles, not "
                           f"{profile.name!r}")
    result = check_proof(proof)
    if not result.ok:
        raise RefusalError("cannot internalize a proof that does not check: "
                           + "; ".join(result.describe()))
    by_body: dict[Formula, Just] = {}
    for entry in entries:
        if isinstance(entry, Just) and entry.body not in by_body:
            by_body[entry.body] = entry
        elif isinstance(entry, Just) and isinstance(entry.term, Const):
            by_body[entry.body] = entry     # constants win over variables

    lines: list[ProofLine] = []
    hyps: list[Formula] = []
    hyp_pos: dict[Formula, int] = {}
    term_of: dict[int, int] = {}            # source line -> lifted line index

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
        else:
            major, minor = line.premises
            a, b = (lines[term_of[j]].formula.term for j in (major, minor))
            minor_f, this_f = proof.lines[minor].formula, line.formula
            try:
                compound = Just(App(a, b), this_f)
            except SignDisciplineError as exc:
                raise RefusalError(f"application cannot combine "
                                   f"{print_term(a)} with {print_term(b)}: "
                                   f"{exc}")
            binding = Binding({"P": minor_f, "Q": this_f}, {"s": a, "t": b})
            step = instantiate(SCHEMAS["application"].template, binding,
                               profile.signed)
            lines.append(axiom_line("application", binding, step))
            schema_at = len(lines) - 1
            lines.append(mp_line(schema_at, term_of[major], step.right))
            first_mp = len(lines) - 1
            lines.append(mp_line(first_mp, term_of[minor], compound))
            term_of[i] = len(lines) - 1

    return Proof(profile, tuple(lines), tuple(hyps))


# ---------------------------------------------------------------------------
# nonderivability


@dataclass
class NonderivabilityReport:
    target: Formula
    status: str                 # derivable | refuted | countermodeled | open
    note: str = ""
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
    countermodel settles the matter semantically, judged in its least
    closed extension (``closed_extension``), where a term the model does
    not interpret holds what its parts force.  Otherwise a direct
    bounded search may find a proof (defeating the claim); failing that,
    the target is assumed -- with a fresh term variable as justifier in
    the existential reading, so the refutation covers every term -- and
    a contradiction is searched for.  When nothing fires the question
    stays open within the given bounds.
    """
    hyps = tuple(hypotheses)
    tbound = size_bound if term_size_bound is None else term_size_bound
    search = partial(derive_forward, profile, size_bound=size_bound,
                     rounds=rounds, term_size_bound=tbound, limit=limit)
    report = partial(NonderivabilityReport, target)

    if countermodel is not None:
        if not audit(countermodel).ok:
            return report("open", "countermodel fails its own audit")
        sweep = []
        if exists_term:
            alphabet = alphabet_from(hyps + (target,), profile,
                                     extra_term_vars=("x", "y"))
            sweep = enumerate_terms(alphabet, tbound, profile.term_ops)
        model = closed_extension(countermodel, [
            *(t for f in hyps + (target,) for t in formula_terms(f)),
            *sweep])
        false_hyp = next((h for h in hyps if not evaluate(model, h)), None)
        if false_hyp is not None:
            return report("open", f"countermodel falsifies hypothesis "
                                  f"{print_formula(false_hyp)!r}")
        if exists_term:
            witness = next(
                (t for t in sweep
                 if (not positive_only or term_sign(t) == POSITIVE)
                 and evaluate(model, Just(t, target))), None)
            if witness is not None:
                return report("open", "countermodel satisfies "
                              f"{print_formula(Just(witness, target))!r}")
            return report("countermodeled",
                          f"audited model satisfies every hypothesis and "
                          f"falsifies t:{print_formula(target)} for all "
                          f"{len(sweep)} enumerated terms up to size {tbound}")
        if evaluate(model, target):
            return report("open", "countermodel satisfies the target")
        return report("countermodeled", "audited model satisfies every "
                                        "hypothesis and falsifies the target")

    if exists_term:
        def hit(f: Formula) -> bool:
            return (isinstance(f, Just) and f.body == target
                    and (not positive_only or term_sign(f.term) == POSITIVE))

        direct = search(hyps, goal_filter=hit, extra_pool=(target,))
        found = next((f for f in direct.provenance if hit(f)), None)
        if found is not None:
            return report("derivable",
                          f"derived {print_formula(found)!r} after all",
                          found=found, proof=direct.proof_of(found))
        alphabet = alphabet_from(hyps + (target,), profile)
        fresh = _fresh_var_name(set(alphabet.term_vars
                                    + alphabet.term_consts))
        if not profile.signed:
            signs = (UNSIGNED,)
        elif positive_only:
            signs = (POSITIVE,)
        else:
            signs = (POSITIVE, NEGATIVE)
        assumptions = [Just(Var(fresh, s), target) for s in signs]
    else:
        # immediate hits skip the saturation sweep entirely
        if target in hyps:
            quick = Proof(profile, (hyp_line(target, hyps.index(target)),),
                          hyps)
            return report("derivable", "the target is a hypothesis",
                          proof=quick)
        hits = match_axiom(target, profile)
        if hits:
            sid, binding = hits[0]
            quick = Proof(profile, (axiom_line(sid, binding, target),), hyps)
            return report("derivable", f"the target instantiates {sid!r}",
                          proof=quick)
        direct = search(hyps, goal=target)
        if target in direct:
            return report("derivable", "the target is derivable after all",
                          proof=direct.proof_of(target))
        assumptions = [target]

    # the claim is refuted only if every assumption shape clashes
    refutation = None
    cut = direct.hit_limit
    for assumption in assumptions:
        assumed = search(hyps + (assumption,), watch_contradiction=True)
        cut = cut or assumed.hit_limit
        if assumed.contradiction is None:
            refutation = None
            break
        if refutation is None:
            pair = assumed.contradiction
            refutation = {"contradiction": pair, "refutation_proofs": tuple(
                map(assumed.proof_of, pair))}

    if refutation is not None:
        what = (f"assuming a justifier (fresh term variable {fresh!r}) "
                f"for the body" if exists_term else "assuming the target")
        return report("refuted",
                      f"{what} derives a complementary pair, so no "
                      f"consistent hypothesis set can prove it", **refutation)

    budget = (f" before the search budget of {limit} formulas ran out,"
              if cut else "")
    return report("open", f"no proof and no refutation{budget} within size "
                          f"{size_bound}, {rounds} round(s)")


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
    if not (isinstance(formulas, dict) and isinstance(terms, dict)
            and all(isinstance(v, str)
                    for v in (*formulas.values(), *terms.values()))):
        raise ProofFormatError("a binding maps metavariable names to "
                               "formula and term strings")
    try:
        return Binding(
            {k: parse_formula(v, signed=signed) for k, v in formulas.items()},
            {k: parse_term(v, signed=signed) for k, v in terms.items()})
    except ValueError as exc:
        raise ProofFormatError(f"bad binding: {exc}") from None


def _index(value, what: str, n: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProofFormatError(f"line {n}: {what} must be an integer, "
                               f"not {value!r}")
    return value


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
    try:
        profile = get_profile(doc.get("profile", "dl"))
    except KeyError as exc:
        raise ProofFormatError(str(exc)) from None
    signed = profile.signed
    hyps = tuple(read_formulas(doc.get("hypotheses", []), signed,
                               "'hypotheses'", ProofFormatError))
    lines: list[ProofLine] = []
    for n, entry in enumerate(doc["lines"]):
        if not isinstance(entry, dict) or "formula" not in entry:
            raise ProofFormatError(f"line {n}: each line needs a formula")
        if not isinstance(entry["formula"], str):
            raise ProofFormatError(f"line {n}: 'formula' must be a string, "
                                   f"not {entry['formula']!r}")
        kind = entry.get("kind", "")
        try:
            formula = parse_formula(entry["formula"], signed=signed)
        except ValueError as exc:
            raise ProofFormatError(f"line {n}: {exc}") from None
        if kind == "axiom":
            try:
                binding = _binding_from_dict(entry.get("binding", {}), signed)
            except ProofFormatError as exc:
                raise ProofFormatError(f"line {n}: {exc}") from None
            schema = entry.get("schema", "")
            if not isinstance(schema, str):
                raise ProofFormatError(f"line {n}: 'schema' must be a "
                                       f"string, not {schema!r}")
            lines.append(axiom_line(schema, binding, formula))
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
