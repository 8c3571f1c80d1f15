"""Acceptance gate: eleven end-to-end checks over the whole toolkit.

Each test prints one PASS/FAIL line (visible even under capture) and
then asserts, so a failing criterion is both greppable in the run log
and a red test.  Several criteria carry wall-clock tolerances; those
are measured around the library calls only.
"""

import random
import time

from dlk import (
    Alphabet,
    Binding,
    BuildParams,
    ConstOne,
    ConstZero,
    PlusSyntactic,
    Proof,
    RuleTable,
    SpecDriven,
    audit,
    axiom_line,
    blue_pill,
    build,
    check_nonderivability,
    check_proof,
    close_spec,
    enumerate_formulas,
    enumerate_terms,
    evaluate,
    get_profile,
    instantiate,
    internalize,
    match_axiom,
    mp_line,
    parse_formula,
    parse_term,
    realize_spec,
    search_jl_model,
    translate,
)
from dlk.logics import SCHEMAS
from dlk.scenarios import run as run_scenario
from dlk.semantics import ModularModel
from dlk.syntax import (
    NEGATIVE,
    And,
    FMeta,
    Implies,
    Just,
    Not,
    Or,
    TMeta,
    formula_terms,
    print_formula,
    subformulas,
    subterms,
    term_sign,
)

from exhaustive import derive_exhaustive

jl = get_profile("jl")
dl = get_profile("dl")
dl0 = get_profile("dl0")
fused = get_profile("fused")

fm = parse_formula
tm = parse_term


def sfm(text):
    return parse_formula(text, signed=True)


def report(capsys, number, title, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"[acceptance] criterion {number:2d}: {verdict} — {title}{tail}")


# ---------------------------------------------------------------------------


def test_criterion_01_denial_replay_scenario(capsys):
    t0 = time.perf_counter()
    result = run_scenario("prop1")
    elapsed = time.perf_counter() - t0
    ok = result.ok and elapsed < 1.0
    report(capsys, 1, "three-line replay against a denied hypothesis", ok,
           f"{elapsed:.2f}s")
    assert ok, result.lines


def test_criterion_02_trivial_model(capsys):
    alphabet = Alphabet(("P", "Q"), ("x", "y"), ())
    t0 = time.perf_counter()
    model, _ = build(BuildParams(dl, alphabet, 5, 3, ConstZero()))
    terms = enumerate_terms(alphabet, 3, dl.term_ops)
    formulas = enumerate_formulas(alphabet, 5, terms=terms)
    empty = all(not members for members in model.interp.values())
    clean = audit(model, term_universe=terms).ok
    instances = [Implies(Just(t, b), Not(b)) for t in terms for b in formulas]
    all_true = all(evaluate(model, inst) for inst in instances)
    elapsed = time.perf_counter() - t0
    ok = empty and clean and all_true and elapsed < 5.0
    report(capsys, 2, "never-firing functional builds the vacuous model", ok,
           f"{len(instances)} instances, {elapsed:.2f}s")
    assert ok


def test_criterion_03_maximal_model(capsys):
    alphabet = Alphabet(("P", "Q"), ("x", "y"), ())
    t0 = time.perf_counter()
    model, _ = build(BuildParams(dl, alphabet, 5, 3, ConstOne(),
                                 seed={"P": True}))
    terms = enumerate_terms(alphabet, 3, dl.term_ops)
    formulas = enumerate_formulas(alphabet, 5, terms=terms)
    false_set = {f for f in formulas if not evaluate(model, f)}
    maximal = all(model.interp[t] == false_set for t in terms)
    clean = audit(model, term_universe=terms).ok
    elapsed = time.perf_counter() - t0
    ok = maximal and clean and elapsed < 30.0
    report(capsys, 3, "always-firing functional collects every falsehood", ok,
           f"{len(false_set)}/{len(formulas)} false, {elapsed:.2f}s")
    assert ok


def test_criterion_04_strict_sum_witness(capsys):
    alphabet = Alphabet(("P",), ("x", "y"), ())
    model, _ = build(BuildParams(dl, alphabet, 2, 3, PlusSyntactic(),
                                 seed={"P": False}))
    target = fm("[x+y]:P -> (x:P \\/ y:P)")
    value = evaluate(model, target)
    ok = value is False
    report(capsys, 4, "sum evidence with no working part", ok,
           f"eval = {int(value)}")
    assert ok


def test_criterion_05_pairing_independence(capsys):
    spec = [fm("a:A"), fm("~A"), fm("b:B"), fm("~B")]
    model, _ = realize_spec(dl0, spec)
    allowed = {fm("A"), fm("B")}
    within = all(set(members) <= allowed
                 for members in model.interp.values())
    sweep = check_nonderivability(
        dl0, spec, fm("A /\\ B"), exists_term=True,
        size_bound=4, rounds=2, term_size_bound=4, countermodel=model)
    ok = within and sweep.status == "countermodeled" and sweep.established
    report(capsys, 5, "paired evidence never appears without the pairing "
           "schema", ok, sweep.status)
    assert ok, sweep.note


def test_criterion_06_soundness_sweep(capsys):
    spec = [fm("e1:R"), fm("~R")]
    alphabet = Alphabet(("R",), ("x", "y"), ("e1",))
    t0 = time.perf_counter()
    derived = derive_exhaustive(dl, spec, size_bound=4, rounds=3,
                                term_size_bound=2, limit=None)

    functionals = [
        SpecDriven([fm("e1:R")]),
        RuleTable([("e1", "R", True)]),
        RuleTable([("e1", "R", True), ("*+*", "R", True)]),
        RuleTable([("e1", "R", True), ("*", "~~R", True)]),
        RuleTable([("e1", "*", True)]),
    ]
    models = [build(BuildParams(dl, alphabet, 4, 3, functional,
                                seed={"R": False}))[0]
              for functional in functionals]
    respects = all(evaluate(m, f) for m in models for f in spec)

    # finite models describe a bounded fragment; sweep theorems whose
    # evidence assertions stay inside it, modal conclusions first so the
    # 200 are not all classical tautologies
    term_universe = set(enumerate_terms(alphabet, 3, dl.term_ops))
    universe = models[0].formula_universe

    def inside(f):
        return all(sub.term in term_universe and sub.body in universe
                   for sub in subformulas(f) if isinstance(sub, Just))

    compatible = [f for f in derived.order if inside(f)]
    justified = [f for f in compatible if isinstance(f, Just)]
    negations = [f for f in compatible if isinstance(f, Not)]
    rest = [f for f in compatible
            if not isinstance(f, (Just, Not))]
    theorems = (justified + negations + rest)[:200]

    failures = [(print_formula(f), i)
                for i, m in enumerate(models)
                for f in theorems if not evaluate(m, f)]
    elapsed = time.perf_counter() - t0
    ok = (len(theorems) == 200 and len(justified) >= 5
          and respects and not failures)
    report(capsys, 6, "everything derived stays true in respecting models",
           ok, f"200 theorems ({len(justified)} justified) x "
           f"{len(models)} models, {elapsed:.2f}s")
    assert ok, failures[:5]


def test_criterion_07_blue_pill_demo(capsys):
    first = blue_pill(close_spec([fm("s:E")], dl),
                      depth=2, size=3, limit=None)
    first_ok = (first.found and evaluate(first.model, fm("E"))
                and audit(first.model).condition("application-closure").ok
                and audit(first.model).condition("sum-closure").ok)
    second = blue_pill(close_spec([fm("a:A"), fm("~A"),
                                   fm("b:B"), fm("~B")], dl),
                       depth=2, size=3, limit=None)
    second_ok = (second.found
                 and all(evaluate(second.model, f)
                         for f in (fm("A"), fm("B"), fm("A /\\ B"))))
    ok = first_ok and second_ok
    report(capsys, 7, "denial-backed conclusions survive the transplant", ok,
           f"{len(first.ok)} + {len(second.ok)} extracted members")
    assert ok, (first.note, second.note)


def test_criterion_08_signed_discipline(capsys):
    models = [
        ModularModel(fused, {"P": True, "Q": False},
                     {tm("s+", signed=True): frozenset({fm("P")}),
                      tm("t-", signed=True): frozenset({fm("Q")})}),
    ]
    searched = search_jl_model([sfm("t+:(s-:E)"), sfm("s-:E")], fused)
    if searched is not None:
        models.append(searched)
    transplant = blue_pill(close_spec([sfm("t+:(s-:E)")], fused),
                           depth=2, size=3, limit=None)
    if transplant.found:
        models.append(transplant.model)

    overlaps = []
    for model in models:
        negative = set()
        positive = set()
        for term, members in model.interp.items():
            if term_sign(term) == NEGATIVE:
                negative |= members
            else:
                positive |= members
        overlaps.extend(negative & positive)

    alphabet = Alphabet(("P",), (), ("c",), signed=True)
    denial_hits = 0
    bad_terms = []
    for f in enumerate_formulas(
            alphabet, 6, enumerate_terms(alphabet, 4, fused.term_ops)):
        for sid, binding in match_axiom(f, fused):
            if sid == "denial":
                denial_hits += 1
                if term_sign(binding.terms["t"]) != NEGATIVE:
                    bad_terms.append(print_formula(f))

    ok = (len(models) >= 3 and not overlaps
          and denial_hits > 0 and not bad_terms)
    report(capsys, 8, "no formula carries both signs of evidence", ok,
           f"{len(models)} models, {denial_hits} denial matches")
    assert ok, (overlaps, bad_terms)


def test_criterion_09_translation_properties(capsys):
    alphabet = Alphabet(("P", "Q"), (), ("c", "d"), signed=True)
    t0 = time.perf_counter()
    formulas = enumerate_formulas(
        alphabet, 6, enumerate_terms(alphabet, 4, fused.term_ops))
    images = {f: translate(f) for f in formulas}

    sources_by_image = {}
    collisions = []
    leaky = []
    broken = []
    for f, g in images.items():
        key = print_formula(g)
        other = sources_by_image.setdefault(key, f)
        if other != f:
            collisions.append((print_formula(other), print_formula(f)))
        for t in formula_terms(g):
            if any(term_sign(part) == NEGATIVE for part in subterms(t)):
                leaky.append(print_formula(f))
        match f:
            case And(l, r):
                good = g == And(images[l], images[r])
            case Or(l, r):
                good = g == Or(images[l], images[r])
            case Implies(l, r):
                good = g == Implies(images[l], images[r])
            case Not(b):
                good = g == Not(images[b])
            case _:
                good = True
        if not good:
            broken.append(print_formula(f))
    elapsed = time.perf_counter() - t0
    ok = (not collisions and not leaky and not broken
          and len(formulas) > 5000 and elapsed < 60.0)
    report(capsys, 9, "negative-part renaming is injective and homomorphic",
           ok, f"{len(formulas)} formulas, {elapsed:.2f}s")
    assert ok, (collisions[:3], leaky[:3], broken[:3])


def _template_meta_names(template):
    fnames = []
    for node in subformulas(template):
        if isinstance(node, FMeta) and node.name not in fnames:
            fnames.append(node.name)
    tmetas = {}
    for t in formula_terms(template):
        for part in subterms(t):
            if isinstance(part, TMeta):
                tmetas[part.name] = part.polarity
    return fnames, tmetas


def _random_fused_proof(rng):
    """A checked proof: a few axiom instances plus whatever MP reaches."""
    bodies = [fm("P"), fm("Q"), fm("~P"), fm("_|_"), fm("P /\\ Q")]
    lines = []
    for _ in range(rng.randint(1, 3)):
        sid = rng.choice(tuple(fused.schema_ids))
        schema = SCHEMAS[sid]
        fnames, tmetas = _template_meta_names(schema.template)
        shared_sign = rng.choice("+-")
        terms = {}
        for name, polarity in tmetas.items():
            sign = {"pos": "+", "neg": "-"}.get(polarity, shared_sign)
            terms[name] = tm(rng.choice("uvw") + sign, signed=True)
        binding = Binding({name: rng.choice(bodies) for name in fnames},
                          terms)
        instance = instantiate(schema.template, binding, signed=True)
        lines.append(axiom_line(sid, binding, instance))
    while len(lines) < 6:
        steps = [(i, j)
                 for i, major in enumerate(lines)
                 if isinstance(major.formula, Implies)
                 for j, minor in enumerate(lines)
                 if minor.formula == major.formula.left
                 and not any(existing.formula == major.formula.right
                             for existing in lines)]
        if not steps or rng.random() < 0.3:
            break
        i, j = rng.choice(steps)
        lines.append(mp_line(i, j, lines[i].formula.right))
    return Proof(fused, tuple(lines))


def test_criterion_10_internalization(capsys):
    rng = random.Random(99173)
    failures = []
    for round_no in range(50):
        proof = _random_fused_proof(rng)
        checked = check_proof(proof)
        if not checked.ok:
            failures.append((round_no, "source proof rejected"))
            continue
        entries = [Just(tm(f"e{i}+", signed=True), line.formula)
                   for i, line in enumerate(proof.lines)
                   if line.kind == "axiom"]
        lifted = internalize(proof, entries)
        result = check_proof(lifted)
        if not result.ok:
            failures.append((round_no, result.problems[:1]))
        elif not (isinstance(lifted.conclusion, Just)
                  and lifted.conclusion.body == proof.conclusion):
            failures.append((round_no, "wrong lifted conclusion"))
    ok = not failures
    report(capsys, 10, "every checked proof lifts to a justified proof", ok,
           "50 random proofs")
    assert ok, failures[:5]


def test_criterion_11_signed_scenarios(capsys):
    agw = run_scenario("agw")
    envatted = run_scenario("envatted-brain")
    ok = agw.ok and envatted.ok
    report(capsys, 11, "the signed refutation and derivation scenarios "
           "replay", ok, f"agw {len(agw.lines)} lines, envatted-brain "
           f"{len(envatted.lines)} lines")
    assert ok, (agw.lines, envatted.lines)
