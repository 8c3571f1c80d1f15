"""Seeded corpora for the three workloads.

A corpus is one *round*: a list of groups, each a short list of
operations that run in order (a build and the audit of what it built, a
query and the check of the proof it returned, the README session).  The
seed renames every propositional variable and evidence leaf, picks
constant or variable leaves, and shuffles the groups; the structure of
each group is fixed, so every seed asks the program for the same amount
of work and a run's figures do not depend on which seed drew it.  Every
operation is exactly one public call into ``dlk``, made through the
module attribute so that the traced run sees it.

Bounds are chosen so that no operation dominates a round: formula size 2
for the exhaustive searches (size 3 only where the answer is not
``open``; an ``open`` answer at size 3 saturates twice and takes 7-23 s),
rounds 2-3, term size 2.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import dlk
import dlk.cli

import checks

ATOMS = "ABCDEFGHIJKLMNOPQRSTUVWZ"          # no X: translate mints X[...]
CONSTS = ("a", "b", "c", "d", "e", "a1", "b1", "c1", "d1", "e1")
# no x, y (the prover's fallback term variables) and no j-n (its fresh
# justifier names): a clash would change the amount of work, not the task
VARS = ("f", "g", "h", "o", "p", "q", "r", "s", "t", "u", "v", "w")


class Op:
    """One public call, the check of its result, and, for an input that
    trips a known fault, the name of that fault."""

    __slots__ = ("kind", "call", "check", "fault")

    def __init__(self, kind, call, check, fault=None):
        self.kind, self.call, self.check, self.fault = kind, call, check, fault


class Names:
    """A fresh renaming for one group.

    Names are drawn in sorted order and the leaves of a group are all
    constants or all variables, so every renaming keeps the relative order
    of the symbols.  The prover walks its pools in that order and stops at
    the first goal or contradiction, so an order-keeping renaming leaves
    the amount of work exactly as it was.
    """

    def __init__(self, rng: random.Random):
        atoms = sorted(rng.sample(ATOMS, 6))
        leaves = sorted(rng.sample(rng.choice((CONSTS, VARS)), 4))
        self.map = dict(zip("ABCEPZ", atoms))
        self.map.update(zip("abst", leaves))

    def __call__(self, template: str) -> str:
        return template.format(**self.map)


def _formulas(profile, templates, names):
    return [dlk.parse_formula(names(t), signed=profile.signed)
            for t in templates]


# ---------------------------------------------------------------------------
# saturate: exhaustive bounded search

# (profile, raw hypotheses, [(copies, call, size, rounds[, target, exists,
# expect])]); hypothesis sets are closed before use; "nd" is
# check_nonderivability.  Copies build the blocks that the percentiles
# fall in: 8 copies of a ~120 ms extraction straddle the median (8 copies
# of a ~25 ms refutation balance it) and 7 copies of a ~450 ms refutation
# hold the 90th percentile, so neither sits on a jump between two
# different operations.
SATURATE = [
    ("dl", ["{a}:{A}"], [
        (1, "ok_extract", 2, 2), (1, "blue_pill", 2, 3),
        (1, "nd", 2, 2, "{A}", False, "refuted"),
        (1, "nd", 2, 2, "{Z}", False, "open"),
        (1, "nd", 2, 2, "~{A}", True, "refuted"),
        (1, "nd", 2, 2, "{Z}", True, "open")]),
    ("dl", ["{a}:{A}", "{b}:{B}"], [
        (8, "ok_extract", 2, 3), (1, "blue_pill", 2, 2),
        (1, "nd", 2, 3, "{A}", False, "refuted"),
        (1, "nd", 2, 2, "{Z}", False, "open"),
        (1, "nd", 2, 2, "~{A}", True, "refuted")]),
    ("dl", ["{s}:({t}:{P})"], [
        (1, "ok_extract", 2, 3), (1, "blue_pill", 2, 2),
        (1, "nd", 2, 2, "{t}:{P}", False, "refuted"),
        (1, "nd", 2, 2, "~{t}:{P}", True, "open")]),
    ("dl0", ["{a}:{A}"], [
        (1, "ok_extract", 2, 3),
        (8, "nd", 2, 3, "{A}", False, "refuted"),
        (1, "nd", 2, 3, "{Z}", False, "open"),
        (1, "nd", 2, 2, "~{A}", True, "refuted"),
        (1, "ok_extract", 3, 2),
        (7, "nd", 3, 2, "{A}", False, "refuted")]),
    # the pairing-independence shape: no justifier for A /\ B without pairing
    ("dl0", ["{a}:{A}", "{b}:{B}"], [
        (1, "ok_extract", 2, 2),
        (1, "nd", 2, 2, "{Z}", False, "open"),
        (1, "nd", 2, 2, "{A} /\\ {B}", True, "open")]),
    # the agw shape: no positive justifier links C to the denied E (at
    # size 2 the search is too small to refute one, so the answer is open)
    ("fused", ["{s}+:{C}", "{t}-:{E}"], [
        (1, "ok_extract", 2, 2), (1, "blue_pill", 2, 3),
        (1, "nd", 2, 2, "{E}", False, "refuted"),
        (1, "nd+", 2, 2, "{C} -> {E}", True, "open")]),
    ("fused", ["{t}+:({s}-:{E})"], [
        (1, "ok_extract", 2, 2), (1, "blue_pill", 2, 2),
        (1, "nd", 2, 2, "{E}", False, "refuted")]),
    ("fused", ["{s}-:{E}"], [
        (1, "ok_extract", 2, 3), (1, "blue_pill", 2, 2),
        (1, "nd", 2, 3, "{E}", False, "refuted"),
        (1, "nd", 2, 2, "{Z}", False, "open")]),
]


def _saturate_op(profile, spec, names, entry, tag):
    call = entry[0]
    size, rounds = entry[1], entry[2]
    tag = f"{profile.name} s{size} r{rounds} {tag}"
    if call == "ok_extract":
        def run():
            return dlk.ok_extract(spec, depth=rounds, size=size, term_size=2)
        return Op(f"ok_extract {tag}", run, lambda ok: checks.ok_set(dlk, ok))
    if call == "blue_pill":
        def run():
            return dlk.blue_pill(spec, depth=rounds, size=size, term_size=2)

        def check(result):
            if result.status != "model":
                return f"blue pill: {result.note}"
            return (checks.ok_set(dlk, result.ok)
                    or checks.model_satisfies(result.model, result.ok.members))
        return Op(f"blue_pill {tag}", run, check)
    target_text, exists, expect = entry[3], entry[4], entry[5]
    target = dlk.parse_formula(names(target_text), signed=profile.signed)
    hyps = spec.formulas
    positive_only = call == "nd+"
    if expect == "open" and not exists:
        # the target atom is absent from a hypothesis set that has a model,
        # so no sound search may call it derivable
        valuation, interp = checks.naive_model(hyps)
        if not all(checks.holds(valuation, interp, h) for h in hyps):
            raise RuntimeError(f"hypotheses without a model: {hyps!r}")

    def run():
        return dlk.check_nonderivability(
            profile, hyps, target, exists_term=exists,
            positive_only=positive_only, size_bound=size, rounds=rounds,
            term_size_bound=2)
    return Op(f"nd {expect} {tag}", run,
              lambda rep: checks.nonderivability(dlk, rep, target=target,
                                                 expect=expect, exists=exists))


def saturate(rng, workdir):
    groups = []
    for i, (pname, raw, entries) in enumerate(SATURATE):
        profile = dlk.get_profile(pname)
        for j, (copies, *entry) in enumerate(entries):
            for _ in range(copies):
                names = Names(rng)
                spec = dlk.close_spec(_formulas(profile, raw, names), profile)
                groups.append([_saturate_op(profile, spec, names, entry,
                                            f"#{i}.{j}")])
    return groups


# ---------------------------------------------------------------------------
# models: staged construction and audit, no proof search

# (copies, profile, atoms, leaves, fm_size, tm_size, functional); each
# build is followed by the audit of the model it built.  The dl const-one
# 5/3 builds run the pairing sweep (the 2p1t one is the largest operation
# of the round); 9 copies of the 1p2t one hold the 90th percentile, and
# 12 copies of a ~20 ms const-zero build straddle the median.
BUILDS = [
    (1, "dl", 2, 1, 5, 3, "const-one"),
    (9, "dl", 1, 2, 5, 3, "const-one"),
    (1, "dl", 2, 2, 4, 3, "const-one"),
    (1, "dl", 2, 2, 5, 1, "const-one"),
    (1, "dl", 2, 2, 5, 3, "plus-syntactic"),
    (1, "dl", 1, 2, 5, 3, "rule-table"),
    (1, "dl", 2, 2, 5, 3, "const-zero"),
    (1, "dl", 2, 2, 4, 3, "spec-driven"),
    (1, "dl0", 2, 2, 5, 3, "const-one"),
    (1, "dl0", 1, 2, 5, 3, "const-one"),
    (1, "dl0", 2, 1, 5, 3, "plus-syntactic"),
    (1, "dl0", 1, 2, 5, 3, "rule-table"),
    (12, "dl0", 2, 1, 5, 3, "const-zero"),
    (1, "dl0", 2, 2, 4, 3, "spec-driven"),
]

REALIZE = [
    ("dl", ["{a}:{A}", "~{A}"]),
    ("dl", ["{s}:({t}:{P})", "~{t}:{P}", "{P}"]),
    ("dl", ["{a}:({A} /\\ {B})", "{b}:{B}"]),
    ("dl0", ["{a}:{A}", "~{A}", "{b}:{B}", "~{B}"]),
    ("dl0", ["{a}:({A} -> {B})", "{A}"]),
]

SEARCH = [
    # (profile, targets, a model exists)
    ("jl", ["{A}", "{B}", "{A} /\\ {B}"], True),
    ("jl", ["{a}:{A}", "~{A}"], True),
    ("jl", ["{a}:({A} -> {B})", "{b}:{A}", "[{a}.{b}]:{B}"], True),
    ("jl", ["{a}:{A}", "[{a}+{b}]:{A}", "~{A}", "{B}"], True),
    ("fused", ["{s}-:{E}", "~{E}", "{C}"], True),
    # a complementary pair: the whole bounded space is searched in vain
    ("jl", ["{a}:{A}", "{b}:{B}", "{a}:{B}", "{b}:{C}", "[{a}+{b}]:{C}",
            "{A}", "~{A}"], False),
]


def _build_group(entry, names):
    pname, n_atoms, n_leaves, fm, tm, fname = entry
    profile = dlk.get_profile(pname)
    atoms = [names.map[k] for k in "AB"[:n_atoms]]
    leaves = [names.map[k] for k in "ab"[:n_leaves]]
    consts = tuple(sorted(l for l in leaves if l[0] in "abcde"))
    tvars = tuple(sorted(l for l in leaves if l[0] not in "abcde"))
    alphabet = dlk.Alphabet(tuple(sorted(atoms)), tvars, consts)
    seed = {atoms[0]: True, **{a: False for a in atoms[1:]}}
    if fname == "rule-table":
        rules = [(leaves[0], atoms[0], True), ("*+*", "*", True)]
        make = lambda: dlk.RuleTable(rules)
    elif fname == "spec-driven":
        entries = _formulas(profile, ["{a}:{B}", "{b}:({A} /\\ {B})"], names)
        make = lambda: dlk.SpecDriven(entries)
    else:
        make = dlk.builder.FUNCTIONALS[fname]
    slot = {}

    def build():
        slot["model"], _ = dlk.build(dlk.BuildParams(
            profile, alphabet, fm, tm, make(), seed=seed))
        return slot["model"]

    def check_build(model):
        why = checks.built_model(model, pairing=profile.has_schema("pairing"))
        if why or not model.formula_universe:
            return why or "empty universe"
        false = frozenset(f for f in model.formula_universe
                          if not checks.holds(model.valuation, model.interp, f))
        if fname == "const-one" and any(v != false for v in model.interp.values()):
            return "const-one: some term misses a false formula"
        if fname == "const-zero" and any(model.interp.values()):
            return "const-zero: some term has evidence"
        return None

    def audit():
        return dlk.audit(slot["model"])

    def check_audit(report):
        if not report.ok:
            return "built model fails its audit: " + "; ".join(
                v.describe() for c in report.conditions
                for v in c.violations[:2])
        if not sum(c.checked for c in report.conditions) and any(
                slot["model"].interp.values()):
            return "audit checked nothing"
        return None
    label = f"{pname} {fname} {fm}/{tm} {n_atoms}p{n_leaves}t"
    return [Op(f"build {label}", build, check_build),
            Op(f"audit {label}", audit, check_audit)]


def models(rng, workdir):
    groups = [_build_group(entry, Names(rng))
              for copies, *entry in BUILDS for _ in range(copies)]
    for i, (pname, templates) in enumerate(REALIZE):
        profile = dlk.get_profile(pname)
        spec = _formulas(profile, templates, Names(rng))

        def realize(profile=profile, spec=spec):
            return dlk.realize_spec(profile, spec)

        def check(result, profile=profile, spec=spec):
            model = result[0]
            return (checks.model_satisfies(model, spec)
                    or checks.built_model(model,
                                          pairing=profile.has_schema("pairing")))
        groups.append([Op(f"realize_spec {pname} #{i}", realize, check)])
    for i, (pname, templates, exists) in enumerate(SEARCH):
        profile = dlk.get_profile(pname)
        targets = _formulas(profile, templates, Names(rng))

        def search(profile=profile, targets=targets):
            return dlk.search_jl_model(targets, profile)

        def check(model, targets=targets, exists=exists):
            if model is None:
                return "no model found" if exists else None
            return checks.model_satisfies(model, targets)
        groups.append([Op(f"search_jl_model {pname} #{i}", search, check)])
    return groups


# ---------------------------------------------------------------------------
# session: one question at a time, through the command line and queries

# (copies, rule, profile, hypotheses, target, exists, size, rounds); every
# target is derivable by construction, by the rule named.  The 14 copies
# of the envatted-brain query (factivity, then denial) hold the 90th
# percentile; the command-line calls straddle the median.
QUERIES = [
    (1, "denial", "dl", ["{a}:{A}"], "~{A}", False, 3, 2),
    (1, "and-intro", "dl", ["{a}:{A}", "~{B}"], "~{A} /\\ ~{B}", False, 3, 3),
    (1, "pairing", "dl", ["{a}:{A}", "{b}:{B}"], "{A} /\\ {B}", True, 4, 3),
    (1, "denial", "dl0", ["{a}:{A}"], "~{A}", False, 4, 3),
    (1, "denial", "dl", ["{s}:({t}:{P})"], "~{t}:{P}", False, 4, 3),
    (14, "envatted", "fused", ["{t}+:({s}-:{E})"], "~{E}", False, 3, 3),
    (1, "factivity", "fused", ["{t}+:({s}-:{E})"], "{s}-:{E}", False, 4, 3),
    (1, "factivity", "lp", ["{a}:{A}"], "{A}", False, 4, 3),
    (1, "application", "dl", ["{a}:({A} -> {B})", "{b}:{A}"], "{B}", True, 3, 3),
    (1, "denial", "fused", ["{a}-:{A}"], "~{A}", False, 3, 2),
    (1, "or-intro", "dl", ["{a}:{A}"], "~{A} \\/ {B}", False, 4, 3),
]

def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(doc, str):
            fh.write(doc)
        else:
            json.dump(doc, fh)
    return path


def _cli_op(kind, argv, code, expect_out=None, fault=None):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = dlk.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def check(result):
        rc, out, err = result
        if rc != code:
            return f"exit {rc}, expected {code}: {(out + err).strip()[:120]!r}"
        if code == 2 and not err.strip():
            return "exit 2 without a message"
        if expect_out is not None and expect_out not in out:
            return f"output lacks {expect_out!r}: {out[:120]!r}"
        return None
    return Op(f"cli {kind}", run, check, fault)


def _session_files(names, workdir):
    n = names
    path = lambda name: os.path.join(workdir, name)
    files = {
        "beliefs": _write(path("beliefs.json"), {
            "profile": "dl", "formulas": [n("{s}:({t}:{P})")]}),
        "spec_one": _write(path("spec_one.json"), {
            "profile": "dl", "formulas": [n("{s}:{E}")]}),
        "clash": _write(path("clash.json"), {
            "profile": "dl", "formulas": [n("{a}:{A}"), n("{A}")]}),
        "incoherent": _write(path("incoherent.json"), {
            "profile": "dl", "formulas": [n("{a}:_|_")]}),
        "hand": _write(path("hand.json"), {
            "profile": "dl", "valuation": {n("{P}"): False},
            "interp": {n("{t}"): [n("{P}")]}}),
        "violating": _write(path("violating.json"), {
            "profile": "dl", "valuation": {n("{P}"): True},
            "interp": {n("{t}"): [n("{P}")]}}),
        "signed": _write(path("signed.txt"), n(
            "# premises\n{s}-:{E}\n{t}+:({s}-:{E})\n")),
        "unsigned": _write(path("unsigned.txt"), n("{s}:{E}\n")),
        "spec_k": _write(path("spec_k.json"), {
            "profile": "fused",
            "formulas": [n("{a}+:({E} -> {C} -> {E})")]}),
    }
    replay = {
        "profile": "dl", "hypotheses": [n("{s}:({t}:{P} -> ~{P})")],
        "lines": [
            {"kind": "hyp", "formula": n("{s}:({t}:{P} -> ~{P})"),
             "hyp_index": 0},
            {"kind": "axiom", "formula": n("{s}:({t}:{P} -> ~{P}) -> ~({t}:{P} -> ~{P})"),
             "schema": "denial",
             "binding": {"formulas": {"P": n("{t}:{P} -> ~{P}")},
                         "terms": {"t": n("{s}")}}},
            {"kind": "mp", "formula": n("~({t}:{P} -> ~{P})"),
             "premises": [1, 0]}]}
    files["replay"] = _write(path("replay.json"), replay)
    broken = json.loads(json.dumps(replay))
    broken["lines"][2]["premises"] = [0, 1]
    files["broken"] = _write(path("broken.json"), broken)
    listed = json.loads(json.dumps(replay))
    listed["lines"][1]["binding"] = [1]
    files["binding_list"] = _write(path("binding_list.json"), listed)
    texty = json.loads(json.dumps(replay))
    texty["lines"][0]["hyp_index"] = "x"
    files["hyp_text"] = _write(path("hyp_text.json"), texty)
    files["universe_int"] = _write(path("universe_int.json"), {
        "profile": "dl", "valuation": {}, "interp": {},
        "formula_universe": 5})
    files["proof_k"] = _write(path("proof_k.json"), {
        "profile": "fused", "hypotheses": [],
        "lines": [{"kind": "axiom", "formula": n("{E} -> {C} -> {E}"),
                   "schema": "k",
                   "binding": {"formulas": {"P": n("{E}"), "Q": n("{C}")},
                               "terms": {}}}]})
    return files


def session(rng, workdir):
    names = Names(rng)
    n = names
    f = _session_files(names, workdir)
    out = lambda name: os.path.join(workdir, name)
    closed, model = out("closed.json"), out("model.json")
    groups = [
        # the README session, in order: each step reads the one before
        [_cli_op("close-spec", ["close-spec", f["beliefs"], "--probe",
                                "--out", closed], 0, "closed: 3 members"),
         _cli_op("extract-ok", ["extract-ok", closed, "--depth", "2",
                                "--size", "2"], 0,
                 "OK set within bounds: 1 members"),
         _cli_op("build-model", ["build-model", "--spec", closed,
                                 "--out", model], 0, "built:"),
         _cli_op("eval", ["eval", n("{P}"), "--model", model], 0, "1"),
         _cli_op("audit", ["audit", "--model", model], 0, "denial-falsity")],
        [_cli_op("parse", ["parse", n("{A}/\\{B} -> {C}")], 0,
                 n("{A} /\\ {B} -> {C}"))],
        [_cli_op("parse", ["parse", "--term", n("[{a}.{b}]")], 0, "term, size 3")],
        [_cli_op("parse", ["parse", "--json", n("~~{A}")], 0, '"size": 3')],
        [_cli_op("parse", ["parse", "--schema-table", "--logic", "fused"], 0,
                 "introspection")],
        [_cli_op("parse", ["parse", n("{A} ->")], 1, "rejected:")],
        [_cli_op("check-proof", ["check-proof", f["replay"]], 0, "accepted")],
        [_cli_op("check-proof", ["check-proof", f["broken"]], 1, "rejected")],
        [_cli_op("eval", ["eval", "--model", f["hand"], n("{t}:{P}")], 0, "1")],
        [_cli_op("audit", ["audit", "--model", f["violating"],
                           "--universe", "occurring"], 1, "violations")],
        [_cli_op("build-model", ["build-model", "--functional", "const-one",
                                 "--vars", n("{P}=1,{C}=0"),
                                 "--terms", n("{a},{b}"), "--fm-size", "3",
                                 "--tm-size", "3", "--out", out("built.json")],
                 0, "built:")],
        [_cli_op("close-spec", ["close-spec", f["clash"]], 1, "clash:")],
        [_cli_op("blue-pill", ["blue-pill", f["spec_one"], "--size", "2",
                               "--out", out("pill.json")], 0, "model found")],
        [_cli_op("check-coherence", ["check-coherence", f["spec_one"],
                                     "--size", "2"], 0,
                 "coherent-within-bounds")],
        [_cli_op("check-coherence", ["check-coherence", f["incoherent"],
                                     "--size", "2"], 1, "counterexample")],
        [_cli_op("translate", ["translate", f["signed"], "--out",
                               out("translated.txt")], 0, "translated 2")],
        [_cli_op("translate", ["translate", f["unsigned"]], 1)],
        [_cli_op("internalize", ["internalize", f["proof_k"], "--spec",
                                 f["spec_k"], "--json"], 0, '"lines": 1')],
        [_cli_op("scenario", ["scenario"], 0, "prop1")],
        [_cli_op("scenario", ["scenario", "prop1"], 0, "scenario verdict: accepted")],
        [_cli_op("scenario", ["scenario", "envatted-brain"], 0,
                 "scenario verdict: accepted")],
        # inputs the README says end in exit 2 with a message
        [_cli_op("fault", ["parse", "~" * 3000 + n("{P}")], 2,
                 fault="deep-nesting")],
        [_cli_op("fault", ["check-proof", f["binding_list"]], 2,
                 fault="binding-list")],
        [_cli_op("fault", ["audit", "--model", f["universe_int"]], 2,
                 fault="universe-int")],
        [_cli_op("fault", ["check-proof", f["hyp_text"]], 2,
                 fault="hyp-index-text")],
    ]
    cli_ops = [op for group in groups for op in group]
    for i, op in enumerate(cli_ops):
        op.kind = f"{op.kind} #{i}"
    for copies, rule, *query in QUERIES:
        for _ in range(copies):
            groups.append(_query_group(rule, *query, Names(rng)))
    groups.append(_countermodel_group(Names(rng)))
    return groups


def _query_group(rule, pname, hyp_t, target_t, exists, size, rounds, names):
    profile = dlk.get_profile(pname)
    hyps = _formulas(profile, hyp_t, names)
    target = dlk.parse_formula(names(target_t), signed=profile.signed)
    slot = {}

    def query():
        slot["report"] = dlk.check_nonderivability(
            profile, hyps, target, exists_term=exists, size_bound=size,
            rounds=rounds, term_size_bound=2)
        return slot["report"]

    def check_query(report):
        return checks.nonderivability(dlk, report, target=target,
                                      expect="derivable", exists=exists)

    def replay():
        return dlk.check_proof(slot["report"].proof)

    def check_replay(result):
        report = slot["report"]
        want = report.found if exists else target
        if not result.ok or result.conclusion != want:
            return f"returned proof does not check: {result.describe()[:2]}"
        return None
    return [Op(f"query {pname} {rule} s{size} r{rounds}", query, check_query),
            Op(f"check_proof {pname} {rule}", replay, check_replay)]


def _countermodel_group(names):
    profile = dlk.get_profile("dl0")
    hyps = _formulas(profile, ["{a}:{A}", "~{A}", "{b}:{B}", "~{B}"], names)
    body = dlk.parse_formula(names("{A} /\\ {B}"))
    model, _ = dlk.realize_spec(profile, hyps)

    def query():
        return dlk.check_nonderivability(profile, hyps, body, exists_term=True,
                                         size_bound=4, rounds=2,
                                         term_size_bound=4, countermodel=model)

    def check(report):
        if report.status != "countermodeled":
            return f"status {report.status!r}, expected 'countermodeled'"
        why = checks.model_satisfies(model, hyps)
        if why is None and any(body in ev for ev in model.interp.values()):
            why = "countermodel justifies the body"
        return why
    return [Op("query countermodel", query, check)]


WORKLOADS = {"saturate": saturate, "models": models, "session": session}


def make(workload: str, seed: int, workdir: str) -> list[list[Op]]:
    """The seeded round of one workload, groups in run order."""
    rng = random.Random(f"{workload}:{seed}")
    groups = WORKLOADS[workload](rng, workdir)
    rng.shuffle(groups)
    return groups
