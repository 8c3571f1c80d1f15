"""Command-line surface: batch-oriented, file-in/file-out.

Every command reads files (or argument text), writes any files it was
asked for, and builds one report document.  It exits 0 when the verdict
is positive (parsed, accepted, clean, built, coherent), 1 when the tools
produce a negative verdict (rejected input or proof, clashing
specification, failed audit, refutation, a ``RefusalError``), and 2 on
usage or I/O problems and on any error no verdict accounts for.
``--json`` prints that document on stdout; without it the command's
text view prints the same document as a human-readable report, so the
text never says what the document does not.  Warnings and errors go
to stderr either way, with no document.

Model, proof and specification files are JSON; the formula file of
``translate`` is a JSON array of strings if it decodes as one, else text,
one formula per line.  A file that cannot be read or decoded (not UTF-8,
or not JSON where JSON is due) ends the command with exit 2.

The search bounds of ``extract-ok``, ``blue-pill`` and
``check-coherence`` (``--size``, ``--depth``, ``--term-size``,
``--limit``) are ``ok_extract``'s keywords, with its defaults; a
scenario step's ``bounds`` use the same names.  A bound flag below 1,
these or ``build-model``'s sizes, ends the command with exit 2.
The environment variable ``DLK_MAX_BOUND`` caps every enumeration bound
(formula/term sizes, search depth, limits are left alone) so a shared
machine can keep runaway invocations in check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .builder import (
    BuildError, BuildParams, FUNCTIONALS, build, inferred_bounds, realize_spec,
)
from .logics import (
    PROFILES, SCHEMAS, RefusalError, _translation, check_in_profile,
    get_profile,
)
from .proofs import (
    MissingConstantError, Proof, ProofFormatError, check_proof, internalize,
    proof_from_dict, proof_to_dict,
)
from .scenarios import ScenarioError, available, load, run
from .semantics import (
    ModelFormatError, Violation, audit, default_universe, evaluate,
    model_from_dict, model_to_dict, occurring_terms,
)
from .specifications import (
    EXTRACTION_DEFAULTS, SpecClashError, SpecFormatError, SpecShapeError,
    blue_pill, _check_shape, check_coherence,
    close_spec, ok_extract, probe_consistency, spec_from_dict, spec_to_dict,
)
from .syntax import (
    Alphabet, Const, NestingError, ParseError, Var, formula_size,
    formula_terms, parse_formula, parse_term, parse_variable, print_formula,
    print_term, term_size,
)

PROFILE_NAMES = tuple(PROFILES)


class _Fail(Exception):
    """Abort the command with an exit code and a message."""

    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


# ---------------------------------------------------------------------------
# small helpers


def _profile(name: str | None):
    return get_profile(name or "dl")


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _Fail(2, f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise _Fail(2, f"{path} is not UTF-8 text: {exc}") from None


def _decode(text: str):
    """The JSON document ``text`` holds; ``ValueError`` when it holds
    none, or one nested too deeply or with an integer too long to read."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("nested too deeply to decode") from None


def _read_json(path: str):
    text = _read_text(path)
    try:
        return _decode(text)
    except ValueError as exc:
        raise _Fail(2, f"{path} is not JSON: {exc}") from None


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=False)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Fail(2, f"cannot write {path}: {exc.strerror or exc}") from None


def _write_json(path: str, doc) -> None:
    _write(path, _dumps(doc) + "\n")


def _parse_arg_formula(text: str, profile):
    try:
        return parse_formula(text, signed=profile.signed)
    except ParseError as exc:
        raise _Fail(2, f"bad formula {text!r}: {exc}") from None


def _bound_cap() -> int | None:
    raw = os.environ.get("DLK_MAX_BOUND")
    if raw is None or raw == "":
        return None
    try:
        return max(1, int(raw))
    except ValueError:
        print(f"warning: ignoring DLK_MAX_BOUND={raw!r} (not an integer)",
              file=sys.stderr)
        return None


def _at_least_one(value: int | None, what: str) -> int | None:
    if value is not None and value < 1:
        raise _Fail(2, f"{what} must be at least 1, got {value}")
    return value


def _clamp(value: int | None, what: str) -> int | None:
    value = _at_least_one(value, what)
    cap = _bound_cap()
    if value is not None and cap is not None and value > cap:
        print(f"warning: {what} {value} clamped to DLK_MAX_BOUND={cap}",
              file=sys.stderr)
        return cap
    return value


def _read_document(path: str, logic: str | None):
    """A spec or proof document, its profile overridden by ``--logic``."""
    doc = _read_json(path)
    if logic is not None and isinstance(doc, dict):
        doc = dict(doc, profile=logic)
    return doc


def _load_spec(path: str, logic: str | None):
    return spec_from_dict(_read_document(path, logic),
                          default_profile=_profile(logic))


def _load_closed_spec(args):
    spec = _load_spec(args.spec, args.logic)
    return close_spec(spec.formulas, spec.profile)


def _load_proof(path: str, logic: str | None,
                spec=None) -> Proof:
    proof = proof_from_dict(_read_document(path, logic))
    if spec is not None:
        proof = Proof(proof.profile, proof.lines, tuple(spec.formulas))
    return proof


# ---------------------------------------------------------------------------
# commands: each does its work, writes any --out/--trace files and returns
# (exit code, document); its ``_text_*`` view renders the document as lines


def _cmd_parse(args) -> tuple[int, dict]:
    profile = _profile(args.logic)
    if args.schema_table:
        table = []
        for sid in profile.schema_ids:
            sch = SCHEMAS[sid]
            metas = sorted({(t.name, t.polarity)
                            for t in formula_terms(sch.template)
                            if hasattr(t, "polarity")})
            table.append({"id": sch.id, "kind": sch.kind,
                          "template": print_formula(sch.template),
                          "terms": [{"name": n, "polarity": p}
                                    for n, p in metas],
                          "note": sch.note})
        return 0, {"profile": profile.name, "schemas": table}
    if args.text is None:
        raise _Fail(2, "nothing to parse: give a formula or --schema-table")
    kind = "term" if args.term else "formula"
    try:
        node = (parse_term if args.term else parse_formula)(
            args.text, signed=profile.signed)
    except NestingError as exc:
        raise _Fail(2, str(exc)) from None
    except ParseError as exc:
        return 1, {"kind": kind, "rejected": str(exc)}
    if args.term:
        return 0, {"kind": kind, "canonical": print_term(node),
                   "size": term_size(node)}
    problems = check_in_profile(node, profile)
    return (1 if problems else 0), {
        "kind": kind, "canonical": print_formula(node),
        "size": formula_size(node), "profile": profile.name,
        "problems": problems}


def _text_parse(doc, args):
    if "schemas" in doc:
        yield _dumps(doc)
    elif "rejected" in doc:
        yield f"rejected: {doc['rejected']}"
    elif doc["kind"] == "term":
        yield doc["canonical"]
        yield f"term, size {doc['size']}"
    else:
        yield doc["canonical"]
        yield f"formula, size {doc['size']}, profile {doc['profile']}"
        for p in doc["problems"]:
            yield f"problem: {p}"


def _cmd_check_proof(args) -> tuple[int, dict]:
    spec = _load_spec(args.spec, args.logic) if args.spec else None
    proof = _load_proof(args.proof, args.logic, spec)
    result = check_proof(proof)
    return (0 if result.ok else 1), {
        "accepted": result.ok,
        "conclusion": (print_formula(result.conclusion)
                       if result.conclusion is not None else None),
        "problems": [{"line": n, "reason": why}
                     for n, why in result.problems],
        "lines": len(proof.lines)}


def _text_check_proof(doc, args):
    if doc["accepted"]:
        yield f"accepted: {doc['lines']} lines conclude {doc['conclusion']}"
        return
    yield "rejected"
    for p in doc["problems"]:
        yield f"  line {p['line']}: {p['reason']}"


def _cmd_eval(args) -> tuple[int, dict]:
    model = model_from_dict(_read_json(args.model))
    f = _parse_arg_formula(args.formula, model.profile)
    return 0, {"formula": print_formula(f), "value": int(evaluate(model, f))}


def _text_eval(doc, args):
    yield str(doc["value"])


def _cmd_audit(args) -> tuple[int, dict]:
    model = model_from_dict(_read_json(args.model))
    kind = args.universe
    if kind is None:
        kind = "occurring" if model.provenance == "built" else "default"
    universe = (occurring_terms(model) if kind == "occurring"
                else default_universe(model))
    report = audit(model, universe)
    doc = report.as_dict()
    doc["universe"] = [print_term(t) for t in universe]
    doc["universe_kind"] = kind
    return (0 if report.ok else 1), doc


def _text_audit(doc, args):
    yield (f"audit over {len(doc['universe'])} terms "
           f"({doc['universe_kind']} universe), profile {doc['profile']}")
    for cond in doc["conditions"]:
        bad = cond["violations"]
        mark = "ok" if cond["ok"] else f"{len(bad)} violations"
        yield f"  {cond['name']}: {cond['checked']} checked, {mark}"
        for v in bad[:20]:
            yield f"    {Violation(**v).describe()}"
        if len(bad) > 20:
            yield f"    ... and {len(bad) - 20} more"
    for w in doc["warnings"]:
        yield f"  warning: {w}"


def _split_csv(raw: str | None) -> list[str]:
    return [part.strip() for part in (raw or "").split(",") if part.strip()]


def _seed_from_vars(raw: str | None) -> dict[str, bool]:
    """The seed valuation: each name a propositional variable, given once,
    and false unless given as =1."""
    seed: dict[str, bool] = {}
    for part in _split_csv(raw):
        name, eq, value = part.partition("=")
        if eq and value not in ("0", "1"):
            raise _Fail(2, f"--vars entries look like P=0 or Q=1, got {part!r}")
        try:
            parse_variable(name)
        except ParseError as exc:
            raise _Fail(2, f"bad --vars entry {part!r}: {exc}") from None
        if name in seed:
            raise _Fail(2, f"--vars gives {name!r} more than once")
        seed[name] = value == "1"
    return seed


# build-model's formula and term size bounds when neither a flag nor
# --spec gives them
_BUILD_SIZES = (4, 3)


def _cmd_build_model(args) -> tuple[int, dict]:
    profile = _profile(args.logic)
    fm_size = _clamp(args.fm_size, "--fm-size")
    tm_size = _clamp(args.tm_size, "--tm-size")
    if args.spec and args.functional:
        raise _Fail(2, "give either --functional or --spec, not both")

    if args.spec:
        spec = _load_spec(args.spec, args.logic)
        sizes, how = inferred_bounds(spec.formulas), "inferred"
    elif not args.functional:
        raise _Fail(2, "one of --functional or --spec is required")
    else:
        sizes, how = _BUILD_SIZES, "default"
    # a size the flags leave open is capped like a given one
    if fm_size is None:
        fm_size = _clamp(sizes[0], f"{how} --fm-size")
    if tm_size is None:
        tm_size = _clamp(sizes[1], f"{how} --tm-size")
    if args.spec:
        model, trace = realize_spec(
            spec.profile, spec.formulas, fm_size=fm_size, tm_size=tm_size,
            trace=args.trace is not None)
    else:
        seed = _seed_from_vars(args.vars)
        term_vars: list[str] = []
        consts: list[str] = []
        for name in _split_csv(args.terms) or ["x", "y"]:
            try:
                leaf = parse_term(name, signed=profile.signed)
            except ParseError as exc:
                raise _Fail(2, f"bad --terms entry {name!r}: {exc}") from None
            if isinstance(leaf, Const):
                consts.append(leaf.name)
            elif isinstance(leaf, Var):
                term_vars.append(leaf.name)
            else:
                raise _Fail(2, f"--terms entries must be leaves, got {name!r}")
        alphabet = Alphabet(tuple(sorted(seed)), tuple(sorted(term_vars)),
                            tuple(sorted(consts)), signed=profile.signed)
        params = BuildParams(profile, alphabet, fm_size, tm_size,
                             FUNCTIONALS[args.functional](), seed=seed,
                             trace=args.trace is not None)
        model, trace = build(params)

    doc = model_to_dict(model)
    if args.trace is not None and trace is not None:
        _write_json(args.trace, trace.as_dict())
    if args.out:
        _write_json(args.out, doc)
    return 0, {"model": doc,
               "terms": len(model.interp),
               "formulas_staged": (len(model.formula_universe)
                                   if model.formula_universe else 0),
               "out": args.out}


def _text_build_model(doc, args):
    if not args.out:
        yield _dumps(doc["model"])
        return
    yield (f"built: {doc['formulas_staged']} formulas staged over "
           f"{doc['terms']} terms, model written to {args.out}")
    if args.trace is not None:
        yield f"trace written to {args.trace}"


def _cmd_close_spec(args) -> tuple[int, dict]:
    raw = _load_spec(args.spec, args.logic)
    try:
        closed = close_spec(raw.formulas, raw.profile)
    except SpecClashError as exc:
        return 1, {"closed": False,
                   "clash": [print_formula(f) for f in exc.pair]}
    given = set(raw.formulas)
    added = [f for f in closed.formulas if f not in given]
    doc = {"closed": True,
           "profile": closed.profile.name,
           "members": [print_formula(f) for f in closed.formulas],
           "added": [print_formula(f) for f in added]}
    if args.probe:
        need_fm, need_tm = inferred_bounds(closed.formulas)
        probe = probe_consistency(
            closed, fm_size=_clamp(need_fm, "inferred --fm-size"),
            tm_size=_clamp(need_tm, "inferred --tm-size"))
        doc["probe"] = {"status": probe.status, "note": probe.note}
    if args.out:
        _write_json(args.out, spec_to_dict(closed))
    return 0, doc


def _text_close_spec(doc, args):
    if not doc["closed"]:
        yield "clash: {} against {}".format(*doc["clash"])
        return
    yield (f"closed: {len(doc['members'])} members "
           f"({len(doc['added'])} added by closure)")
    for m in doc["members"]:
        yield f"  {m}"
    probe = doc.get("probe")
    if probe is not None:
        yield (f"probe: {probe['status']}"
               + (f" ({probe['note']})" if probe["note"] else ""))
    if args.out:
        yield f"written to {args.out}"


def _extraction_bounds(args):
    return {"depth": _clamp(args.depth, "--depth"),
            "size": _clamp(args.size, "--size"),
            "term_size": _clamp(args.term_size, "--term-size"),
            "limit": _at_least_one(args.limit, "--limit")}


def _budget_note(doc) -> str:
    return ", search budget exhausted" if doc["hit_limit"] else ""


def _cmd_extract_ok(args) -> tuple[int, dict]:
    bounds = _extraction_bounds(args)
    spec = _load_closed_spec(args)
    ok = ok_extract(spec, **bounds)
    rows = []
    for f in ok.members:
        term, proof = ok.witnesses[f]
        rows.append((print_formula(f), print_term(term), proof))
    head = {"profile": spec.profile.name,
            "bounded": True, "hit_limit": ok.hit_limit}
    if args.out:
        _write_json(args.out, dict(head, members=[
            {"formula": ftext, "witness": ttext,
             "proof": proof_to_dict(proof)}
            for ftext, ttext, proof in rows]))
    return 0, dict(head, members=[
        {"formula": ftext, "witness": ttext, "proof_lines": len(proof.lines)}
        for ftext, ttext, proof in rows])


def _text_extract_ok(doc, args):
    yield (f"OK set within bounds: {len(doc['members'])} members"
           f"{_budget_note(doc)}")
    for m in doc["members"]:
        yield (f"  {m['formula']}  [{m['witness']}, "
               f"{m['proof_lines']}-line proof]")
    if args.out:
        yield f"written to {args.out}"


def _cmd_blue_pill(args) -> tuple[int, dict]:
    bounds = _extraction_bounds(args)
    spec = _load_closed_spec(args)
    result = blue_pill(spec, **bounds)
    head = {"status": result.status,
            "members": [print_formula(f) for f in result.ok.members],
            "hit_limit": result.ok.hit_limit}
    if result.status != "model":
        return 1, dict(head, note=result.note)
    doc = model_to_dict(result.model)
    if args.out:
        _write_json(args.out, doc)
    return 0, dict(head, model=doc, out=args.out)


def _text_blue_pill(doc, args):
    if doc["status"] != "model":
        yield f"no model: {doc['note']}{_budget_note(doc)}"
        return
    yield (f"model found satisfying all {len(doc['members'])} extracted "
           f"conclusions{_budget_note(doc)}")
    for m in doc["members"]:
        yield f"  {m}"
    if args.out:
        yield f"model written to {args.out}"
    else:
        yield _dumps(doc["model"])


def _cmd_check_coherence(args) -> tuple[int, dict]:
    bounds = _extraction_bounds(args)
    spec = _load_closed_spec(args)
    report = check_coherence(spec, **bounds)
    return (0 if report.coherent else 1), {
        "status": report.status,
        "members": [print_formula(f) for f in report.ok.members],
        "hit_limit": report.ok.hit_limit,
        "counterexample": (print_formula(report.counterexample)
                           if report.counterexample is not None else None)}


def _text_check_coherence(doc, args):
    if doc["counterexample"] is None:
        yield (f"{doc['status']}: each of the {len(doc['members'])} "
               f"extracted conclusions has a model{_budget_note(doc)}")
    else:
        yield (f"counterexample: no searched model satisfies "
               f"{doc['counterexample']}{_budget_note(doc)}")


def _read_formula_file(path: str):
    """A formula file is a JSON array of strings when it decodes as a
    JSON array, and otherwise plain text, one formula per line; blank
    lines and #-comments pass through text."""
    text = _read_text(path)
    try:
        doc = _decode(text)
    except ValueError:
        doc = None
    if not isinstance(doc, list):
        return text.splitlines(), "text"
    if not all(isinstance(x, str) for x in doc):
        raise _Fail(2, f"{path}: expected an array of formula strings")
    return doc, "json"


def _cmd_translate(args) -> tuple[int, dict]:
    entries, shape = _read_formula_file(args.file)
    fused = get_profile("fused")
    formulas = {}                   # entry index -> its formula
    for i, entry in enumerate(entries):
        text = entry.strip()
        if shape == "text" and (not text or text.startswith("#")):
            continue
        try:
            f = parse_formula(text, signed=True)
        except NestingError as exc:
            raise _Fail(2, str(exc)) from None
        except ParseError as exc:
            raise _Fail(1, f"non-fused input rejected: {text!r}: {exc}") \
                from None
        problems = check_in_profile(f, fused)
        if problems:
            raise _Fail(1, f"non-fused input rejected: {text!r}: "
                        + "; ".join(problems))
        formulas[i] = f
    try:
        images, minted = _translation(formulas.values())
    except RefusalError as exc:
        raise _Fail(1, f"input rejected: {exc}") from None
    printed = dict(zip(formulas, map(print_formula, images)))
    dictionary = dict(sorted((atom.name, print_formula(g))
                             for g, atom in minted.items()))
    doc = {"formulas": list(printed.values()), "dictionary": dictionary}
    if args.out and shape == "json":
        _write_json(args.out, doc)
    elif args.out:
        body = [printed.get(i, entry) for i, entry in enumerate(entries)]
        body += ["", "# dictionary"] + [f"# {k} = {v}"
                                        for k, v in dictionary.items()]
        _write(args.out, "\n".join(body) + "\n")
    return 0, doc


def _text_translate(doc, args):
    if args.out:
        yield (f"translated {len(doc['formulas'])} formulas "
               f"({len(doc['dictionary'])} dictionary entries) to {args.out}")
    else:
        yield _dumps(doc)


def _cmd_internalize(args) -> tuple[int, dict]:
    spec = _load_spec(args.spec, args.logic)
    proof = _load_proof(args.proof, args.logic)
    for f in spec.formulas:
        _check_shape(f)
    try:
        lifted = internalize(proof, spec.formulas)
    except MissingConstantError as exc:
        raise _Fail(1, str(exc)) from None
    doc = proof_to_dict(lifted)
    if args.out:
        _write_json(args.out, doc)
    return 0, {"term": print_term(lifted.conclusion.term),
               "conclusion": print_formula(lifted.conclusion),
               "lines": len(lifted.lines),
               "proof": None if args.out else doc,
               "out": args.out}


def _text_internalize(doc, args):
    yield f"term: {doc['term']}"
    yield f"conclusion: {doc['conclusion']}"
    yield f"lifted proof: {doc['lines']} lines"
    if args.out:
        yield f"written to {args.out}"


def _cmd_scenario(args) -> tuple[int, dict]:
    if args.name is None:
        return 0, {"scenarios": [{"name": n, "title": load(n).get("title", "")}
                                 for n in available()]}
    try:
        result = run(args.name)
    except ScenarioError as exc:
        raise _Fail(2, str(exc)) from None
    return (0 if result.ok else 1), {"name": result.name, "ok": result.ok,
                                     "report": result.report,
                                     "lines": result.lines}


def _text_scenario(doc, args):
    if "scenarios" in doc:
        for s in doc["scenarios"]:
            yield f"{s['name']}  —  {s['title']}"
    else:
        yield from doc["lines"]


# ---------------------------------------------------------------------------
# argument wiring


def _add_logic(p: argparse.ArgumentParser) -> None:
    p.add_argument("--logic", choices=PROFILE_NAMES, default=None,
                   help="logic profile (overrides any profile in the files)")


def _add_report(p: argparse.ArgumentParser, func, view) -> None:
    """``func`` returns (exit code, document); ``--json`` prints the
    document, and without it ``view(document, args)`` yields the lines."""
    p.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")
    p.set_defaults(func=func, view=view)


def _add_extraction(p: argparse.ArgumentParser) -> None:
    d = EXTRACTION_DEFAULTS     # the extraction options are ok_extract's
    p.add_argument("--depth", type=int, default=d["depth"],
                   help="forward-chaining rounds (default %(default)s)")
    p.add_argument("--size", type=int, default=d["size"],
                   help="formula size bound (default %(default)s)")
    p.add_argument("--term-size", type=int, default=d["term_size"],
                   dest="term_size", help="term size bound for schema "
                   "instances (default %(default)s)")
    p.add_argument("--limit", type=int, default=d["limit"],
                   help="derivation budget (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dlk",
        description="A workbench for denial logic and its relatives.")
    sub = top.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("parse", help="parse a formula or term")
    p.add_argument("text", nargs="?", help="formula (or term, with --term)")
    p.add_argument("--term", action="store_true", help="parse as a term")
    p.add_argument("--schema-table", action="store_true", dest="schema_table",
                   help="dump the profile's axiom schemas as JSON")
    _add_logic(p)
    _add_report(p, _cmd_parse, _text_parse)

    p = sub.add_parser("check-proof", help="check a proof file")
    p.add_argument("proof", help="proof JSON file")
    p.add_argument("--spec", help="specification whose members are the "
                   "allowed hypotheses")
    _add_logic(p)
    _add_report(p, _cmd_check_proof, _text_check_proof)

    p = sub.add_parser("eval", help="evaluate a formula in a model")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("formula", help="formula text")
    _add_report(p, _cmd_eval, _text_eval)

    p = sub.add_parser("audit", help="check a model's closure conditions")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--universe", choices=("occurring", "default"),
                   default=None,
                   help="term universe (default: 'occurring' for built "
                   "models, 'default' = occurring plus depth-1 compounds "
                   "for hand-written ones)")
    _add_report(p, _cmd_audit, _text_audit)

    p = sub.add_parser("build-model", help="construct a model by staged "
                       "enumeration")
    p.add_argument("--functional", choices=sorted(FUNCTIONALS),
                   help="acceptance functional preset")
    p.add_argument("--spec", help="realize this specification instead "
                   "(spec-driven functional)")
    p.add_argument("--vars", help="seed valuation, e.g. P=0,Q=1")
    p.add_argument("--terms", help="term alphabet leaves, e.g. x,y,a "
                   "(default x,y)")
    # the flags default to None, so that --spec can infer the sizes
    p.add_argument("--fm-size", type=int, default=None, dest="fm_size",
                   help=f"formula size bound (default {_BUILD_SIZES[0]}; "
                   f"--spec infers)")
    p.add_argument("--tm-size", type=int, default=None, dest="tm_size",
                   help=f"term size bound (default {_BUILD_SIZES[1]}; "
                   f"--spec infers)")
    p.add_argument("--out", help="write the model here (default stdout)")
    p.add_argument("--trace", help="write the stage trace here")
    _add_logic(p)
    _add_report(p, _cmd_build_model, _text_build_model)

    p = sub.add_parser("close-spec", help="close a specification under "
                       "the profile's rules")
    p.add_argument("spec", help="spec JSON file")
    p.add_argument("--out", help="write the closed spec here")
    p.add_argument("--probe", action="store_true",
                   help="also try to build a model of the closure")
    _add_logic(p)
    _add_report(p, _cmd_close_spec, _text_close_spec)

    p = sub.add_parser("extract-ok", help="extract the bounded OK set of "
                       "a specification")
    p.add_argument("spec", help="spec JSON file")
    p.add_argument("--out", help="write members with witness proofs here")
    _add_extraction(p)
    _add_logic(p)
    _add_report(p, _cmd_extract_ok, _text_extract_ok)

    p = sub.add_parser("blue-pill", help="find a model satisfying the "
                       "extracted conclusions without the evidence")
    p.add_argument("spec", help="spec JSON file")
    p.add_argument("--out", help="write the model here")
    _add_extraction(p)
    _add_logic(p)
    _add_report(p, _cmd_blue_pill, _text_blue_pill)

    p = sub.add_parser("check-coherence", help="check each extracted "
                       "conclusion is satisfiable on its own")
    p.add_argument("spec", help="spec JSON file")
    _add_extraction(p)
    _add_logic(p)
    _add_report(p, _cmd_check_coherence, _text_check_coherence)

    p = sub.add_parser("translate", help="rewrite signed formulas over "
                       "fresh variables for the justified parts")
    p.add_argument("file", help="formula file (JSON array or one per line)")
    p.add_argument("--out", help="write the translated file here")
    _add_report(p, _cmd_translate, _text_translate)

    p = sub.add_parser("internalize", help="lift a proof of F to a proof "
                       "of t:F")
    p.add_argument("proof", help="proof JSON file")
    p.add_argument("--spec", required=True,
                   help="specification supplying evidence constants")
    p.add_argument("--out", help="write the lifted proof here")
    _add_logic(p)
    _add_report(p, _cmd_internalize, _text_internalize)

    p = sub.add_parser("scenario", help="run a bundled scenario (no name: "
                       "list them)")
    p.add_argument("name", nargs="?", help="scenario name")
    _add_report(p, _cmd_scenario, _text_scenario)

    return top


# built on the first call and reused: commands read DLK_MAX_BOUND when
# they run, never when the parser is built
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, doc = args.func(args)
    except _Fail as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except (ProofFormatError, ModelFormatError, SpecFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpecShapeError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 1
    except RefusalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SpecClashError as exc:
        a, b = exc.pair
        print(f"clash: {print_formula(a)} against {print_formula(b)}",
              file=sys.stderr)
        return 1
    except BuildError as exc:
        print(f"build failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # no handler above names it: a fault, never a verdict
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.json:
            print(_dumps(doc))
        else:
            for line in args.view(doc, args):
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; stdout is pointed at the null device so
        # that the interpreter's flush at exit does not raise again
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        print("error: output closed before the report was written",
              file=sys.stderr)
        return 2
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
