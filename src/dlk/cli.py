"""Command-line surface: batch-oriented, file-in/file-out.

Every command reads files (or argument text), prints a human-readable
report, and exits 0 when the verdict is positive (parsed, accepted,
clean, built, coherent), 1 when the tools produce a negative verdict
(rejected proof, clashing specification, failed audit, refutation), and
2 on usage or I/O problems.  ``--json`` swaps the report for one JSON
document on stdout; warnings and errors go to stderr either way.

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
    BoundsError, BuildError, BuildParams, FUNCTIONALS, build, inferred_bounds,
    realize_spec,
)
from .logics import (
    PROFILES, SCHEMAS, check_in_profile, get_profile,
    translate as translate_formula, translation_table,
)
from .proofs import (
    MissingConstantError, Proof, ProofFormatError, check_proof, internalize,
    proof_from_dict, proof_to_dict,
)
from .scenarios import ScenarioError, available, load, run
from .semantics import (
    ModelFormatError, audit, default_universe, evaluate, model_from_dict,
    model_to_dict, occurring_terms,
)
from .specifications import (
    SpecClashError, SpecFormatError, SpecShapeError, blue_pill,
    _check_shape, check_coherence, close_spec, ok_extract, probe_consistency,
    spec_from_dict, spec_to_dict,
)
from .syntax import (
    Alphabet, Const, NestingError, ParseError, SignViolation, Var,
    formula_size, formula_terms, parse_formula, parse_term, print_formula,
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


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _Fail(2, f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise _Fail(2, f"{path} is not JSON: {exc}") from None


def _write_json(path: str, doc) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=False)
            fh.write("\n")
    except OSError as exc:
        raise _Fail(2, f"cannot write {path}: {exc.strerror or exc}") from None


def _emit_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=False))


def _parse_arg_formula(text: str, profile):
    try:
        return parse_formula(text, signed=profile.signed)
    except (ParseError, SignViolation) as exc:
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


def _clamp(value: int | None, what: str) -> int | None:
    cap = _bound_cap()
    if value is not None and cap is not None and value > cap:
        print(f"warning: {what} {value} clamped to DLK_MAX_BOUND={cap}",
              file=sys.stderr)
        return cap
    return value


def _load_spec(path: str, logic: str | None):
    doc = _read_json(path)
    if logic is not None and isinstance(doc, dict):
        doc = dict(doc, profile=logic)
    return spec_from_dict(doc, default_profile=_profile(logic))


def _load_closed_spec(args):
    spec = _load_spec(args.spec, args.logic)
    return close_spec(spec.formulas, spec.profile)


def _load_proof(path: str, logic: str | None,
                spec=None) -> Proof:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise _Fail(2, f"{path}: proof document must be an object")
    if logic is not None:
        doc = dict(doc, profile=logic)
    proof = proof_from_dict(doc)
    if spec is not None:
        proof = Proof(proof.profile, proof.lines, tuple(spec.formulas))
    return proof


# ---------------------------------------------------------------------------
# commands


def _cmd_parse(args) -> int:
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
        _emit_json({"profile": profile.name, "schemas": table})
        return 0
    if args.text is None:
        raise _Fail(2, "nothing to parse: give a formula or --schema-table")
    if args.term:
        try:
            term = parse_term(args.text, signed=profile.signed)
        except NestingError as exc:
            raise _Fail(2, str(exc)) from None
        except (ParseError, SignViolation) as exc:
            print(f"rejected: {exc}")
            return 1
        if args.json:
            _emit_json({"kind": "term", "canonical": print_term(term),
                        "size": term_size(term)})
        else:
            print(print_term(term))
            print(f"term, size {term_size(term)}")
        return 0
    try:
        f = parse_formula(args.text, signed=profile.signed)
    except NestingError as exc:
        raise _Fail(2, str(exc)) from None
    except (ParseError, SignViolation) as exc:
        print(f"rejected: {exc}")
        return 1
    problems = check_in_profile(f, profile)
    if args.json:
        _emit_json({"kind": "formula", "canonical": print_formula(f),
                    "size": formula_size(f), "profile": profile.name,
                    "problems": problems})
    else:
        print(print_formula(f))
        print(f"formula, size {formula_size(f)}, profile {profile.name}")
        for p in problems:
            print(f"problem: {p}")
    return 0 if not problems else 1


def _cmd_check_proof(args) -> int:
    spec = _load_spec(args.spec, args.logic) if args.spec else None
    proof = _load_proof(args.proof, args.logic, spec)
    result = check_proof(proof)
    if args.json:
        _emit_json({
            "accepted": result.ok,
            "conclusion": (print_formula(result.conclusion)
                           if result.conclusion is not None else None),
            "problems": [{"line": n, "reason": why}
                         for n, why in result.problems]})
    elif result.ok:
        print(f"accepted: {len(proof.lines)} lines conclude "
              f"{print_formula(result.conclusion)}")
    else:
        print("rejected")
        for line in result.describe():
            print(f"  {line}")
    return 0 if result.ok else 1


def _cmd_eval(args) -> int:
    model = model_from_dict(_read_json(args.model))
    f = _parse_arg_formula(args.formula, model.profile)
    value = evaluate(model, f)
    if args.json:
        _emit_json({"formula": print_formula(f), "value": int(value)})
    else:
        print(int(value))
    return 0


def _cmd_audit(args) -> int:
    model = model_from_dict(_read_json(args.model))
    kind = args.universe
    if kind is None:
        kind = "occurring" if model.provenance == "built" else "default"
    universe = (occurring_terms(model) if kind == "occurring"
                else default_universe(model))
    report = audit(model, universe)
    if args.json:
        doc = report.as_dict()
        doc["universe"] = [print_term(t) for t in universe]
        doc["universe_kind"] = kind
        _emit_json(doc)
    else:
        print(f"audit over {len(universe)} terms ({kind} universe), "
              f"profile {report.profile}")
        for cond in report.conditions:
            mark = "ok" if cond.ok else f"{len(cond.violations)} violations"
            print(f"  {cond.name}: {cond.checked} checked, {mark}")
            for v in cond.violations[:20]:
                print(f"    {v.describe()}")
            if len(cond.violations) > 20:
                print(f"    ... and {len(cond.violations) - 20} more")
        for w in report.warnings:
            print(f"  warning: {w}")
    return 0 if report.ok else 1


def _split_csv(raw: str | None) -> list[str]:
    return [part.strip() for part in (raw or "").split(",") if part.strip()]


def _seed_from_vars(raw: str | None) -> dict[str, bool]:
    seed: dict[str, bool] = {}
    for part in _split_csv(raw):
        name, eq, value = part.partition("=")
        if not eq:
            seed[name] = False
            continue
        if value not in ("0", "1"):
            raise _Fail(2, f"--vars entries look like P=0 or Q=1, got {part!r}")
        seed[name] = value == "1"
    return seed


def _cmd_build_model(args) -> int:
    profile = _profile(args.logic)
    fm_size = _clamp(args.fm_size, "--fm-size")
    tm_size = _clamp(args.tm_size, "--tm-size")
    if args.spec and args.functional:
        raise _Fail(2, "give either --functional or --spec, not both")

    if args.spec:
        spec = _load_spec(args.spec, args.logic)
        need_fm, need_tm = inferred_bounds(spec.formulas)
        if fm_size is None:
            fm_size = _clamp(need_fm, "inferred --fm-size")
        if tm_size is None:
            tm_size = _clamp(need_tm, "inferred --tm-size")
        model, trace = realize_spec(
            spec.profile, spec.formulas, fm_size=fm_size, tm_size=tm_size,
            trace=args.trace is not None)
    else:
        if not args.functional:
            raise _Fail(2, "one of --functional or --spec is required")
        seed = _seed_from_vars(args.vars)
        term_vars: list[str] = []
        consts: list[str] = []
        for name in _split_csv(args.terms) or ["x", "y"]:
            try:
                leaf = parse_term(name, signed=profile.signed)
            except (ParseError, SignViolation) as exc:
                raise _Fail(2, f"bad --terms entry {name!r}: {exc}") from None
            if isinstance(leaf, Const):
                consts.append(leaf.name)
            elif isinstance(leaf, Var):
                term_vars.append(leaf.name)
            else:
                raise _Fail(2, f"--terms entries must be leaves, got {name!r}")
        alphabet = Alphabet(tuple(sorted(seed)), tuple(sorted(term_vars)),
                            tuple(sorted(consts)), signed=profile.signed)
        params = BuildParams(profile, alphabet, fm_size or 4, tm_size or 3,
                             FUNCTIONALS[args.functional](), seed=seed,
                             trace=args.trace is not None)
        model, trace = build(params)

    doc = model_to_dict(model)
    if args.trace is not None and trace is not None:
        _write_json(args.trace, trace.as_dict())
    if args.json:
        _emit_json({"model": doc,
                    "terms": len(model.interp),
                    "formulas_staged": (len(model.formula_universe)
                                        if model.formula_universe else 0),
                    "out": args.out})
        if args.out:
            _write_json(args.out, doc)
        return 0
    if args.out:
        _write_json(args.out, doc)
        staged = len(model.formula_universe) if model.formula_universe else 0
        print(f"built: {staged} formulas staged over {len(model.interp)} "
              f"terms, model written to {args.out}")
        if args.trace is not None:
            print(f"trace written to {args.trace}")
    else:
        _emit_json(doc)
    return 0


def _cmd_close_spec(args) -> int:
    raw = _load_spec(args.spec, args.logic)
    try:
        closed = close_spec(raw.formulas, raw.profile)
    except SpecClashError as exc:
        a, b = exc.pair
        if args.json:
            _emit_json({"closed": False,
                        "clash": [print_formula(a), print_formula(b)]})
        else:
            print(f"clash: {print_formula(a)} against {print_formula(b)}")
        return 1
    added = [f for f in closed.formulas if f not in set(raw.formulas)]
    probe = None
    if args.probe:
        need_fm, need_tm = inferred_bounds(closed.formulas)
        probe = probe_consistency(
            closed, fm_size=_clamp(need_fm, "inferred --fm-size"),
            tm_size=_clamp(need_tm, "inferred --tm-size"))
    if args.out:
        _write_json(args.out, spec_to_dict(closed))
    if args.json:
        doc = {"closed": True,
               "profile": closed.profile.name,
               "members": [print_formula(f) for f in closed.formulas],
               "added": [print_formula(f) for f in added]}
        if probe is not None:
            doc["probe"] = {"status": probe.status, "note": probe.note}
        _emit_json(doc)
    else:
        print(f"closed: {len(closed.formulas)} members "
              f"({len(added)} added by closure)")
        for f in closed.formulas:
            print(f"  {print_formula(f)}")
        if probe is not None:
            print(f"probe: {probe.status}"
                  + (f" ({probe.note})" if probe.note else ""))
        if args.out:
            print(f"written to {args.out}")
    return 0


def _extraction_bounds(args):
    return {"depth": _clamp(args.depth, "--depth"),
            "size": _clamp(args.size, "--size"),
            "term_size": _clamp(args.term_size, "--term-size"),
            "limit": args.limit}


def _cmd_extract_ok(args) -> int:
    spec = _load_closed_spec(args)
    ok = ok_extract(spec, **_extraction_bounds(args))
    rows = []
    for f in ok.members:
        term, proof = ok.witnesses[f]
        rows.append((print_formula(f), print_term(term), proof))
    if args.out:
        _write_json(args.out, {
            "profile": spec.profile.name,
            "bounded": True, "hit_limit": ok.hit_limit,
            "members": [{"formula": ftext, "witness": ttext,
                         "proof": proof_to_dict(proof)}
                        for ftext, ttext, proof in rows]})
    if args.json:
        _emit_json({"profile": spec.profile.name,
                    "bounded": True, "hit_limit": ok.hit_limit,
                    "members": [{"formula": ftext, "witness": ttext,
                                 "proof_lines": len(proof.lines)}
                                for ftext, ttext, proof in rows]})
    else:
        tail = ", search budget exhausted" if ok.hit_limit else ""
        print(f"OK set within bounds: {len(rows)} members{tail}")
        for ftext, ttext, proof in rows:
            print(f"  {ftext}  [{ttext}, {len(proof.lines)}-line proof]")
        if args.out:
            print(f"written to {args.out}")
    return 0


def _cmd_blue_pill(args) -> int:
    spec = _load_closed_spec(args)
    result = blue_pill(spec, **_extraction_bounds(args))
    members = [print_formula(f) for f in result.ok.members]
    if result.status != "model":
        if args.json:
            _emit_json({"status": result.status, "members": members,
                        "note": result.note})
        else:
            print(f"no model: {result.note}")
        return 1
    doc = model_to_dict(result.model)
    if args.out:
        _write_json(args.out, doc)
    if args.json:
        _emit_json({"status": "model", "members": members,
                    "model": doc, "out": args.out})
    else:
        print(f"model found satisfying all {len(members)} extracted "
              f"conclusions")
        for m in members:
            print(f"  {m}")
        if args.out:
            print(f"model written to {args.out}")
        else:
            _emit_json(doc)
    return 0


def _cmd_check_coherence(args) -> int:
    spec = _load_closed_spec(args)
    report = check_coherence(spec, **_extraction_bounds(args))
    members = [print_formula(f) for f in report.members]
    if args.json:
        _emit_json({"status": report.status, "members": members,
                    "counterexample": (print_formula(report.counterexample)
                                       if report.counterexample is not None
                                       else None)})
    elif report.coherent:
        print(f"{report.status}: each of the {len(members)} extracted "
              f"conclusions has a model")
    else:
        print(f"counterexample: no searched model satisfies "
              f"{print_formula(report.counterexample)}")
    return 0 if report.coherent else 1


def _read_formula_file(path: str):
    """Formula files are JSON arrays of strings or plain text, one
    formula per line; blank lines and #-comments pass through text."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _Fail(2, f"cannot read {path}: {exc.strerror or exc}") from None
    stripped = raw.lstrip()
    if stripped.startswith("["):
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _Fail(2, f"{path} is not JSON: {exc}") from None
        if not all(isinstance(x, str) for x in doc):
            raise _Fail(2, f"{path}: expected an array of formula strings")
        return list(doc), "json"
    lines = raw.splitlines()
    return lines, "text"


def _cmd_translate(args) -> int:
    entries, shape = _read_formula_file(args.file)
    fused = get_profile("fused")
    out_lines: list[str] = []
    images: list[str] = []
    dictionary: dict[str, str] = {}
    for entry in entries:
        text = entry.strip()
        if shape == "text" and (not text or text.startswith("#")):
            out_lines.append(entry)
            continue
        try:
            f = parse_formula(text, signed=True)
        except NestingError as exc:
            raise _Fail(2, str(exc)) from None
        except (ParseError, SignViolation) as exc:
            raise _Fail(1, f"non-fused input rejected: {text!r}: {exc}") \
                from None
        problems = check_in_profile(f, fused)
        if problems:
            raise _Fail(1, f"non-fused input rejected: {text!r}: "
                        + "; ".join(problems))
        image = print_formula(translate_formula(f))
        images.append(image)
        out_lines.append(image)
        for original, fresh in translation_table(f).items():
            dictionary[fresh] = original

    doc = {"formulas": images,
           "dictionary": {k: dictionary[k] for k in sorted(dictionary)}}
    if args.out:
        if shape == "json":
            _write_json(args.out, doc)
        else:
            body = out_lines + ["", "# dictionary"] + [
                f"# {k} = {dictionary[k]}" for k in sorted(dictionary)]
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write("\n".join(body) + "\n")
            except OSError as exc:
                raise _Fail(2, f"cannot write {args.out}: "
                            f"{exc.strerror or exc}") from None
        if not args.json:
            print(f"translated {len(images)} formulas "
                  f"({len(dictionary)} dictionary entries) to {args.out}")
    if args.json or not args.out:
        _emit_json(doc)
    return 0


def _cmd_internalize(args) -> int:
    spec = _load_spec(args.spec, args.logic)
    proof = _load_proof(args.proof, args.logic)
    if not proof.profile.has_schema("introspection"):
        names = sorted(p.name for p in PROFILES.values()
                       if p.has_schema("introspection"))
        raise _Fail(1, f"internalization lifts proofs in the "
                    f"{' or '.join(names)} profiles, not "
                    f"{proof.profile.name!r}")
    for f in spec.formulas:
        _check_shape(f)
    try:
        lifted = internalize(proof, spec.formulas)
    except MissingConstantError as exc:
        raise _Fail(1, str(exc)) from None
    except ValueError as exc:
        raise _Fail(1, str(exc)) from None
    doc = proof_to_dict(lifted.proof)
    if args.out:
        _write_json(args.out, doc)
    if args.json:
        _emit_json({"term": print_term(lifted.term),
                    "conclusion": print_formula(lifted.conclusion),
                    "lines": len(lifted.proof.lines),
                    "proof": None if args.out else doc,
                    "out": args.out})
    else:
        print(f"term: {print_term(lifted.term)}")
        print(f"conclusion: {print_formula(lifted.conclusion)}")
        print(f"lifted proof: {len(lifted.proof.lines)} lines")
        if args.out:
            print(f"written to {args.out}")
    return 0


def _cmd_scenario(args) -> int:
    if args.name is None:
        names = available()
        if args.json:
            _emit_json({"scenarios": [
                {"name": n, "title": load(n).get("title", "")}
                for n in names]})
        else:
            for n in names:
                print(f"{n}  —  {load(n).get('title', '')}")
        return 0
    try:
        result = run(args.name)
    except ScenarioError as exc:
        raise _Fail(2, str(exc)) from None
    if args.json:
        _emit_json({"name": result.name, "ok": result.ok,
                    "report": result.report, "lines": result.lines})
    else:
        for line in result.lines:
            print(line)
    return 0 if result.ok else 1


# ---------------------------------------------------------------------------
# argument wiring


def _add_logic(p: argparse.ArgumentParser) -> None:
    p.add_argument("--logic", choices=PROFILE_NAMES, default=None,
                   help="logic profile (overrides any profile in the files)")


def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")


def _add_extraction(p: argparse.ArgumentParser) -> None:
    p.add_argument("--depth", type=int, default=3,
                   help="forward-chaining rounds (default 3)")
    p.add_argument("--size", type=int, default=4,
                   help="formula size bound (default 4)")
    p.add_argument("--term-size", type=int, default=2, dest="term_size",
                   help="term size bound for schema instances (default 2)")
    p.add_argument("--limit", type=int, default=50000,
                   help="derivation budget (default 50000)")


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
    _add_json(p)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("check-proof", help="check a proof file")
    p.add_argument("proof", help="proof JSON file")
    p.add_argument("--spec", help="specification whose members are the "
                   "allowed hypotheses")
    _add_logic(p)
    _add_json(p)
    p.set_defaults(func=_cmd_check_proof)

    p = sub.add_parser("eval", help="evaluate a formula in a model")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("formula", help="formula text")
    _add_json(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("audit", help="check a model's closure conditions")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--universe", choices=("occurring", "default"),
                   default=None,
                   help="term universe (default: 'occurring' for built "
                   "models, 'default' = occurring plus depth-1 compounds "
                   "for hand-written ones)")
    _add_json(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("build-model", help="construct a model by staged "
                       "enumeration")
    p.add_argument("--functional", choices=sorted(FUNCTIONALS),
                   help="acceptance functional preset")
    p.add_argument("--spec", help="realize this specification instead "
                   "(spec-driven functional)")
    p.add_argument("--vars", help="seed valuation, e.g. P=0,Q=1")
    p.add_argument("--terms", help="term alphabet leaves, e.g. x,y,a "
                   "(default x,y)")
    p.add_argument("--fm-size", type=int, default=None, dest="fm_size",
                   help="formula size bound (default 4; --spec infers)")
    p.add_argument("--tm-size", type=int, default=None, dest="tm_size",
                   help="term size bound (default 3; --spec infers)")
    p.add_argument("--out", help="write the model here (default stdout)")
    p.add_argument("--trace", help="write the stage trace here")
    _add_logic(p)
    _add_json(p)
    p.set_defaults(func=_cmd_build_model)

    p = sub.add_parser("close-spec", help="close a specification under "
                       "the profile's rules")
    p.add_argument("spec", help="spec JSON file")
    p.add_argument("--out", help="write the closed spec here")
    p.add_argument("--probe", action="store_true",
                   help="also try to build a model of the closure")
    _add_logic(p)
    _add_json(p)
    p.set_defaults(func=_cmd_close_spec)

    p = sub.add_parser("extract-ok", help="extract the bounded OK set of "
                       "a specification")
    p.add_argument("spec", help="spec JSON file")
    p.add_argument("--out", help="write members with witness proofs here")
    _add_extraction(p)
    _add_logic(p)
    _add_json(p)
    p.set_defaults(func=_cmd_extract_ok)

    p = sub.add_parser("blue-pill", help="find a model satisfying the "
                       "extracted conclusions without the evidence")
    p.add_argument("spec", help="spec JSON file")
    p.add_argument("--out", help="write the model here")
    _add_extraction(p)
    _add_logic(p)
    _add_json(p)
    p.set_defaults(func=_cmd_blue_pill)

    p = sub.add_parser("check-coherence", help="check each extracted "
                       "conclusion is satisfiable on its own")
    p.add_argument("spec", help="spec JSON file")
    _add_extraction(p)
    _add_logic(p)
    _add_json(p)
    p.set_defaults(func=_cmd_check_coherence)

    p = sub.add_parser("translate", help="rewrite signed formulas over "
                       "fresh variables for the justified parts")
    p.add_argument("file", help="formula file (JSON array or one per line)")
    p.add_argument("--out", help="write the translated file here")
    _add_json(p)
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("internalize", help="lift a proof of F to a proof "
                       "of t:F")
    p.add_argument("proof", help="proof JSON file")
    p.add_argument("--spec", required=True,
                   help="specification supplying evidence constants")
    p.add_argument("--out", help="write the lifted proof here")
    _add_logic(p)
    _add_json(p)
    p.set_defaults(func=_cmd_internalize)

    p = sub.add_parser("scenario", help="run a bundled scenario (no name: "
                       "list them)")
    p.add_argument("name", nargs="?", help="scenario name")
    _add_json(p)
    p.set_defaults(func=_cmd_scenario)

    return top


# built on the first call and reused: commands read DLK_MAX_BOUND when
# they run, never when the parser is built
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _Fail as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except (ProofFormatError, ModelFormatError, SpecFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpecShapeError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 1
    except SpecClashError as exc:
        a, b = exc.pair
        print(f"clash: {print_formula(a)} against {print_formula(b)}",
              file=sys.stderr)
        return 1
    except (BoundsError, BuildError) as exc:
        print(f"build failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
