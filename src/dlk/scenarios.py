"""Bundled worked examples, stored as data and replayed on demand.

Each scenario file pairs inputs (formulas, proofs, bounds) with the
verdicts they must produce; running one re-executes every step against
the live modules and reports line by line.  They double as regression
fixtures and as documentation of what the toolkit is for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .builder import realize_spec
from .logics import get_profile
from .proofs import check_nonderivability, check_proof, proof_from_dict
from .semantics import evaluate
from .specifications import (
    EXTRACTION_DEFAULTS, SpecClashError, blue_pill, close_spec,
)
from .syntax import parse_formula, print_formula, print_term


class ScenarioError(ValueError):
    """A scenario name or file is no good."""


@dataclass
class ScenarioResult:
    name: str
    ok: bool
    lines: list[str] = field(default_factory=list)
    report: dict = field(default_factory=dict)


def available() -> list[str]:
    root = resources.files("dlk") / "scenarios"
    return sorted(p.name[:-5] for p in root.iterdir()
                  if p.name.endswith(".json"))


def load(name: str) -> dict:
    """The bundled scenario ``name``, one ``available()`` lists."""
    if name not in available():
        raise ScenarioError(
            f"no scenario named {name!r}; available: "
            + ", ".join(available()))
    path = resources.files("dlk") / "scenarios" / f"{name}.json"
    return json.loads(path.read_text())


def _parse_all(texts, profile):
    return [parse_formula(t, signed=profile.signed) for t in texts]


def _step_check_proof(step, profile, ctx):
    proof = proof_from_dict(step["proof"])
    result = check_proof(proof)
    expect = step.get("expect", "accepted")
    verdict = "accepted" if result.ok else "rejected"
    lines = [f"  proof of {print_formula(proof.conclusion)}: {verdict}"]
    if not result.ok:
        lines += [f"    {msg}" for msg in result.describe()]
    ok = verdict == expect
    want = step.get("expect_conclusion")
    if ok and want is not None:
        stated = parse_formula(want, signed=profile.signed)
        ok = proof.conclusion == stated
        if not ok:
            lines.append(f"    expected conclusion {want}")
    return ok, lines, {"verdict": verdict,
                       "conclusion": print_formula(proof.conclusion)}


def _step_close_spec(step, profile, ctx):
    formulas = _parse_all(step["formulas"], profile)
    try:
        spec = close_spec(formulas, profile)
    except SpecClashError as exc:
        expect = step.get("expect", "closed")
        ok = expect == "clash"
        return ok, [f"  closure clash: {exc}"], {"verdict": "clash"}
    ctx["spec"] = spec
    members = [print_formula(f) for f in spec.formulas]
    lines = ["  closed specification: " + ", ".join(members)]
    ok = True
    want = step.get("expect_members")
    if want is not None:
        have = set(members)
        missing = [w for w in want if w not in have]
        ok = not missing and len(want) == len(members)
        if missing:
            lines.append("    missing expected members: " + ", ".join(missing))
    return ok, lines, {"members": members}


def _step_realize(step, profile, ctx):
    # realize_spec raises unless every member holds in the closed extension
    formulas = _parse_all(step["formulas"], profile)
    model, _ = realize_spec(profile, formulas)
    ctx["model"] = model
    lines = []
    for term in sorted(model.interp, key=print_term):
        ev = sorted(print_formula(f) for f in model.interp[term])
        if ev:
            lines.append(f"  interp({print_term(term)}) = {{{', '.join(ev)}}}")
    within = step.get("expect_interp_within")
    allowed = sorted(set(within or ()))
    stray = [] if within is None else sorted(
        {print_formula(f) for ev in model.interp.values() for f in ev}
        - set(allowed))
    if stray:
        lines.append(f"    evidence outside {{{', '.join(allowed)}}}: "
                     + ", ".join(stray))
    ok = not stray
    lines.append("  model realizes every member" if ok
                 else "  realization check failed")
    return ok, lines, {"respects": ok}


# a step's bounds go by ``ok_extract``'s names, as the CLI flags do; a
# nonderivability step hands them on under ``check_nonderivability``'s
_SEARCH_NAMES = {"size": "size_bound", "depth": "rounds",
                 "term_size": "term_size_bound", "limit": "limit"}


def _step_nonderivability(step, profile, ctx):
    if step.get("hypotheses_from") == "closed":
        hyps = list(ctx["spec"].formulas)
    else:
        hyps = _parse_all(step["hypotheses"], profile)
    body = parse_formula(step["body"], signed=profile.signed)
    bounds = {_SEARCH_NAMES[key]: value
              for key, value in step.get("bounds", {}).items()}
    countermodel = ctx.get("model") if step.get("countermodel") == "realized" \
        else None
    report = check_nonderivability(
        profile, hyps, body,
        exists_term=bool(step.get("exists", False)),
        positive_only=bool(step.get("positive_only", False)),
        countermodel=countermodel, **bounds)
    lines = []
    if step.get("exists") and report.status != "derivable":
        sign = "positive " if step.get("positive_only") else ""
        lines.append(f"  no {sign}justifier for {print_formula(body)} "
                     f"within bounds")
    lines.append(f"  {report.status}: {report.note}")
    if report.contradiction:
        pair = " and ".join(print_formula(f) for f in report.contradiction)
        lines.append(f"  complementary pair: {pair}")
    ok = report.status == step.get("expect", "open")
    return ok, lines, {"status": report.status, "note": report.note}


def _step_blue_pill(step, profile, ctx):
    formulas = _parse_all(step["formulas"], profile)
    spec = close_spec(formulas, profile)
    bounds = step.get("bounds", {})
    result = blue_pill(spec, **bounds)
    lines = [f"  extracted: "
             + ", ".join(print_formula(f) for f in result.ok.members[:8])
             + (", ..." if len(result.ok.members) > 8 else "")]
    if result.ok.hit_limit:
        limit = bounds.get("limit", EXTRACTION_DEFAULTS["limit"])
        lines.append(f"  search budget of {limit} formulas exhausted")
    fragment = {"status": result.status, "hit_limit": result.ok.hit_limit}
    if not result.found:
        lines.append(f"  no model: {result.note}")
        return step.get("expect") == "failure", lines, fragment
    vals = {name: val for name, val in sorted(result.model.valuation.items())}
    lines.append("  model found; valuation "
                 + ", ".join(f"{k}={int(v)}" for k, v in vals.items()))
    ok = True
    for text in step.get("expect_true", []):
        f = parse_formula(text, signed=profile.signed)
        if not evaluate(result.model, f):
            ok = False
            lines.append(f"    expected {text} to come out true")
        else:
            lines.append(f"  {text} comes out true")
    return ok, lines, dict(fragment, valuation=vals)


_STEPS = {
    "check-proof": _step_check_proof,
    "close-spec": _step_close_spec,
    "realize": _step_realize,
    "nonderivability": _step_nonderivability,
    "blue-pill": _step_blue_pill,
}


def run(name: str) -> ScenarioResult:
    doc = load(name)
    profile = get_profile(doc["profile"])
    result = ScenarioResult(name, ok=True)
    result.lines.append(f"scenario {name} ({profile.name}): {doc['title']}")
    steps_report = []
    ctx: dict = {}      # what later steps read: the closed spec, the model
    for i, step in enumerate(doc["steps"], start=1):
        kind = step["kind"]
        runner = _STEPS.get(kind)
        if runner is None:
            raise ScenarioError(f"scenario step {i} has unknown kind {kind!r}")
        result.lines.append(f"step {i}: {step.get('title', kind)}")
        ok, lines, fragment = runner(step, profile, ctx)
        result.lines += lines
        steps_report.append({"kind": kind, "ok": ok, **fragment})
        result.ok = result.ok and ok
    result.report = {"scenario": name, "ok": result.ok, "steps": steps_report}
    result.lines.append("scenario verdict: "
                        + ("accepted" if result.ok else "FAILED"))
    return result
