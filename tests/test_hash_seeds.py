"""Outputs must not depend on the hash seed.

Sets and dicts of strings, and so of nodes, iterate in an order that
changes with ``PYTHONHASHSEED``; nothing printed may follow it.  One
``derive_forward`` run (every formula in order, with its provenance),
one ``dlk audit --json`` on a model with violations and
universe-not-closed warnings, a ``dlk build-model --json`` whose pairing
sweep runs, with the stage trace it writes, and ``dlk extract-ok --json``
and ``dlk blue-pill --json`` on a two-entry specification run in fresh
interpreters under two seeds and must print (and write) the same bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

DERIVE = """
from dlk import derive_forward, get_profile, parse_formula, print_formula
derived = derive_forward(get_profile("dl"),
                         [parse_formula("e:R"), parse_formula("~R")],
                         size_bound=3, rounds=2, term_size_bound=2)
for f in derived.order:
    print(print_formula(f), derived.provenance[f])
print(derived.contradiction, derived.rounds_used)
"""

MODEL = {
    "profile": "dl",
    "valuation": {"P": True, "Q": False},
    "interp": {"x": ["P -> Q", "Q", "P /\\ Q", "~P", "P \\/ Q", "~~Q"],
               "y": ["P", "Q -> P", "P /\\ P", "~Q", "Q \\/ ~P"],
               "[x+y]": ["Q"], "[x & y]": []},
}

SPEC = {"profile": "dl", "formulas": ["a:A", "b:(A -> B)"]}


def _run(seed: str, argv: list[str]) -> tuple[int, str]:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
    env.pop("DLK_MAX_BOUND", None)
    done = subprocess.run([sys.executable, *argv], env=env, text=True,
                          capture_output=True, timeout=120)
    assert done.stderr == ""
    return done.returncode, done.stdout


def test_derivation_order_is_the_same_under_two_hash_seeds():
    runs = [_run(seed, ["-c", DERIVE]) for seed in ("1", "2")]
    assert runs[0][0] == 0 and len(runs[0][1].splitlines()) > 100
    assert runs[0] == runs[1]


def test_audit_json_is_the_same_under_two_hash_seeds(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(MODEL), encoding="utf-8")
    argv = ["-m", "dlk.cli", "audit", "--model", str(model),
            "--universe", "default", "--json"]
    runs = [_run(seed, argv) for seed in ("1", "2")]
    report = json.loads(runs[0][1])
    assert runs[0][0] == 1 and report["warnings"]
    assert runs[0] == runs[1]


def test_build_model_json_is_the_same_under_two_hash_seeds(tmp_path):
    runs, traces = [], []
    for seed in ("1", "2"):
        trace = tmp_path / f"trace-{seed}.json"
        argv = ["-m", "dlk.cli", "build-model", "--logic", "dl",
                "--functional", "const-one", "--vars", "P=1,Q=0",
                "--trace", str(trace), "--json"]
        runs.append(_run(seed, argv))
        traces.append(trace.read_bytes())
    interp = json.loads(runs[0][1])["model"]["interp"]
    assert runs[0][0] == 0 and any("&" in term for term in interp)
    stages = json.loads(traces[0])["stages"]
    assert len(stages) > 100 and any(stage["added"] for stage in stages)
    assert runs[0] == runs[1]
    assert traces[0] == traces[1]


def test_extraction_and_transplant_json_are_the_same_under_two_hash_seeds(
        tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC), encoding="utf-8")
    for command in ("extract-ok", "blue-pill"):
        argv = ["-m", "dlk.cli", command, str(spec), "--depth", "2",
                "--json"]
        runs = [_run(seed, argv) for seed in ("1", "2")]
        assert runs[0][0] == 0 and len(json.loads(runs[0][1])["members"]) > 1
        assert runs[0] == runs[1]
