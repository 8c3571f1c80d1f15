"""Outputs must not depend on the hash seed nor on memory addresses.

Sets and dicts of strings iterate in an order that changes with
``PYTHONHASHSEED``, and sets and dicts of nodes, which hash by identity,
in one that follows where the nodes were allocated; nothing printed may
follow either.  One ``derive_forward`` run (every formula in order, with
its provenance), one ``dlk audit --json`` on a model with violations and
universe-not-closed warnings, a ``dlk build-model --json`` whose pairing
sweep runs and one with the plus-syntactic functional, each with the
stage trace it writes, ``dlk extract-ok --json``
and ``dlk blue-pill --json`` on a two-entry specification and each
bundled ``dlk scenario NAME --json`` run in fresh interpreters under two
seeds, each once as is and once with the heap perturbed by some 50,000
allocations made before ``dlk`` is imported, and must print (and write)
the same bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dlk.scenarios import available

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


# (PYTHONHASHSEED, dummy allocations made before dlk is imported); the
# dummies are lists of eight sizes, so that several of the allocator's
# size classes, the nodes' among them, start out partly used
RUNS = [(seed, junk) for seed in ("1", "2") for junk in (0, 50_000)]


def _run(seed: str, junk: int, code: str) -> tuple[int, str]:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
    env.pop("DLK_MAX_BOUND", None)
    program = f"_junk = [[i] * (i % 8) for i in range({junk})]\n{code}"
    done = subprocess.run([sys.executable, "-c", program], env=env,
                          text=True, capture_output=True, timeout=120)
    assert done.stderr == ""
    return done.returncode, done.stdout


def _cli(seed: str, junk: int, args: list[str]) -> tuple[int, str]:
    """``dlk ARGS`` in a fresh interpreter: exit code and stdout."""
    return _run(seed, junk, f"import sys\nfrom dlk.cli import main\n"
                            f"sys.exit(main({args!r}))")


def test_derivation_order_is_the_same_under_two_hash_seeds():
    runs = [_run(seed, junk, DERIVE) for seed, junk in RUNS]
    assert runs[0][0] == 0 and len(runs[0][1].splitlines()) > 100
    assert runs == [runs[0]] * len(RUNS)


def test_audit_json_is_the_same_under_two_hash_seeds(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(MODEL), encoding="utf-8")
    args = ["audit", "--model", str(model), "--universe", "default",
            "--json"]
    runs = [_cli(seed, junk, args) for seed, junk in RUNS]
    report = json.loads(runs[0][1])
    assert runs[0][0] == 1 and report["warnings"]
    assert runs == [runs[0]] * len(RUNS)


@pytest.mark.parametrize("functional", ("const-one", "plus-syntactic"))
def test_build_model_json_is_the_same_under_two_hash_seeds(tmp_path,
                                                           functional):
    runs, traces = [], []
    for seed, junk in RUNS:
        trace = tmp_path / f"trace-{seed}-{junk}.json"
        args = ["build-model", "--logic", "dl", "--functional", functional,
                "--vars", "P=1,Q=0", "--trace", str(trace), "--json"]
        runs.append(_cli(seed, junk, args))
        traces.append(trace.read_bytes())
    interp = json.loads(runs[0][1])["model"]["interp"]
    assert runs[0][0] == 0 and any("&" in term for term in interp)
    stages = json.loads(traces[0])["stages"]
    assert len(stages) > 100 and any(stage["added"] for stage in stages)
    # each stage's sprayed terms come in the order the terms were built
    # in, which is the order of the model document's terms
    order = {term: i for i, term in enumerate(interp)}
    for stage in stages:
        sprayed = [order[added["term"]] for added in stage["added"]
                   if added["via"] == "spray"]
        assert sprayed == sorted(sprayed)
    if functional == "plus-syntactic":
        assert {added["term"] for stage in stages for added in stage["added"]
                if added["via"] == "spray"} <= {t for t in interp if "+" in t}
    assert runs == [runs[0]] * len(RUNS)
    assert traces == [traces[0]] * len(RUNS)


def test_extraction_and_transplant_json_are_the_same_under_two_hash_seeds(
        tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC), encoding="utf-8")
    for command in ("extract-ok", "blue-pill"):
        args = [command, str(spec), "--depth", "2", "--json"]
        runs = [_cli(seed, junk, args) for seed, junk in RUNS]
        assert runs[0][0] == 0 and len(json.loads(runs[0][1])["members"]) > 1
        assert runs == [runs[0]] * len(RUNS)


@pytest.mark.parametrize("name", available())
def test_scenario_json_is_the_same_under_two_hash_seeds(name):
    runs = [_cli(seed, junk, ["scenario", name, "--json"])
            for seed, junk in RUNS]
    assert runs[0][0] == 0 and json.loads(runs[0][1])
    assert runs == [runs[0]] * len(RUNS)
