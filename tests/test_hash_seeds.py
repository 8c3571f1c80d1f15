"""Outputs must not depend on the hash seed.

Sets and dicts of strings, and so of nodes, iterate in an order that
changes with ``PYTHONHASHSEED``; nothing printed may follow it.  One
``derive_forward`` run (every formula in order, with its provenance) and
one ``dlk audit --json`` on a model with violations and
universe-not-closed warnings run in fresh interpreters under two seeds
and must print the same bytes.
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
