"""Byte-for-byte CLI output against checked-in expectations.

``tests/golden/cli.json`` maps each case to the exit code and stdout that
``dlk`` produced when the case was recorded, plus the files the README
session writes.  Any change to a verdict, an ordering or a printed byte
fails here.  The cases: ``dlk scenario NAME --json`` for every bundled
scenario, ``dlk parse --schema-table --json --logic X`` for every
profile, and the README session run twice (text and ``--json``) in a
fresh directory with relative file names.
"""

import json
from pathlib import Path

import pytest

from dlk.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json")
                    .read_text(encoding="utf-8"))

SCENARIOS = ("agw", "blue-pill-demo", "envatted-brain",
             "pairing-independence", "prop1")
PROFILES = ("jl", "dl", "dl0", "lp", "fused")
BELIEFS = '{"profile": "dl", "formulas": ["s:(t:P)"]}\n'
SESSION = (
    ("close-spec", ["close-spec", "beliefs.json", "--probe",
                    "--out", "closed.json"]),
    ("extract-ok", ["extract-ok", "closed.json", "--depth", "2",
                    "--size", "2"]),
    ("build-model", ["build-model", "--spec", "closed.json",
                     "--out", "model.json"]),
    ("eval", ["eval", "P", "--model", "model.json"]),
)
WRITTEN = ("closed.json", "model.json")


@pytest.fixture(autouse=True)
def _no_bound_cap(monkeypatch):
    monkeypatch.delenv("DLK_MAX_BOUND", raising=False)


def _run(capsys, argv) -> dict:
    code = main(argv)
    return {"code": code, "stdout": capsys.readouterr().out}


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_json(capsys, name):
    assert _run(capsys, ["scenario", name, "--json"]) == \
        GOLDEN[f"scenario {name}"]


@pytest.mark.parametrize("logic", PROFILES)
def test_schema_table_json(capsys, logic):
    argv = ["parse", "--schema-table", "--json", "--logic", logic]
    assert _run(capsys, argv) == GOLDEN[f"schema-table {logic}"]


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_readme_session(capsys, monkeypatch, tmp_path, flags):
    monkeypatch.chdir(tmp_path)
    Path("beliefs.json").write_text(BELIEFS, encoding="utf-8")
    tag = " ".join(["session"] + flags)
    for step, argv in SESSION:
        assert _run(capsys, argv + flags) == GOLDEN[f"{tag} {step}"], step
    for name in WRITTEN:
        assert Path(name).read_text(encoding="utf-8") == \
            GOLDEN[f"{tag} file {name}"], name
