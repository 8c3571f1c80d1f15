"""Byte-for-byte CLI output against checked-in expectations.

``tests/golden/cli.json`` maps each case to the exit code and stdout that
``dlk`` produced when the case was recorded, plus the files the README
session writes.  Any change to a verdict, an ordering or a printed byte
fails here.  The cases: ``dlk scenario NAME --json`` for every bundled
scenario, ``dlk parse --schema-table --json --logic X`` for every
profile, the README session run twice (text and ``--json``) in a
fresh directory with relative file names, ``dlk build-model --json``
with each preset functional in ``dl`` and ``dl0`` and with a
specification, followed by ``dlk audit --json`` on each built model, and
``dlk audit --json`` on a hand-written model with violations and
universe-not-closed warnings under both universe kinds.
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
FUNCTIONALS = ("const-zero", "const-one", "plus-syntactic")
BUILD_BOUNDS = ["--fm-size", "3", "--tm-size", "3"]
SPEC = '{"profile": "dl", "formulas": ["x:P", "y:Q", "~x:Q"]}\n'
HAND_MODEL = json.dumps({
    "profile": "dl",
    "valuation": {"P": True, "Q": False},
    "interp": {"x": ["P -> Q", "Q"], "y": ["P"], "[x+y]": ["Q"],
               "[x & y]": []},
}) + "\n"


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


def _build_and_audit(capsys, tag, argv):
    """Build into model.json (also reported as --json), then audit it."""
    built = _run(capsys, ["build-model", *argv, "--out", "model.json",
                          "--json"])
    assert built == GOLDEN[f"build-model {tag}"]
    assert _run(capsys, ["audit", "--model", "model.json", "--json"]) == \
        GOLDEN[f"audit built {tag}"]


@pytest.mark.parametrize("logic", ("dl", "dl0"))
@pytest.mark.parametrize("functional", FUNCTIONALS)
def test_build_model_and_audit_json(capsys, monkeypatch, tmp_path,
                                    functional, logic):
    monkeypatch.chdir(tmp_path)
    _build_and_audit(capsys, f"{functional} {logic}",
                     ["--functional", functional, "--logic", logic,
                      "--vars", "P=0,Q=1", *BUILD_BOUNDS])


def test_build_model_from_spec_and_audit_json(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(SPEC, encoding="utf-8")
    _build_and_audit(capsys, "spec", ["--spec", "spec.json", *BUILD_BOUNDS])


@pytest.mark.parametrize("universe", ("occurring", "default"))
def test_audit_hand_model_json(capsys, monkeypatch, tmp_path, universe):
    monkeypatch.chdir(tmp_path)
    Path("hand.json").write_text(HAND_MODEL, encoding="utf-8")
    argv = ["audit", "--model", "hand.json", "--universe", universe, "--json"]
    assert _run(capsys, argv) == GOLDEN[f"audit hand {universe}"]
