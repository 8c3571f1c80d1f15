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
universe-not-closed warnings under both universe kinds, and the text
report of every command on small inputs (``TEXT_CASES``), with the files
it writes.
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


# inputs for the text cases, written into each case's fresh directory
REPLAY = {
    "profile": "dl", "hypotheses": ["s:(t:P -> ~P)"],
    "lines": [
        {"kind": "hyp", "formula": "s:(t:P -> ~P)", "hyp_index": 0},
        {"kind": "axiom", "formula": "s:(t:P -> ~P) -> ~(t:P -> ~P)",
         "schema": "denial",
         "binding": {"formulas": {"P": "t:P -> ~P"}, "terms": {"t": "s"}}},
        {"kind": "mp", "formula": "~(t:P -> ~P)", "premises": [1, 0]}]}
INPUTS = {
    "hand.json": HAND_MODEL,
    "replay.json": json.dumps(REPLAY) + "\n",
    "broken.json": json.dumps(dict(REPLAY, lines=REPLAY["lines"][:2] + [
        {"kind": "mp", "formula": "~(t:P -> ~P)", "premises": [0, 1]}]))
    + "\n",
    "clash.json": '{"profile": "dl", "formulas": ["a:A", "A"]}\n',
    "one.json": '{"profile": "dl", "formulas": ["s:E"]}\n',
    "incoherent.json": '{"profile": "dl", "formulas": ["a:_|_"]}\n',
    "signed.txt": "# premises\ns-:E\nt+:(s-:E)\n",
    "signed.json": '["s-:E", "c+:C"]\n',
    "proof_k.json": json.dumps({
        "profile": "fused", "hypotheses": [],
        "lines": [{"kind": "axiom", "formula": "E -> C -> E", "schema": "k",
                   "binding": {"formulas": {"P": "E", "Q": "C"},
                               "terms": {}}}]}) + "\n",
    "spec_k.json": '{"profile": "fused", "formulas": ["a+:(E -> C -> E)"]}\n',
}
SMALL = ["--size", "3"]
# name -> (argv, files the command writes)
TEXT_CASES = {
    "parse formula": (["parse", "P/\\Q -> x:P"], ()),
    "parse term": (["parse", "--term", "[x.y]"], ()),
    "parse problem": (["parse", "--logic", "dl", "!x:P"], ()),
    "parse rejected": (["parse", "P ->"], ()),
    "parse schema-table": (["parse", "--schema-table", "--logic", "lp"], ()),
    "eval": (["eval", "--model", "hand.json", "x:(P -> Q)"], ()),
    "check-proof accepted": (["check-proof", "replay.json"], ()),
    "check-proof rejected": (["check-proof", "broken.json"], ()),
    "audit hand occurring": (["audit", "--model", "hand.json",
                              "--universe", "occurring"], ()),
    "audit hand default": (["audit", "--model", "hand.json",
                            "--universe", "default"], ()),
    "build-model out": (["build-model", "--functional", "const-one",
                         "--vars", "P=1", "--fm-size", "3", "--tm-size", "2",
                         "--out", "model.json", "--trace", "trace.json"],
                        ("model.json", "trace.json")),
    "close-spec clash": (["close-spec", "clash.json"], ()),
    "extract-ok": (["extract-ok", "one.json", *SMALL, "--out", "ok.json"],
                   ("ok.json",)),
    "blue-pill out": (["blue-pill", "one.json", *SMALL, "--out", "pill.json"],
                      ("pill.json",)),
    "blue-pill": (["blue-pill", "one.json", *SMALL], ()),
    "blue-pill failure": (["blue-pill", "incoherent.json", *SMALL], ()),
    "check-coherence coherent": (["check-coherence", "one.json", *SMALL], ()),
    "check-coherence counterexample": (["check-coherence", "incoherent.json",
                                        *SMALL], ()),
    "translate text out": (["translate", "signed.txt", "--out", "out.txt"],
                           ("out.txt",)),
    "translate json": (["translate", "signed.json"], ()),
    "internalize": (["internalize", "proof_k.json", "--spec", "spec_k.json",
                     "--out", "lifted.json"], ("lifted.json",)),
    "scenario list": (["scenario"], ()),
    "scenario run": (["scenario", "envatted-brain"], ()),
}


def _run_case(capsys, argv, written=()) -> dict:
    """Run one case in the current directory over fresh ``INPUTS``."""
    for name, text in INPUTS.items():
        Path(name).write_text(text, encoding="utf-8")
    got = _run(capsys, argv)
    got["files"] = {name: Path(name).read_text(encoding="utf-8")
                    for name in written}
    return got


@pytest.mark.parametrize("case", TEXT_CASES)
def test_text_report(capsys, monkeypatch, tmp_path, case):
    monkeypatch.chdir(tmp_path)
    assert _run_case(capsys, *TEXT_CASES[case]) == GOLDEN[f"text {case}"]


@pytest.mark.parametrize("case", TEXT_CASES)
def test_json_report_is_one_document(capsys, monkeypatch, tmp_path, case):
    """``--json`` prints one JSON document and changes neither the exit
    code nor the files written."""
    monkeypatch.chdir(tmp_path)
    argv, written = TEXT_CASES[case]
    got = _run_case(capsys, [*argv, "--json"], written)
    want = GOLDEN[f"text {case}"]
    assert (got["code"], got["files"]) == (want["code"], want["files"])
    json.loads(got["stdout"])
