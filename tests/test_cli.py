"""End-to-end command coverage for the ``dlk`` entry point."""

import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dlk import (
    Binding,
    ModularModel,
    Proof,
    RefusalError,
    axiom_line,
    get_profile,
    hyp_line,
    model_to_dict,
    mp_line,
    ok_extract,
    parse_formula,
    print_formula,
    proof_from_dict,
    proof_to_dict,
    spec_from_dict,
)
from dlk import cli, logics
from dlk.cli import main

dl = get_profile("dl")
fused = get_profile("fused")

fm = parse_formula


@pytest.fixture(autouse=True)
def _no_bound_cap(monkeypatch):
    monkeypatch.delenv("DLK_MAX_BOUND", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def denial_replay_proof():
    hyp = fm("s:(t:P -> ~P)")
    inst = fm("s:(t:P -> ~P) -> ~(t:P -> ~P)")
    binding = Binding({"P": fm("t:P -> ~P")}, {"t": parse_formula("s:P").term})
    return Proof(dl, (
        hyp_line(hyp, 0),
        axiom_line("denial", binding, inst),
        mp_line(1, 0, fm("~(t:P -> ~P)")),
    ), (hyp,))


# ---------------------------------------------------------------------------
# parse


def test_parse_prints_the_canonical_form(capsys):
    code, out, _ = run_cli(capsys, "parse", "P/\\Q -> R")
    assert code == 0
    assert out.splitlines()[0] == "P /\\ Q -> R"
    assert "formula, size" in out


def test_parse_json_reports_size_and_profile(capsys):
    code, out, _ = run_cli(capsys, "parse", "--json", "~~P")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"kind": "formula", "canonical": "~~P", "size": 3,
                   "profile": "dl", "problems": []}


def test_parse_rejects_garbage(capsys):
    code, out, _ = run_cli(capsys, "parse", "P ->")
    assert code == 1
    assert out.startswith("rejected:")


@pytest.mark.parametrize("flags, text", [([], "P ->"), (["--term"], "[x")],
                         ids=["formula", "term"])
def test_parse_json_reports_a_rejection(capsys, flags, text):
    code, out, _ = run_cli(capsys, "parse", "--json", *flags, text)
    assert code == 1
    doc = json.loads(out)
    assert doc["kind"] == ("term" if flags else "formula")
    assert set(doc) == {"kind", "rejected"}
    # the text report is the same document
    assert run_cli(capsys, "parse", *flags, text)[:2] == \
        (1, f"rejected: {doc['rejected']}\n")


def test_parse_refuses_input_nested_too_deeply(capsys):
    code, out, err = run_cli(capsys, "parse", "~" * 3000 + "P")
    assert code == 2
    assert not out
    assert err.startswith("error:") and "nested more than" in err


def test_parse_flags_out_of_profile_operators(capsys):
    code, out, _ = run_cli(capsys, "parse", "--logic", "dl", "!x:P")
    assert code == 1
    assert "problem:" in out


def test_parse_handles_terms(capsys):
    code, out, _ = run_cli(capsys, "parse", "--term", "[x + y]")
    assert code == 0
    assert out.splitlines()[0] == "[x+y]"


def test_parse_needs_something_to_do(capsys):
    code, _, err = run_cli(capsys, "parse")
    assert code == 2
    assert "nothing to parse" in err


CLOSED = "error: output closed before the report was written"


class _ClosedPipe:
    """A stdout over a real descriptor whose reader has gone."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_2_and_silences_stdout(capsys, monkeypatch,
                                                   tmp_path):
    with open(tmp_path / "stdout", "w") as sink:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(sink.fileno()))
        code = main(["parse", "--json", "P"])
        # what is left to flush at exit goes to the null device
        assert os.path.samestat(os.fstat(sink.fileno()),
                                os.stat(os.devnull))
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [CLOSED]


def test_a_closed_pipe_ends_without_a_traceback():
    read, write = os.pipe()
    os.close(read)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "dlk.cli", "parse", "--json", "P"],
            stdout=write, stderr=subprocess.PIPE, env=env, text=True,
            timeout=120)
    finally:
        os.close(write)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [CLOSED]


def test_schema_table_lists_term_polarities(capsys):
    code, out, _ = run_cli(capsys, "parse", "--schema-table",
                           "--logic", "fused")
    assert code == 0
    doc = json.loads(out)
    assert doc["profile"] == "fused"
    by_id = {entry["id"]: entry for entry in doc["schemas"]}
    assert by_id["denial"]["terms"] == [{"name": "t", "polarity": "neg"}]
    assert by_id["factivity"]["terms"] == [{"name": "t", "polarity": "pos"}]
    assert by_id["k"]["kind"] == "classical"


# ---------------------------------------------------------------------------
# check-proof


def test_check_proof_accepts_the_replay(tmp_path, capsys):
    path = write_json(tmp_path / "proof.json",
                      proof_to_dict(denial_replay_proof()))
    code, out, _ = run_cli(capsys, "check-proof", path)
    assert code == 0
    assert out.startswith("accepted: 3 lines conclude ~(t:P -> ~P)")


def test_check_proof_takes_hypotheses_from_a_spec(tmp_path, capsys):
    proof = denial_replay_proof()
    bare = Proof(dl, proof.lines)   # hypothesis list stripped
    ppath = write_json(tmp_path / "proof.json", proof_to_dict(bare))
    spath = write_json(tmp_path / "spec.json",
                       {"profile": "dl", "formulas": ["s:(t:P -> ~P)"]})
    code, out, _ = run_cli(capsys, "check-proof", ppath)
    assert code == 1
    code, out, _ = run_cli(capsys, "check-proof", "--spec", spath, ppath)
    assert code == 0


def test_check_proof_reports_problem_lines(tmp_path, capsys):
    doc = proof_to_dict(denial_replay_proof())
    doc["lines"][2]["formula"] = "P"
    path = write_json(tmp_path / "proof.json", doc)
    code, out, _ = run_cli(capsys, "check-proof", "--json", path)
    assert code == 1
    report = json.loads(out)
    assert not report["accepted"]
    assert report["problems"][0]["line"] == 2
    assert report["lines"] == 3


def test_check_proof_rejects_malformed_documents(tmp_path, capsys):
    path = write_json(tmp_path / "proof.json", {"profile": "dl"})
    code, _, err = run_cli(capsys, "check-proof", path)
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run_cli(capsys, "check-proof", str(tmp_path / "none.json"))
    assert code == 2


def test_check_proof_rejects_a_binding_that_is_not_an_object(tmp_path,
                                                             capsys):
    doc = proof_to_dict(denial_replay_proof())
    doc["lines"][1]["binding"] = [1]
    code, _, err = run_cli(capsys, "check-proof",
                           write_json(tmp_path / "proof.json", doc))
    assert code == 2
    assert err.startswith("error: line 1:")


def test_check_proof_rejects_a_hypothesis_index_that_is_not_a_number(
        tmp_path, capsys):
    doc = proof_to_dict(denial_replay_proof())
    doc["lines"][0]["hyp_index"] = "x"
    code, _, err = run_cli(capsys, "check-proof",
                           write_json(tmp_path / "proof.json", doc))
    assert code == 2
    assert "hyp_index" in err


def test_check_proof_rejects_premises_that_are_not_integers(tmp_path,
                                                           capsys):
    doc = proof_to_dict(denial_replay_proof())
    mp = next(line for line in doc["lines"] if line["kind"] == "mp")
    mp["premises"] = [float(mp["premises"][0]) + 0.7,
                      str(mp["premises"][1])]
    code, _, err = run_cli(capsys, "check-proof",
                           write_json(tmp_path / "proof.json", doc))
    assert code == 2
    assert "premise" in err


# ---------------------------------------------------------------------------
# eval / audit


@pytest.fixture
def hand_model(tmp_path):
    model = ModularModel(dl, {"P": False},
                         {parse_formula("t:P").term: frozenset({fm("P")})})
    return write_json(tmp_path / "model.json", model_to_dict(model))


def test_eval_prints_a_bit(hand_model, capsys):
    code, out, _ = run_cli(capsys, "eval", "--model", hand_model, "t:P")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run_cli(capsys, "eval", "--model", hand_model, "P")
    assert (code, out.strip()) == (0, "0")


def test_eval_json_names_the_formula(hand_model, capsys):
    code, out, _ = run_cli(capsys, "eval", "--json", "--model", hand_model,
                           "~P")
    assert code == 0
    assert json.loads(out) == {"formula": "~P", "value": 1}


def test_eval_rejects_bad_formulas(hand_model, capsys):
    code, _, err = run_cli(capsys, "eval", "--model", hand_model, "P ->")
    assert code == 2
    assert "bad formula" in err


@pytest.mark.parametrize("doc, named", [
    ({"profile": "dl", "valuation": {"P": "false"}}, "'P'"),
    ({"profile": "dl", "interp": {"[a.b]": ["P"], "[a . b]": []}},
     "'[a . b]'"),
    ({"profile": "dl", "interp": {"t": [True, "P"]}}, "'t'"),
    ({"profile": "dl", "provenance": 7}, "'provenance'"),
])
def test_eval_and_audit_reject_ambiguous_models(tmp_path, capsys, doc, named):
    path = write_json(tmp_path / "model.json", doc)
    for argv in (("eval", "--model", path, "P"),
                 ("audit", "--model", path)):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert named in err


@pytest.mark.parametrize("name", ["p", "P /\\ Q", ""])
def test_eval_and_audit_reject_a_valuation_name_that_is_no_variable(
        tmp_path, capsys, name):
    # a term, a compound and nothing: no formula can mention them
    path = write_json(tmp_path / "model.json",
                      {"profile": "dl", "valuation": {"P": True, name: False}})
    for argv in (("eval", "--model", path, "P"),
                 ("audit", "--model", path)):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and repr(name) in err


def test_written_models_load_again(tmp_path, capsys):
    # a transplant model and a built one with a bracketed variable
    spath = write_json(tmp_path / "spec.json",
                       {"profile": "dl", "formulas": ["s:E"]})
    pill, built = tmp_path / "pill.json", tmp_path / "built.json"
    assert run_cli(capsys, "blue-pill", spath, "--size", "3",
                   "--out", str(pill))[0] == 0
    assert run_cli(capsys, "build-model", "--functional", "plus-syntactic",
                   "--vars", "P=1,X[s-:E]=1", "--terms", "x,y",
                   "--fm-size", "2", "--tm-size", "2",
                   "--out", str(built))[0] == 0
    for path, formula in ((pill, "E"), (built, "X[s-:E]")):
        code, out, _ = run_cli(capsys, "eval", "--model", str(path), formula)
        assert (code, out.strip()) == (0, "1")
        assert run_cli(capsys, "audit", "--model", str(path))[0] == 0


def test_audit_passes_a_clean_model(hand_model, capsys):
    code, out, _ = run_cli(capsys, "audit", "--model", hand_model,
                           "--universe", "occurring")
    assert code == 0
    assert "denial-falsity" in out


def test_audit_rejects_a_universe_that_is_not_a_list(tmp_path, capsys):
    doc = model_to_dict(ModularModel(dl, {"P": False}, {}))
    doc["formula_universe"] = 5
    code, _, err = run_cli(capsys, "audit", "--model",
                           write_json(tmp_path / "model.json", doc))
    assert code == 2
    assert "formula_universe" in err


def test_audit_reports_violations(tmp_path, capsys):
    # t holds evidence against a true formula
    model = ModularModel(dl, {"P": True},
                         {parse_formula("t:P").term: frozenset({fm("P")})})
    path = write_json(tmp_path / "model.json", model_to_dict(model))
    code, out, _ = run_cli(capsys, "audit", "--model", path,
                           "--universe", "occurring")
    assert code == 1
    assert "violations" in out


# ---------------------------------------------------------------------------
# build-model


def test_build_model_writes_a_usable_model(tmp_path, capsys):
    out_path = tmp_path / "model.json"
    code, out, _ = run_cli(capsys, "build-model", "--functional", "const-zero",
                           "--vars", "P=0,Q=1", "--terms", "x,y",
                           "--out", str(out_path))
    assert code == 0
    assert "built:" in out
    code, out, _ = run_cli(capsys, "eval", "--model", str(out_path), "x:P")
    assert (code, out.strip()) == (0, "0")
    code, out, _ = run_cli(capsys, "eval", "--model", str(out_path), "Q")
    assert (code, out.strip()) == (0, "1")


def test_build_model_without_out_prints_the_model(capsys):
    code, out, _ = run_cli(capsys, "build-model", "--functional", "const-zero",
                           "--vars", "P", "--terms", "x",
                           "--fm-size", "2", "--tm-size", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["profile"] == "dl"


def test_build_model_realizes_a_spec(tmp_path, capsys):
    spath = write_json(tmp_path / "spec.json",
                       {"profile": "dl0",
                        "formulas": ["a:A", "~A", "b:B", "~B"]})
    mpath = tmp_path / "model.json"
    code, _, _ = run_cli(capsys, "build-model", "--spec", spath,
                         "--out", str(mpath))
    assert code == 0
    code, out, _ = run_cli(capsys, "eval", "--model", str(mpath), "a:A")
    assert (code, out.strip()) == (0, "1")


def test_build_model_traces_the_stages(tmp_path, capsys):
    tpath = tmp_path / "trace.json"
    code, _, _ = run_cli(capsys, "build-model", "--functional", "const-one",
                         "--vars", "P", "--terms", "x",
                         "--fm-size", "2", "--tm-size", "1",
                         "--out", str(tmp_path / "m.json"),
                         "--trace", str(tpath))
    assert code == 0
    trace = json.loads(tpath.read_text())
    assert trace["stages"]


def test_build_model_traces_each_formula_once(tmp_path, capsys):
    # a repeated term name is one symbol: 20 distinct formulas, 20 rows
    tpath = tmp_path / "trace.json"
    code, _, _ = run_cli(capsys, "build-model", "--logic", "dl",
                         "--functional", "const-one", "--vars", "P=0",
                         "--terms", "x,x", "--fm-size", "3", "--tm-size", "2",
                         "--trace", str(tpath), "--json")
    assert code == 0
    rows = json.loads(tpath.read_text())["stages"]
    formulas = [row["formula"] for row in rows]
    assert len(formulas) == len(set(formulas)) == 20
    assert [row["index"] for row in rows] == list(range(20))


def test_build_model_argument_errors(tmp_path, capsys):
    spath = write_json(tmp_path / "spec.json",
                       {"profile": "dl", "formulas": []})
    cases = [
        ("build-model",),
        ("build-model", "--functional", "const-zero", "--spec", spath),
        ("build-model", "--functional", "const-zero", "--vars", "P=2"),
        ("build-model", "--functional", "const-zero", "--terms", "[x+y]"),
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:")


@pytest.mark.parametrize("vars_, named", [
    ("p=1", "'p=1'"), ("_|_=1", "'_|_=1'"), ("=1", "'=1'"),
    ("(P)=1", "'(P)=1'"), ("P=1,P=0", "'P' more than once")])
def test_build_model_refuses_a_vars_name_that_is_no_variable(vars_, named,
                                                             capsys):
    # a name must read back as itself: 'p' reads as a term, '_|_' as
    # falsum, '' as nothing, and a name given twice drops one value
    code, out, err = run_cli(capsys, "build-model", "--functional",
                             "const-zero", "--vars", vars_)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and named in err


def test_build_model_seeds_plain_and_bracketed_variables(capsys):
    code, out, _ = run_cli(capsys, "build-model", "--functional",
                           "const-zero", "--vars", "P,Q=0,X[a]=1",
                           "--terms", "x", "--fm-size", "2", "--tm-size", "1")
    assert code == 0
    assert json.loads(out)["valuation"] == {"P": False, "Q": False,
                                            "X[a]": True}


def test_build_model_fails_cleanly_on_unrealizable_specs(tmp_path, capsys):
    spath = write_json(tmp_path / "spec.json",
                       {"profile": "dl", "formulas": ["A", "~A"]})
    code, _, err = run_cli(capsys, "build-model", "--spec", spath)
    assert code == 1
    assert "build failed" in err


def test_max_bound_clamps_sizes(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DLK_MAX_BOUND", "2")
    code, out, err = run_cli(capsys, "build-model", "--functional",
                             "const-zero", "--vars", "P", "--terms", "x",
                             "--fm-size", "9", "--tm-size", "1")
    assert code == 0
    assert "clamped to DLK_MAX_BOUND=2" in err
    json.loads(out)   # the capped model still prints whole
    monkeypatch.setenv("DLK_MAX_BOUND", "not-a-number")
    code, _, err = run_cli(capsys, "build-model", "--functional", "const-zero",
                           "--vars", "P", "--terms", "x",
                           "--fm-size", "2", "--tm-size", "1")
    assert code == 0
    assert "ignoring DLK_MAX_BOUND" in err
    # the sizes --spec infers are capped too: a body of size 9 no longer
    # fits, and the build is refused before any staging
    monkeypatch.setenv("DLK_MAX_BOUND", "3")
    spath = write_json(tmp_path / "spec.json",
                       {"profile": "dl",
                        "formulas": ["x:(P /\\ P /\\ P /\\ P /\\ P)"]})
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "build-model", "--spec", spath)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert "inferred --fm-size 9 clamped to DLK_MAX_BOUND=3" in err
    assert "exceeds the formula bound 3" in err


def test_max_bound_clamps_the_default_build_sizes(monkeypatch, capsys):
    # build-model's own sizes are capped as given ones are: the defaults
    # under a cap of 2 build what --fm-size 2 --tm-size 2 builds
    argv = ["build-model", "--logic", "dl", "--functional", "const-one",
            "--vars", "P=0", "--terms", "x", "--json"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert json.loads(out)["formulas_staged"] == 62
    monkeypatch.setenv("DLK_MAX_BOUND", "2")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err.splitlines() == [
        "warning: default --fm-size 4 clamped to DLK_MAX_BOUND=2",
        "warning: default --tm-size 3 clamped to DLK_MAX_BOUND=2"]
    monkeypatch.delenv("DLK_MAX_BOUND")
    explicit = run_cli(capsys, *argv, "--fm-size", "2", "--tm-size", "2")
    assert explicit == (0, out, "")
    assert json.loads(out)["formulas_staged"] == 4
    with pytest.raises(SystemExit):
        main(["build-model", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "formula size bound (default 4; --spec infers)" in help_text
    assert "term size bound (default 3; --spec infers)" in help_text


# ---------------------------------------------------------------------------
# close-spec / extract-ok / blue-pill / check-coherence


def test_close_spec_lists_the_closure(tmp_path, capsys):
    spath = write_json(tmp_path / "spec.json",
                       {"profile": "dl", "formulas": ["e:R"]})
    out_path = tmp_path / "closed.json"
    code, out, _ = run_cli(capsys, "close-spec", spath, "--out",
                           str(out_path), "--probe")
    assert code == 0
    assert "closed: 2 members (1 added by closure)" in out
    assert "probe: model" in out
    closed = spec_from_dict(json.loads(out_path.read_text()))
    assert closed.formulas == (fm("e:R"), fm("~R"))


def test_close_spec_probe_clamps_inferred_sizes(tmp_path, capsys,
                                                 monkeypatch):
    # the probe builds at the sizes the members need, capped like
    # build-model --spec: too small a cap gives up at once
    monkeypatch.setenv("DLK_MAX_BOUND", "3")
    spath = write_json(tmp_path / "spec.json",
                       {"profile": "dl",
                        "formulas": ["x:(P /\\ P /\\ P /\\ P /\\ P)"]})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "close-spec", spath, "--probe", "--json")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert "inferred --fm-size 9 clamped to DLK_MAX_BOUND=3" in err
    assert json.loads(out)["probe"] == {
        "status": "unknown",
        "note": "body of 'x:(P /\\\\ P /\\\\ P /\\\\ P /\\\\ P)' exceeds the "
                "formula bound 3"}


def test_close_spec_reports_a_clash(tmp_path, capsys):
    spath = write_json(tmp_path / "spec.json",
                       {"profile": "dl", "formulas": ["e:P", "P"]})
    code, out, _ = run_cli(capsys, "close-spec", spath)
    assert code == 1
    assert out.strip() == "clash: P against ~P"


def test_close_spec_rejects_compound_justifiers(tmp_path, capsys):
    spath = write_json(tmp_path / "spec.json",
                       {"profile": "dl", "formulas": ["[s+t]:P"]})
    code, _, err = run_cli(capsys, "close-spec", spath)
    assert code == 1
    assert err.startswith("rejected:")


@pytest.mark.parametrize("command",
                         ["extract-ok", "blue-pill", "check-coherence"])
def test_extraction_defaults_are_ok_extracts(command):
    # one copy of the bounds: the options default to the signature's
    params = inspect.signature(ok_extract).parameters
    args = cli.build_parser().parse_args([command, "spec.json"])
    for name in ("depth", "size", "term_size", "limit"):
        assert getattr(args, name) == params[name].default, name


# each command's bound flags, with arguments that would otherwise succeed
BOUND_FLAGS = [
    *((command, flag) for command in ("extract-ok", "blue-pill",
                                      "check-coherence")
      for flag in ("--depth", "--size", "--term-size", "--limit")),
    ("build-model", "--fm-size"), ("build-model", "--tm-size")]


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command, flag", BOUND_FLAGS)
def test_a_bound_below_one_exits_2(tmp_path, capsys, command, flag, value):
    if command == "build-model":
        argv = ["build-model", "--functional", "const-zero", "--vars", "P",
                "--terms", "x"]
    else:
        argv = [command, write_json(tmp_path / "spec.json",
                                    {"profile": "dl", "formulas": ["s:E"]}),
                "--size", "3"]
    code, out, err = run_cli(capsys, *argv, flag, value, "--json")
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be at least 1, got {value}\n"


def test_a_bound_of_one_is_searched(tmp_path, capsys):
    spath = write_json(tmp_path / "spec.json",
                       {"profile": "dl", "formulas": ["s:E"]})
    code, out, _ = run_cli(capsys, "extract-ok", spath, "--depth", "1",
                           "--size", "1", "--term-size", "1", "--limit", "1",
                           "--json")
    assert code == 0
    assert json.loads(out)["hit_limit"] is True


def test_blue_pill_refuses_a_profile_without_pairing(tmp_path, capsys):
    spath = write_json(tmp_path / "spec.json",
                       {"profile": "dl", "formulas": ["s:E"]})
    code, out, err = run_cli(capsys, "blue-pill", spath, "--logic", "jl",
                             "--json")
    assert (code, out) == (1, "")
    assert err == ("error: the model transplant is defined for profiles "
                   "'dl' and 'fused', not 'jl'\n")


def test_a_stray_value_error_is_a_fault_not_a_verdict(tmp_path, capsys,
                                                       monkeypatch):
    def broken(path):
        raise ValueError("no handler names this")

    monkeypatch.setattr(cli, "_read_json", broken)
    spath = write_json(tmp_path / "spec.json",
                       {"profile": "dl", "formulas": ["s:E"]})
    code, out, err = run_cli(capsys, "extract-ok", spath, "--json")
    assert (code, out) == (2, "")
    assert err == "error: no handler names this\n"


def test_extract_ok_lists_members_with_witnesses(tmp_path, capsys):
    spath = write_json(tmp_path / "spec.json",
                       {"profile": "dl", "formulas": ["a:A"]})
    out_path = tmp_path / "ok.json"
    code, out, _ = run_cli(capsys, "extract-ok", spath, "--depth", "2",
                           "--size", "2", "--out", str(out_path))
    assert code == 0
    assert "OK set within bounds:" in out
    assert "  A  [a, " in out
    doc = json.loads(out_path.read_text())
    entry = next(m for m in doc["members"] if m["formula"] == "A")
    lifted = proof_from_dict(entry["proof"])
    assert lifted.lines


def test_blue_pill_finds_a_transplant_model(tmp_path, capsys):
    spath = write_json(tmp_path / "spec.json",
                       {"profile": "dl", "formulas": ["s:E"]})
    mpath = tmp_path / "model.json"
    code, out, _ = run_cli(capsys, "blue-pill", spath, "--size", "3",
                           "--out", str(mpath))
    assert code == 0
    assert "model found satisfying" in out
    model_doc = json.loads(mpath.read_text())
    assert model_doc["profile"] == "jl"


def test_blue_pill_json_reports_members(tmp_path, capsys):
    spath = write_json(tmp_path / "spec.json",
                       {"profile": "dl", "formulas": ["s:E"]})
    code, out, _ = run_cli(capsys, "blue-pill", spath, "--size", "3",
                           "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "model"
    assert "E" in doc["members"]
    assert doc["hit_limit"] is False


def test_check_coherence_verdicts(tmp_path, capsys):
    good = write_json(tmp_path / "good.json",
                      {"profile": "dl", "formulas": ["s:E"]})
    code, out, _ = run_cli(capsys, "check-coherence", good, "--size", "3")
    assert code == 0
    assert "coherent-within-bounds" in out
    bad = write_json(tmp_path / "bad.json",
                     {"profile": "dl", "formulas": ["a:_|_"]})
    code, out, _ = run_cli(capsys, "check-coherence", bad, "--size", "3")
    assert code == 1
    assert "counterexample" in out


@pytest.mark.parametrize("command",
                         ["extract-ok", "blue-pill", "check-coherence"])
def test_a_search_cut_by_its_budget_says_so(tmp_path, capsys, command):
    spath = write_json(tmp_path / "spec.json",
                       {"profile": "dl", "formulas": ["a:A", "b:B"]})
    code, out, _ = run_cli(capsys, command, spath, "--limit", "200", "--json")
    assert code == 0
    assert json.loads(out)["hit_limit"] is True
    code, out, _ = run_cli(capsys, command, spath, "--limit", "200")
    assert code == 0
    assert out.splitlines()[0].endswith(", search budget exhausted")


# ---------------------------------------------------------------------------
# translate / internalize


def test_translate_rewrites_a_text_file(tmp_path, capsys):
    src = tmp_path / "formulas.txt"
    src.write_text("# premises\ns-:E\nt+:(s-:E)\n", encoding="utf-8")
    out_path = tmp_path / "translated.txt"
    code, out, _ = run_cli(capsys, "translate", str(src), "--out",
                           str(out_path))
    assert code == 0
    body = out_path.read_text().splitlines()
    assert body[0] == "# premises"
    assert body[1] == "X[s-:E]"
    assert body[2] == "t+:X[s-:E]"
    assert "# X[s-:E] = s-:E" in body


def test_translate_json_array_round_trips(tmp_path, capsys):
    src = write_json(tmp_path / "formulas.json", ["s-:E", "c+:C"])
    code, out, _ = run_cli(capsys, "translate", str(src))
    assert code == 0
    doc = json.loads(out)
    # only negatively justified parts get fresh names
    assert doc["formulas"] == ["X[s-:E]", "c+:C"]
    assert doc["dictionary"] == {"X[s-:E]": "s-:E"}


def test_translate_reads_a_bracket_led_text_file_as_text(tmp_path, capsys):
    src = tmp_path / "formulas.txt"
    src.write_text("[x+ + y+]:E\ns-:F\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "translate", str(src))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["formulas"] == ["[x++y+]:E", "X[s-:F]"]
    assert doc["dictionary"] == {"X[s-:F]": "s-:F"}


def test_translate_reads_a_malformed_json_array_as_text(tmp_path, capsys):
    src = tmp_path / "formulas.json"
    src.write_text('["s-:E",\n', encoding="utf-8")
    code, out, err = run_cli(capsys, "translate", str(src))
    assert code == 1
    assert not out
    assert err.startswith("error: non-fused input rejected: '[\"s-:E\",'")


def test_translate_rejects_unsigned_input(tmp_path, capsys):
    src = tmp_path / "formulas.txt"
    src.write_text("s:E\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "translate", str(src))
    assert code == 1
    assert "non-fused input rejected" in err


@pytest.mark.parametrize("lines", [
    "X[s-:E] /\\ s-:E\n~X[s-:E] /\\ s-:E\n",
    # the dictionary covers every line: one line's variable is another's
    # atom
    "X[s-:E]\ns-:E\n"])
def test_translate_refuses_a_file_holding_an_atom_it_mints(lines, tmp_path,
                                                           capsys):
    src = tmp_path / "formulas.txt"
    src.write_text(lines, encoding="utf-8")
    code, out, err = run_cli(capsys, "translate", str(src), "--json")
    assert (code, out) == (1, "")
    assert err.startswith("error: input rejected:") and "X[s-:E]" in err


def test_translate_refuses_input_nested_too_deeply(tmp_path, capsys):
    src = tmp_path / "formulas.txt"
    src.write_text("~" * 3000 + "P\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "translate", str(src))
    assert code == 2
    assert not out
    assert err.startswith("error:") and "nested more than" in err


def test_translate_walks_each_formula_once(tmp_path, capsys, monkeypatch):
    src = tmp_path / "formulas.txt"
    src.write_text("# premises\ns-:E\nt+:(s-:E)\n\nc+:C /\\ r-:F\n",
                   encoding="utf-8")
    unsign, depth, top = logics._unsign, [0], []

    def counting(f, minted):
        if not depth[0]:
            top.append(f)
        depth[0] += 1
        try:
            return unsign(f, minted)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(logics, "_unsign", counting)
    code, out, _ = run_cli(capsys, "translate", str(src), "--json")
    assert code == 0
    assert [print_formula(f) for f in top] == ["s-:E", "t+:s-:E",
                                               "c+:C /\\ r-:F"]
    assert json.loads(out)["dictionary"] == {"X[r-:F]": "r-:F",
                                             "X[s-:E]": "s-:E"}


@pytest.mark.parametrize("error, code", [
    (ValueError("no handler names this"), 2),
    (RefusalError("no handler names this"), 1)])
def test_translate_reports_only_a_refusal_as_a_verdict(error, code, tmp_path,
                                                       capsys, monkeypatch):
    def refuse(formulas):
        raise error

    monkeypatch.setattr(cli, "_translation", refuse)
    src = write_json(tmp_path / "formulas.json", ["s-:E"])
    assert run_cli(capsys, "translate", src)[::2] == (
        code, ("error: input rejected: " if code == 1 else "error: ")
        + "no handler names this\n")


@pytest.mark.parametrize("error, code", [
    (ValueError("no handler names this"), 2),
    (RefusalError("no handler names this"), 1)])
def test_internalize_reports_only_a_refusal_as_a_verdict(
        error, code, tmp_path, capsys, monkeypatch):
    def refuse(proof, entries):
        raise error

    monkeypatch.setattr(cli, "internalize", refuse)
    proof = Proof(fused, (hyp_line(fm("P"), 0),), (fm("P"),))
    ppath = write_json(tmp_path / "proof.json", proof_to_dict(proof))
    spath = write_json(tmp_path / "spec.json",
                       {"profile": "fused", "formulas": ["a+:P"]})
    assert run_cli(capsys, "internalize", ppath, "--spec", spath) == (
        code, "", "error: no handler names this\n")


def test_internalize_lifts_an_axiom(tmp_path, capsys):
    inst = fm("E -> C -> E")
    proof = Proof(fused, (axiom_line("k", Binding({"P": fm("E"),
                                                   "Q": fm("C")}, {}), inst),))
    ppath = write_json(tmp_path / "proof.json", proof_to_dict(proof))
    spath = write_json(tmp_path / "spec.json",
                       {"profile": "fused", "formulas": ["e+:(E -> C -> E)"]})
    out_path = tmp_path / "lifted.json"
    code, out, _ = run_cli(capsys, "internalize", ppath, "--spec", spath,
                           "--out", str(out_path))
    assert code == 0
    assert "term: e+" in out
    assert "conclusion: e+:(E -> C -> E)" in out
    lifted = proof_from_dict(json.loads(out_path.read_text()))
    from dlk import check_proof
    assert check_proof(lifted).ok


def test_internalize_guards_the_profile(tmp_path, capsys):
    ppath = write_json(tmp_path / "proof.json",
                       proof_to_dict(denial_replay_proof()))
    spath = write_json(tmp_path / "spec.json",
                       {"profile": "dl", "formulas": []})
    code, _, err = run_cli(capsys, "internalize", ppath, "--spec", spath)
    assert code == 1
    assert "fused or lp" in err


def test_internalize_needs_covering_constants(tmp_path, capsys):
    inst = fm("E -> C -> E")
    proof = Proof(fused, (axiom_line("k", Binding({"P": fm("E"),
                                                   "Q": fm("C")}, {}), inst),))
    ppath = write_json(tmp_path / "proof.json", proof_to_dict(proof))
    spath = write_json(tmp_path / "spec.json",
                       {"profile": "fused", "formulas": []})
    code, _, err = run_cli(capsys, "internalize", ppath, "--spec", spath)
    assert code == 1


@pytest.mark.parametrize("entry", ["[a+b]:P", "!a:P"])
def test_internalize_rejects_compound_justifiers(tmp_path, capsys, entry):
    proof = Proof(get_profile("lp"), (hyp_line(fm("P"), 0),), (fm("P"),))
    ppath = write_json(tmp_path / "proof.json", proof_to_dict(proof))
    spath = write_json(tmp_path / "spec.json", [entry])
    code, out, err = run_cli(capsys, "internalize", ppath, "--spec", spath,
                             "--logic", "lp")
    assert code == 1
    assert not out
    assert err.startswith("rejected:") and "compound justifier" in err


# ---------------------------------------------------------------------------
# scenario


def test_scenario_listing_names_all_bundles(capsys):
    code, out, _ = run_cli(capsys, "scenario")
    assert code == 0
    names = {line.split()[0] for line in out.splitlines() if line.strip()}
    assert names == {"prop1", "agw", "envatted-brain",
                     "pairing-independence", "blue-pill-demo"}


def test_scenario_runs_fast_bundles(capsys):
    code, out, _ = run_cli(capsys, "scenario", "prop1")
    assert code == 0
    assert "accepted" in out


def test_scenario_rejects_unknown_names(capsys):
    code, _, err = run_cli(capsys, "scenario", "no-such-scenario")
    assert code == 2


@pytest.mark.parametrize("doc", [{}, json.loads(
    (Path(cli.__file__).parent / "scenarios" / "prop1.json").read_text())])
def test_scenario_names_are_never_paths(tmp_path, capsys, doc):
    # a scenario file, or any other JSON file, outside the bundle is
    # refused by name, whatever the relative path reaches
    write_json(tmp_path / "elsewhere.json", doc)
    bundle = Path(cli.__file__).parent / "scenarios"
    name = os.path.relpath(tmp_path / "elsewhere", bundle)
    code, out, err = run_cli(capsys, "scenario", name)
    assert code == 2
    assert not out
    assert err.startswith(f"error: no scenario named {name!r}")


def test_the_parser_is_built_once(capsys):
    cli._parser.cache_clear()
    for _ in range(3):
        assert run_cli(capsys, "parse", "P")[0] == 0
    assert cli._parser.cache_info().misses == 1


def test_unknown_commands_exit_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["no-such-command"])
