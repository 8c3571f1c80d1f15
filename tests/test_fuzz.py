"""Random documents through the command line: whatever a model, proof
or specification document, or a formula file, holds, every command that
reads one (``audit``, ``eval``, ``build-model --spec``, ``check-proof``,
``close-spec``, ``extract-ok``, ``blue-pill``, ``check-coherence``,
``internalize`` and ``translate``) ends in a documented exit code (0
success, 1 a negative verdict, 2 bad input) and never in a traceback;
with ``--json``, stdout holds one JSON document or, when the error went
to stderr, nothing.  A bound flag below 1 ends in exit 2.  So do files no JSON decoder reads: nested too
deeply, not UTF-8, an integer too long, empty.  The searches run under
small bounds and ``DLK_MAX_BOUND=3``."""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlk.cli import main

_PROFILES = ("dl", "dl0", "jl", "lp", "fused")
# unsigned well-formed texts first, then signed and malformed ones
_TERMS = ("x", "y", "a", "[x+y]", "[x.y]", "[x & y]", "!x", "[[x+y]+x]",
          "x+", "y-", "[x+ . y+]", "[x- & y-]", "!x+", "[x", "", "x y")
_FORMULAS = ("P", "Q", "_|_", "~P", "P /\\ Q", "P -> Q", "x:P", "y:(P -> Q)",
             "[x+y]:P", "x:P /\\ y:Q", "[x & y]:(P /\\ Q)", "~~~~P",
             "x+:P", "y-:~Q", "!x:x:P", "P /\\", "(", "")
_PLAIN_TERMS, _PLAIN_FORMULAS = _TERMS[:8], _FORMULAS[:12]
json_flag = st.sampled_from(((), ("--json",)))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6)
formula_lists = st.lists(st.sampled_from(_FORMULAS) | json_values,
                         max_size=5)

# documents that mostly parse, so that the audit itself runs on them
plain_documents = st.fixed_dictionaries(
    {"profile": st.sampled_from(_PROFILES),
     "valuation": st.dictionaries(st.sampled_from("PQ"), st.booleans()),
     "interp": st.dictionaries(st.sampled_from(_PLAIN_TERMS),
                               st.lists(st.sampled_from(_PLAIN_FORMULAS),
                                        max_size=4),
                               max_size=4)},
    optional={"formula_universe": st.lists(
                  st.sampled_from(_PLAIN_FORMULAS)),
              "provenance": st.just("built")})


@st.composite
def model_documents(draw):
    doc = {}
    if draw(st.booleans()):
        doc["profile"] = draw(st.sampled_from(_PROFILES + ("nope",))
                              | json_values)
    if draw(st.booleans()):
        doc["valuation"] = draw(
            st.dictionaries(st.sampled_from(("P", "Q", "R")), json_values,
                            max_size=3) | json_values)
    if draw(st.booleans()):
        doc["interp"] = draw(
            st.dictionaries(st.sampled_from(_TERMS),
                            formula_lists | json_values, max_size=4)
            | json_values)
    if draw(st.booleans()):
        doc["formula_universe"] = draw(formula_lists | json_values)
    if draw(st.booleans()):
        doc["provenance"] = draw(st.sampled_from(("built", "hand"))
                                 | json_values)
    return doc


def _exit_code(docs, *argv) -> int:
    """Run ``dlk`` with ``docs`` (one document, or a tuple of them; bytes
    are written as they are, anything else as JSON) written to files
    whose paths replace the ``{}`` in ``argv``, in order; the
    command must end in a documented code, and with ``--json`` leave one
    JSON document or nothing on stdout."""
    docs = list(docs) if isinstance(docs, tuple) else [docs]
    with tempfile.TemporaryDirectory() as tmp:
        args = []
        for a in argv:
            if a == "{}":
                path = os.path.join(tmp, f"doc{len(args)}.json")
                doc = docs.pop(0)
                with open(path, "wb") as fh:
                    fh.write(doc if isinstance(doc, bytes)
                             else json.dumps(doc).encode())
                a = path
            args.append(a)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.dict(os.environ, {"DLK_MAX_BOUND": "3"}):
            code = main(args)
    assert "Traceback" not in err.getvalue()
    if "--json" in args and out.getvalue():
        json.loads(out.getvalue())
    return code


@given(plain_documents | model_documents() | json_values,
       st.sampled_from(("occurring", "default")), json_flag)
@settings(max_examples=200, deadline=None)
def test_audit_ends_in_a_documented_exit_code(doc, universe, flag):
    assert _exit_code(doc, "audit", "--model", "{}",
                      "--universe", universe, *flag) in (0, 1, 2)


proof_lines = st.fixed_dictionaries(
    {"kind": st.sampled_from(("hyp", "mp", "axiom", "")) | json_values,
     "formula": st.sampled_from(_FORMULAS) | json_values},
    optional={"hyp_index": st.integers(-1, 2) | json_values,
              "premises": st.lists(st.integers(-1, 2), max_size=3)
              | json_values,
              "schema": st.sampled_from(("k", "denial", "nope")),
              "binding": st.fixed_dictionaries(
                  {}, optional={"formulas": json_values,
                                "terms": json_values}) | json_values})
proof_documents = st.fixed_dictionaries(
    {}, optional={"profile": st.sampled_from(_PROFILES) | json_values,
                  "hypotheses": formula_lists | json_values,
                  "lines": st.lists(proof_lines, max_size=4) | json_values})
spec_documents = st.fixed_dictionaries(
    {}, optional={"profile": st.sampled_from(_PROFILES) | json_values,
                  "formulas": formula_lists | json_values,
                  "closed": json_values}) | formula_lists


@given(proof_documents | json_values, json_flag)
@settings(max_examples=150, deadline=None)
def test_check_proof_ends_in_a_documented_exit_code(doc, flag):
    assert _exit_code(doc, "check-proof", "{}", *flag) in (0, 1, 2)


@given(spec_documents | json_values, st.sampled_from(((), ("--logic", "dl"))),
       json_flag)
@settings(max_examples=150, deadline=None)
def test_close_spec_ends_in_a_documented_exit_code(doc, logic, flag):
    assert _exit_code(doc, "close-spec", "{}", *logic, *flag) in (0, 1, 2)


@given(plain_documents | model_documents() | json_values,
       st.sampled_from(_FORMULAS), json_flag)
@settings(max_examples=150, deadline=None)
def test_eval_ends_in_a_documented_exit_code(doc, formula, flag):
    assert _exit_code(doc, "eval", "--model", "{}", formula,
                      *flag) in (0, 1, 2)


# specifications that mostly parse, so that closure, extraction, model
# search and realization run on them
plain_specs = st.fixed_dictionaries(
    {"profile": st.sampled_from(_PROFILES),
     "formulas": st.lists(st.sampled_from(_PLAIN_FORMULAS + _FORMULAS[12:15]),
                          max_size=4)},
    optional={"closed": st.booleans()})
any_specs = plain_specs | spec_documents | json_values
logic_options = st.sampled_from(((), ("--logic", "dl"), ("--logic", "fused")))


@st.composite
def bound_flags(draw, highs):
    """Each flag ``highs`` names, with a value from 1 to its high; in
    about half the draws one of them is 0 or below instead."""
    low = draw(st.sampled_from([None] * len(highs) + list(highs)))
    return [(flag, draw(st.integers(-2, 0) if flag == low
                        else st.integers(1, high)))
            for flag, high in highs.items()]


def _expected_codes(bounds) -> tuple[int, ...]:
    """Exit 2 if a drawn bound is below 1, else any documented code."""
    return (2,) if any(value < 1 for _, value in bounds) else (0, 1, 2)


def _argv(bounds) -> list[str]:
    return [str(a) for pair in bounds for a in pair]


@given(any_specs, logic_options,
       st.just([]) | bound_flags({"--fm-size": 4, "--tm-size": 2}),
       json_flag)
@settings(max_examples=100, deadline=None)
def test_build_model_from_a_spec_ends_in_a_documented_exit_code(doc, logic,
                                                                 sizes, flag):
    assert _exit_code(doc, "build-model", "--spec", "{}", *logic,
                      *_argv(sizes), *flag) in _expected_codes(sizes)


SMALL = ("--size", "2", "--depth", "1", "--term-size", "1", "--limit", "200")


@given(any_specs, logic_options,
       st.sampled_from(("extract-ok", "blue-pill", "check-coherence")),
       bound_flags({"--size": 2, "--depth": 1, "--term-size": 1,
                    "--limit": 200}),
       json_flag)
@settings(max_examples=150, deadline=None)
def test_extraction_commands_end_in_a_documented_exit_code(doc, logic,
                                                           command, bounds,
                                                           flag):
    assert _exit_code(doc, command, "{}", *logic, *_argv(bounds),
                      *flag) in _expected_codes(bounds)


_TERM_FREE = ("P", "Q", "_|_", "~P", "P /\\ Q", "P -> Q", "~~~~P")


@st.composite
def lifting_cases(draw):
    """A proof document from hypothesis lines, a ``k`` instance and modus
    ponens, mostly checking, and a specification that justifies some of
    its lines by leaf terms."""
    profile = draw(st.sampled_from(("lp", "fused", "dl")))
    hyp, other = draw(st.sampled_from(_TERM_FREE)), \
        draw(st.sampled_from(_TERM_FREE))
    k = f"({hyp}) -> (({other}) -> ({hyp}))"
    lines = [{"kind": "hyp", "formula": hyp,
              "hyp_index": draw(st.sampled_from((0, 0, 0, 1)))},
             {"kind": "axiom", "formula": k, "schema": "k",
              "binding": {"formulas": {"P": hyp, "Q": other}, "terms": {}}},
             {"kind": "mp", "formula": f"({other}) -> ({hyp})",
              "premises": draw(st.sampled_from(([1, 0], [1, 0], [0, 1])))}]
    lines = lines[:draw(st.integers(1, 3))]
    sign = "+" if profile == "fused" else ""
    entries = [f"{draw(st.sampled_from('ax'))}{sign}:({f})"
               for f in (hyp, k) if draw(st.sampled_from((True, True, False)))]
    spec = {"profile": profile,
            "formulas": entries + draw(st.lists(st.sampled_from(_FORMULAS),
                                                max_size=1))}
    return {"profile": profile, "hypotheses": [hyp], "lines": lines}, spec


@given(lifting_cases()
       | st.tuples(proof_documents | json_values, any_specs),
       st.sampled_from(((), ("--logic", "lp"))), json_flag)
@settings(max_examples=150, deadline=None)
def test_internalize_ends_in_a_documented_exit_code(docs, logic, flag):
    assert _exit_code(docs, "internalize", "{}", "--spec", "{}",
                      *logic, *flag) in (0, 1, 2)


# formula files: JSON arrays (of anything) or text, one line a formula,
# with comments, blank lines and bracket-led formulas among them
_SIGNED = ("s-:E", "t+:(s-:E)", "[x+ + y+]:E", "[x- & y-]:(P /\\ Q)",
           "!x+:P", "x:P", "# note", "", "[", "]", "[1]", '["P"]')
formula_texts = st.lists(st.sampled_from(_SIGNED + _FORMULAS),
                         max_size=5).map(lambda ls: "\n".join(ls).encode())


@given(formula_lists | formula_texts | json_values, json_flag)
@settings(max_examples=150, deadline=None)
def test_translate_ends_in_a_documented_exit_code(doc, flag):
    assert _exit_code(doc, "translate", "{}", *flag) in (0, 1, 2)


# each file-reading command: the documents it reads, None where the raw
# file goes, and its arguments
_PROOF = {"profile": "lp", "hypotheses": ["P"],
          "lines": [{"kind": "hyp", "formula": "P", "hyp_index": 0}]}
_SPEC = {"profile": "lp", "formulas": ["a:P"]}
READERS = {
    "audit": ((None,), ("audit", "--model", "{}")),
    "eval": ((None,), ("eval", "--model", "{}", "P")),
    "check-proof": ((None,), ("check-proof", "{}")),
    "check-proof --spec": ((_PROOF, None),
                           ("check-proof", "{}", "--spec", "{}")),
    "build-model --spec": ((None,), ("build-model", "--spec", "{}")),
    "close-spec": ((None,), ("close-spec", "{}")),
    "extract-ok": ((None,), ("extract-ok", "{}", *SMALL)),
    "blue-pill": ((None,), ("blue-pill", "{}", *SMALL)),
    "check-coherence": ((None,), ("check-coherence", "{}", *SMALL)),
    "internalize": ((None, _SPEC), ("internalize", "{}", "--spec", "{}")),
    "internalize --spec": ((_PROOF, None),
                           ("internalize", "{}", "--spec", "{}")),
    "translate": ((None,), ("translate", "{}")),
}
# raw file contents, the exit code of a command reading JSON, and that of
# translate, which reads a file that is no JSON array as text: a long
# integer in brackets is a line that does not parse, an empty file holds
# no formulas
RAW = {"deep": (b"[" * 200_000 + b"]" * 200_000, 2, 2),
       "not-utf8": (b"\xff\xfe{}", 2, 2),
       "long-int": (b"[" + b"1" * 5000 + b"]", 2, 1),
       "empty": (b"", 2, 0)}


@pytest.mark.parametrize("case", RAW)
@pytest.mark.parametrize("reader", READERS)
def test_raw_bytes_end_in_a_documented_exit_code(reader, case):
    slots, argv = READERS[reader]
    raw, json_code, text_code = RAW[case]
    docs = tuple(raw if d is None else d for d in slots)
    assert _exit_code(docs, *argv) == (
        text_code if reader == "translate" else json_code)
