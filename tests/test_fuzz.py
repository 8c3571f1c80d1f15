"""Random JSON documents through the command line: whatever a model,
proof or specification document holds, ``dlk audit``, ``dlk check-proof``
and ``dlk close-spec`` end in a documented exit code (0 success, 1 a
negative verdict, 2 bad input) and never in a traceback."""

import contextlib
import io
import json
import os
import tempfile

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


def _exit_code(doc, *argv) -> int:
    """Run ``dlk`` with ``doc`` written to a file whose path replaces
    ``{}`` in ``argv``; the command must end in a documented code."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([path if a == "{}" else a for a in argv])
    assert "Traceback" not in err.getvalue()
    return code


@given(plain_documents | model_documents() | json_values,
       st.sampled_from(("occurring", "default")))
@settings(max_examples=200, deadline=None)
def test_audit_ends_in_a_documented_exit_code(doc, universe):
    assert _exit_code(doc, "audit", "--model", "{}",
                      "--universe", universe) in (0, 1, 2)


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


@given(proof_documents | json_values)
@settings(max_examples=150, deadline=None)
def test_check_proof_ends_in_a_documented_exit_code(doc):
    assert _exit_code(doc, "check-proof", "{}") in (0, 1, 2)


@given(spec_documents | json_values, st.sampled_from(((), ("--logic", "dl"))))
@settings(max_examples=150, deadline=None)
def test_close_spec_ends_in_a_documented_exit_code(doc, logic):
    assert _exit_code(doc, "close-spec", "{}", *logic) in (0, 1, 2)
