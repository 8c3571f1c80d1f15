"""The bundled scenario runner: loading, execution, failure modes."""

import pytest

from dlk.scenarios import ScenarioError, ScenarioResult, available, load, run


def test_the_expected_bundles_ship():
    assert available() == ["agw", "blue-pill-demo", "envatted-brain",
                           "pairing-independence", "prop1"]


def test_bundles_carry_titles_and_steps():
    for name in available():
        doc = load(name)
        assert doc["title"]
        assert doc["steps"]


def test_unknown_names_raise():
    with pytest.raises(ScenarioError, match="available:"):
        load("no-such-scenario")
    with pytest.raises(ScenarioError):
        run("no-such-scenario")


def test_prop1_replays_the_denial_derivation():
    result = run("prop1")
    assert isinstance(result, ScenarioResult)
    assert result.ok
    assert any("accepted" in line for line in result.lines)
    assert result.report


def test_envatted_brain_accepts_the_signed_chain():
    result = run("envatted-brain")
    assert result.ok
    assert any("~E" in line for line in result.lines)


def test_the_realize_step_trusts_realize_spec():
    # a+b is left uninterpreted: [a+b]:A holds in the closed extension,
    # where realize_spec judges it, and not in the raw model
    from dlk.logics import get_profile
    from dlk.scenarios import _step_realize
    ctx = {}
    ok, lines, fragment = _step_realize(
        {"formulas": ["a:A", "[a+b]:A /\\ ~A"]}, get_profile("dl"), ctx)
    assert (ok, fragment) == (True, {"respects": True})
    assert lines[-1] == "  model realizes every member"
    assert "model" in ctx
