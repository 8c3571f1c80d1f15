"""The search bounds every bundled scenario step hands on, pinned.

Each step's bounds are recorded where they leave the scenario runner
(``check_nonderivability`` or ``blue_pill``) and again at each
``derive_forward`` call ``check_nonderivability`` makes, with the
callee's defaults filled in, and compared with a literal table.  A
refactor of how the bounds travel must leave every row as it is.
"""

import inspect

import pytest

from dlk import proofs, scenarios, specifications
from dlk.logics import get_profile
from dlk.scenarios import available, run

# a row: (step number, callee, (size, rounds, term size, limit))
EXPECTED = {
    "agw": [
        (2, "check_nonderivability", (3, 2, 2, 60000)),
        (2, "derive_forward", (3, 2, 2, 60000)),
        (2, "derive_forward", (3, 2, 2, 60000)),
    ],
    "blue-pill-demo": [
        (1, "blue_pill", (4, 2, 2, 50000)),
        (2, "blue_pill", (4, 3, 2, 50000)),
    ],
    "envatted-brain": [],
    "pairing-independence": [
        (2, "check_nonderivability", (4, 2, 4, None)),
        (3, "check_nonderivability", (3, 2, 2, 60000)),
        (3, "derive_forward", (3, 2, 2, 60000)),
        (3, "derive_forward", (3, 2, 2, 60000)),
    ],
    "prop1": [],
}

SEARCH = ("size_bound", "rounds", "term_size_bound", "limit")
EXTRACTION = ("size", "depth", "term_size", "limit")


def _effective(signature_of, names, args, kwargs):
    bound = inspect.signature(signature_of).bind(*args, **kwargs)
    bound.apply_defaults()
    return tuple(bound.arguments[name] for name in names)


@pytest.fixture
def recorded(monkeypatch):
    """The rows of the calls made while it is in use."""
    rows, step = [], [0]

    def record(name, fn, signature_of, names):
        def recording(*args, **kwargs):
            rows.append((step[0], name,
                         _effective(signature_of, names, args, kwargs)))
            return fn(*args, **kwargs)
        return recording

    derive = proofs.derive_forward
    monkeypatch.setattr(proofs, "derive_forward", record(
        "derive_forward", derive, derive, SEARCH))
    check = scenarios.check_nonderivability
    monkeypatch.setattr(scenarios, "check_nonderivability", record(
        "check_nonderivability", check, check, SEARCH))
    # ``blue_pill`` hands its bounds on to ``ok_extract`` as they are
    monkeypatch.setattr(scenarios, "blue_pill", record(
        "blue_pill", scenarios.blue_pill, specifications.ok_extract,
        EXTRACTION))
    for kind, fn in scenarios._STEPS.items():
        def counted(*args, fn=fn):
            step[0] += 1
            return fn(*args)
        monkeypatch.setitem(scenarios._STEPS, kind, counted)
    return rows


def test_the_table_covers_every_bundle():
    assert sorted(EXPECTED) == available()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_each_step_hands_on_its_bounds(name, recorded):
    assert run(name).ok
    assert recorded == EXPECTED[name]


def test_a_blue_pill_step_hands_on_every_bound(recorded):
    step = {"kind": "blue-pill", "formulas": ["s:E"],
            "bounds": {"size": 2, "depth": 1, "term_size": 3, "limit": 900}}
    scenarios._STEPS["blue-pill"](step, get_profile("dl"), {})
    assert recorded == [(1, "blue_pill", (2, 1, 3, 900))]
