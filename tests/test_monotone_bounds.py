"""Bounded answers move one way as the bounds grow (metamorphic checks).

Raising the formula size, the rounds or the term size of a search only
adds schema instances and modus ponens steps, so on every hypothesis
set of ``engine_cases.SETS``, at a base ``b`` and at ``b`` with one
bound raised by one:

- every formula stored at ``b`` is derivable at ``b + 1``: stored there,
  or an instance of one of the profile's schemas;
- a ``check_nonderivability`` status moves only along open -> refuted ->
  derivable, or open -> derivable;
- an ``ok_extract`` member at ``b`` is a member at ``b + 1``.

A search that its limit cut says nothing about one with more room, so
each claim is checked only where neither run hit the limit.  The stored
set itself need not grow: a larger bound can reach a conclusion first
by another route, and then stores other premises (see the last test).
"""

import pytest

from dlk.logics import match_axiom
from dlk.proofs import check_nonderivability, derive_forward
from dlk.specifications import close_spec, ok_extract
from dlk.syntax import Not, PropVar, subformulas

from engine_cases import SETS, fm, hypotheses, lp

LIMIT = 20000
BASE = {"size_bound": 2, "rounds": 2, "term_size_bound": 2}


def raised(base: dict) -> list[dict]:
    """``base`` with one bound raised by one, each bound in turn."""
    return [dict(base, **{name: base[name] + 1}) for name in base]


# check_nonderivability: the order in which a status may move
RANK = {"open": 0, "refuted": 1, "derivable": 2}


CASES = [pytest.param(profile, texts, closed,
                      id=f"{profile.name}:{','.join(texts)}")
         for profile, texts, closed in SETS]


def _queries(hyps):
    """Each atom of the hypotheses, plain and negated, and the question
    whether some term justifies it."""
    atoms = dict.fromkeys(f for h in hyps for f in subformulas(h)
                          if isinstance(f, PropVar))
    return [(target, exists) for atom in atoms
            for target, exists in ((atom, False), (Not(atom), False),
                                   (atom, True))]


def _status(profile, hyps, target, exists, bounds) -> str | None:
    """The status, or None when the search budget cut a search."""
    report = check_nonderivability(profile, hyps, target, exists_term=exists,
                                   limit=LIMIT, **bounds)
    return None if "search budget" in report.note else report.status


@pytest.mark.parametrize("profile, texts, closed", CASES)
def test_what_is_stored_stays_derivable_with_more_room(profile, texts,
                                                       closed):
    # also from formula size 3, where implications enter the pools, with
    # the rounds left at 2: a third round there takes ~3 s over the sets
    # and the limit cuts 6 of its 17 runs
    hyps = tuple(hypotheses(profile, texts, closed))
    wider = dict(BASE, size_bound=3)
    for start, steps in ((BASE, raised(BASE)),
                         (wider, [b for b in raised(wider)
                                  if b["rounds"] == wider["rounds"]])):
        before = derive_forward(profile, hyps, limit=LIMIT, **start)
        for bounds in steps:
            after = derive_forward(profile, hyps, limit=LIMIT, **bounds)
            if before.hit_limit or after.hit_limit:
                continue
            for f in before.provenance:
                assert f in after or match_axiom(f, profile), (bounds, f)


@pytest.mark.parametrize("profile, texts, closed", CASES)
def test_statuses_move_one_way_with_more_room(profile, texts, closed):
    hyps = hypotheses(profile, texts, closed)
    for target, exists in _queries(hyps):
        before = _status(profile, hyps, target, exists, BASE)
        for bounds in raised(BASE):
            after = _status(profile, hyps, target, exists, bounds)
            if before is not None and after is not None:
                assert RANK[before] <= RANK[after], (target, exists, bounds)


@pytest.mark.parametrize("profile, texts, closed",
                         [case for case in CASES if case.values[2]])
def test_ok_set_members_stay_with_more_room(profile, texts, closed):
    spec = close_spec([fm(text, profile) for text in texts], profile)
    names = {"size_bound": "size", "rounds": "depth",
             "term_size_bound": "term_size"}

    def members(bounds):
        found = ok_extract(spec, limit=LIMIT, **{names[name]: value
                                                for name, value
                                                in bounds.items()})
        return None if found.hit_limit else set(found.members)

    before = members(BASE)
    for bounds in raised(BASE):
        after = members(bounds)
        if before is not None and after is not None:
            assert before <= after, bounds


def test_a_larger_bound_can_store_other_premises():
    # at term size 3 the conclusion B \/ ~_|_ comes first from
    # B -> B \/ ~_|_, so the or-intro-right instance that gave it at
    # term size 2 is not stored, though it is still an instance
    hyps = (fm("x:(A -> B)", lp), fm("x:A", lp))
    bounds = {"size_bound": 2, "rounds": 3}
    small = derive_forward(lp, hyps, term_size_bound=2, **bounds)
    large = derive_forward(lp, hyps, term_size_bound=3, **bounds)
    assert not small.hit_limit and not large.hit_limit
    premise = fm("~_|_ -> B \\/ ~_|_", lp)
    assert small.provenance[premise][:2] == ("axiom", "or-intro-right")
    assert premise not in large and match_axiom(premise, lp)
    conclusion = fm("B \\/ ~_|_", lp)
    assert large.provenance[conclusion][1] == fm("B -> B \\/ ~_|_", lp)
