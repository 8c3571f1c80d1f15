"""The demand engine asks each watched question once, at the snapshot
that settles it (the argument is in ``dlk.demand``'s module docstring):
an antecedent at its first queue phase, the goal and the bodies of the
negations added by round 1 at round 1's notes.  These tests pin the
argument's premises, and check its conclusions on the seeded corpus and
on random runs (``engine_cases.py``) with ``Asking``, an ``EagerRounds``
that asks every question again after every round.
"""

from hypothesis import HealthCheck, given, settings

from dlk.logics import SCHEMAS
from dlk.syntax import FMeta, Implies, Not, subformulas

from eager_rounds import EagerRounds, derive_eager
from engine_cases import corpus, small_runs, stopping


class Asking(EagerRounds):
    """``EagerRounds``, which takes the notes after every round, also
    re-checking at each queue phase the antecedents past their first;
    ``late`` lists what a question asked after its settling snapshot
    found."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.passed: dict = {}      # antecedents past their first phase
        self.rechecked = 0
        self.late_notes = 0         # note phases after round 1 with a question
        self.late: list = []

    def queue_phase(self, round_no):
        for left in self.passed:
            if left not in self.out.provenance:
                self.rechecked += 1
                if self.instance(left) is not None:
                    self.late.append(("antecedent", round_no, left))
        self.passed.update(dict.fromkeys(self.left_watch))
        super().queue_phase(round_no)

    def note_phase(self):
        out = self.out
        before = (len(out.provenance), out.contradiction, self.done)
        if out.rounds_used > 1 and (
                isinstance(self.goal, Implies)
                and self.goal not in out.provenance
                or out.contradiction is None and any(
                    isinstance(f, Not) and isinstance(f.body, Implies)
                    for f in out.provenance)):
            self.late_notes += 1
        super().note_phase()
        if out.rounds_used > 1 and before != (
                len(out.provenance), out.contradiction, self.done):
            self.late.append(("note", out.rounds_used))


def asking(profile, hyps, **bounds) -> Asking:
    run = Asking(profile, hyps, limit=bounds.pop("limit", None), **bounds)
    run.run()
    return run


def settled(run: Asking) -> None:
    """No late question found anything, and no term entered the term pool
    after round 1's snapshot."""
    assert run.late == []
    assert len(set(run.terms.marks[1:])) <= 1


def test_every_template_is_an_implication_whose_negations_wrap_a_metavariable():
    for sid, schema in SCHEMAS.items():
        assert isinstance(schema.template, Implies), sid
        for f in subformulas(schema.template):
            if isinstance(f, Not):
                assert isinstance(f.body, FMeta), sid


def test_no_question_asked_again_on_the_corpus_finds_anything():
    # the corpus asks again, so the property says something
    rechecked = late_notes = 0
    for param in corpus():
        profile, hyps, stop, bounds, _ = param.values
        run = asking(profile, hyps,
                     **stopping(profile, hyps, stop, bounds, derive_eager))
        settled(run)
        rechecked += run.rechecked
        late_notes += run.late_notes
    assert rechecked > 0 and late_notes > 0


@given(small_runs())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_no_question_asked_again_on_random_runs_finds_anything(case):
    profile, hyps, bounds = case
    settled(asking(profile, hyps, **bounds))
