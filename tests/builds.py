"""Build parameters shared by the builder's, the audit's and the model
writer's tests.

``random_builds`` draws them for properties: ``dl`` or ``dl0``, one or
two atoms and leaves, and a stock functional or a rule table of one to
three rules.  ``seeded_params`` makes them from a seed, over one or two
atoms and term leaves, with one of the ``SEEDED`` functionals: the
three presets, two rule tables, one of whose first matching rules
rejects, and a spec-driven one.
"""

import random

from hypothesis import strategies as st

from dlk.builder import (
    FUNCTIONALS, BuildParams, ConstOne, ConstZero, PlusSyntactic, RuleTable,
    SpecDriven,
)
from dlk.logics import PROFILES
from dlk.syntax import Alphabet, parse_formula

TERM_PATTERNS = ("*", "x", "y", "[*", "*+*", "*.*", "*&*")
FORMULA_PATTERNS = ("*", "P", "Q", "_|_", "~*", "*/\\*", "*->*", "*:*")


@st.composite
def random_builds(draw, max_fm=4):
    profile = draw(st.sampled_from((PROFILES["dl"], PROFILES["dl0"])))
    atoms = ("P", "Q")[:draw(st.integers(1, 2))]
    leaves = ("x", "y")[:draw(st.integers(1, 2))]
    seed = {a: draw(st.booleans()) for a in atoms}
    stock = st.sampled_from(sorted(FUNCTIONALS)).map(
        lambda n: FUNCTIONALS[n]())
    rules = st.lists(st.tuples(st.sampled_from(TERM_PATTERNS),
                               st.sampled_from(FORMULA_PATTERNS),
                               st.booleans()),
                     min_size=1, max_size=3).map(RuleTable)
    return BuildParams(profile, Alphabet(atoms, leaves, ()),
                       draw(st.integers(1, max_fm)), draw(st.integers(1, 3)),
                       draw(st.one_of(stock, rules)), seed=seed, trace=True)


def _spec_driven():
    entries = [parse_formula(text) for text in
               ("x:A", "[x+y]:A", "y:(A /\\ B)", "a:(~B)",
                "[x & y]:(A /\\ B)")]
    return SpecDriven(entries, suppressed=[(parse_formula("B"),
                                            entries[0].term)])


SEEDED = {
    "const-zero": ConstZero,
    "const-one": ConstOne,
    "plus-syntactic": PlusSyntactic,
    "rule-table": lambda: RuleTable([("x", "A", True), ("*+*", "*", True),
                                     ("[* & *]", "~*", True),
                                     ("y", "*->*", True)]),
    # the first matching rule rejects ahead of a catch-all, and '~(*'
    # matches only a negation the printer parenthesises
    "rule-table-rejecting": lambda: RuleTable([("x", "*", False),
                                               ("y", "~(*", True),
                                               ("*", "*->*", False),
                                               ("*", "*", True)]),
    "spec-driven": _spec_driven,
}


def seeded_params(profile, functional, seed, trace, bounds=None):
    """Seeded build parameters; ``bounds`` replaces the drawn formula and
    term sizes."""
    rng = random.Random(seed)
    atoms = tuple(sorted(rng.sample(("A", "B"), rng.randint(1, 2))))
    leaves = rng.sample(("x", "y", "a"), rng.randint(1, 2))
    alphabet = Alphabet(atoms, tuple(sorted(l for l in leaves if l != "a")),
                        tuple(l for l in leaves if l == "a"))
    valuation = {atom: rng.random() < 0.5 for atom in atoms}
    fm_size, tm_size = rng.randint(3, 5), rng.randint(1, 3)
    if bounds is not None:
        fm_size, tm_size = bounds
    return BuildParams(profile, alphabet, fm_size, tm_size,
                       SEEDED[functional](), seed=valuation, trace=trace)
