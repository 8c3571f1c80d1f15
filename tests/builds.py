"""Random build parameters, drawn by the builder's and the audit's
properties: ``dl`` or ``dl0``, one or two atoms and leaves, and a stock
functional or a rule table of one to three rules."""

from hypothesis import strategies as st

from dlk.builder import FUNCTIONALS, BuildParams, RuleTable
from dlk.logics import PROFILES
from dlk.syntax import Alphabet

_TERM_PATTERNS = ("*", "x", "y", "[*", "*+*", "*.*", "*&*")
_FORMULA_PATTERNS = ("*", "P", "Q", "_|_", "~*", "*/\\*", "*->*", "*:*")


@st.composite
def random_builds(draw, max_fm=4):
    profile = draw(st.sampled_from((PROFILES["dl"], PROFILES["dl0"])))
    atoms = ("P", "Q")[:draw(st.integers(1, 2))]
    leaves = ("x", "y")[:draw(st.integers(1, 2))]
    seed = {a: draw(st.booleans()) for a in atoms}
    stock = st.sampled_from(sorted(FUNCTIONALS)).map(
        lambda n: FUNCTIONALS[n]())
    rules = st.lists(st.tuples(st.sampled_from(_TERM_PATTERNS),
                               st.sampled_from(_FORMULA_PATTERNS),
                               st.booleans()),
                     min_size=1, max_size=3).map(RuleTable)
    return BuildParams(profile, Alphabet(atoms, leaves, ()),
                       draw(st.integers(1, max_fm)), draw(st.integers(1, 3)),
                       draw(st.one_of(stock, rules)), seed=seed, trace=True)
