"""dlk: a workbench for denial logic and its justification-logic relatives.

Evidence terms justify formulas; in denial-flavoured logics a term
justifying ``P`` is grounds to conclude ``~P``.  The package provides
the shared grammar (``syntax``), the axiom-schema profiles and the
signed fusion (``logics``), modular models with closure audits
(``semantics``), Hilbert proofs, bounded forward chaining, and
internalization (``proofs``), staged model construction (``builder``),
constant specifications with closure, OK-set extraction, and the
denial-free model transplant (``specifications``), plus bundled
walk-through scenarios (``scenarios``) and the ``dlk`` command line
(``cli``).
"""

from .builder import (
    BoundsError, BuildError, BuildParams, ConstOne, ConstZero,
    PlusSyntactic, RealizationError, RuleTable, SpecDriven, build,
    realize_spec,
)
from .logics import (
    AxiomSchema, Binding, LogicProfile, RefusalError, alphabet_from,
    check_in_profile, get_profile, instantiate, match_axiom, match_template,
    translate,
)
from .proofs import (
    CheckResult, DerivedSet, MissingConstantError, NonderivabilityReport,
    Proof, ProofFormatError, ProofLine, axiom_line, check_nonderivability,
    check_proof, derive_forward, hyp_line, internalize, mp_line,
    proof_from_dict, proof_to_dict,
)
from .semantics import (
    AuditReport, ModelFormatError, ModularModel, audit, default_universe,
    evaluate, model_from_dict, model_to_dict, occurring_terms,
)
from .specifications import (
    BluePillResult, CoherenceReport, ConstantSpec, OKSet, ProbeResult,
    SpecClashError, SpecFormatError, SpecShapeError, blue_pill,
    check_coherence, close_spec, ok_extract, probe_consistency,
    search_jl_model, spec_from_dict, spec_to_dict,
)
from .syntax import (
    Alphabet, And, App, Bang, Bottom, Const, Formula, Implies, Just, Not,
    Or, Pair, ParseError, PropVar, SignDisciplineError, SignViolation, Sum,
    Term, Var, enumerate_formulas, enumerate_terms, formula_size,
    parse_formula, parse_term, parse_variable, print_formula, print_term,
    subformulas, subterms, term_sign, term_size,
)

__version__ = "0.1.0"
