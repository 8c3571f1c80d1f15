"""Output checks that do not trust the code they check.

The evaluator here is written from the definition of a modular model
(connectives classically, ``t:F`` as membership of ``F`` in the evidence
set of ``t``) and reads dlk's formula objects only through their fields,
so a fault in ``dlk.semantics.evaluate`` cannot hide a fault elsewhere.
Each check returns ``None`` when the output is right and a one-line
reason otherwise.
"""

from __future__ import annotations


def holds(valuation, interp, f) -> bool:
    """Truth of ``f`` under a valuation and an evidence interpretation."""
    kind = type(f).__name__
    if kind == "Bottom":
        return False
    if kind == "PropVar":
        return bool(valuation.get(f.name, False))
    if kind == "Not":
        return not holds(valuation, interp, f.body)
    if kind == "And":
        return holds(valuation, interp, f.left) and holds(valuation, interp, f.right)
    if kind == "Or":
        return holds(valuation, interp, f.left) or holds(valuation, interp, f.right)
    if kind == "Implies":
        return (not holds(valuation, interp, f.left)) or holds(valuation, interp, f.right)
    if kind == "Just":
        return f.body in interp.get(f.term, ())
    raise ValueError(f"not a formula: {f!r}")


def model_satisfies(model, formulas) -> str | None:
    for f in formulas:
        if not holds(model.valuation, model.interp, f):
            return f"model falsifies {f!r}"
    return None


def naive_model(formulas):
    """A valuation and interpretation read straight off a hypothesis set:
    literals fix atoms, ``t:F`` puts ``F`` into ``t``'s evidence."""
    valuation: dict[str, bool] = {}
    interp: dict = {}
    for f in formulas:
        kind = type(f).__name__
        if kind == "PropVar":
            valuation[f.name] = True
        elif kind == "Not" and type(f.body).__name__ == "PropVar":
            valuation[f.body.name] = False
        elif kind == "Just":
            interp.setdefault(f.term, set()).add(f.body)
    return valuation, interp


def built_model(model, *, pairing: bool) -> str | None:
    """Denial, sum closure and (where the profile has it) pairing
    closure, checked against the interpretation dict and the universe."""
    interp, valuation = model.interp, model.valuation
    for term, members in interp.items():
        for f in members:
            if holds(valuation, interp, f):
                return f"denial: member {f!r} of {term!r} is true"
    universe = model.formula_universe or frozenset()
    conj_by_left: dict = {}
    for f in universe:
        if type(f).__name__ == "And":
            conj_by_left.setdefault(f.left, []).append(f)
    for term, members in interp.items():
        kind = type(term).__name__
        if kind == "Sum":
            for part in (term.left, term.right):
                missing = interp.get(part, frozenset()) - members
                if missing:
                    return f"sum closure: {term!r} misses {next(iter(missing))!r}"
        elif kind == "Pair" and pairing:
            right = interp.get(term.right, frozenset())
            for p in interp.get(term.left, frozenset()):
                for conj in conj_by_left.get(p, ()):
                    if conj.right in right and conj not in members:
                        return f"pairing closure: {term!r} misses {conj!r}"
    return None


def proof_concludes(dlk, proof, conclusion) -> str | None:
    if proof is None:
        return "no proof"
    result = dlk.check_proof(proof)
    if not result.ok:
        return f"proof rejected: {result.describe()[:2]}"
    if proof.conclusion != conclusion:
        return f"proof concludes {proof.conclusion!r}, not {conclusion!r}"
    return None


def ok_set(dlk, ok) -> str | None:
    """Every OK-set member carries a checking proof of ``term:member``."""
    if not ok.members:
        return "empty OK set"
    for member in ok.members:
        term, proof = ok.witnesses[member]
        why = proof_concludes(dlk, proof, dlk.Just(term, member))
        if why:
            return f"witness of {member!r}: {why}"
    return None


def nonderivability(dlk, report, *, target, expect, exists) -> str | None:
    """The answer is the expected one and carries what it must."""
    if report.status != expect:
        return f"status {report.status!r}, expected {expect!r}"
    if expect == "derivable":
        if exists:
            found = report.found
            if type(found).__name__ != "Just" or found.body != target:
                return f"found {found!r} does not justify the target"
            return proof_concludes(dlk, report.proof, found)
        return proof_concludes(dlk, report.proof, target)
    if expect == "refuted":
        if report.refutation_proofs is None or report.contradiction is None:
            return "refutation without proofs"
        pos, neg = report.contradiction
        if neg != dlk.Not(pos):
            return f"pair {pos!r}, {neg!r} is not complementary"
        for proof, f in zip(report.refutation_proofs, (pos, neg)):
            why = proof_concludes(dlk, proof, f)
            if why:
                return f"refutation: {why}"
    return None
