"""Two closure rules of evidence, stated here from their definitions and
not read from ``dlk.semantics``, so that the oracles of the model layer
(``naive_audit`` in ``test_audit_oracle.py`` and ``closed_extension`` in
``interpreted.py``) do not share a fault with the code they check.
``test_application_rule.py`` checks the library's statements of both
against these."""

from __future__ import annotations

from dlk.syntax import And, Implies


def applied(xs, ys) -> frozenset:
    """Application: every conclusion of an implication in ``xs`` whose
    antecedent is in ``ys``."""
    out = set()
    for x in xs:
        if type(x) is Implies and x.left in ys:
            out.add(x.right)
    return frozenset(out)


def paired(xs, ys, universe=None) -> frozenset:
    """Pairing: every conjunction of a member of ``xs`` with one of
    ``ys``; inside a formula universe, only those in it."""
    if universe is None:
        return frozenset(And(x, y) for x in xs for y in ys)
    return frozenset(f for f in universe if type(f) is And
                     and f.left in xs and f.right in ys)
