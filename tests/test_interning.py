"""The intern tables of ``dlk.syntax``: they hold no node alive, and what
they hold does not change what building a node does.

A table keeps each node by a weak reference, so a universe that nothing
holds any more leaves no entry behind (the ``peak_rss_mb`` of a long
run depends on it).  The sign rule runs before the table is looked up,
so a formula built for the first time and one built again call
``term_sign`` equally often, and the traced call counts of a warmed
process match those of a fresh one.
"""

import gc

from dlk import syntax
from dlk.logics import get_profile
from dlk.syntax import (
    Alphabet, enumerate_formulas, enumerate_terms, print_formula,
)


def _entries() -> dict[type, int]:
    gc.collect()
    return {kind: len(table) for kind, table in syntax._INTERNED.items()}


def test_the_tables_forget_a_dropped_universe():
    before = _entries()
    # names no other test uses, so that every node over them is new
    alphabet = Alphabet(("Gone", "Dropped"), ("xgone",), ("adropped",))
    terms = enumerate_terms(alphabet, 3, get_profile("dl").term_ops)
    formulas = enumerate_formulas(alphabet, 5, terms)
    # all but the formulas over _|_ alone, which other tests may hold
    new = [f for f in formulas if any(map(str.isalpha, print_formula(f)))]
    assert sum(_entries().values()) - sum(before.values()) >= \
        len(terms) + len(new) > 900
    del terms, formulas, new
    after = _entries()
    assert all(after[kind] <= before[kind] for kind in before)


def test_the_sign_rule_runs_alike_on_new_and_interned_nodes(monkeypatch):
    calls = []
    term_sign = syntax.term_sign

    def counted(t):
        calls.append(t)
        return term_sign(t)

    monkeypatch.setattr(syntax, "term_sign", counted)
    text = "[xrule+ . !yrule+]:[xrule- & [yrule- + zrule-]]:Prule"

    first = syntax.parse_formula(text, True)
    new = len(calls)
    calls.clear()
    again = syntax.parse_formula(text, True)
    interned = len(calls)
    assert again is first and new > 0
    held = _entries()
    del first, again
    assert sum(_entries().values()) < sum(held.values())   # built anew below
    calls.clear()
    syntax.parse_formula(text, True)
    assert len(calls) == interned == new
