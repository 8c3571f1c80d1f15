"""The sorted enumerations, kept as the oracle of ``dlk.syntax``'s
enumerations in construction order.

``enumerate_terms`` and ``enumerate_formulas`` here build every node of
a size and then sort the lot by ``_sort_key``, as ``dlk.syntax`` did
before it relied on the order in which ``_compounds`` builds them.  They
are the old code, verbatim, with the old ``Alphabet.leaves`` and
``_compounds`` beside them, so that a change to either in ``dlk.syntax``
cannot change the oracle too.  A name given twice in the alphabet, or a
term given twice in ``terms``, yields repeated nodes here; the stable
sort keeps equal nodes together, so removing the repeats leaves the
order the enumerations must give.
"""

from __future__ import annotations

from itertools import product as _cartesian

from dlk.syntax import (
    BOTTOM, NEGATIVE, POSITIVE, UNSIGNED, Alphabet, Const, Formula, PropVar,
    SignDisciplineError, Term, Var, _PARTS, _TERM_OPS, _size, _sort_key,
)


def _leaves(alphabet: Alphabet) -> list[Term]:
    signs = (POSITIVE, NEGATIVE) if alphabet.signed else (UNSIGNED,)
    out: list[Term] = [Const(n, s) for n in alphabet.term_consts for s in signs]
    out += [Var(n, s) for n in alphabet.term_vars for s in signs]
    return out


def _compounds(rows, n: int) -> list:
    items = []
    for ctor, pools in rows:
        splits = [(n - 1,)] if len(pools) == 1 else \
            [(k, n - 1 - k) for k in range(1, n - 1)]
        for sizes in splits:
            for parts in _cartesian(*(pool.get(k, ())
                                      for pool, k in zip(pools, sizes))):
                try:
                    items.append(ctor(*parts))
                except SignDisciplineError:
                    pass
    return items


def enumerate_terms(alphabet: Alphabet, size_bound: int,
                    ops: frozenset[str]) -> list[Term]:
    by_size: dict[int, list[Term]] = {1: sorted(_leaves(alphabet), key=_sort_key)}
    rows = [(ctor, (by_size,) * len(_PARTS[ctor]))
            for op, (ctor, _) in _TERM_OPS.items() if op in ops]
    for n in range(2, size_bound + 1):
        by_size[n] = sorted(_compounds(rows, n), key=_sort_key)
    return [t for n in range(1, size_bound + 1) for t in by_size.get(n, ())]


def enumerate_formulas(alphabet: Alphabet, size_bound: int,
                       terms: list[Term]) -> list[Formula]:
    terms_by_size: dict[int, list[Term]] = {}
    for t in terms:
        terms_by_size.setdefault(_size(t), []).append(t)

    base: list[Formula] = [BOTTOM] + [PropVar(v) for v in alphabet.prop_vars]
    by_size: dict[int, list[Formula]] = {1: sorted(base, key=_sort_key)}
    # the one term part of a formula, Just's, is named "term"
    rows = [(ctor, tuple(terms_by_size if name == "term" else by_size
                         for name in names))
            for ctor, names in _PARTS.items()
            if names and issubclass(ctor, Formula)]
    for n in range(2, size_bound + 1):
        by_size[n] = sorted(_compounds(rows, n), key=_sort_key)
    return [f for n in range(1, size_bound + 1) for f in by_size.get(n, ())]
