"""``semantics.model_to_dict`` as it was before it keyed and printed each
distinct formula once per document, kept as its oracle.

Here every member of every term is printed, and sorted with the
recursive ``formula_sort_key``, once per term that holds it, and the
universe once more.  It is the old code, verbatim.
"""

from __future__ import annotations

from dlk.semantics import ModularModel
from dlk.syntax import (
    formula_sort_key, print_formula, print_term, term_sort_key,
)


def model_to_dict(model: ModularModel) -> dict:
    doc: dict = {
        "profile": model.profile.name,
        "valuation": {name: bool(v) for name, v in sorted(model.valuation.items())},
        "interp": {
            print_term(t): [print_formula(f)
                            for f in sorted(fs, key=formula_sort_key)]
            for t in sorted(model.interp, key=term_sort_key)
            for fs in (model.interp[t],)
        },
        "provenance": model.provenance,
    }
    if model.formula_universe is not None:
        doc["formula_universe"] = [print_formula(f) for f in
                                   sorted(model.formula_universe, key=formula_sort_key)]
    return doc
