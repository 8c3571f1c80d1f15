"""Reference figures, measured once and quoted in bench/README.md.

    python3 bench/reference.py

These calls are too heavy for the workloads (each would be a large
share of a run, or several times the length of one), so they are timed
once each here, next to the exact counters they produce.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import dlk  # noqa: E402
import dlk.scenarios  # noqa: E402


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _derived(d) -> str:
    kinds = [p[0] for p in d.provenance.values()]
    return (f"{len(d)} formulas, {kinds.count('axiom')} axiom instances, "
            f"{kinds.count('mp')} MP conclusions, {len(d.justified())} "
            f"justified")


def main() -> None:
    dl = dlk.get_profile("dl")
    fm = dlk.parse_formula

    d, took = _timed(lambda: dlk.derive_forward(
        dl, [fm("e1:R"), fm("~R")], size_bound=4, rounds=3,
        term_size_bound=2, limit=None))
    print(f"criterion-6 derive_forward: {_derived(d)}; {took:.2f} s")

    spec = dlk.close_spec([fm("a:A"), fm("~A"), fm("b:B"), fm("~B")], dl)
    d, took = _timed(lambda: dlk.derive_forward(
        dl, spec.formulas, size_bound=3, rounds=2, term_size_bound=2))
    print(f"blue-pill extraction of criterion 7 (a:A, ~A, b:B, ~B; size 3, "
          f"2 rounds): {_derived(d)}; {took:.2f} s")

    alphabet = dlk.Alphabet(("P", "Q"), ("x", "y"), ())
    for name in ("dl", "dl0"):
        profile = dlk.get_profile(name)
        (model, _), took = _timed(lambda: dlk.build(dlk.BuildParams(
            profile, alphabet, 5, 3, dlk.ConstOne(), seed={"P": True})))
        report, audit_took = _timed(lambda: dlk.audit(model))
        print(f"ConstOne 5/3 over P,Q/x,y in {name}: universe "
              f"{len(model.formula_universe)} formulas, "
              f"{sum(len(v) for v in model.interp.values())} members; "
              f"build {took:.2f} s, audit {audit_took:.2f} s "
              f"(ok={report.ok})")

    for name in dlk.scenarios.available():
        result, took = _timed(lambda: dlk.scenarios.run(name))
        print(f"scenario {name}: ok={result.ok}; {took:.2f} s")


if __name__ == "__main__":
    main()
