"""Spans and counters for the traced run, taken from outside the program.

``install`` wraps every public function of every ``dlk`` module in each
module that binds it: modules import names directly (``from .logics
import instantiate``), so patching only the defining module would miss
the calls made through the other bindings.  Generator functions are left
alone, since a span would close before their work is done; their time
lands in the caller's self time.

A span's self time is its duration minus the durations of the spans
opened inside it.  Spans are aggregated per function as they close;
spans at depth 1 and 2 (the operation and the layer calls it makes
directly) are also kept, tagged with the operation's index.  Counters
are read off returned objects (``DerivedSet.provenance``, the
interpretation of built models, ``ConditionReport.checked``, OK sets and
enumerations), and the time spent reading them is kept out of every
span's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("syntax", "logics", "semantics", "proofs", "builder",
          "specifications", "scenarios", "cli")

# per-layer time metrics: summed self time of these functions, in ms
TIMES = {
    "syntax.parse_ms": ("syntax.parse_formula", "syntax.parse_term"),
    "syntax.print_ms": ("syntax.print_formula", "syntax.print_term"),
    "syntax.enumerate_ms": ("syntax.enumerate_terms",
                            "syntax.enumerate_formulas"),
    "logics.instantiate_ms": ("logics.instantiate",),
    "logics.match_ms": ("logics.match_axiom", "logics.match_template"),
    "proofs.derive_ms": ("proofs.derive_forward",),
    "proofs.check_ms": ("proofs.check_proof",),
    "builder.build_ms": ("builder.build",),
    "builder.realize_ms": ("builder.realize_spec",),
    "semantics.audit_ms": ("semantics.audit",),
    "specifications.close_ms": ("specifications.close_spec",),
    "specifications.extract_ms": ("specifications.ok_extract",),
    "specifications.search_ms": ("specifications.search_jl_model",),
    "scenarios.run_ms": ("scenarios.run",),
    "cli.main_ms": ("cli.main",),
    "cli.parser_ms": ("cli.build_parser",),
}

# per-layer counters, all exact (instantiate calls are counted by its span)
COUNTS = ("syntax.formulas_enumerated", "logics.instantiate_calls",
          "proofs.formulas_derived", "proofs.axiom_instances",
          "proofs.mp_conclusions", "builder.members_staged",
          "builder.pair_candidates", "semantics.audit_checks",
          "specifications.ok_members")


def _derived(counts, derived):
    axioms = set()
    used = set()
    mp = 0
    for f, prov in derived.provenance.items():
        if prov[0] == "axiom":
            axioms.add(f)
        elif prov[0] == "mp":
            mp += 1
            used.add(prov[1])
            used.add(prov[2])
    counts["proofs.formulas_derived"] += len(derived)
    counts["proofs.axiom_instances"] += len(axioms)
    counts["proofs.mp_conclusions"] += mp
    counts["proofs.instances_used"] += len(used & axioms)


def _built(counts, result):
    interp = result[0].interp
    counts["builder.members_staged"] += sum(len(v) for v in interp.values())
    for term, members in interp.items():
        if type(term).__name__ != "Pair":
            continue
        left = interp.get(term.left, frozenset())
        right = interp.get(term.right, frozenset())
        counts["builder.pair_candidates"] += len(left) * len(right)
        counts["builder.pairs_kept"] += sum(
            1 for f in members if type(f).__name__ == "And"
            and f.left in left and f.right in right)


OBSERVERS = {
    "syntax.enumerate_formulas":
        lambda c, r: c.update({"syntax.formulas_enumerated": len(r)}),
    "proofs.derive_forward": _derived,
    "builder.build": _built,
    "semantics.audit":
        lambda c, r: c.update({"semantics.audit_checks":
                               sum(x.checked for x in r.conditions)}),
    "specifications.ok_extract":
        lambda c, r: c.update({"specifications.ok_members": len(r)}),
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = -1                 # index of the operation being traced
        self.stack: list[list[float]] = []
        self.calls: dict[str, list] = {}    # label -> [calls, total s, self s]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []        # (op, depth, label, start, end)

    def install(self) -> None:
        """Wrap the public functions of every loaded dlk module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "dlk" or name.startswith("dlk.")]
        wrapped: dict[int, object] = {}
        for module in modules:
            for name, obj in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("dlk")
                        or inspect.isgeneratorfunction(obj)):
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrap(obj)
                setattr(module, name, wrapped[id(obj)])

    def _wrap(self, fn):
        label = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        record = self.calls.setdefault(label, [0, 0.0, 0.0])
        observe = OBSERVERS.get(label)
        stack, tracer = self.stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            inner = [0.0]
            stack.append(inner)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                record[0] += 1
                record[1] += took
                record[2] += took - inner[0]
                if stack:
                    stack[-1][0] += took
                if len(stack) < 2:
                    tracer.spans.append((tracer.op, len(stack) + 1, label,
                                         start, end))
            if observe is not None:
                observe(tracer.counts, result)
                if stack:           # reading counters is not the caller's work
                    stack[-1][0] += perf_counter() - end
            return result
        return traced

    def counters(self) -> dict:
        """Every exact figure: counters and per-function call counts."""
        out = dict(sorted(self.counts.items()))
        out["logics.instantiate_calls"] = self.calls.get(
            "logics.instantiate", [0])[0]
        out.update({f"calls.{label}": rec[0]
                    for label, rec in sorted(self.calls.items()) if rec[0]})
        return out

    def metrics(self) -> dict:
        """Per-layer metrics by name: times in ms, counts, yields."""
        counts = self.counters()
        out = {name: 1000 * sum(self.calls[label][2] for label in labels
                                if label in self.calls)
               for name, labels in TIMES.items()}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = 1000 * sum(
                rec[2] for label, rec in self.calls.items()
                if label.split(".", 1)[0] == layer)
        for name in COUNTS:
            out[name] = counts.get(name, 0)
        inst = out["proofs.axiom_instances"]
        out["proofs.instance_yield"] = (
            counts.get("proofs.instances_used", 0) / inst if inst else 0.0)
        cand = out["builder.pair_candidates"]
        out["builder.pair_yield"] = (
            counts.get("builder.pairs_kept", 0) / cand if cand else 0.0)
        return out
