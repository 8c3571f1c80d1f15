"""Benchmark of the dlk workbench: one workload per process, closed loop.

    python3 bench/run.py --workload saturate|models|session --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
One caller issues one operation at a time, each a single public call
into ``dlk`` (see ``workloads.py``).  Before the timed region the corpus
is set up several times (``setup_s`` is the median) and untimed
operations warm up for two seconds; then whole rounds run until
``--seconds`` have passed (and at least 100 operations were made),
with a ``gc.collect()`` before each operation and every output checked
after it, both outside the timed region.

Times are scaled to a reference host speed.  On a shared host the speed
of the processor drifts by 10-30% within seconds to minutes, with every
operation alike, so before each operation and each set-up (untimed) the
benchmark times ``calibrate``, a fixed pure-Python task that does not
touch ``dlk``, and multiplies the time of each operation or set-up by
``CALIBRATION_REF_MS`` / the mean of the calibration times just before
and just after it.  On a host where the task takes
``CALIBRATION_REF_MS`` the figures are wall times; the unscaled figures
go to the run's detail file.

With ``--trace 0`` the last line of stdout reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics of one
traced round (see ``tracer.py``), the tracing overhead, and checks that
every counter repeats exactly in two more processes with other
``PYTHONHASHSEED`` values.  Per-kind medians and the spans go to
``.bench_work/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_work")
SETUPS = 11
MIN_OPS = 100       # a p90 needs ten samples beyond it
WARM_UP_S = 2.0
HASH_SEEDS = ("1", "2")
CHILD_TIMEOUT_S = 150
# median time of ``calibrate`` between operations on the 2-core x86-64
# host where the benchmark was set up; times are reported at that speed
CALIBRATION_REF_MS = 2.5


def _die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _calibration_task() -> None:
    table: dict = {}
    for i in range(1500):
        key = (i % 61, i // 61, str(i))
        table[key] = table.get(key, 0) + 1
    ordered = sorted(set(table), key=lambda k: (k[1], k[0]))
    total = 0
    for i in range(10000):
        total += i * i % 7
    if len(ordered) != 1500 or total != 19999:
        _die("calibration task computed a wrong result")


def calibrate() -> float:
    """Seconds the fixed calibration task (dict, tuples, sort, integer
    loop) takes on its second run, with warm caches, and with the
    collector off so that the program's heap cannot change it."""
    gc.disable()
    try:
        _calibration_task()
        start = time.perf_counter()
        _calibration_task()
        return time.perf_counter() - start
    finally:
        gc.enable()


def _at_reference(times: list[float], calibrations: list[float]):
    """Each time brought to the reference host speed; ``calibrations[i]``
    was taken just before ``times[i]`` and ``calibrations[i + 1]`` just
    after it."""
    ref = CALIBRATION_REF_MS / 1000
    return [took * 2 * ref / (before + after) for took, before, after
            in zip(times, calibrations, calibrations[1:])]


def _setup(workload: str, seed: int, workdir: str):
    """Import the program and build the corpus from scratch; timed."""
    for name in list(sys.modules):
        if name in ("dlk", "workloads", "checks") or name.startswith("dlk."):
            del sys.modules[name]
    gc.collect()
    start = time.perf_counter()
    workloads = importlib.import_module("workloads")
    ops = [op for group in workloads.make(workload, seed, workdir)
           for op in group]
    return time.perf_counter() - start, ops


class Tally:
    def __init__(self):
        self.failed = 0
        self.wrong: list[str] = []
        self.times: list[float] = []
        self.kinds: list[str] = []
        self.calibrations: list[float] = []  # around every time


def _run_op(op, tally: Tally, tracer=None, calibrated=False) -> None:
    gc.collect()
    if calibrated:
        tally.calibrations.append(calibrate())
    if tracer is not None:
        tracer.enabled = True
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:        # an escaping error is an outcome to judge
        result = exc
    took = time.perf_counter() - start
    if tracer is not None:
        tracer.enabled = False
    if isinstance(result, Exception):
        why = f"{type(result).__name__}: {str(result)[:200]}"
    else:
        why = op.check(result)
    tally.times.append(took)
    tally.kinds.append(op.kind)
    if why is not None:
        tally.failed += 1
        if op.fault is None:
            tally.wrong.append(f"{op.kind}: {why}")


def _round(ops, tally: Tally, tracer=None, calibrated=False) -> None:
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        _run_op(op, tally, tracer, calibrated)


def _warm_up(ops) -> None:
    """Untimed operations from the start of the round, for WARM_UP_S."""
    start = time.perf_counter()
    for op in ops:
        _run_op(op, Tally())
        if time.perf_counter() - start >= WARM_UP_S:
            break


def _kind_medians(kinds: list[str], times: list[float]) -> dict:
    by_kind: dict[str, list[float]] = {}
    for kind, took in zip(kinds, times):
        by_kind.setdefault(kind, []).append(took)
    return {kind: {"n": len(v), "median_ms": 1000 * statistics.median(v)}
            for kind, v in sorted(by_kind.items(),
                                  key=lambda kv: statistics.median(kv[1]))}


def _report(tally: Tally, metrics: dict, units: dict) -> dict:
    for line in tally.wrong[:20]:
        print(f"bench: wrong output: {line}", file=sys.stderr)
    return {"correct": not tally.wrong, "attempted": len(tally.times),
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def _timed(args, workdir) -> dict:
    setups, setup_calibrations = [], []
    for _ in range(SETUPS):
        setup_calibrations.append(calibrate())
        took, ops = _setup(args.workload, args.seed, workdir)
        setups.append(took)
    setup_calibrations.append(calibrate())
    _warm_up(ops)
    tally = Tally()
    start = time.perf_counter()
    rounds = 0
    while True:
        _round(ops, tally, calibrated=True)
        rounds += 1
        if (time.perf_counter() - start >= args.seconds
                and len(tally.times) >= MIN_OPS):
            break
    wall = time.perf_counter() - start
    tally.calibrations.append(calibrate())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def figures(setups, times):
        return {"setup_s": statistics.median(setups),
                "ops_per_s": len(times) / sum(times),
                "op_p50_ms": 1000 * statistics.median(times),
                "op_p90_ms": 1000 * statistics.quantiles(times, n=10)[8],
                "peak_rss_mb": peak_rss_mb}
    times = _at_reference(tally.times, tally.calibrations)
    metrics = figures(_at_reference(setups, setup_calibrations), times)
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
             "op_p90_ms": "ms", "peak_rss_mb": "MB"}
    _write_detail(args, {
        "rounds": rounds, "wall_s": wall, "ops": len(times),
        "metrics": metrics, "unscaled": figures(setups, tally.times),
        "calibration_median_ms": 1000 * statistics.median(tally.calibrations),
        "kinds": _kind_medians(tally.kinds, times)})
    return _report(tally, metrics, units)


def _traced_round(ops):
    tracer = tracing.Tracer()
    tracer.install()
    tally = Tally()
    _round(ops, tally, tracer)
    return tracer, tally


def _traced(args, workdir) -> dict:
    _, ops = _setup(args.workload, args.seed, workdir)
    _warm_up(ops)
    plain = Tally()
    _round(ops, plain)
    tracer, tally = _traced_round(ops)
    counters = tracer.counters()
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = sum(tally.times) / sum(plain.times)
    units = {name: ("ms" if name.endswith("_ms") else
                    "ratio" if name.endswith(("_yield", "_ratio")) else "count")
             for name in metrics}
    for hash_seed in HASH_SEEDS:
        other = _child_counters(args, hash_seed)
        differ = sorted(k for k in set(counters) | set(other)
                        if counters.get(k) != other.get(k))
        if differ:
            tally.wrong.append(f"counters differ under PYTHONHASHSEED="
                               f"{hash_seed}: " + ", ".join(
                                   f"{k} {counters.get(k)} != {other.get(k)}"
                                   for k in differ[:5]))
    _write_detail(args, {"metrics": metrics, "counters": counters,
                         "calls": {label: {"calls": rec[0],
                                           "total_ms": 1000 * rec[1],
                                           "self_ms": 1000 * rec[2]}
                                   for label, rec in sorted(tracer.calls.items())
                                   if rec[0]},
                         "spans": [{"op": op, "depth": depth, "name": label,
                                    "kind": ops[op].kind,
                                    "ms": 1000 * (end - start)}
                                   for op, depth, label, start, end
                                   in tracer.spans]})
    return _report(tally, metrics, units)


def _child_counters(args, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    argv = [sys.executable, os.path.abspath(__file__), "--workload",
            args.workload, "--seed", str(args.seed), "--counters-only"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        _die(f"counter run failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _write_detail(args, doc) -> None:
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("saturate", "models", "session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counters-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "dlk", "__init__.py")):
        _die(f"no program to measure: {SRC}/dlk is missing")
    sys.path.insert(0, SRC)
    os.environ.pop("DLK_MAX_BOUND", None)
    import dlk
    if not os.path.abspath(dlk.__file__).startswith(SRC + os.sep):
        _die(f"dlk was imported from {dlk.__file__}, not from {SRC}")

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.counters_only:
            _, ops = _setup(args.workload, args.seed, workdir)
            result = _traced_round(ops)[0].counters()
        elif args.trace:
            result = _traced(args, workdir)
        else:
            result = _timed(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
