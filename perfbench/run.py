"""Closed-loop benchmark of morsewidth: one process, one operation at a time.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

Workloads: search (beam and breadth-first searches), verify (normalized
bracket of 10- to 16-crossing torus knots) and analyze (``morsewidth
analyze`` on long words, in process).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the same passes traced and prints the
per-module metrics.  The last line of standard output is one JSON object;
results and span dumps go to ``perfbench/out/``.  Stdlib only; the package
is imported from ``src/`` of the checkout this file sits in.

Times are reported at a fixed machine speed.  On a shared host the speed
of identical work drifts by a third within a minute, so between operations
the benchmark times a fixed kernel that never touches morsewidth (the
reference state sum on a 7-crossing word), and scales each operation's time
by KERNEL_NOMINAL_S over the mean of the two kernel times that bracket it.
The unscaled figures and the run's median scale go to the results file.
A change to morsewidth cannot move the kernel, so scaling keeps its effect.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import tracemalloc
from time import perf_counter

import reference
import workloads
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

SETUP_REPEATS = 5
MIN_OPS = 100  # ten operations beyond the 90th percentile
MAX_SECONDS = 150  # stop early rather than overrun the 180 s limit
TRACE_MIN_PASS_SECONDS = 1.0

KERNEL_WORD = reference.events_of("b1 b2 b3 x4+ x5- x4+ x5- x2+ x3- x4+ d3 d2 d1")
KERNEL_NOMINAL_S = 0.0015  # defines the nominal speed; 1.4-2.3 ms was seen
KERNEL_EVERY_S = 0.1  # of busy time


def kernel_time() -> float:
    """The faster of two kernel runs, so that caches left cold by the last
    operation do not count."""
    times = []
    for _ in range(2):
        t0 = perf_counter()
        reference.oracle_bracket(KERNEL_WORD)
        times.append(perf_counter() - t0)
    return min(times)


def setup(workload: str, seed: int, plan: dict, tracer: Tracer | None = None):
    """Import morsewidth afresh and build the corpus from the plan; returns
    (seconds, package, items).  A tracer is installed between the two."""
    for name in [n for n in sys.modules if n.split(".")[0] == "morsewidth"]:
        del sys.modules[name]
    t0 = perf_counter()
    mw = importlib.import_module("morsewidth")
    importlib.import_module("morsewidth.cli")
    if tracer is not None:
        tracer.install()
    items = workloads.WORKLOADS[workload][1](mw, plan, random.Random(seed))
    return perf_counter() - t0, mw, items


class Loop:
    """Runs whole passes over a corpus, timing each operation alone and
    checking each output outside the timed part.  The speed kernel runs
    between operations, every KERNEL_EVERY_S of busy time and at the end of
    each pass."""

    def __init__(self, mw, items):
        self.mw, self.items = mw, items
        self.latencies: list[float] = []
        self.kernel: list[float] = []
        self.kernel_at: list[int] = []  # operations done before each sample
        self.next_kernel = 0.0
        self.busy = 0.0
        self.attempted = 0
        self.errors: list[str] = []  # failed checks
        self.failures: list[str] = []  # operations that raised

    def sample_kernel(self) -> None:
        self.kernel.append(kernel_time())
        self.kernel_at.append(len(self.latencies))
        self.next_kernel = self.busy + KERNEL_EVERY_S

    def one_pass(self) -> float:
        start = self.busy
        for item in self.items:
            if self.busy >= self.next_kernel:
                self.sample_kernel()
            self.attempted += 1
            t0 = perf_counter()
            try:
                out = item.run(self.mw)
            except Exception as exc:  # counted, reported, and the run goes on
                self.failures.append(f"{item.label}: {type(exc).__name__}: {exc}")
                continue
            dt = perf_counter() - t0
            self.busy += dt
            self.latencies.append(dt)
            self.errors += item.check(out)
        self.sample_kernel()
        return self.busy - start

    def run_for(self, seconds: float) -> None:
        """Whole passes until the busy time is closest to ``seconds`` and
        at least MIN_OPS operations ran."""
        passes = 0
        while True:
            self.one_pass()
            passes += 1
            done = (self.attempted >= MIN_OPS
                    and self.busy + self.busy / passes / 2 >= seconds)
            if done or self.busy > MAX_SECONDS:
                return

    def speed(self) -> float:
        """Median factor that takes this run's times to the nominal speed."""
        return KERNEL_NOMINAL_S / statistics.median(self.kernel)

    def scaled(self) -> list[float]:
        """Each latency at the nominal speed of the two kernel times taken
        just before and just after it."""
        out = []
        for j, dt in enumerate(self.latencies):
            i = bisect.bisect_right(self.kernel_at, j)
            out.append(dt * KERNEL_NOMINAL_S
                       / statistics.mean(self.kernel[i - 1:i + 1]))
        return out


def end_to_end(workload: str, seed: int, plan: dict, seconds: float):
    setups, kernels = [], [kernel_time() for _ in range(3)]
    for _ in range(SETUP_REPEATS):
        dt, mw, items = setup(workload, seed, plan)
        kernels += [kernel_time() for _ in range(3)]
        setups.append((dt, KERNEL_NOMINAL_S / statistics.median(kernels[-6:])))
    loop = Loop(mw, items)
    loop.run_for(seconds)
    metrics, unscaled = {}, {}
    for key, lat, setup_s in (
        (metrics, loop.scaled(), statistics.median(dt * k for dt, k in setups)),
        (unscaled, loop.latencies, statistics.median(dt for dt, _ in setups)),
    ):
        deciles = statistics.quantiles(lat, n=10)
        key.update({
            "setup_s": (setup_s, "s"),
            "throughput_ops_s": (len(lat) / sum(lat), "1/s"),
            "latency_ms_p50": (deciles[4] * 1e3, "ms"),
            "latency_ms_p90": (deciles[8] * 1e3, "ms"),
        })
    metrics["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    return loop, metrics, {"speed": loop.speed(),
                           "unscaled": {k: v for k, (v, _) in unscaled.items()}}


def _tracemalloc_peak(mw, item) -> float:
    """Peak memory traced while ``item`` runs, above what was live before
    it, in MiB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        item.run(mw)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


SELF_MS = ("cli.main", "textio.parse", "events.MorseWord",
           "invariants.level_profile", "invariants.embedding_report",
           "moves.enumerate_moves", "moves.apply_move", "moves.canonical_key",
           "search.beam_search", "search.exhaustive_min", "search.objective_key",
           "bracket.kauffman_bracket", "bracket.writhe")
CALLS = ("textio.parse", "events.MorseWord", "invariants.level_profile",
         "moves.enumerate_moves", "moves.apply_move")
BUCKETS = ("c12", "c14", "c16", "trunk4-6", "trunk8-10", "trunk14-18")


def per_layer(workload: str, seed: int, plan: dict):
    # The same passes run untraced, then traced.  A pass shorter than
    # TRACE_MIN_PASS_SECONDS is repeated to fill that time, after an untimed
    # warm-up pass on each side; a longer one runs once, as it is.
    _, mw, items = setup(workload, seed, plan)
    plain = Loop(mw, items)
    first_pass = plain.one_pass()
    if first_pass >= TRACE_MIN_PASS_SECONDS:
        passes, warm_up, plain_first, plain_busy = 1, False, 0, first_pass
    else:
        passes, warm_up = math.ceil(TRACE_MIN_PASS_SECONDS / first_pass), True
        plain_first = len(plain.latencies)
        plain_busy = sum(plain.one_pass() for _ in range(passes))

    tracer = Tracer()
    _, mw, items = setup(workload, seed, plan, tracer)
    setup_end = tracer.mark()
    loop = Loop(mw, items)
    if warm_up:
        loop.one_pass()
    first, loop_first = tracer.mark(), len(loop.latencies)
    traced_busy = sum(loop.one_pass() for _ in range(passes))
    tracer.uninstall()
    speed = loop.speed()
    rows = tracer.summary(first)
    setup_rows = tracer.summary(0, setup_end)

    def row(name):
        return rows.get(name, {"calls": 0, "self_ms": 0.0})

    def value_sum(name):
        return sum(v for i, v in tracer.values.items()
                   if i >= first and tracer.names[tracer.name_id[i]] == name)

    emitted = value_sum("moves.enumerate_moves") // passes
    applied = row("moves.apply_move")["calls"] // passes
    visited = (value_sum("search.beam_search")
               + value_sum("search.exhaustive_min")) // passes
    # Memory is traced on the search that visits the most nodes.  Each
    # search item makes one top-level search call, in pass order.
    searches = [i for i in range(first, tracer.mark()) if tracer.parent[i] == -1
                and tracer.names[tracer.name_id[i]].startswith("search.")]
    biggest = None
    if searches:
        k = max(range(len(searches)), key=lambda j: tracer.values[searches[j]])
        biggest = loop.items[k % len(loop.items)]
    buckets = tracer.bucket_ms_per_call(first)

    metrics = {}
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = (row(name)["self_ms"] / passes * speed, "ms")
    for name in CALLS:
        metrics[f"{name}.calls"] = (row(name)["calls"] // passes, "count")
    metrics.update({
        "moves.emitted": (emitted, "count"),
        "moves.applied_per_emitted": (applied / emitted if emitted else 0.0, "ratio"),
        "search.visited": (visited, "count"),
        "search.visited_per_applied": (visited / applied if applied else 0.0, "ratio"),
        "search.tracemalloc_peak_mib": (
            _tracemalloc_peak(mw, biggest) if biggest else 0.0, "MiB"),
    })
    for label in BUCKETS:
        metrics[f"bracket.kauffman_bracket.ms_per_call.{label}"] = (
            buckets.get(label, 0.0) * speed, "ms")
    metrics["catalog.self_ms"] = (
        sum(r["self_ms"] for n, r in setup_rows.items() if n.startswith("catalog."))
        * speed, "ms")
    metrics["trace.overhead_ratio"] = (
        sum(loop.scaled()[loop_first:]) / sum(plain.scaled()[plain_first:]), "ratio")
    loop.attempted += plain.attempted
    loop.errors += plain.errors
    loop.failures += plain.failures
    extra = {"speed": speed, "passes": passes,
             "unscaled_overhead_ratio": traced_busy / plain_busy, "modules": rows}
    return loop, metrics, extra, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "morsewidth", "__init__.py")):
        print(f"perfbench: no morsewidth package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    reference.self_test()

    plan = workloads.WORKLOADS[args.workload][0](random.Random(args.seed))
    tracer = None
    if args.trace:
        loop, metrics, extra, tracer = per_layer(args.workload, args.seed, plan)
    else:
        loop, metrics, extra = end_to_end(args.workload, args.seed, plan,
                                          args.seconds)

    for err in loop.failures[:10]:
        print(f"operation failed: {err}", file=sys.stderr)
    for err in loop.errors[:10]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": not loop.errors,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, **extra), fh, indent=1)
    if tracer is not None:
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv.gz"))
    for k, (v, u) in metrics.items():
        print(f"{args.workload:8} {k:48} {v:14{'d' if isinstance(v, int) else '.4f'}} {u}")
    print(f"{args.workload:8} attempted {loop.attempted}, failed {len(loop.failures)}, "
          f"speed scale {extra['speed']:.4f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
