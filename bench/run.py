"""Benchmark runner: one workload, one process, a closed loop with one
caller and no think time.

    python3 bench/run.py --workload check --seed 1 --seconds 20 --trace 0

Run from the repository root. With `--trace 0` it sets up the
workload's inputs several times (reporting the median as `setup_s`)
and runs one warm-up round. Then it repeats whole rounds of operations
until `--seconds` have passed and reports the end-to-end metrics, in
times scaled to a reference speed (`speed.py`). With `--trace 1` it
times one round untraced, then runs the same round twice
with spans installed on the program's public functions, checks that
both traced rounds counted exactly the same work, writes the spans under
`bench/out/`, and reports the per-layer metrics. Every verdict is
checked in both modes. The last line of standard output is one JSON
object: `{"correct", "attempted", "failed", "metrics"}`; metric names
and units are those in `BENCHMARK.json`.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 11


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def cold_start() -> None:
    """Start an interpreter that imports the checker, as `rq` does."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", "import rqcheck.cli"], cwd=ROOT,
                   env=env, check=True)


class Histogram:
    """Latencies in log-spaced bins 0.1% wide, so quantiles of millions
    of samples need no stored samples."""

    STEP = math.log1p(0.001)

    def __init__(self):
        self.bins: Counter = Counter()
        self.count = 0
        self.total = 0.0

    def add(self, ns: float):
        self.bins[int(math.log(max(ns, 1.0)) / self.STEP)] += 1
        self.count += 1
        self.total += ns

    def quantile(self, q: float) -> float:
        """Value at rank q * (count - 1), the samples of a bin taken as
        evenly spread across it."""
        rank = q * (self.count - 1)
        seen = 0
        for b in sorted(self.bins):
            n = self.bins[b]
            if seen + n > rank:
                return math.exp((b + (rank - seen + 0.5) / n) * self.STEP)
            seen += n
        raise ValueError("empty histogram")


def loglog_slope(points: Dict[int, float]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(x) for x in points]
    ys = [math.log(y) for y in points.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


class Tally:
    """Verdicts, failures, work and latencies of a set of rounds.

    `lat` holds raw latencies (ns) not yet folded into `hist`. With a
    gauge, each interval's latencies are scaled to the reference speed
    and folded in as the interval closes; `sizes` collects the scaled
    time of each ladder operation."""

    def __init__(self, gauge: Optional[speed.Gauge] = None):
        self.lat = array("q")
        self.gauge = gauge
        self.hist = Histogram()
        self.raw_ns = 0
        self.sizes: Dict[int, List[float]] = defaultdict(list)
        self._ladder: List[Tuple[int, int, int]] = []  # (size, first, end)
        self.extra: Counter = Counter()
        self.attempted = self.failed = self.work = 0

    def round(self, ops, enter=None):
        for op in ops:
            # each verdict starts from a collected heap, as in a fresh `rq`
            gc.collect()
            before = len(self.lat)
            attempted, failed, work = op.run(self.lat, self.extra, enter)
            self.attempted += attempted
            self.failed += failed
            self.work += work
            if op.ladder is not None:
                self._ladder.append((op.ladder, before, len(self.lat)))
            if self.gauge is not None and self.gauge.due():
                self.close_interval()

    def close_interval(self):
        factor = self.gauge.factor()
        for ns in self.lat:
            self.hist.add(ns * factor)
        for size, first, end in self._ladder:
            self.sizes[size].append(factor * sum(self.lat[first:end]))
        self.raw_ns += sum(self.lat)
        del self.lat[:]
        self._ladder.clear()


def measure(ops, seconds: float) -> Tuple[Tally, int]:
    tally = Tally(speed.Gauge())
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        tally.round(ops)
        rounds += 1
    tally.close_interval()
    return tally, rounds


def end_to_end(tally: Tally, setup_s: float) -> Dict[str, float]:
    hist = tally.hist
    busy_s = hist.total / 1e9
    return {
        "setup_s": setup_s,
        "ops_per_s": hist.count / busy_s,
        "latency_p50_ms": hist.quantile(0.5) / 1e6,
        "latency_p90_ms": hist.quantile(0.9) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work_per_s": tally.work / busy_s,
        "scaling_exponent": loglog_slope(
            {size: statistics.median(v) for size, v in tally.sizes.items()}),
    }


def traced(ops, workload: str, seed: int, out: Path = BENCH / "out"
           ) -> Tuple[Tally, Dict[str, float], List[str]]:
    """One untraced round, then two traced rounds of the same ops; the
    spans of the first go to `out`."""
    import tracing

    errors: List[str] = []
    span_cost = tracing.Tracer.span_cost_ns()
    reference = Tally()
    untraced_wall, _, _ = speed.timed(lambda: reference.round(ops))

    passes = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tally = Tally()
        tracer.install(tracing.observers())
        try:
            wall, _, _ = speed.timed(lambda: tally.round(
                ops, enter=lambda fn: tracer.wrap(tracing.ROOT, fn)))
        finally:
            tracer.uninstall()
        passes.append((tracer, tally, wall))

    (tracer, tally, wall), (tracer_b, tally_b, _) = passes
    agg, agg_b = tracer.aggregate(span_cost), tracer_b.aggregate(span_cost)
    counts = tracing.exact_counts(agg, tracer.counts, tally.extra)
    counts_b = tracing.exact_counts(agg_b, tracer_b.counts, tally_b.extra)
    for key in sorted(set(counts) | set(counts_b)):
        if counts.get(key) != counts_b.get(key):
            errors.append(f"count {key} differs between traced rounds: "
                          f"{counts.get(key)} != {counts_b.get(key)}")

    metrics = tracing.layer_metrics(agg, tracer.counts, tally.extra)
    metrics["trace.overhead"] = wall / untraced_wall
    metrics["trace.spans"] = len(tracer.name_of)
    metrics["trace.span_cost_ns"] = span_cost

    out.mkdir(exist_ok=True)
    stem = out / f"{workload}-seed{seed}"
    tracer.write(f"{stem}.spans")
    stem.with_suffix(".json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "spans": agg, "counts": counts,
         "untraced_wall_s": untraced_wall, "traced_wall_s": wall,
         "span_cost_ns": span_cost,
         "metrics": metrics}, indent=1, sort_keys=True))

    combined = Tally()
    for t in (reference, tally, tally_b):
        combined.attempted += t.attempted
        combined.failed += t.failed
        combined.extra.update(t.extra)
    return combined, metrics, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    for needed in ("BENCHMARK.json", "src/rqcheck/__init__.py",
                   "src/rqcheck/corpus/manifest.json", "tests/oracle.py",
                   "tests/helpers.py"):
        if not (ROOT / needed).is_file():
            return _fail(f"{needed} not found under {ROOT}; run from a "
                         f"checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    def setup():
        cold_start()
        return workloads.build(args.workload, ROOT, args.seed)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        ops = None  # the previous set-up's inputs must not add to the peak
        gc.collect()
        seconds, _, ops = speed.timed(setup)
        setup_times.append(seconds)
    setup_s = statistics.median(setup_times)

    warmup = Tally()
    warmup.round(ops)
    # the inputs and answers live for the whole run: keep them out of
    # the collections the measured work triggers
    gc.collect()
    gc.freeze()
    errors: List[str] = []
    if args.trace:
        tally, metrics, errors = traced(ops, args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        tally, rounds = measure(ops, args.seconds)
        metrics = end_to_end(tally, setup_s)
        wanted = spec["end_to_end"]
        print(f"{args.workload}: {rounds} rounds of {len(ops)} ops, "
              f"{tally.hist.count} timed verdicts, mean speed scale "
              f"{tally.hist.total / tally.raw_ns:.3f}", file=sys.stderr)
    tally.attempted += warmup.attempted
    tally.failed += warmup.failed
    tally.extra.update(warmup.extra)

    for message, count in sorted(tally.extra.items()):
        if not message.startswith("oracle."):
            print(f"bench: {count} x {message}", file=sys.stderr)
    if "oracle.gaps" in tally.extra:
        print(f"bench: oracle sweep: {tally.extra['oracle.unsound']} unsound, "
              f"{tally.extra['oracle.gaps']} completeness gaps", file=sys.stderr)
    for message in errors:
        print(f"bench: error: {message}", file=sys.stderr)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return _fail(f"metrics not computed: {missing}")
    result = {
        "correct": tally.failed == 0 and not errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
