"""Re-measure the ROADMAP's first baselines, one point each.

    python3 bench/baselines.py [--out bench/out/baselines.json]

Run from the repository root. Prints one JSON object with the machine
it ran on and, for each baseline, the figure the ROADMAP quotes beside
the figure measured here:

- `rq eval` of assign_ring at n=100 and n=400 (parse, check, evaluate);
- `check_preservation` of assign_ring at n=100, once untraced and once
  traced, with the self time of the layers that dominate it;
- steps per second of the divergent corpus program;
- microseconds per `qual_sub` query over seeded 4-entry telescopes.

These are single points, slow to take (about a minute), and not part of
the benchmark's timed runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def machine_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            model = next((line.split(":", 1)[1].strip() for line in cpuinfo
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "platform": platform.platform()}


def best_and_median(fn, repeats: int) -> dict:
    """Wall seconds, and seconds at the benchmark's reference speed."""
    import speed

    scaled, times = zip(*(speed.timed(fn)[:2] for _ in range(repeats)))
    return {"median_s": statistics.median(times), "min_s": min(times),
            "scaled_median_s": statistics.median(scaled), "repeats": repeats}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(BENCH / "out" / "baselines.json"))
    args = parser.parse_args(argv)
    sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]
    import run
    import speed
    import tracing
    import workloads
    from families import assign_ring
    from rqcheck import machine

    result = {"machine": machine_info(), "baselines": {}}
    out = result["baselines"]

    for n, quoted in ((100, 0.12), (400, 1.8)):
        text = assign_ring(n).text
        term = workloads.load_checked(text)
        out[f"assign_ring_eval_n{n}"] = {
            "roadmap_s": quoted,
            "rq_eval": best_and_median(
                lambda: workloads.eval_result(text, machine.DEFAULT_EVAL_FUEL), 3),
            "eval_term_only": best_and_median(lambda: machine.eval_term(term), 3),
        }

    text = assign_ring(100).text
    untraced = best_and_median(
        lambda: workloads.preservation_report(text, machine.DEFAULT_EVAL_FUEL), 1)
    tracer = tracing.Tracer()
    tracer.install(tracing.observers())
    try:
        t0 = time.perf_counter()
        report = tracer.wrap(tracing.ROOT, workloads.preservation_report)(
            text, machine.DEFAULT_EVAL_FUEL)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    agg = tracer.aggregate(tracing.Tracer.span_cost_ns())
    layers = tracing.layer_metrics(agg, tracer.counts, Counter())
    out["preservation_assign_ring_n100"] = {
        "roadmap_s": [6, 8],
        "untraced": untraced,
        "traced_s": traced_s,
        "ok": report.ok,
        "steps": len(report.steps),
        "self_share": {
            name: agg[name]["self_s"] / agg[tracing.ROOT]["s"]
            for name in ("syntax.StoreTyping.dom", "syntax.TypeEnv.dom",
                         "qualifiers.qual_sub", "typecheck.check_program",
                         "typecheck.synthesize", "machine.step",
                         "machine.check_preservation") if name in agg},
        "module_self_s": {m: layers[f"{m}.self_s"] for m in tracing.MODULES},
    }

    diverge = next(e for e in workloads.corpus(ROOT) if e["name"] == "eval-diverge")
    fuel = machine.DEFAULT_EVAL_FUEL
    timing = best_and_median(lambda: workloads.eval_result(diverge["text"], fuel), 3)
    out["diverge_steps_per_s"] = {
        "roadmap": 60_000, "fuel": fuel,
        "median": fuel / timing["median_s"], "best": fuel / timing["min_s"],
        "scaled": fuel / timing["scaled_median_s"]}

    ops = workloads.build_qual_sweep(ROOT, random.Random(0), telescopes=64)
    sweep = [op for op in ops if op.ladder == 1024]
    tally = run.Tally(speed.Gauge())
    tally.round(sweep)
    tally.close_interval()
    out["qual_sub_us_per_query"] = {
        "roadmap": 6, "telescopes": len(sweep), "queries": tally.hist.count,
        "mean": tally.raw_ns / tally.hist.count / 1e3,
        "scaled_mean": tally.hist.total / tally.hist.count / 1e3,
        "scaled_median": tally.hist.quantile(0.5) / 1e3,
        "unsound": tally.extra["oracle.unsound"], "gaps": tally.extra["oracle.gaps"]}

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
