"""Tests of the benchmark itself: the generated families' answers, the
workload inputs, the tracer and the runner's failure mode. Run with
`PYTHONPATH=src python -m pytest -q bench`."""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src", ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import families  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from rqcheck import cli, machine, qualifiers, surface, syntax, typecheck  # noqa: E402


@pytest.mark.parametrize("family", sorted(families.FAMILIES))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_family_answers_match_the_checker(family, n):
    p = families.FAMILIES[family](n, "qzz")
    assert surface.pretty(cli.check_source(p.text).qtype) == p.qtype

    term = surface.elaborate(surface.parse(p.text))
    typecheck.check_program(syntax.TypeEnv(), syntax.StoreTyping(), term)
    result = machine.eval_term(term)
    assert result.status == "value"
    assert surface.pretty(result.term) == p.value
    assert len(result.store) == p.store_size
    assert result.steps == p.steps
    events = Counter(e.rule for e in result.events)
    assert {r: events[r] for r in families.EVENT_RULES} == p.events

    report = machine.check_preservation(term, syntax.StoreTyping())
    assert report.ok and report.status == "value"
    assert len(report.steps) == p.steps


def test_prefix_renames_without_changing_shape():
    a, b = families.pair_tower(3, "qab"), families.pair_tower(3, "qcd")
    assert a.text != b.text
    assert a.text.replace("qab", "qcd") == b.text
    assert (a.steps, a.events, a.value) == (b.steps, b.events, b.value)


@pytest.mark.parametrize("workload", ["check", "eval", "verify"])
def test_inputs_follow_the_seed(workload):
    def texts(seed):
        return [p.text for p in workloads._programs(workload, random.Random(seed))]

    assert texts(3) == texts(3)
    assert texts(3) != texts(4)
    labels = [op.label for op in workloads.build(workload, ROOT, 3)]
    assert labels == [op.label for op in workloads.build(workload, ROOT, 4)]
    assert len(labels) % 10 == 5


@pytest.mark.parametrize("workload", ["check", "eval", "verify"])
def test_every_verdict_is_correct_on_one_round(workload):
    tally = run.Tally()
    tally.round(workloads.build(workload, ROOT, 1))
    assert tally.failed == 0, tally.extra
    assert tally.attempted == len(tally.lat) > 0
    assert tally.work > 0


def test_qual_sweep_matches_the_oracle():
    ops = workloads.build_qual_sweep(ROOT, random.Random(0), telescopes=2)
    tally = run.Tally()
    tally.round(ops)
    assert tally.failed == 0 and tally.extra["oracle.unsound"] == 0
    sizes = sorted({op.ladder for op in ops})
    assert sizes == [16, 64, 256, 1024]
    assert tally.attempted == sum(op.ladder for op in ops)


def test_a_wrong_answer_is_a_failure_and_a_crash_does_not_abort():
    def boom():
        raise RecursionError("deep")

    ops = [workloads.Single("wrong", lambda: 1, lambda got: (got == 2, 0)),
           workloads.Single("crash", boom, lambda got: (True, 0)),
           workloads.Single("bad shape", lambda: 2, lambda got: (got.events, 0)),
           workloads.Single("right", lambda: 2, lambda got: (got == 2, 5))]
    tally = run.Tally()
    tally.round(ops)
    assert (tally.attempted, tally.failed, tally.work) == (4, 3, 5)
    assert len(tally.lat) == 4


def test_a_crash_in_the_qualifier_core_fails_one_query(monkeypatch):
    [op] = workloads.build_qual_sweep(ROOT, random.Random(0), telescopes=1)[-1:]
    real = qualifiers.qual_sub
    calls = []

    def flaky(*args):
        calls.append(1)
        if len(calls) == 3:
            raise RecursionError("deep")
        return real(*args)

    monkeypatch.setattr(qualifiers, "qual_sub", flaky)
    tally = run.Tally()
    tally.round([op])
    n = len(op.pairs)
    assert len(calls) == tally.attempted == len(tally.lat) == n
    assert tally.failed == 1 and tally.work == n - 1
    assert tally.extra["oracle.unsound"] == 0
    assert tally.extra[f"exception RecursionError in {op.label}"] == 1


def test_tracer_sees_cross_module_bindings_and_restores_them():
    originals = (typecheck.qual_sub, machine.qual_sub, machine.step,
                 syntax.TypeEnv.__dict__["dom"])
    tracer = tracing.Tracer()
    tracer.install(tracing.observers())
    try:
        assert typecheck.qual_sub is machine.qual_sub is qualifiers.qual_sub
        assert typecheck.qual_sub is not originals[0]
        text = families.assign_ring(3, "qab").text
        tracer.wrap(tracing.ROOT, workloads.eval_result)(text, 1000)
    finally:
        tracer.uninstall()
    assert (typecheck.qual_sub, machine.qual_sub, machine.step,
            syntax.TypeEnv.__dict__["dom"]) == originals

    agg = tracer.aggregate()
    assert agg["machine.step"]["calls"] >= tracer.counts["machine.steps"] == 16
    assert tracer.counts["machine.events.assign"] == 3
    assert agg["qualifiers.qual_sub"]["calls"] > 0
    total = agg[tracing.ROOT]["s"]
    assert sum(s["self_s"] for s in agg.values()) == pytest.approx(total, rel=1e-9)
    metrics = tracing.layer_metrics(agg, tracer.counts, Counter())
    assert metrics["machine.steps"] == 16
    assert 0 <= metrics["trace.unattributed_share"] < 1


def test_traced_round_repeats_its_counts(tmp_path):
    ops = workloads.build("verify", ROOT, 2)[:10]
    tally, metrics, errors = run.traced(ops, "verify", 2, tmp_path)
    assert errors == [] and tally.failed == 0
    assert metrics["trace.overhead"] > 0
    assert (tmp_path / "verify-seed2.spans").stat().st_size > 0


def test_histogram_quantiles_and_slope():
    hist = run.Histogram()
    for ns in range(1000, 101000, 1000):
        hist.add(ns)
    assert hist.count == 100 and hist.total == sum(range(1000, 101000, 1000))
    # ranks 49.5 and 89.1 lie between the 50th/51st and 90th/91st samples
    assert 50000 <= hist.quantile(0.5) <= 51000
    assert 90000 <= hist.quantile(0.9) <= 91000
    for ns in [70000] * 1000:
        hist.add(ns)
    assert hist.quantile(0.5) == pytest.approx(70000, rel=1e-3)
    assert run.loglog_slope({1: 3.0, 2: 12.0, 4: 48.0}) == pytest.approx(2.0)


def test_times_are_scaled_per_interval():
    class Gauge:
        def due(self):
            return True

        def factor(self):
            return 0.5

    tally = run.Tally(Gauge())
    tally.round([workloads.Single("op", lambda: 1, lambda got: (True, 1),
                                  ladder=7)])
    assert len(tally.lat) == 0 and tally.hist.count == 1
    assert tally.hist.total == pytest.approx(tally.raw_ns * 0.5)
    assert tally.sizes[7] == [pytest.approx(tally.raw_ns * 0.5)]


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
