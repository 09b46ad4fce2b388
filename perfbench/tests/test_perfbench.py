"""Tests of the benchmark itself: span arithmetic, percentiles, tracer, gate, workloads."""
from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_seconds  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# The same generators at a size that plans in well under a second.
TINY = {
    "paper-sweep": replace(workloads.WORKLOADS["paper-sweep"], cells=(("A", 0), ("B", 4)),
                           blocks=2),
    "n100-1km": replace(workloads.WORKLOADS["n100-1km"], n_users=8),
    "n200-2km": replace(workloads.WORKLOADS["n200-2km"], n_users=8),
}


def test_every_benchmark_workload_is_defined():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.WORKLOADS)


def test_self_time_subtracts_direct_children_only():
    s = [
        Span("planner.plan_deployment", 0, 100, None, 0),
        Span("coverage.enumerate_zones", 10, 40, 0, 0),
        Span("coverage.zone_witness", 15, 25, 1, 0),
        Span("positioning.optimize_position", 50, 90, 0, 0),
    ]
    assert self_seconds(s) == pytest.approx([30e-9, 20e-9, 10e-9, 40e-9])


def test_layer_metrics_from_synthetic_spans():
    s = [
        Span("planner.plan_deployment", 0, 1000, None, 0, 5),
        Span("coverage.enumerate_zones", 0, 300, 0, 0, 22),
        Span("coverage.zone_witness", 100, 200, 1, 0),
        Span("coverage.minimal_zone_cover", 300, 400, 0, 0, (3, 22)),
        Span("positioning.optimize_position", 400, 800, 0, 0, (40, True)),
        Span("channel.gain_kernel", 500, 600, 4, 0, 30),
        Span("planner.split_zone", 800, 900, 0, 0),
        Span("positioning.optimize_position", 900, 950, 0, 0, (7, False)),
    ]
    m = {k: v for k, (v, _) in layer_metrics(s).items()}
    assert m["coverage.zone_count"] == 22
    assert m["coverage.witness_calls"] == 1
    assert m["coverage.cover_size"] == 3
    assert m["coverage.cover_greedy"] == 1
    assert m["positioning.pso_calls"] == 2
    assert m["positioning.pso_iterations"] == 47
    assert m["positioning.pso_feasible_ratio"] == 0.5
    assert m["channel.link_evals"] == 30
    assert m["planner.split_calls"] == 1
    assert m["planner.uav_gap"] == 2
    assert m["planner.self_s"] == pytest.approx((1000 - 300 - 100 - 400 - 100 - 50 + 100) * 1e-9)
    assert m["coverage.self_s"] == pytest.approx((200 + 100 + 100) * 1e-9)
    assert m["positioning.self_s"] == pytest.approx((300 + 50) * 1e-9)


def test_p95_needs_ten_samples_above_it():
    assert stats.tail_percentile(list(range(1, 200)), 95) is None
    assert stats.tail_percentile(list(range(1, 201)), 95) == (190, 10)
    assert stats.nearest_rank([3, 1, 2], 50) == 2


def test_spread_is_interquartile_share_of_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert stats.spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert stats.spread([2.0, 2.0, 2.0, 2.0]) == 0.0


def test_sampler_counts_units_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert sampler.units >= 2 and sampler.speed() > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    sampler.units, sampler.spent = 10, 20 * hostspeed.REFERENCE_UNIT_S
    assert sampler.speed() == pytest.approx(0.5)


def _current():
    return {(m, a): getattr(sys.modules[m], a) for m, a in spans.WRAPPED}


def test_tracer_restores_every_wrapped_name():
    before = _current()
    with Tracer():
        during = _current()
        assert all(during[k] is not before[k] for k in before)
    assert _current() == before
    with pytest.raises(RuntimeError), Tracer():
        raise RuntimeError("boom")
    assert _current() == before


def test_traced_smoke_records_nested_spans_per_op():
    ops = TINY["n100-1km"].make_pass(2)
    run = harness.measure_traced(TINY["n100-1km"], ops)
    assert not run.failures
    names = {s.name for s in run.tracer.spans}
    assert {"planner.plan_deployment", "coverage.enumerate_zones",
            "positioning.optimize_position", "channel.gain_kernel"} <= names
    assert {s.op for s in run.tracer.spans} == set(range(len(ops)))
    roots = [s for s in run.tracer.spans if s.parent is None]
    assert all(run.tracer.spans[s.parent].start_ns <= s.start_ns
               for s in run.tracer.spans if s.parent is not None)
    assert {s.name for s in roots} <= {"planner.plan_deployment", "planner.validate_deployment",
                                       "scenario.run_baseline", "scenario.evaluate_throughput"}


@pytest.mark.parametrize("name", list(TINY))
def test_smoke_run_of_each_workload(name, monkeypatch):
    def refuse(self):
        raise AssertionError("the untraced run must install no wrappers")

    ops = TINY[name].make_pass(3)
    with monkeypatch.context() as m:
        m.setattr(Tracer, "__enter__", refuse)
        run = harness.measure(ops, 0.01)
    assert not run.failures and run.passes == 1 and len(run.results) == len(ops)
    e2e = harness.end_to_end(run, setup_s=0.5)
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v > 0 for v, _ in e2e.values())
    assert [u for _, u in e2e.values()] == [m["unit"] for m in SPEC["end_to_end"]]

    traced = harness.measure_traced(TINY[name], ops)
    assert not traced.failures
    layers = harness.traced_metrics(traced)
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    assert [u for _, u in layers.values()] == [m["unit"] for m in SPEC["per_layer"]]


EXACT_COUNTS = ("coverage.zone_count", "coverage.cover_size", "coverage.witness_calls",
                "positioning.pso_calls", "planner.split_calls", "channel.link_evals")


def test_counts_repeat_exactly_at_a_fixed_seed():
    w = TINY["paper-sweep"]
    runs = [harness.measure_traced(w, w.make_pass(5)) for _ in range(2)]
    counts = [{k: harness.traced_metrics(r)[k][0] for k in EXACT_COUNTS} for r in runs]
    assert counts[0] == counts[1]
    uavs = [harness.end_to_end(r, 0.5)["uav_count"][0] for r in runs]
    assert uavs[0] == uavs[1]


def test_same_seed_same_inputs():
    for w in TINY.values():
        a, b = w.make_pass(4), w.make_pass(4)
        assert [(op.method, op.scenario) for op in a] == [(op.method, op.scenario) for op in b]


def test_every_seed_plans_the_same_instances():
    for w in TINY.values():
        passes = [w.make_pass(seed) for seed in range(1, 6)]
        assert len({tuple(op.label for op in ops) for ops in passes}) > 1  # seeds reorder
        by_label = [sorted(ops, key=lambda op: op.label) for ops in passes]
        assert all(ops == by_label[0] for ops in by_label)


def test_gate_fails_a_plan_the_validator_rejects(monkeypatch):
    from uavplan.planner import ConstraintCheck, ValidationReport

    def reject(deployment, scenario, params):
        return ValidationReport(checks=(ConstraintCheck("demand_rate", 0.5, False),))

    monkeypatch.setattr(workloads.planner, "validate_deployment", reject)
    ops = TINY["paper-sweep"].make_pass(1)
    ops = [next(op for op in ops if op.method == m) for m in workloads.METHODS]
    results = [workloads.run_op(op) for op in ops]
    assert [r.error is not None for r in results] == [True, True, False]  # fixed-n may violate
    assert "demand_rate" in results[0].error


def test_repeat_that_differs_is_a_failure():
    first = workloads.OpResult("op", "planner", 1.0, uav_count=3, satisfied=1.0)
    again = workloads.OpResult("op", "planner", 1.2, uav_count=4, satisfied=1.0)
    assert harness._replay(first, first).error is None
    assert "repeat differs" in harness._replay(again, first).error


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "paper-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
