"""The measurement loop: one pass of operations, repeated while another fits.

Each run plans a fixed pass of operations generated from the seed, one at a
time on one thread (a closed loop: the next operation starts when the previous
one returns). Whole passes repeat while the next one is expected to fit in the
run's seconds, so every timing covers the same instances; the first pass
always runs in full. Repeats must reproduce the first pass's plans exactly.
"""
from __future__ import annotations

import os
import resource
import statistics
import sys
from dataclasses import dataclass, field, replace

import numpy
import scipy

import hostspeed
import stats
import workloads
from spans import Tracer, layer_metrics
from workloads import PLAN_METHODS, OpResult, run_op


@dataclass
class Run:
    results: list[OpResult] = field(default_factory=list)  # every op attempted
    timed: list[OpResult] = field(default_factory=list)    # ops that count for timing
    first_pass: list[OpResult] = field(default_factory=list)
    passes: int = 0
    speed: float = 1.0  # host speed while the timed ops ran (hostspeed)
    overhead_s: float | None = None
    tracer: Tracer | None = None

    @property
    def failures(self) -> list[OpResult]:
        return [r for r in self.results if r.error is not None]


def warm_up() -> None:
    """Fill lazy imports and caches with one small untimed op per method."""
    for op in workloads.PaperSweep(cells=(("A", 0),), blocks=1).make_pass(0):
        run_op(op)


def op_seconds(run: Run) -> list[float]:
    """Each timed operation's seconds at the reference host speed."""
    return [r.seconds * run.speed for r in run.timed]


def measure(ops: list, seconds: float) -> Run:
    """Untraced run: nothing is wrapped, the library is called directly.

    The host's speed is sampled throughout.
    """
    warm_up()
    run = Run()
    with hostspeed.Sampler() as sampler:
        run.first_pass = [run_op(op) for op in ops]
        run.results += run.first_pass
        run.timed += run.first_pass
        run.passes = 1
        busy = sum(r.seconds for r in run.first_pass)
        while busy + busy / run.passes <= seconds:
            again = [_replay(run_op(op), first) for op, first in zip(ops, run.first_pass)]
            run.results += again
            run.timed += again
            run.passes += 1
            busy += sum(r.seconds for r in again)
    run.speed = sampler.speed()
    return run


def measure_traced(workload, ops: list) -> Run:
    """Traced run: one pass under the tracer, after an untraced first block.

    The tracing overhead is the traced wall time of the first block minus its
    untraced wall time.
    """
    warm_up()
    block = ops[: len(ops) // workload.blocks]
    run = Run(passes=1)
    reference = [run_op(op) for op in block]
    with Tracer() as tracer:
        for i, op in enumerate(ops):
            tracer.op = i
            run.first_pass.append(run_op(op))
    run.tracer = tracer
    run.results = reference + run.first_pass
    run.timed = run.first_pass
    run.overhead_s = (sum(r.seconds for r in run.first_pass[: len(block)])
                      - sum(r.seconds for r in reference))
    return run


def _replay(again: OpResult, first: OpResult) -> OpResult:
    """A repeated operation must plan what the first pass planned."""
    if again.error is None and first.error is None and (
            (again.uav_count, again.satisfied) != (first.uav_count, first.satisfied)):
        return replace(again, error=(
            f"repeat differs: {again.uav_count} UAVs, satisfied {again.satisfied} "
            f"vs {first.uav_count}, {first.satisfied}"))
    return again


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run, setup_s: float) -> dict[str, tuple[float, str]]:
    """The metrics of an untraced run, as name -> (value, unit).

    Times are at reference host speed; ``setup_s`` is wall-clock seconds and
    is rescaled by the speed sampled during the run.
    """
    times = op_seconds(run)
    planned = [r for r in run.first_pass if r.error is None]
    return {
        "plans_per_s": (len(times) / sum(times), "1/s"),
        "plan_s_p50": (statistics.median(times), "s"),
        "uav_count": (sum(r.uav_count for r in planned if r.method in PLAN_METHODS), "count"),
        "satisfied_ratio": (
            statistics.fmean(r.satisfied for r in planned) if planned else 0.0, "ratio"),
        "setup_s": (setup_s * run.speed, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def traced_metrics(run: Run) -> dict[str, tuple[float, str]]:
    """The metrics of a traced run, as name -> (value, unit)."""
    layers = layer_metrics(run.tracer.spans)
    layers["trace.overhead_s"] = (run.overhead_s, "s")
    return layers


def report_lines(run: Run, metrics: dict) -> list[str]:
    """Every metric by name with its unit, plus p95 and the failed share."""
    lines = [f"{name:<32} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    times = op_seconds(run)
    p95 = stats.tail_percentile(times, 95)
    if p95 is None:
        lines.append(f"{'plan_s_p95':<32} n/a s (n={len(times)}, needs "
                     f"{stats.MIN_TAIL_SAMPLES} samples above p95)")
    else:
        lines.append(f"{'plan_s_p95':<32} {p95[0]:.6g} s (n={len(times)}, {p95[1]} above)")
    failed = len(run.failures)
    lines.append(f"{'failed_ratio':<32} {failed / len(run.results):.6g} ratio "
                 f"({failed}/{len(run.results)})")
    if run.tracer is not None:
        lines.append(f"{'trace.spans':<32} {len(run.tracer.spans)} count")
    else:
        raw = [r.seconds for r in run.timed]
        lines.append(f"# host speed {run.speed:.4f}; "
                     f"wall-clock plans_per_s {len(raw) / sum(raw):.6g}, "
                     f"plan_s_p50 {statistics.median(raw):.6g} s")
    return lines


def environment(seed: int) -> str:
    threads = os.environ.get("OMP_NUM_THREADS")
    return (f"nproc={len(os.sched_getaffinity(0))} python={sys.version.split()[0]} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"blas_threads={threads} seed={seed}")
