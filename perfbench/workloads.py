"""Benchmark workloads: seeded instance generation, one planning operation, and its gate.

A workload is a fixed *pass*: a list of operations, each a method applied to
one generated ``Scenario``. Every run plans the same instance set, generated
from ``INSTANCE_SEED``, so the spread of a metric between runs is the
machine's and not the instances'; ``--seed`` draws the order in which the
pass is planned. The planner sees only the scenario. An operation does what
``uavplan plan`` does minus file I/O: plan (``plan_deployment`` or
``run_baseline``), ``validate_deployment``, then ``evaluate_throughput``.
Every library call is looked up on its module at call time, so the wrappers
the traced run installs are the ones called.
"""
from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_uavplan():
    """Import the package from the checkout's own ``src``, never from elsewhere."""
    if not (SRC / "uavplan" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no uavplan sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import uavplan

    if Path(uavplan.__file__).resolve().parent != SRC / "uavplan":
        raise SystemExit(f"perfbench: imported uavplan from {uavplan.__file__}, not from {SRC}")


load_uavplan()

from uavplan import channel, planner, scenario  # noqa: E402  (needs the path set above)
from uavplan.geometry import FeasibleBox, Point3  # noqa: E402

METHODS = ("planner", "fixed-altitude", "fixed-n")
PLAN_METHODS = ("planner", "fixed-altitude")  # the methods that run plan_deployment
BASELINES = {
    "fixed-altitude": scenario.BaselineKind.FIXED_ALTITUDE,
    "fixed-n": scenario.BaselineKind.FIXED_GROUP_SIZE,
}
PAPER_CELLS = tuple(
    (kind, i) for kind, count in (("A", 6), ("B", 5), ("C", 5)) for i in range(count)
)
PARAMS = channel.ChannelParams()
INSTANCE_SEED = 0  # seeds the fixed instance set of every workload


def block_seed(seed: int, block: int) -> int:
    """Scenario seed of one block of the instance set."""
    return int(np.random.SeedSequence([seed, block]).generate_state(1)[0])


def in_seed_order(ops: list, seed: int) -> list:
    """The pass in the order the run seed draws: the same seed, the same order."""
    return [ops[i] for i in np.random.default_rng(seed).permutation(len(ops))]


@dataclass(frozen=True)
class Op:
    label: str
    method: str
    scenario: object  # uavplan.Scenario


@dataclass(frozen=True)
class PaperSweep:
    """Every published cell under every method, ``blocks`` scenario seeds deep."""

    cells: tuple = PAPER_CELLS
    blocks: int = 9

    def make_pass(self, seed: int) -> list[Op]:
        ops = []
        for b in range(self.blocks):
            s = block_seed(INSTANCE_SEED, b)
            for kind, variant in self.cells:
                scn = scenario.generate_scenario(kind, variant, s)
                ops.extend(Op(f"{scn.label}@{s}/{m}", m, scn) for m in METHODS)
        return in_seed_order(ops, seed)


@dataclass(frozen=True)
class UniformVenue:
    """Planner runs on ``blocks`` square venues of uniformly drawn users.

    Venue ``b`` draws its users from ``block_seed(INSTANCE_SEED, b)``, which
    is also its scenario seed and so seeds PSO.
    """

    n_users: int
    side_m: float
    demand_bps: float
    blocks: int
    altitude_m: tuple = (10.0, 100.0)

    def make_pass(self, seed: int) -> list[Op]:
        ops = []
        for b in range(self.blocks):
            s = block_seed(INSTANCE_SEED, b)
            xy = np.random.default_rng(s).uniform(0.0, self.side_m, (self.n_users, 2))
            ues = tuple(
                scenario.UE(position=Point3(float(x), float(y), 0.0), demand_bps=self.demand_bps)
                for x, y in xy
            )
            venue = FeasibleBox(x=(0.0, self.side_m), y=(0.0, self.side_m), z=self.altitude_m)
            label = f"U{self.n_users}-{self.side_m:g}m#{b}"
            scn = scenario.Scenario(label=label, seed=s, venue=venue, ues=ues)
            ops.append(Op(f"{label}@{s}/planner", "planner", scn))
        return in_seed_order(ops, seed)


# Pass sizes are chosen so that one pass fits in a 30 s run on a 2-core box.
WORKLOADS = {
    "paper-sweep": PaperSweep(),
    "n100-1km": UniformVenue(n_users=100, side_m=1000.0, demand_bps=6.5e6, blocks=2),
    "n200-2km": UniformVenue(n_users=200, side_m=2000.0, demand_bps=26e6, blocks=3),
}


@dataclass(frozen=True)
class OpResult:
    label: str
    method: str
    seconds: float
    uav_count: int | None = None
    satisfied: float | None = None
    error: str | None = None


def run_op(op: Op) -> OpResult:
    """One timed operation, then its correctness gate (outside the timer)."""
    scn = op.scenario
    start = time.perf_counter()
    try:
        if op.method == "planner":
            dep = planner.plan_deployment(scn, PARAMS)
        else:
            dep = scenario.run_baseline(BASELINES[op.method], scn, PARAMS)
        report = planner.validate_deployment(dep, scn, PARAMS)
        _, delivered = scenario.evaluate_throughput(dep, scn, PARAMS)
        satisfied = scenario.demand_satisfaction_ratio(delivered, scn)
    except Exception as exc:  # an op that raises is a counted failure, not a crash
        seconds = time.perf_counter() - start
        return OpResult(op.label, op.method, seconds, error=f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    return OpResult(
        op.label, op.method, seconds, dep.uav_count, satisfied,
        error=gate(op, dep.uav_count, report, satisfied),
    )


def gate(op: Op, uav_count: int, report, satisfied: float) -> str | None:
    """Why an operation's output is wrong, or None when it is right."""
    if op.method in PLAN_METHODS and not report.passed:
        failing = [f"{c.name}={c.residual:.3g}" for c in report.checks if not c.passed]
        return "plan fails validate_deployment: " + ", ".join(failing)
    if op.method == "planner" and satisfied != 1.0:
        return f"planner satisfies only {satisfied:.4f} of demands"
    if op.method == "fixed-n":
        expected = math.ceil(len(op.scenario.ues) / scenario.FIXED_BASELINE_GROUP_SIZE)
        if uav_count != expected:
            return f"fixed-n baseline placed {uav_count} UAVs, expected {expected}"
    return None
