"""Scenario generation, comparison baselines, and the experiment harness.

Three published scenario families are reproducible here: fixed venue with
rising per-user demand (A), fixed demand with growing venue (B), and fixed
venue/demand with growing user count (C). Two baseline planners are
provided for comparison: one pinning all UAVs to a fixed altitude, the
other forcing a fixed number of users per UAV via proximity clustering.
Throughput is evaluated analytically from the channel model, with
proportional bandwidth rescaling when a baseline oversubscribes a UAV.
"""
from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from . import channel
from .geometry import FeasibleBox, Point3
from .planner import Deployment, _assemble, plan_deployment
from .positioning import (
    SwarmConfig,
    optimize_position,  # not called here: perfbench/spans.py wraps it on this module
    optimize_positions,
)
from .coverage import CandidateZone, UnservableError
from .planner import CapacityDeadlockError

if TYPE_CHECKING:  # pragma: no cover
    from .channel import ChannelParams


class ConfigError(ValueError):
    """Invalid scenario or run configuration."""


#: 802.11ac single-stream data rates (bit/s) for MCS indices 0..5 at 20 MHz.
MCS_RATES_BPS: tuple[float, ...] = (6.5e6, 13e6, 19.5e6, 26e6, 39e6, 52e6)

#: Default UAV altitude band for generated scenarios (m).
DEFAULT_UAV_ALTITUDE_M: tuple[float, float] = (10.0, 100.0)

#: Venue side lengths (m) for the growing-venue family.
VENUE_SIDES_M: tuple[float, ...] = (100.0, 200.0, 300.0, 400.0, 500.0)

#: UE counts for the growing-population family.
UE_COUNTS: tuple[int, ...] = (20, 30, 40, 50, 60)

FIXED_BASELINE_ALTITUDE_M = 20.0
FIXED_BASELINE_GROUP_SIZE = 10


@dataclass(frozen=True)
class UE:
    position: Point3
    demand_bps: float
    bandwidth_hz: float | None = None


@dataclass(frozen=True)
class Scenario:
    label: str
    seed: int
    venue: FeasibleBox
    ues: tuple[UE, ...]
    b_max_hz: float = 160e6
    bandwidth_policy: str = "demand-fit"
    fixed_bandwidth_hz: float = 20e6
    bandwidth_grid_hz: float = 1e3

    def pinned_bandwidth_hz(self, ue: UE) -> float | None:
        """Width a UE's link is pinned at, or None when demand-fit chooses it.

        A per-UE ``bandwidth_hz`` pins its link under either policy; under
        ``"fixed"`` every other link is pinned at ``fixed_bandwidth_hz``.
        """
        if ue.bandwidth_hz is not None:
            return ue.bandwidth_hz
        if self.bandwidth_policy == "fixed":
            return self.fixed_bandwidth_hz
        return None

    def validate(self) -> None:
        if not self.ues:
            raise ConfigError("scenario has no UEs")
        if self.bandwidth_policy not in ("fixed", "demand-fit"):
            raise ConfigError(f"unknown bandwidth policy {self.bandwidth_policy!r}")
        for name in ("b_max_hz", "fixed_bandwidth_hz", "bandwidth_grid_hz"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.b_max_hz < self.bandwidth_grid_hz:
            raise ConfigError(
                f"b_max_hz {self.b_max_hz} is below one bandwidth grid step "
                f"{self.bandwidth_grid_hz}"
            )
        max_ue_z = max(ue.position.z for ue in self.ues)
        if self.venue.z[0] <= max_ue_z:
            raise ConfigError(
                f"UAV altitude floor {self.venue.z[0]} m must exceed the "
                f"highest UE altitude {max_ue_z} m"
            )
        for i, ue in enumerate(self.ues):
            if not 0 < ue.demand_bps < math.inf:
                raise ConfigError(f"UE {i} demand must be positive and finite, got {ue.demand_bps}")
            pinned = self.pinned_bandwidth_hz(ue)
            if pinned is not None and not 0 < pinned < math.inf:
                raise ConfigError(f"UE {i} bandwidth must be positive and finite, got {pinned}")
            if not self.venue.footprint_contains(ue.position.x, ue.position.y):
                raise ConfigError(f"UE {i} lies outside the venue footprint")


class BaselineKind(enum.Enum):
    FIXED_ALTITUDE = "fixed-altitude"
    FIXED_GROUP_SIZE = "fixed-n"


def generate_scenario(kind: str, variant_index: int, seed: int) -> Scenario:
    """Seeded scenario of family A (demand sweep), B (venue sweep) or C (UE sweep)."""
    kind = kind.upper()
    if kind == "A":
        if not 0 <= variant_index < len(MCS_RATES_BPS):
            raise ConfigError(f"scenario A variant must be 0..5, got {variant_index}")
        side, n_ues, demand = 100.0, 20, MCS_RATES_BPS[variant_index]
    elif kind == "B":
        if not 0 <= variant_index < len(VENUE_SIDES_M):
            raise ConfigError(f"scenario B variant must be 0..4, got {variant_index}")
        side, n_ues, demand = VENUE_SIDES_M[variant_index], 20, MCS_RATES_BPS[0]
    elif kind == "C":
        if not 0 <= variant_index < len(UE_COUNTS):
            raise ConfigError(f"scenario C variant must be 0..4, got {variant_index}")
        side, n_ues, demand = 100.0, UE_COUNTS[variant_index], MCS_RATES_BPS[0]
    else:
        raise ConfigError(f"unknown scenario kind {kind!r}")

    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, side, n_ues)
    ys = rng.uniform(0.0, side, n_ues)
    ues = tuple(
        UE(position=Point3(float(x), float(y), 0.0), demand_bps=demand)
        for x, y in zip(xs, ys)
    )
    venue = FeasibleBox(x=(0.0, side), y=(0.0, side), z=DEFAULT_UAV_ALTITUDE_M)
    return Scenario(label=f"{kind}-{variant_index}", seed=seed, venue=venue, ues=ues)


def _proximity_groups(scenario: Scenario, group_size: int) -> list[list[int]]:
    """Seeded centroid clustering into ceil(N/size) groups of at most `size`.

    Lloyd refinement until the assignment repeats, at most 50 rounds, then
    overflowing groups hand their farthest members to the nearest group
    with room; all ties break on index, so the grouping is reproducible
    from the scenario seed. A repeated assignment gives the same centroids,
    so the rounds after it would change nothing. Each centroid is its
    members' coordinate sum, accumulated in index order, over their count:
    the same doubles as their mean. An empty group keeps its centroid.
    """
    n = len(scenario.ues)
    k = math.ceil(n / group_size)
    pts = np.array([ue.position.as_array()[:2] for ue in scenario.ues])
    rng = np.random.default_rng(np.random.SeedSequence([scenario.seed & 0xFFFFFFFF, 0xC1]))
    centroids = pts[rng.choice(n, size=k, replace=False)]

    assign = None
    for _ in range(50):
        dists = np.linalg.norm(pts[:, None, :] - centroids[None, :, :], axis=2)
        previous, assign = assign, np.argmin(dists, axis=1)
        if previous is not None and np.array_equal(assign, previous):
            break
        counts = np.bincount(assign, minlength=k)
        sums = np.stack([np.bincount(assign, weights=pts[:, a], minlength=k) for a in (0, 1)],
                        axis=1)
        held = counts > 0
        centroids[held] = sums[held] / counts[held, None]

    groups: list[list[int]] = [sorted(np.flatnonzero(assign == c).tolist()) for c in range(k)]
    # Enforce the per-group cap deterministically.
    for c in range(k):
        while len(groups[c]) > group_size:
            dists = [(-np.linalg.norm(pts[i] - centroids[c]), i) for i in groups[c]]
            _, worst = min(dists)
            candidates = [
                (np.linalg.norm(pts[worst] - centroids[d]), d)
                for d in range(k)
                if d != c and len(groups[d]) < group_size
            ]
            _, dest = min(candidates)
            groups[c].remove(worst)
            groups[dest] = sorted(groups[dest] + [worst])
    # The UAV count is fixed at k, so empty groups poach from the largest one.
    for c in range(k):
        if groups[c]:
            continue
        donor = max(range(k), key=lambda d: (len(groups[d]), -d))
        dists = [(-np.linalg.norm(pts[i] - centroids[donor]), i) for i in groups[donor]]
        _, moved = min(dists)
        groups[donor].remove(moved)
        groups[c] = [moved]
    return groups


def _pseudo_zone(members: list[int], scenario: Scenario) -> CandidateZone:
    """Anchor zone for baseline PSO runs: no sphere certificate required."""
    pts = np.array([scenario.ues[i].position.as_array() for i in members])
    anchor = pts.mean(axis=0)
    anchor[2] = 0.5 * (scenario.venue.z[0] + scenario.venue.z[1])
    anchor = scenario.venue.clamp(anchor)
    return CandidateZone(members=tuple(sorted(members)), witness=Point3.from_array(anchor), slack=0.0)


def run_baseline(
    kind: BaselineKind,
    scenario: Scenario,
    params: "ChannelParams",
    swarm_config: SwarmConfig | None = None,
) -> Deployment:
    """Run one comparison planner; violations are reported, never hidden.

    Fixed-altitude runs the full planning pipeline with the UAV altitude
    band collapsed to 20 m, clamped into the venue's band when 20 m lies
    outside it. Fixed-group-size clusters UEs into groups of at
    most 10 and positions one UAV per group over the full box; its UAV count
    is forced to ceil(N/10) regardless of feasibility.
    """
    swarm_config = swarm_config or SwarmConfig(seed=scenario.seed)
    if kind is BaselineKind.FIXED_ALTITUDE:
        z_min, z_max = scenario.venue.z
        altitude = min(max(FIXED_BASELINE_ALTITUDE_M, z_min), z_max)
        pinned = replace(
            scenario,
            venue=FeasibleBox(x=scenario.venue.x, y=scenario.venue.y, z=(altitude, altitude)),
        )
        return plan_deployment(pinned, params, swarm_config)

    if kind is not BaselineKind.FIXED_GROUP_SIZE:
        raise ConfigError(f"unknown baseline {kind!r}")
    scenario.validate()
    groups = _proximity_groups(scenario, FIXED_BASELINE_GROUP_SIZE)
    zones = [_pseudo_zone(g, scenario) for g in groups]
    sols = optimize_positions(zones, scenario, params, swarm_config, allow_capacity_overrun=True)
    return _assemble(list(zip(zones, sols)), scenario)


def evaluate_throughput(
    deployment: Deployment,
    scenario: Scenario,
    params: "ChannelParams",
) -> tuple[float, list[float]]:
    """Demand-capped delivered rate per UE and its sum.

    When a UAV's allocated bandwidths exceed its budget (baselines may
    oversubscribe), every link on that UAV is rescaled proportionally and
    re-evaluated, so infeasible deployments still yield a finite throughput.
    """
    z = np.asarray(deployment.association.z)
    n_ues, n_uavs = z.shape
    scale = np.ones(n_uavs)
    for k in range(n_uavs):
        used = float(np.sum(deployment.link_bandwidth_hz[z[:, k] == 1]))
        if used > scenario.b_max_hz:
            scale[k] = scenario.b_max_hz / used
    delivered: list[float] = []
    for i in range(n_ues):
        served_by = np.flatnonzero(z[i] == 1)
        if len(served_by) != 1:
            delivered.append(0.0)
            continue
        k = int(served_by[0])
        b = float(deployment.link_bandwidth_hz[i]) * float(scale[k])
        if b <= 0:
            delivered.append(0.0)
            continue
        if scale[k] == 1.0:
            r = float(deployment.link_rate_bps[i])
        else:
            try:
                r = channel.link_rate(
                    scenario.ues[i].position, deployment.uav_positions[k], b, params
                )
            except channel.ChannelDomainError:
                r = 0.0
        delivered.append(min(scenario.ues[i].demand_bps, r))
    return float(sum(delivered)), delivered


def demand_satisfaction_ratio(delivered: list[float], scenario: Scenario) -> float:
    satisfied = sum(
        1 for d, ue in zip(delivered, scenario.ues) if d >= ue.demand_bps
    )
    return satisfied / len(scenario.ues)


# ---------------------------------------------------------------------------
# Experiment harness.
# ---------------------------------------------------------------------------

METHODS = ("planner", "fixed-altitude", "fixed-n")

_VARIANT_VALUES = {
    "A": MCS_RATES_BPS,
    "B": VENUE_SIDES_M,
    "C": UE_COUNTS,
}


@dataclass(frozen=True)
class ExperimentRow:
    scenario: str
    variant: float
    method: str
    run: int
    seed: int
    uav_count: int | None
    aggregate_bps: float | None
    demand_satisfied_ratio: float | None
    error: str = ""


@dataclass
class ExperimentTable:
    kind: str
    rows: list[ExperimentRow] = field(default_factory=list)

    def summary(self) -> list[dict]:
        """Mean/std of UAV count and throughput per (variant, method)."""
        out = []
        keys = sorted({(r.variant, r.method) for r in self.rows},
                      key=lambda vm: (vm[0], METHODS.index(vm[1])))
        for variant, method in keys:
            ok = [r for r in self.rows
                  if r.variant == variant and r.method == method and r.error == ""]
            counts = np.array([r.uav_count for r in ok], dtype=float)
            thr = np.array([r.aggregate_bps for r in ok], dtype=float)
            out.append({
                "scenario": self.kind,
                "variant": variant,
                "method": method,
                "runs_ok": len(ok),
                "uav_count_mean": float(np.mean(counts)) if len(ok) else math.nan,
                "uav_count_std": float(np.std(counts)) if len(ok) else math.nan,
                "aggregate_bps_mean": float(np.mean(thr)) if len(ok) else math.nan,
                "aggregate_bps_std": float(np.std(thr)) if len(ok) else math.nan,
            })
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([
                "scenario", "variant", "method", "run", "seed",
                "uav_count", "aggregate_bps", "demand_satisfied_ratio",
            ])
            for r in self.rows:
                w.writerow([
                    r.scenario, _fmt(r.variant), r.method, r.run, r.seed,
                    "" if r.uav_count is None else r.uav_count,
                    "" if r.aggregate_bps is None else _fmt(r.aggregate_bps),
                    "" if r.demand_satisfied_ratio is None else _fmt(r.demand_satisfied_ratio),
                ])

    def write_summary_csv(self, path) -> None:
        rows = self.summary()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([
                "scenario", "variant", "method", "runs_ok",
                "uav_count_mean", "uav_count_std",
                "aggregate_bps_mean", "aggregate_bps_std",
            ])
            for r in rows:
                w.writerow([
                    r["scenario"], _fmt(r["variant"]), r["method"], r["runs_ok"],
                    _fmt(r["uav_count_mean"]), _fmt(r["uav_count_std"]),
                    _fmt(r["aggregate_bps_mean"]), _fmt(r["aggregate_bps_std"]),
                ])


def _fmt(x) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return repr(float(x)) if isinstance(x, float) else str(x)


def run_experiment(
    kind: str,
    params: "ChannelParams",
    swarm_config: SwarmConfig | None = None,
    n_runs: int = 30,
    base_seed: int = 0,
    scenario_overrides: dict | None = None,
) -> ExperimentTable:
    """Plan every (variant, run) cell with the planner and both baselines.

    Run r uses seed base_seed + r, r in 1..n_runs; the three methods share
    each cell's scenario. Individual failures are recorded in their row and
    never abort the sweep.
    """
    if n_runs < 1:
        raise ConfigError("n_runs must be >= 1")
    kind = kind.upper()
    if kind not in _VARIANT_VALUES:
        raise ConfigError(f"unknown scenario kind {kind!r}")
    table = ExperimentTable(kind=kind)
    for variant_index, variant_value in enumerate(_VARIANT_VALUES[kind]):
        for run in range(1, n_runs + 1):
            seed = base_seed + run
            scn = generate_scenario(kind, variant_index, seed)
            if scenario_overrides:
                scn = replace(scn, **scenario_overrides)
            cfg = swarm_config or SwarmConfig(seed=seed)
            for method in METHODS:
                row = _run_cell(kind, variant_value, method, run, seed, scn, params, cfg)
                table.rows.append(row)
    return table


def _run_cell(kind, variant_value, method, run, seed, scn, params, cfg) -> ExperimentRow:
    try:
        if method == "planner":
            dep = plan_deployment(scn, params, cfg)
        elif method == "fixed-altitude":
            dep = run_baseline(BaselineKind.FIXED_ALTITUDE, scn, params, cfg)
        else:
            dep = run_baseline(BaselineKind.FIXED_GROUP_SIZE, scn, params, cfg)
        aggregate, delivered = evaluate_throughput(dep, scn, params)
        ratio = demand_satisfaction_ratio(delivered, scn)
        return ExperimentRow(
            scenario=kind, variant=float(variant_value), method=method, run=run,
            seed=seed, uav_count=dep.uav_count, aggregate_bps=aggregate,
            demand_satisfied_ratio=ratio,
        )
    except (UnservableError, CapacityDeadlockError, ConfigError) as exc:
        return ExperimentRow(
            scenario=kind, variant=float(variant_value), method=method, run=run,
            seed=seed, uav_count=None, aggregate_bps=None,
            demand_satisfied_ratio=None, error=f"{type(exc).__name__}: {exc}",
        )
