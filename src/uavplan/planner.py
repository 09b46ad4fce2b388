"""End-to-end deployment planning: spheres -> zones -> cover -> PSO -> validation.

The cover stage decides how many UAVs to aim for; positioning refines one
UAV per cover pick. Picks whose refined position cannot meet every demand or
the bandwidth budget are split geometrically and re-optimized, bottoming out
at singleton zones, which are always servable from the member's nadir. An
independent validator re-checks every constraint of the final deployment
using only the channel model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import channel
from .coverage import (
    CandidateZone,
    CoverageSphere,
    UnservableError,
    build_spheres,
    cover_assignment,
    enumerate_zones,
    minimal_zone_cover,
    zone_witness,  # not called here: perfbench/spans.py wraps it on this module
    zone_witnesses,
)
from .geometry import Point3
from .positioning import (
    PlacementSolution,
    SwarmConfig,
    ZoneCapacityError,
    optimize_position,
    optimize_positions,
)

if TYPE_CHECKING:  # pragma: no cover
    from .channel import ChannelParams
    from .scenario import Scenario


class CapacityDeadlockError(Exception):
    """A single UE needs more bandwidth than one UAV's whole budget."""


@dataclass(frozen=True)
class Association:
    """Binary UE-to-UAV assignment (z) and UAV activation (a)."""

    z: np.ndarray  # (n_ues, n_uavs) in {0, 1}
    a: np.ndarray  # (n_uavs,) in {0, 1}

    def __post_init__(self):
        z = np.asarray(self.z)
        a = np.asarray(self.a)
        if z.ndim != 2 or a.ndim != 1 or z.shape[1] != a.shape[0]:
            raise ValueError("association shapes are inconsistent")


@dataclass(frozen=True)
class Deployment:
    uav_positions: tuple[Point3, ...]
    association: Association
    link_bandwidth_hz: np.ndarray  # (n_ues,) bandwidth of each UE's link
    link_rate_bps: np.ndarray      # (n_ues,) achieved rate of each UE's link
    uav_count: int
    aggregate_bps: float


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    residual: float
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ConstraintCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def residual(self, name: str) -> float:
        for c in self.checks:
            if c.name == name:
                return c.residual
        raise KeyError(name)

    def to_csv(self) -> str:
        lines = ["constraint,residual,pass"]
        for c in self.checks:
            lines.append(f"{c.name},{c.residual!r},{str(c.passed).lower()}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())


# Relative tolerance for re-checked rates: r >= demand * (1 - RATE_RTOL).
RATE_RTOL = 1e-9


def min_feasible_bandwidths(scenario: "Scenario", params: "ChannelParams") -> np.ndarray:
    """Lower bound on the bandwidth each UE can ever need inside the box.

    A pinned link needs exactly its pinned width. A demand-fit link is
    evaluated at its most favorable geometry: directly overhead at the
    lowest allowed altitude, where both the distance and the NLoS mix are at
    their minima. NaN marks a UE whose demand even ``b_max_hz`` cannot meet.
    """
    bounds = np.array([scenario.pinned_bandwidth_hz(ue) for ue in scenario.ues], dtype=float)
    fit = np.isnan(bounds)
    if fit.any():
        positions = np.array([ue.position.as_array() for ue in scenario.ues])[fit]
        demands = np.array([ue.demand_bps for ue in scenario.ues])[fit]
        # Every UE lies inside the footprint and below the altitude floor, so
        # clamping it into the box gives the point straight above it.
        overhead = scenario.venue.clamp(positions)
        snr_hz = channel.snr_hz_between(positions, overhead, params)
        bw, rate = channel.demand_fit_kernel(
            snr_hz, demands, scenario.b_max_hz, scenario.bandwidth_grid_hz
        )
        bounds[fit] = np.where(rate >= demands, bw, np.nan)
    return bounds


def zone_capacity(members: Sequence[int], lower_bounds: Sequence[float], b_max_hz: float) -> int:
    """Most members one UAV can serve given per-member bandwidth lower bounds.

    The count is the longest prefix of the ascending-sorted bounds that fits
    the budget; realized bandwidths can only be larger, so this cap is
    optimistic and the post-placement capacity check remains the authority.
    """
    needs = sorted(lower_bounds[i] for i in members)
    total, count = 0.0, 0
    for b in needs:
        if total + b > b_max_hz:
            break
        total += b
        count += 1
    return max(count, 1)


def split_zone(
    zone: CandidateZone,
    spheres: Sequence[CoverageSphere],
    scenario: "Scenario",
    max_members: int,
) -> list[CandidateZone]:
    """Partition an oversized zone into geometric sub-zones of bounded size.

    Members are split at the median along the longest principal axis of
    their positions, recursively, until every group fits; each group gets a
    fresh witness. Groups of a feasible zone are always feasible (the parent
    witness certifies them), so the singleton fallback is purely defensive.
    """
    if max_members < 1:
        raise ValueError("max_members must be >= 1")
    if len(zone.members) <= max_members:
        return [zone]

    def bisect(members: tuple[int, ...]) -> list[tuple[int, ...]]:
        if len(members) <= max_members:
            return [members]
        pts = np.array([spheres[i].center.as_array() for i in members])
        centered = pts - pts.mean(axis=0)
        cov = centered.T @ centered
        w, v = np.linalg.eigh(cov)
        axis = v[:, -1]
        if axis[np.argmax(np.abs(axis))] < 0:
            axis = -axis
        proj = centered @ axis
        order = sorted(range(len(members)), key=lambda k: (proj[k], members[k]))
        half = (len(members) + 1) // 2
        left = tuple(sorted(members[k] for k in order[:half]))
        right = tuple(sorted(members[k] for k in order[half:]))
        return bisect(left) + bisect(right)

    members = tuple(sorted(zone.members))
    groups = bisect(members)
    centers = np.array([spheres[i].center.as_array() for i in members])
    radii = np.array([spheres[i].radius for i in members])
    local = [np.searchsorted(members, g) for g in groups]
    solved = zone_witnesses(local, centers, radii, scenario.venue)
    # Fall back to singletons; cannot happen for subsets of a certified zone
    # but keeps the planner total.
    alone = iter(zone_witnesses([[k] for g, (_, d) in zip(local, solved) if d > 0 for k in g],
                                centers, radii, scenario.venue))
    out: list[CandidateZone] = []
    for g, (witness, deficit) in zip(groups, solved):
        if deficit > 0:
            out.extend(CandidateZone(members=(i,), witness=w, slack=-d) for i, (w, d) in zip(g, alone))
        else:
            out.append(CandidateZone(members=g, witness=witness, slack=-deficit))
    return out


def _restrict_zone(zone: CandidateZone, served: Sequence[int],
                   spheres: Sequence[CoverageSphere]) -> CandidateZone:
    members = tuple(sorted(served))
    if members == zone.members:
        return zone
    w = zone.witness.as_array()
    slack = min(
        spheres[i].radius - float(np.linalg.norm(w - spheres[i].center.as_array()))
        for i in members
    )
    return CandidateZone(members=members, witness=zone.witness, slack=slack)


def plan_deployment(
    scenario: "Scenario",
    params: "ChannelParams | None" = None,
    swarm_config: SwarmConfig | None = None,
    pool: list | None = None,
    trace: list | None = None,
) -> Deployment:
    """Plan the fewest UAVs and their 3D positions meeting every demand.

    Raises UnservableError when some UE cannot be served from anywhere in
    the feasible box, and CapacityDeadlockError when a single UE's demand
    exceeds one UAV's whole bandwidth budget (a configuration error). The
    returned deployment always passes ``validate_deployment``.
    """
    from .channel import ChannelParams

    params = params or ChannelParams()
    swarm_config = swarm_config or SwarmConfig(seed=scenario.seed)
    scenario.validate()

    lower_bounds = min_feasible_bandwidths(scenario, params)
    bandwidth_starved = np.flatnonzero(np.isnan(lower_bounds)).tolist()
    if bandwidth_starved:
        raise UnservableError(bandwidth_starved)
    over = np.flatnonzero(lower_bounds > scenario.b_max_hz).tolist()
    if over:
        raise CapacityDeadlockError(
            f"UEs {over} each need more bandwidth than the per-UAV budget "
            f"{scenario.b_max_hz:.0f} Hz"
        )

    spheres = build_spheres(scenario, params)
    zones = enumerate_zones(spheres, scenario.venue)
    caps = [zone_capacity(z.members, lower_bounds, scenario.b_max_hz) for z in zones]
    cover = minimal_zone_cover(zones, len(scenario.ues), caps)
    cap_by_members = {z.members: c for z, c in zip(zones, caps)}
    pick_caps = [cap_by_members.get(z.members, len(z.members)) for z in cover]
    served_sets = cover_assignment(cover, pick_caps, len(scenario.ues))

    # Zones are placed a wave at a time: every queued zone in one lockstep
    # call, then the splits of the failures. Each zone keeps its path in the
    # split tree, so the pool, the trace and the first error follow the
    # depth-first order of one zone at a time.
    wave: list[tuple[tuple[int, ...], CandidateZone]] = [
        ((k,), _restrict_zone(z, served, spheres))
        for k, (z, served) in enumerate(zip(cover, served_sets)) if served
    ]
    placed: list[tuple[CandidateZone, PlacementSolution]] = []
    swarms = []  # (path, members, solution, trace rows) of every swarm run
    failure: tuple[tuple[int, ...], Exception] | None = None
    while wave:
        traces = [[] if trace is not None else None for _ in wave]
        # A singleton is placed alone by optimize_position, the name
        # perfbench/spans.py wraps, so that a traced run still shows the
        # positioning layer; the other zones of a wave run in lockstep.
        many = [k for k, (_, sub) in enumerate(wave) if len(sub.members) > 1]
        sols = dict(zip(many, optimize_positions(
            [wave[k][1] for k in many], scenario, params, swarm_config, spheres=spheres,
            traces=[traces[k] for k in many] if trace is not None else None)))
        queued = []
        for k, (path, sub) in enumerate(wave):
            if k not in sols:
                try:
                    sols[k] = optimize_position(sub, scenario, params, swarm_config,
                                                spheres=spheres, trace=traces[k])
                except ZoneCapacityError:
                    sols[k] = None
            sol = sols[k]
            if sol is None:  # the pinned widths alone overrun the budget
                if len(sub.members) == 1:
                    if failure is None or path < failure[0]:
                        failure = path, CapacityDeadlockError(
                            f"UE {sub.members[0]} overruns the bandwidth budget on its own")
                    continue
                cap = zone_capacity(sub.members, lower_bounds, scenario.b_max_hz)
                cap = max(min(cap, len(sub.members) - 1), 1)
            else:
                swarms.append((path, sub.members, sol, traces[k]))
                if sol.feasible:
                    placed.append((sub, sol))
                    continue
                if len(sub.members) == 1:
                    # Nadir placement of a box-reaching sphere is always feasible,
                    # so a failing singleton means the UE is truly unservable.
                    if failure is None or path < failure[0]:
                        failure = path, UnservableError([sub.members[0]])
                    continue
                cap = math.ceil(len(sub.members) / 2)
            queued.extend((path + (j,), piece)
                          for j, piece in enumerate(split_zone(sub, spheres, scenario, cap)))
        # Depth first, nothing after the first error would have run.
        wave = [(path, sub) for path, sub in queued if failure is None or path < failure[0]]

    swarms.sort(key=lambda s: s[0])
    for path, members, sol, rows in swarms:
        if failure is not None and path > failure[0]:
            break
        if pool is not None:
            pool.append((members, sol))
        if trace is not None:
            trace.append((members, rows))
    if failure is not None:
        raise failure[1]

    placed.sort(key=lambda pair: pair[0].members)
    return _assemble(placed, scenario)


def _assemble(placed, scenario: "Scenario") -> Deployment:
    n_ues = len(scenario.ues)
    n_uavs = len(placed)
    z = np.zeros((n_ues, n_uavs), dtype=np.int8)
    a = np.ones(n_uavs, dtype=np.int8)
    bw = np.zeros(n_ues)
    rate = np.zeros(n_ues)
    positions = []
    for k, (zone, sol) in enumerate(placed):
        positions.append(sol.uav_position)
        for link in sol.served_ues:
            z[link.ue_index, k] = 1
            bw[link.ue_index] = link.bandwidth_hz
            rate[link.ue_index] = link.rate_bps
    demands = np.array([ue.demand_bps for ue in scenario.ues])
    aggregate = float(np.sum(np.minimum(rate, demands)))
    return Deployment(
        uav_positions=tuple(positions),
        association=Association(z=z, a=a),
        link_bandwidth_hz=bw,
        link_rate_bps=rate,
        uav_count=n_uavs,
        aggregate_bps=aggregate,
    )


def validate_deployment(
    deployment: Deployment,
    scenario: "Scenario",
    params: "ChannelParams",
) -> ValidationReport:
    """Re-check every constraint of a deployment from scratch.

    Uses only the channel model and the deployment's own geometry; reports
    per-constraint residuals (<= 0 means satisfied) and never raises. Rate
    checks allow a relative slack of RATE_RTOL. ``shape_agreement`` is the
    spread of the UAV count over positions, association columns, ``a`` and
    ``uav_count`` plus that of the UE count over association rows, link
    arrays and the scenario's UEs; the other checks read the UAVs and UEs
    that every array has.
    """
    z = np.asarray(deployment.association.z)
    a = np.asarray(deployment.association.a)
    uav_arrays = (z.shape[1], len(a), len(deployment.uav_positions))
    ue_counts = (z.shape[0], len(deployment.link_bandwidth_hz), len(deployment.link_rate_bps),
                 len(scenario.ues))
    uav_counts = uav_arrays + (deployment.uav_count,)
    shape_residual = float(max(uav_counts) - min(uav_counts) + max(ue_counts) - min(ue_counts))
    n_ues, n_uavs = min(ue_counts), min(uav_arrays)
    z, a = z[:n_ues, :n_uavs], a[:n_uavs]
    bandwidth = np.asarray(deployment.link_bandwidth_hz, dtype=float)[:n_ues]

    binary_residual = 0.0
    for arr in (z, a):
        vals = np.unique(arr)
        bad = [v for v in vals if v not in (0, 1)]
        if bad:
            binary_residual = 1.0

    assoc_residual = float(np.max(np.abs(z.sum(axis=1) - 1))) if n_ues else 0.0
    link_residual = float(np.max(z - a[None, :])) if n_ues and n_uavs else 0.0

    demand_residual = -math.inf
    for i in range(n_ues):
        ue = scenario.ues[i]
        served_by = np.flatnonzero(z[i] == 1)
        if len(served_by) != 1:
            demand_residual = max(demand_residual, 1.0)
            continue
        k = int(served_by[0])
        b = float(bandwidth[i])
        if b <= 0:
            demand_residual = max(demand_residual, 1.0)
            continue
        try:
            r = channel.link_rate(ue.position, deployment.uav_positions[k], b, params)
        except channel.ChannelDomainError:
            r = 0.0
        demand_residual = max(demand_residual, (ue.demand_bps - r) / ue.demand_bps - RATE_RTOL)
    if demand_residual == -math.inf:
        demand_residual = 0.0

    capacity_residual = -math.inf
    for k in range(n_uavs):
        used = float(np.sum(bandwidth[z[:, k] == 1]))
        capacity_residual = max(capacity_residual, used - scenario.b_max_hz)
    if capacity_residual == -math.inf:
        capacity_residual = 0.0

    box_residual = max(
        (scenario.venue.distance_to(p.as_array()) for p in deployment.uav_positions), default=0.0
    )

    checks = (
        ConstraintCheck("demand_rate", demand_residual, demand_residual <= 0),
        ConstraintCheck("bandwidth_capacity", capacity_residual, capacity_residual <= 0),
        ConstraintCheck("unique_association", assoc_residual, assoc_residual == 0),
        ConstraintCheck("activation_linkage", link_residual, link_residual <= 0),
        ConstraintCheck("binary_variables", binary_residual, binary_residual == 0),
        ConstraintCheck("position_in_box", box_residual, box_residual <= 0),
        ConstraintCheck("shape_agreement", shape_residual, shape_residual == 0),
    )
    return ValidationReport(checks=checks)
