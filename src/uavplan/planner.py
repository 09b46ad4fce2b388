"""End-to-end deployment planning: spheres -> zones -> cover -> PSO -> validation.

The cover stage decides how many UAVs to aim for; positioning refines one
UAV per cover pick. Picks whose refined position cannot meet every demand or
the bandwidth budget are halved geometrically and re-optimized, bottoming out
at singleton zones, which are always servable from the member's nadir. The
picks are placed a wave at a time, the split pieces of one wave forming the
next. An independent validator re-checks every constraint of the final
deployment using only the channel model.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import channel
from .coverage import (
    CandidateZone,
    Spheres,
    UnservableError,
    _maximal_zone_cover,
    build_spheres,
    cover_assignment,
    enumerate_zones,
    minimal_zone_cover,  # not called here: perfbench/spans.py wraps it on this module
    zone_witness,  # likewise
    zone_witnesses,
)
from .geometry import read_only
from .positioning import (
    PlacementSolution,
    SwarmConfig,
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
    uav_positions: np.ndarray      # (uav_count, 3) position of each UAV
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


def min_feasible_bandwidths(scenario: "Scenario", params: "ChannelParams") -> np.ndarray:
    """Lower bound on the bandwidth each UE can ever need inside the box.

    A pinned link needs exactly its pinned width. A demand-fit link is
    evaluated at its most favorable geometry: directly overhead at the
    lowest allowed altitude, where both the distance and the NLoS mix are at
    their minima. NaN marks a UE whose demand even ``b_max_hz`` cannot meet.
    """
    bounds = scenario.pinned_widths_hz.copy()
    fit = np.isnan(bounds)
    if fit.any():
        positions, demands = scenario.ue_positions[fit], scenario.demands_bps[fit]
        # Every UE lies inside the footprint and below the altitude floor, so
        # clamping it into the box gives the point straight above it.
        overhead = scenario.venue.clamp(positions)
        snr_hz = channel.snr_hz_between(positions, overhead, params)
        bw, rate = channel.demand_fit_kernel(
            snr_hz, demands, scenario.b_max_hz, scenario.bandwidth_grid_hz
        )
        bounds[fit] = np.where(rate >= demands, bw, np.nan)
    return bounds


def zone_capacities(member_lists: Sequence[Sequence[int]], lower_bounds: Sequence[float],
                    b_max_hz: float) -> np.ndarray:
    """Most members one UAV can serve in each zone, given per-member bandwidth lower bounds.

    A zone's count is the longest prefix of its ascending-sorted bounds that
    fits the budget, at least 1; realized bandwidths can only be larger, so
    this cap is optimistic and the post-placement capacity check remains the
    authority. All zones take one sort and one ``np.cumsum`` over their
    bounds padded with +inf; ``cumsum`` adds in sequence, so each prefix sum
    has the bits of a running total.
    """
    count = np.fromiter(map(len, member_lists), np.intp, len(member_lists))
    flat = np.fromiter(chain.from_iterable(member_lists), np.intp, int(count.sum()))
    row = np.repeat(np.arange(len(count)), count)
    needs = np.full((len(count), count.max(initial=0)), np.inf)
    needs[row, np.arange(len(flat)) - (np.cumsum(count) - count)[row]] = \
        np.asarray(lower_bounds, dtype=float)[flat]
    needs.sort(axis=1)
    return np.maximum(np.count_nonzero(np.cumsum(needs, axis=1) <= b_max_hz, axis=1), 1)


def split_zone(zones: Sequence[CandidateZone], spheres: Spheres, scenario: "Scenario") -> list[CandidateZone]:
    """Halve each zone of two or more members into two geometric sub-zones.

    Members are split at the median along the longest principal axis of
    their positions, the first half taking the odd member. Returns the
    pieces zone after zone, each with a fresh witness; one ``zone_witnesses``
    call solves every half. Halves of a feasible zone are always feasible
    (the parent witness certifies them), so the singleton fallback, one more
    call, is purely defensive.
    """
    halves = []
    for zone in zones:
        members = tuple(sorted(zone.members))
        centers = spheres.centers[list(members)]
        centered = centers - centers.mean(axis=0)
        _, v = np.linalg.eigh(centered.T @ centered)
        axis = v[:, -1]
        if axis[np.argmax(np.abs(axis))] < 0:
            axis = -axis
        proj = centered @ axis
        order = sorted(range(len(members)), key=lambda k: (proj[k], members[k]))
        half = (len(members) + 1) // 2
        halves += [tuple(sorted(members[k] for k in order[:half])),
                   tuple(sorted(members[k] for k in order[half:]))]
    solved = zone_witnesses(halves, spheres.centers, spheres.radii, scenario.venue)
    # Fall back to singletons; cannot happen for subsets of a certified zone
    # but keeps the planner total.
    alone = iter(zone_witnesses([[i] for g, (_, d) in zip(halves, solved) if d > 0 for i in g],
                                spheres.centers, spheres.radii, scenario.venue))
    out: list[CandidateZone] = []
    for g, (witness, deficit) in zip(halves, solved):
        if deficit > 0:
            out.extend(CandidateZone(members=(i,), witness=w, slack=-d) for i, (w, d) in zip(g, alone))
        else:
            out.append(CandidateZone(members=g, witness=witness, slack=-deficit))
    return out


def plan_deployment(
    scenario: "Scenario",
    params: "ChannelParams | None" = None,
    swarm_config: SwarmConfig = SwarmConfig(),
    pool: list | None = None,
    trace: list | None = None,
) -> Deployment:
    """Plan the fewest UAVs and their 3D positions meeting every demand.

    Raises UnservableError when some UE cannot be served from anywhere in
    the feasible box, and CapacityDeadlockError when a single UE's demand
    exceeds one UAV's whole bandwidth budget (a configuration error). The
    returned deployment always passes ``validate_deployment``. The swarms
    draw from ``scenario.seed``; ``swarm_config`` sets only how they search.
    """
    from .channel import ChannelParams

    params = params or ChannelParams()
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
    caps = zone_capacities([z.members for z in zones], lower_bounds, scenario.b_max_hz).tolist()
    cover = _maximal_zone_cover(zones, len(scenario.ues), caps)
    cap_by_members = {z.members: c for z, c in zip(zones, caps)}
    pick_caps = [cap_by_members[z.members] for z in cover]
    served_sets = cover_assignment(cover, pick_caps, len(scenario.ues))

    # Zones are placed a wave at a time: every queued zone in one lockstep
    # call, then the pieces of that wave's failures, in wave order. Every
    # wave runs to the end, and the plan then fails on every user whose
    # one-member zone no position serves.
    wave = [replace(z, members=tuple(sorted(served)))
            for z, served in zip(cover, served_sets) if served]
    placed: list[tuple[CandidateZone, PlacementSolution]] = []
    unservable: list[int] = []
    while wave:
        traces = [[] if trace is not None else None for _ in wave]
        # A singleton is placed alone by optimize_position, the name
        # perfbench/spans.py wraps, so that a traced run still shows the
        # positioning layer; the other zones of a wave run in lockstep.
        many = [k for k, sub in enumerate(wave) if len(sub.members) > 1]
        sols = dict(zip(many, optimize_positions(
            [wave[k] for k in many], scenario, params, swarm_config, spheres=spheres,
            traces=[traces[k] for k in many] if trace is not None else None)))
        failed = []
        for k, sub in enumerate(wave):
            sol = sols[k] if k in sols else optimize_position(
                sub, scenario, params, swarm_config, spheres=spheres, trace=traces[k])
            if pool is not None:
                pool.append((sub.members, sol))
            if trace is not None:
                trace.append((sub.members, traces[k]))
            if sol.feasible:
                placed.append((sub, sol))
            elif len(sub.members) == 1:
                # Nadir placement of a box-reaching sphere is always feasible,
                # so a failing singleton means the UE is truly unservable.
                unservable.append(sub.members[0])
            else:
                failed.append(sub)
        wave = split_zone(failed, spheres, scenario)
    if unservable:
        raise UnservableError(unservable)

    placed.sort(key=lambda pair: pair[0].members)
    return _assemble(placed, scenario)


def _assemble(placed, scenario: "Scenario") -> Deployment:
    n_ues = len(scenario.ues)
    n_uavs = len(placed)
    z = np.zeros((n_ues, n_uavs), dtype=np.int8)
    a = np.ones(n_uavs, dtype=np.int8)
    bw = np.zeros(n_ues)
    rate = np.zeros(n_ues)
    positions = np.zeros((n_uavs, 3))
    for k, (_, sol) in enumerate(placed):
        positions[k] = sol.uav_position
        z[sol.ue_indices, k] = 1
        bw[sol.ue_indices] = sol.bandwidth_hz
        rate[sol.ue_indices] = sol.rate_bps
    aggregate = float(np.sum(np.minimum(rate, scenario.demands_bps)))
    return Deployment(
        uav_positions=read_only(positions),
        association=Association(z=z, a=a),
        link_bandwidth_hz=bw,
        link_rate_bps=rate,
        uav_count=n_uavs,
        aggregate_bps=aggregate,
    )


def uav_loads(z: np.ndarray, bandwidth_hz: np.ndarray) -> np.ndarray:
    """Summed link width of each UAV's UEs (``z == 1``), each sum in UE order."""
    return np.array([np.sum(bandwidth_hz[z[:, k] == 1]) for k in range(z.shape[1])])


def served_links(z: np.ndarray, uav_xyz: np.ndarray, ue_xyz: np.ndarray,
                 width_hz: np.ndarray, params: "ChannelParams") -> tuple[np.ndarray, np.ndarray]:
    """Each UE's one serving UAV and the channel's rate to it at ``width_hz``.

    ``z`` associates the UEs at ``ue_xyz`` (rows, an (N, 3) array such as
    ``Scenario.ue_positions``) with the UAVs at ``uav_xyz`` (columns, a
    (K, 3) array such as ``Deployment.uav_positions``), and
    ``width_hz`` holds one width per UE. The server is -1 for a UE that no
    UAV or several UAVs serve. The rate is 0 there, at a width that is not
    positive and where the UAV is not above its UE; elsewhere it is
    ``shannon_rate_kernel`` of ``snr_hz_between``, the same bits the swarm
    scores the link with.
    """
    ue, uav = np.nonzero(z == 1)
    server = np.full(len(z), -1)
    server[ue] = uav
    server[np.bincount(ue, minlength=len(z)) != 1] = -1
    live = (server >= 0) & (width_hz > 0)
    snr_hz = channel.snr_hz_between(ue_xyz[live], uav_xyz[server[live]], params)
    rate = np.zeros(len(z))
    rate[live] = channel.shannon_rate_kernel(snr_hz, width_hz[live])
    return server, rate


def validate_deployment(
    deployment: Deployment,
    scenario: "Scenario",
    params: "ChannelParams",
) -> ValidationReport:
    """Re-check every constraint of a deployment from scratch.

    Uses only the channel model and the deployment's own geometry; reports
    per-constraint residuals (<= 0 means satisfied) and never raises.
    ``demand_rate`` is the largest (demand - rate) / demand, so it passes
    only where every rate meets its demand exactly, the test the swarm
    scores with. ``shape_agreement`` is the
    spread of the UAV count over positions, association columns, ``a`` and
    ``uav_count`` plus that of the UE count over association rows, link
    arrays and the scenario's UEs; the other checks read the UAVs and UEs
    that every array has. ``pinned_width`` is the largest |link width -
    pinned width| over the UEs whose link is pinned
    (``Scenario.pinned_widths_hz``), and passes only at 0.
    """
    z = np.asarray(deployment.association.z)
    a = np.asarray(deployment.association.a)
    uav_xyz = np.asarray(deployment.uav_positions, dtype=float).reshape(-1, 3)
    uav_arrays = (z.shape[1], len(a), len(uav_xyz))
    ue_counts = (z.shape[0], len(deployment.link_bandwidth_hz), len(deployment.link_rate_bps),
                 len(scenario.ues))
    uav_counts = uav_arrays + (deployment.uav_count,)
    shape_residual = float(max(uav_counts) - min(uav_counts) + max(ue_counts) - min(ue_counts))
    n_ues, n_uavs = min(ue_counts), min(uav_arrays)
    z, a = z[:n_ues, :n_uavs], a[:n_uavs]
    bandwidth = np.asarray(deployment.link_bandwidth_hz, dtype=float)[:n_ues]

    binary_residual = 0.0 if all(((arr == 0) | (arr == 1)).all() for arr in (z, a)) else 1.0

    assoc_residual = float(np.max(np.abs(z.sum(axis=1) - 1))) if n_ues else 0.0
    link_residual = float(np.max(z - a[None, :])) if n_ues and n_uavs else 0.0

    demands = scenario.demands_bps[:n_ues]
    server, rate = served_links(z, uav_xyz[:n_uavs], scenario.ue_positions[:n_ues], bandwidth,
                                params)
    residual = np.where((server >= 0) & (bandwidth > 0), (demands - rate) / demands, 1.0)
    demand_residual = float(residual.max()) if n_ues else 0.0
    capacity_residual = float(np.max(uav_loads(z, bandwidth) - scenario.b_max_hz)) if n_uavs else 0.0

    pinned = scenario.pinned_widths_hz[:n_ues]
    pin_residual = float(np.max(np.abs(bandwidth - pinned), where=~np.isnan(pinned), initial=0.0))
    box_residual = float(np.linalg.norm(uav_xyz - scenario.venue.clamp(uav_xyz), axis=1).max(initial=0.0))

    checks = (
        ConstraintCheck("demand_rate", demand_residual, demand_residual <= 0),
        ConstraintCheck("bandwidth_capacity", capacity_residual, capacity_residual <= 0),
        ConstraintCheck("unique_association", assoc_residual, assoc_residual == 0),
        ConstraintCheck("activation_linkage", link_residual, link_residual <= 0),
        ConstraintCheck("binary_variables", binary_residual, binary_residual == 0),
        ConstraintCheck("position_in_box", box_residual, box_residual <= 0),
        ConstraintCheck("shape_agreement", shape_residual, shape_residual == 0),
        ConstraintCheck("pinned_width", pin_residual, pin_residual == 0),
    )
    return ValidationReport(checks=checks)
