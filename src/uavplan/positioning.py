"""Single-UAV position refinement inside a candidate zone via PSO.

The swarm maximizes demand-capped aggregate throughput over the zone's
members, with additive penalties for unmet demands, bandwidth overrun and
out-of-box positions. Penalties dominate any possible throughput gain, so
an infeasible particle can never outrank a feasible one while still carrying
gradient information toward feasibility.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import channel
from .coverage import CandidateZone
from .geometry import FeasibleBox, Point3

if TYPE_CHECKING:  # pragma: no cover
    from .channel import ChannelParams
    from .scenario import Scenario


class ZoneCapacityError(Exception):
    """Even the zone witness exceeds the per-UAV bandwidth budget."""


@dataclass(frozen=True)
class SwarmConfig:
    particle_count: int = 30
    max_iterations: int = 100
    inertia_weight: float = 0.7
    cognitive_coeff: float = 1.5
    social_coeff: float = 1.5
    position_precision_m: float = 1.0
    early_stop_patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.particle_count < 2:
            raise ValueError("particle_count must be >= 2")
        if not 0.0 < self.inertia_weight < 1.0:
            raise ValueError("inertia_weight must lie in (0, 1)")
        if self.position_precision_m <= 0:
            raise ValueError("position_precision_m must be positive")


@dataclass(frozen=True)
class LinkAllocation:
    ue_index: int
    bandwidth_hz: float
    rate_bps: float


@dataclass(frozen=True)
class PlacementSolution:
    uav_position: Point3
    served_ues: tuple[LinkAllocation, ...]
    fitness: float
    feasible: bool
    iterations: int


@dataclass
class _MemberData:
    """Per-member arrays for vectorized fitness evaluation."""

    indices: np.ndarray          # (m,) UE indices
    positions: np.ndarray        # (m, 3)
    demands: np.ndarray          # (m,)
    pinned: np.ndarray           # (m,) pinned link widths, NaN where demand-fit
    fit: np.ndarray              # (m,) True where demand-fit picks the width
    b_max_hz: float
    grid_hz: float
    penalty_scale: float         # dominates any achievable throughput sum


def _member_data(members: Sequence[int], scenario: "Scenario") -> _MemberData:
    idx = np.array(sorted(members), dtype=int)
    ues = [scenario.ues[i] for i in idx]
    demands = np.array([ue.demand_bps for ue in ues])
    pinned = np.array([scenario.pinned_bandwidth_hz(ue) for ue in ues], dtype=float)
    return _MemberData(
        indices=idx,
        positions=np.array([ue.position.as_array() for ue in ues]),
        demands=demands,
        pinned=pinned,
        fit=np.isnan(pinned),
        b_max_hz=scenario.b_max_hz,
        grid_hz=scenario.bandwidth_grid_hz,
        penalty_scale=10.0 * float(np.sum(demands)),
    )


def _swarm_rates(positions: np.ndarray, data: _MemberData, params: "ChannelParams"):
    """Per-particle, per-member (bandwidth, rate, served) arrays.

    Pinned links keep their width; the others get the demand-fit width.
    Positions at or below a member's horizon give it a zero rate, so they
    score as unserved rather than being rejected and the swarm can move away.
    """
    snr_hz = channel.snr_hz_between(data.positions[None, :, :], positions[:, None, :], params)
    bw = np.broadcast_to(data.pinned, snr_hz.shape)
    if data.fit.any():
        # Fitting every member and keeping the pinned widths is cheaper than
        # copying out the demand-fit columns.
        fitted, _ = channel.demand_fit_kernel(snr_hz, data.demands, data.b_max_hz, data.grid_hz)
        bw = np.where(data.fit, fitted, bw)
    rate = channel.shannon_rate_kernel(snr_hz, bw)
    return bw, rate, rate >= data.demands[None, :]


def _swarm_fitness(positions: np.ndarray, data: _MemberData, params: "ChannelParams",
                   box: FeasibleBox):
    bw, rate, served = _swarm_rates(positions, data, params)
    value = np.sum(np.minimum(rate, data.demands[None, :]), axis=1)
    unmet = np.sum(~served, axis=1)
    over_budget = np.sum(bw, axis=1) > data.b_max_hz
    outside = ~(
        np.all(positions >= box.lower[None, :], axis=1)
        & np.all(positions <= box.upper[None, :], axis=1)
    )
    penalty = data.penalty_scale * (unmet + over_budget.astype(int) + outside.astype(int))
    return value - penalty, penalty == 0


def fitness(position: Point3, zone: CandidateZone, scenario: "Scenario",
            params: "ChannelParams") -> tuple[float, bool]:
    """Demand-capped throughput minus constraint penalties at one position."""
    data = _member_data(zone.members, scenario)
    values, feasible = _swarm_fitness(
        position.as_array()[None, :], data, params, scenario.venue
    )
    return float(values[0]), bool(feasible[0])


def _allocations(position: np.ndarray, data: _MemberData, params: "ChannelParams"):
    bw, rate, served = _swarm_rates(position[None, :], data, params)
    return [
        LinkAllocation(ue_index=int(i), bandwidth_hz=float(b), rate_bps=float(r))
        for i, b, r in zip(data.indices, bw[0], rate[0])
    ], bool(np.all(served[0])) and float(np.sum(bw[0])) <= data.b_max_hz


def _init_bounds(zone: CandidateZone, centers, radii, box: FeasibleBox):
    """Bounding box of the member-sphere intersection, clipped to the box."""
    lo = box.lower
    hi = box.upper
    if centers is not None:
        lo = np.maximum(lo, np.max(centers - radii[:, None], axis=0))
        hi = np.minimum(hi, np.min(centers + radii[:, None], axis=0))
    w = zone.witness.as_array()
    return np.minimum(lo, w), np.maximum(hi, w)


def optimize_position(
    zone: CandidateZone,
    scenario: "Scenario",
    params: "ChannelParams",
    config: SwarmConfig,
    spheres: Sequence = (),
    allow_capacity_overrun: bool = False,
    trace: list | None = None,
) -> PlacementSolution:
    """Global-best PSO over the zone, anchored at the witness.

    One particle is pinned at the witness, so the returned solution is
    feasible whenever the witness itself is. The search stops early once all
    demands are met and the global best, quantized to the position precision,
    has not moved for ``early_stop_patience`` iterations. Per-particle RNG
    substreams are derived from (config.seed, members), making the trajectory
    a pure function of the inputs. ``spheres`` is indexed by UE (see
    ``build_spheres``); without spheres (the baselines) the search is bounded
    by the box alone.

    Raises ZoneCapacityError when the members' pinned link widths alone
    overrun the bandwidth budget (the caller should split the zone), unless
    ``allow_capacity_overrun`` is set (baselines report violations instead).
    """
    data = _member_data(zone.members, scenario)
    box = scenario.venue
    # Pinned widths do not depend on the position, so if they alone overrun
    # the budget no position serves the zone; the demand-fit share varies
    # with position and is judged after the search.
    pinned_hz = float(np.sum(data.pinned[~data.fit]))
    if not allow_capacity_overrun and pinned_hz > data.b_max_hz:
        raise ZoneCapacityError(
            f"zone {zone.members} pins {pinned_hz:.0f} Hz of links, "
            f"budget is {data.b_max_hz:.0f} Hz"
        )
    centers = radii = None
    if spheres:
        centers = np.array([spheres[i].center.as_array() for i in zone.members])
        radii = np.array([spheres[i].radius for i in zone.members])
    lo, hi = _init_bounds(zone, centers, radii, box)
    v_max = 0.5 * (hi - lo)

    seed_seq = np.random.SeedSequence([int(config.seed) & 0xFFFFFFFF, *data.indices.tolist()])
    rngs = [np.random.default_rng(s) for s in seed_seq.spawn(config.particle_count)]

    n = config.particle_count
    positions = np.empty((n, 3))
    positions[0] = zone.witness.as_array()
    for i in range(1, n):
        positions[i] = lo + rngs[i].random(3) * (hi - lo)
    velocities = np.zeros((n, 3))

    values, feas = _swarm_fitness(positions, data, params, box)
    pbest_pos = positions.copy()
    pbest_val = values.copy()
    pbest_feas = feas.copy()
    g = int(np.argmax(values))
    gbest_pos = positions[g].copy()
    gbest_val = float(values[g])
    gbest_feasible = bool(feas[g])

    quant = np.round(gbest_pos / config.position_precision_m)
    stable = 0
    iterations = 0
    if trace is not None:
        trace.append((0, gbest_val, tuple(gbest_pos)))

    for it in range(1, config.max_iterations + 1):
        iterations = it
        for i in range(n):
            r1 = rngs[i].random(3)
            r2 = rngs[i].random(3)
            velocities[i] = (
                config.inertia_weight * velocities[i]
                + config.cognitive_coeff * r1 * (pbest_pos[i] - positions[i])
                + config.social_coeff * r2 * (gbest_pos - positions[i])
            )
        np.clip(velocities, -v_max, v_max, out=velocities)
        positions = box.clamp(positions + velocities)

        values, feas = _swarm_fitness(positions, data, params, box)
        improved = values > pbest_val
        pbest_pos[improved] = positions[improved]
        pbest_val[improved] = values[improved]
        pbest_feas[improved] = feas[improved]
        g = int(np.argmax(pbest_val))
        if pbest_val[g] > gbest_val:
            gbest_val = float(pbest_val[g])
            gbest_pos = pbest_pos[g].copy()
            gbest_feasible = bool(pbest_feas[g])
        if trace is not None:
            trace.append((it, gbest_val, tuple(gbest_pos)))

        new_quant = np.round(gbest_pos / config.position_precision_m)
        if gbest_feasible and np.array_equal(new_quant, quant):
            stable += 1
            if stable >= config.early_stop_patience:
                break
        else:
            stable = 0
        quant = new_quant

    if centers is not None:
        gbest_pos = _snap_into_zone(gbest_pos, zone, centers, radii, box, data, params)
    links, feasible = _allocations(gbest_pos, data, params)
    final_val, _ = _swarm_fitness(gbest_pos[None, :], data, params, box)
    return PlacementSolution(
        uav_position=Point3.from_array(gbest_pos),
        served_ues=tuple(links),
        fitness=float(final_val[0]),
        feasible=feasible,
        iterations=iterations,
    )


def _snap_into_zone(position, zone, centers, radii, box, data, params):
    """Move the final position to the nearest point inside every member sphere.

    Applied only when (a) the best position drifted outside some member
    sphere and (b) the snapped point preserves rate feasibility; the demand
    check is the final authority, so a snap that would break it is skipped.
    """
    deficits = np.linalg.norm(position[None, :] - centers, axis=1) - radii
    if float(np.max(deficits)) <= 0:
        return position
    _, feasible_before = _swarm_fitness(position[None, :], data, params, box)
    from scipy.optimize import minimize

    def objective(p):
        return float(np.sum((p - position) ** 2))

    def cons_f(p):
        return radii - np.linalg.norm(p[None, :] - centers, axis=1)

    res = minimize(
        objective,
        zone.witness.as_array(),
        constraints=[{"type": "ineq", "fun": cons_f}],
        bounds=[(box.lower[k], box.upper[k]) for k in range(3)],
        method="SLSQP",
        options={"maxiter": 100, "ftol": 1e-10},
    )
    snapped = box.clamp(res.x)
    if float(np.max(np.linalg.norm(snapped[None, :] - centers, axis=1) - radii)) > 0:
        return position
    _, feasible_after = _swarm_fitness(snapped[None, :], data, params, box)
    if bool(feasible_after[0]) or not bool(feasible_before[0]):
        return snapped
    return position
