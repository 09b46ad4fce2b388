"""Single-UAV position refinement inside a candidate zone via PSO.

The swarm maximizes demand-capped aggregate throughput over the zone's
members, with additive penalties for unmet demands, bandwidth overrun and
out-of-box positions. Penalties dominate any possible throughput gain, so
an infeasible particle can never outrank a feasible one while still carrying
gradient information toward feasibility.
"""
from __future__ import annotations

import math
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
    early_stop_patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.particle_count < 2:
            raise ValueError("particle_count must be >= 2")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")
        if not 0.0 < self.inertia_weight < 1.0:
            raise ValueError("inertia_weight must lie in (0, 1)")
        for name in ("cognitive_coeff", "social_coeff"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")


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


# Iterations of random coefficients drawn at a time: memory stays bounded
# whatever ``max_iterations`` is, and an early stop wastes at most one block.
_DRAW_CHUNK = 32


def _swarm_coefficients(rngs, iterations: int):
    """Yield each iteration's (r1, r2), both (particles, 3), from per-particle streams.

    Every particle draws its coefficients in blocks of up to ``_DRAW_CHUNK``
    iterations, ``random((k, 2, 3))``: the same doubles, in the same order,
    as drawing ``random(3)`` for r1 and then for r2 at every iteration.
    """
    for start in range(0, iterations, _DRAW_CHUNK):
        block = np.stack([rng.random((min(_DRAW_CHUNK, iterations - start), 2, 3))
                          for rng in rngs])
        for step in range(block.shape[1]):
            yield block[:, step, 0], block[:, step, 1]


def _swarm_velocities(velocities, positions, pbest_pos, gbest_pos, r1, r2,
                      config: SwarmConfig, v_max):
    """One velocity update of the whole swarm, clipped to +-v_max per axis."""
    return np.clip(
        config.inertia_weight * velocities
        + config.cognitive_coeff * r1 * (pbest_pos - positions)
        + config.social_coeff * r2 * (gbest_pos - positions),
        -v_max, v_max,
    )


# Cell-member pairs the infeasibility certificate may bound in all before it
# gives up unproven: a fixed count, so the outcome never depends on the host,
# and no array of the search holds more elements.
_CERTIFY_PAIRS = 1 << 16
# Relative margin on the SNR bound: where a cell's nearest point is also its
# steepest (a flat cell), the bound is that point's exact SNR computed along
# another path, so rounding could put it a few ulps below the swarm's value.
_BOUND_MARGIN = 1e-9


def _halve(lo, hi, axes):
    """Every cell split at its midpoint along each of ``axes``."""
    for a in axes:
        mid = 0.5 * (lo[:, a] + hi[:, a])
        upper_lo, lower_hi = lo.copy(), hi.copy()
        upper_lo[:, a] = mid
        lower_hi[:, a] = mid
        lo, hi = np.concatenate([lo, upper_lo]), np.concatenate([lower_hi, hi])
    return lo, hi


def _zone_unservable(data: _MemberData, params: "ChannelParams", box: FeasibleBox) -> bool:
    """True only when no position in the box serves every member within the budget.

    A branch and bound over cells of the box. ``channel.snr_hz_upper_bound``
    caps each member's SNR over a cell, which caps its rate and floors its
    demand-fit width there. A cell is excluded when some member misses its
    demand even at its widest allowed link (its pinned width, or the widest
    grid width), or when the members' smallest widths, less one grid step
    per demand-fit member as rounding slack, overrun the budget. Surviving
    cells are probed at their centres, and a feasible centre ends the search
    unproven; otherwise each is halved along every axis of positive extent,
    so a fixed-altitude box stays 2D. Past ``_CERTIFY_PAIRS`` the search gives
    up, also unproven.
    """
    lo, hi = box.lower[None, :], box.upper[None, :]
    axes = np.flatnonzero(box.upper > box.lower)
    slack_hz = data.grid_hz * np.count_nonzero(data.fit)
    examined = 0
    while True:
        examined += len(lo) * len(data.indices)
        if examined > _CERTIFY_PAIRS:
            return False
        snr = channel.snr_hz_upper_bound(data.positions[None, :, :], lo[:, None, :],
                                         hi[:, None, :], params) * (1.0 + _BOUND_MARGIN)
        fitted, _ = channel.demand_fit_kernel(snr, data.demands, data.b_max_hz, data.grid_hz)
        bw = np.where(data.fit, fitted, data.pinned)
        reachable = np.all(channel.shannon_rate_kernel(snr, bw) >= data.demands, axis=1)
        alive = reachable & (np.sum(bw, axis=1) - slack_hz <= data.b_max_hz)
        if not alive.any():
            return True
        lo, hi = lo[alive], hi[alive]
        _, feasible = _swarm_fitness(0.5 * (lo + hi), data, params, box)
        if feasible.any():
            return False
        lo, hi = _halve(lo, hi, axes)


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

    One particle is pinned at the witness. Every feasible position scores
    exactly the members' summed demand, which no position exceeds, and the
    global best moves only on a strict improvement, so the search stops at
    its first feasible best. The witness is scored alone first: when it is
    feasible it is returned with no iteration, before any generator is
    made, as the full swarm would return it (``argmax`` takes the first
    maximum, particle 0). Otherwise the swarm is seeded, and the stop is
    checked after seeding (a feasible random start runs no iteration) and
    after every update. If the global best is still infeasible at iteration
    ``early_stop_patience``, a branch and bound over the box
    (``_zone_unservable``) may prove that no position serves the zone; the
    search then stops there and returns that infeasible best.
    Placements that keep an infeasible zone (``allow_capacity_overrun``)
    also stop at their first feasible best; they only skip the certificate.
    Each iteration moves the whole swarm in one array step. Per-particle RNG
    substreams are derived from (config.seed, members), making the
    trajectory a pure function of the inputs. ``spheres`` is indexed by UE
    (see ``build_spheres``) and only bounds where the particles start and
    how fast they move; without spheres (the baselines) the box alone bounds
    both. The global best is returned as found, even outside a member
    sphere: the demand check, not sphere containment, decides feasibility.

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
    # Particle 0 sits at the witness, nothing scores above a feasible
    # position and argmax takes the first maximum: a feasible witness is the
    # swarm's answer, so return it before any generator is made.
    witness = zone.witness.as_array()
    value, feas = _swarm_fitness(witness[None, :], data, params, box)
    if feas[0]:
        if trace is not None:
            trace.append((0, float(value[0]), tuple(witness)))
        links, feasible = _allocations(witness, data, params)
        return PlacementSolution(uav_position=Point3.from_array(witness), served_ues=tuple(links),
                                 fitness=float(value[0]), feasible=feasible, iterations=0)

    centers = radii = None
    if spheres:
        centers = np.array([spheres[i].center.as_array() for i in zone.members])
        radii = np.array([spheres[i].radius for i in zone.members])
    lo, hi = _init_bounds(zone, centers, radii, box)
    v_max = 0.5 * (hi - lo)

    seed_seq = np.random.SeedSequence([int(config.seed) & 0xFFFFFFFF, *data.indices.tolist()])
    rngs = [np.random.default_rng(s) for s in seed_seq.spawn(config.particle_count)]

    positions = np.concatenate([witness[None, :],
                                lo + np.array([rng.random(3) for rng in rngs[1:]]) * (hi - lo)])
    velocities = np.zeros_like(positions)

    values, feas = _swarm_fitness(positions, data, params, box)
    pbest_pos = positions.copy()
    pbest_val = values.copy()
    pbest_feas = feas.copy()
    g = int(np.argmax(values))
    gbest_pos = positions[g].copy()
    gbest_val = float(values[g])
    gbest_feasible = bool(feas[g])

    iterations = 0
    if trace is not None:
        trace.append((0, gbest_val, tuple(gbest_pos)))

    # A feasible start draws no coefficient block.
    coefficients = () if gbest_feasible else _swarm_coefficients(rngs, config.max_iterations)
    for it, (r1, r2) in enumerate(coefficients, start=1):
        iterations = it
        velocities = _swarm_velocities(velocities, positions, pbest_pos, gbest_pos, r1, r2,
                                       config, v_max)
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

        if gbest_feasible or (it == config.early_stop_patience and not allow_capacity_overrun
                              and _zone_unservable(data, params, box)):
            break

    links, feasible = _allocations(gbest_pos, data, params)
    final_val, _ = _swarm_fitness(gbest_pos[None, :], data, params, box)
    return PlacementSolution(
        uav_position=Point3.from_array(gbest_pos),
        served_ues=tuple(links),
        fitness=float(final_val[0]),
        feasible=feasible,
        iterations=iterations,
    )

