"""Reference for the lockstep swarms: the same PSO, one zone at a time.

``positioning.optimize_positions`` runs the swarms of many zones together.
This module keeps the earlier per-zone search and its infeasibility
certificate, expression for expression, so the tests can hold the lockstep
search to it bit for bit: every floating-point operation here is the one the
batched code performs, in the same order, on one zone's arrays. Only the
elementwise channel kernels are shared.
"""
from dataclasses import dataclass

import numpy as np

from uavplan import channel
from uavplan.geometry import Point3
from uavplan.positioning import LinkAllocation, PlacementSolution, ZoneCapacityError

_DRAW_CHUNK = 32
_CERTIFY_PAIRS = 1 << 16
_BOUND_MARGIN = 1e-9


@dataclass
class MemberData:
    indices: np.ndarray
    positions: np.ndarray
    demands: np.ndarray
    pinned: np.ndarray
    fit: np.ndarray
    b_max_hz: float
    grid_hz: float
    penalty_scale: float


def member_data(members, scenario) -> MemberData:
    idx = np.array(sorted(members), dtype=int)
    ues = [scenario.ues[i] for i in idx]
    demands = np.array([ue.demand_bps for ue in ues])
    pinned = np.array([scenario.pinned_bandwidth_hz(ue) for ue in ues], dtype=float)
    return MemberData(
        indices=idx,
        positions=np.array([ue.position.as_array() for ue in ues]),
        demands=demands,
        pinned=pinned,
        fit=np.isnan(pinned),
        b_max_hz=scenario.b_max_hz,
        grid_hz=scenario.bandwidth_grid_hz,
        penalty_scale=10.0 * float(np.sum(demands)),
    )


def swarm_rates(positions, data, params):
    snr_hz = channel.snr_hz_between(data.positions[None, :, :], positions[:, None, :], params)
    bw = np.broadcast_to(data.pinned, snr_hz.shape)
    if data.fit.any():
        fitted, _ = channel.demand_fit_kernel(snr_hz, data.demands, data.b_max_hz, data.grid_hz)
        bw = np.where(data.fit, fitted, bw)
    rate = channel.shannon_rate_kernel(snr_hz, bw)
    return bw, rate, rate >= data.demands[None, :]


def swarm_fitness(positions, data, params, box):
    bw, rate, served = swarm_rates(positions, data, params)
    value = np.sum(np.minimum(rate, data.demands[None, :]), axis=1)
    unmet = np.sum(~served, axis=1)
    over_budget = np.sum(bw, axis=1) > data.b_max_hz
    outside = ~(
        np.all(positions >= box.lower[None, :], axis=1)
        & np.all(positions <= box.upper[None, :], axis=1)
    )
    penalty = data.penalty_scale * (unmet + over_budget.astype(int) + outside.astype(int))
    return value - penalty, penalty == 0


def allocations(position, data, params):
    bw, rate, served = swarm_rates(position[None, :], data, params)
    return [
        LinkAllocation(ue_index=int(i), bandwidth_hz=float(b), rate_bps=float(r))
        for i, b, r in zip(data.indices, bw[0], rate[0])
    ], bool(np.all(served[0])) and float(np.sum(bw[0])) <= data.b_max_hz


def swarm_coefficients(rngs, iterations):
    for start in range(0, iterations, _DRAW_CHUNK):
        block = np.stack([rng.random((min(_DRAW_CHUNK, iterations - start), 2, 3))
                          for rng in rngs])
        for step in range(block.shape[1]):
            yield block[:, step, 0], block[:, step, 1]


def swarm_velocities(velocities, positions, pbest_pos, gbest_pos, r1, r2, config, v_max):
    return np.clip(
        config.inertia_weight * velocities
        + config.cognitive_coeff * r1 * (pbest_pos - positions)
        + config.social_coeff * r2 * (gbest_pos - positions),
        -v_max, v_max,
    )


def halve(lo, hi, axes):
    for a in axes:
        mid = 0.5 * (lo[:, a] + hi[:, a])
        upper_lo, lower_hi = lo.copy(), hi.copy()
        upper_lo[:, a] = mid
        lower_hi[:, a] = mid
        lo, hi = np.concatenate([lo, upper_lo]), np.concatenate([lower_hi, hi])
    return lo, hi


def zone_unservable(data, params, box) -> bool:
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
        _, feasible = swarm_fitness(0.5 * (lo + hi), data, params, box)
        if feasible.any():
            return False
        lo, hi = halve(lo, hi, axes)


def init_bounds(zone, centers, radii, box):
    lo = box.lower
    hi = box.upper
    if centers is not None:
        lo = np.maximum(lo, np.max(centers - radii[:, None], axis=0))
        hi = np.minimum(hi, np.min(centers + radii[:, None], axis=0))
    w = zone.witness.as_array()
    return np.minimum(lo, w), np.maximum(hi, w)


def loop_position(zone, scenario, params, config, spheres=(), allow_capacity_overrun=False,
                  trace=None):
    """The per-zone ``optimize_position``: witness, seeding, steps, certificate."""
    data = member_data(zone.members, scenario)
    box = scenario.venue
    pinned_hz = float(np.sum(data.pinned[~data.fit]))
    if not allow_capacity_overrun and pinned_hz > data.b_max_hz:
        raise ZoneCapacityError(f"zone {zone.members} pins {pinned_hz:.0f} Hz of links")
    witness = zone.witness.as_array()
    value, feas = swarm_fitness(witness[None, :], data, params, box)
    if feas[0]:
        if trace is not None:
            trace.append((0, float(value[0]), tuple(witness)))
        links, feasible = allocations(witness, data, params)
        return PlacementSolution(uav_position=Point3.from_array(witness), served_ues=tuple(links),
                                 fitness=float(value[0]), feasible=feasible, iterations=0)

    centers = radii = None
    if spheres:
        centers = np.array([spheres[i].center.as_array() for i in zone.members])
        radii = np.array([spheres[i].radius for i in zone.members])
    lo, hi = init_bounds(zone, centers, radii, box)
    v_max = 0.5 * (hi - lo)

    seed_seq = np.random.SeedSequence([int(config.seed) & 0xFFFFFFFF, *data.indices.tolist()])
    rngs = [np.random.default_rng(s) for s in seed_seq.spawn(config.particle_count)]

    positions = np.concatenate([witness[None, :],
                                lo + np.array([rng.random(3) for rng in rngs[1:]]) * (hi - lo)])
    velocities = np.zeros_like(positions)

    values, feas = swarm_fitness(positions, data, params, box)
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

    coefficients = () if gbest_feasible else swarm_coefficients(rngs, config.max_iterations)
    for it, (r1, r2) in enumerate(coefficients, start=1):
        iterations = it
        velocities = swarm_velocities(velocities, positions, pbest_pos, gbest_pos, r1, r2,
                                      config, v_max)
        positions = box.clamp(positions + velocities)

        values, feas = swarm_fitness(positions, data, params, box)
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
                              and zone_unservable(data, params, box)):
            break

    links, feasible = allocations(gbest_pos, data, params)
    final_val, _ = swarm_fitness(gbest_pos[None, :], data, params, box)
    return PlacementSolution(
        uav_position=Point3.from_array(gbest_pos),
        served_ues=tuple(links),
        fitness=float(final_val[0]),
        feasible=feasible,
        iterations=iterations,
    )
