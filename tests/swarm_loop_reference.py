"""Reference for the lockstep swarms: the same PSO, one zone at a time.

``positioning.optimize_positions`` runs the swarms of many zones together.
This module keeps the earlier per-zone search, expression for expression,
so the tests can hold the lockstep search to it bit for bit: every
floating-point operation here is the one the batched code performs, in the
same order, on one zone's arrays. Only the elementwise channel kernels are
shared. Its infeasibility certificate (``zone_unservable``) is an outcome
oracle instead: it proves the same zones as ``positioning._unservable`` by
another search. A zone it does not prove takes its served probe, if any,
from ``positioning._unservable`` run on the zone alone, so the lockstep
search is held to each zone's own probe.
"""
from dataclasses import dataclass

import numpy as np

from uavplan import channel, positioning
from uavplan.positioning import PlacementSolution

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
    pinned = scenario.pinned_widths_hz[idx]
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
    links = {"ue_indices": data.indices, "bandwidth_hz": bw[0], "rate_bps": rate[0]}
    return links, bool(np.all(served[0])) and float(np.sum(bw[0])) <= data.b_max_hz


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


def zone_outcome(data, params, box) -> str:
    """How ``zone_unservable``'s search ends: "proven", "served" at a probe, or "gave up"."""
    lo, hi = box.lower[None, :], box.upper[None, :]
    axes = np.flatnonzero(box.upper > box.lower)
    slack_hz = data.grid_hz * np.count_nonzero(data.fit)
    examined = 0
    while True:
        examined += len(lo) * len(data.indices)
        if examined > _CERTIFY_PAIRS:
            return "gave up"
        snr = channel.snr_hz_upper_bound(data.positions[None, :, :], lo[:, None, :],
                                         hi[:, None, :], params) * (1.0 + _BOUND_MARGIN)
        fitted, _ = channel.demand_fit_kernel(snr, data.demands, data.b_max_hz, data.grid_hz)
        bw = np.where(data.fit, fitted, data.pinned)
        reachable = np.all(channel.shannon_rate_kernel(snr, bw) >= data.demands, axis=1)
        alive = reachable & (np.sum(bw, axis=1) - slack_hz <= data.b_max_hz)
        if not alive.any():
            return "proven"
        lo, hi = lo[alive], hi[alive]
        _, feasible = swarm_fitness(0.5 * (lo + hi), data, params, box)
        if feasible.any():
            return "served"
        lo, hi = halve(lo, hi, axes)


def zone_unservable(data, params, box) -> bool:
    """The earlier infeasibility certificate of one zone, kept as an outcome oracle.

    It halves every cell along every axis of positive extent, probes each
    surviving cell at its centre and tests each member at its fitted
    demand-fit width. ``positioning._unservable`` cuts other cells, probes
    other points and tests the widest link first, so it is no longer an
    expression-for-expression copy: the two must prove the same zones
    wherever this search does not give up.
    """
    return zone_outcome(data, params, box) == "proven"


def served_probe(zone, scenario, params):
    """The first served probe of ``positioning._unservable`` on ``zone`` alone, or None."""
    m = positioning._members([zone.members], scenario)
    probe = positioning._unservable(m, np.zeros(1, int), params, scenario.venue)[1][0]
    return None if np.isnan(probe[0]) else probe


def loop_position(zone, scenario, params, config, certify=True):
    """The per-zone ``optimize_position``: anchors, certificate, seeding, steps."""
    data = member_data(zone.members, scenario)
    box = scenario.venue
    witness = zone.witness.as_array()

    def answer(position, value, ending):
        links, feasible = allocations(position, data, params)
        return PlacementSolution(uav_position=position, **links, fitness=float(value),
                                 feasible=feasible, iterations=0, ending=ending,
                                 trace=((0, float(value), tuple(position)),))

    # The witness, then the witness raised to the box top: a feasible anchor
    # is the answer, and no generator is made.
    anchors = [(witness, "witness")]
    if witness[2] < box.upper[2]:
        anchors.append((np.array([witness[0], witness[1], box.upper[2]]), "ceiling"))
    for position, ending in anchors:
        value, feas = swarm_fitness(position[None, :], data, params, box)
        if feas[0]:
            return answer(position, value[0], ending)
    # The certificate runs before seeding: a proven zone keeps its witness,
    # and a zone served at a probe ends there.
    if certify and zone_unservable(data, params, box):
        return answer(witness, swarm_fitness(witness[None, :], data, params, box)[0][0], "proven")
    probe = served_probe(zone, scenario, params) if certify else None
    if probe is not None:
        value, feas = swarm_fitness(probe[None, :], data, params, box)
        if feas[0]:
            return answer(probe, value[0], "probe")

    # Particles start and move over the box.
    lo, hi = box.lower, box.upper
    v_max = 0.5 * (hi - lo)

    rng = np.random.default_rng([scenario.seed & 0xFFFFFFFF, *data.indices.tolist()])

    positions = np.concatenate([witness[None, :],
                                lo + rng.random((config.particle_count - 1, 3)) * (hi - lo)])
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
    trace = [(0, gbest_val, tuple(gbest_pos))]

    steps = () if gbest_feasible else range(1, config.max_iterations + 1)
    for it in steps:
        iterations = it
        r1, r2 = np.moveaxis(rng.random((config.particle_count, 2, 3)), 1, 0)
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
        trace.append((it, gbest_val, tuple(gbest_pos)))

        if gbest_feasible:
            break

    links, feasible = allocations(gbest_pos, data, params)
    final_val, _ = swarm_fitness(gbest_pos[None, :], data, params, box)
    return PlacementSolution(
        uav_position=gbest_pos,
        **links,
        fitness=float(final_val[0]),
        feasible=feasible,
        iterations=iterations,
        ending="iterated" if iterations else "seeded",
        trace=tuple(trace),
    )
