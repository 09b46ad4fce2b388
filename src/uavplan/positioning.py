"""UAV position refinement inside candidate zones via PSO, many zones in lockstep.

The swarm maximizes demand-capped aggregate throughput over the zone's
members, with additive penalties for unmet demands, bandwidth overrun and
out-of-box positions. Penalties dominate any possible throughput gain, so
an infeasible particle can never outrank a feasible one while still carrying
gradient information toward feasibility.

``optimize_positions`` runs the swarms of many zones together: each step
moves every running swarm and scores all of their (zone, particle, member)
links in one call of each elementwise channel kernel. A zone's sums over its
members take rows of equal member count in one ``np.sum(axis=1)``
(``_row_sums``), and each zone draws from its own random stream, seeded
from the scenario seed and its members, so each zone follows, bit for bit,
the trajectory it follows alone. ``optimize_position`` is a one-zone call
into it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from . import channel
from .coverage import CandidateZone
from .geometry import FeasibleBox, Point3, read_only

if TYPE_CHECKING:  # pragma: no cover
    from .channel import ChannelParams
    from .scenario import Scenario


@dataclass(frozen=True)
class SwarmConfig:
    particle_count: int = 30
    max_iterations: int = 100
    inertia_weight: float = 0.7
    cognitive_coeff: float = 1.5
    social_coeff: float = 1.5

    def __post_init__(self):
        if self.particle_count < 2:
            raise ValueError("particle_count must be >= 2")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if not 0.0 < self.inertia_weight < 1.0:
            raise ValueError("inertia_weight must lie in (0, 1)")
        for name in ("cognitive_coeff", "social_coeff"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")


# How a zone's placement ends: at its witness, at the witness raised to the
# box top, at the certificate's served probe, proven unservable, at a seeded
# start, or after the swarm stepped at least once.
ENDINGS = ("witness", "ceiling", "probe", "proven", "seeded", "iterated")


@dataclass(frozen=True, eq=False)
class PlacementSolution:
    """One zone's UAV position (3,) and its members' links, as read-only arrays.

    ``ue_indices`` (ascending), ``bandwidth_hz`` and ``rate_bps`` hold one
    entry per member: the link each member gets from ``uav_position``.
    ``ending`` is the one of ``ENDINGS`` at which the zone's search stopped.
    ``trace`` holds the search's (iteration, global best fitness, position)
    rows, the last one ``(iterations, fitness, uav_position)``: one row for
    a zone that no swarm searched.
    """

    uav_position: np.ndarray
    ue_indices: np.ndarray
    bandwidth_hz: np.ndarray
    rate_bps: np.ndarray
    fitness: float
    feasible: bool
    iterations: int
    ending: str
    trace: tuple


@dataclass(frozen=True)
class _Members:
    """The members of many zones, zone after zone, for batched evaluation."""

    indices: np.ndarray          # (M,) UE indices, ascending within a zone
    positions: np.ndarray        # (M, 3)
    demands: np.ndarray          # (M,)
    pinned: np.ndarray           # (M,) pinned link widths, NaN where demand-fit
    fit: np.ndarray              # (M,) True where demand-fit picks the width
    start: np.ndarray            # (Z,) first member of each zone
    count: np.ndarray            # (Z,) members of each zone
    penalty_scale: np.ndarray    # (Z,) dominates any achievable throughput sum
    b_max_hz: float
    grid_hz: float


def _groups(count: np.ndarray) -> list[tuple[int, int, int]]:
    """(first row, end row, member count) of each run of rows with equal counts."""
    cuts = [0, *(np.flatnonzero(np.diff(count)) + 1).tolist(), len(count)]
    return [(a, b, int(count[a])) for a, b in zip(cuts, cuts[1:])]


def _row_sums(values: np.ndarray, groups) -> np.ndarray:
    """Sum of each row's consecutive run of values, rows as ``_groups`` lists them.

    A run of rows with equal counts is one ``np.sum(axis=1)``, so every sum
    has the bits of that row summed alone. numpy sums 8 terms or more
    pairwise, so zero padding or ``np.add.reduceat`` would round otherwise.
    """
    sums, at = [], 0
    for a, b, k in groups:
        sums.append(values[at:at + (b - a) * k].reshape(b - a, k).sum(axis=1))
        at += (b - a) * k
    return sums[0] if len(sums) == 1 else np.concatenate(sums)


def _members(zones: Sequence[Sequence[int]], scenario: "Scenario") -> _Members:
    sets = [sorted(z) for z in zones]
    count = np.array([len(s) for s in sets], dtype=np.intp)
    indices = np.array([i for s in sets for i in s], dtype=int)
    demands, pinned = scenario.demands_bps[indices], scenario.pinned_widths_hz[indices]
    return _Members(
        indices=indices,
        positions=scenario.ue_positions[indices],
        demands=demands,
        pinned=pinned,
        fit=np.isnan(pinned),
        start=np.cumsum(count) - count,
        count=count,
        penalty_scale=10.0 * _row_sums(demands, _groups(count)),
        b_max_hz=scenario.b_max_hz,
        grid_hz=scenario.bandwidth_grid_hz,
    )


class _Rows(NamedTuple):
    """Points to score, each against one zone's members, and their (row, member) pairs.

    A row's pairs are its zone's members in order, rows after rows. Callers
    list rows in non-decreasing member count, so ``groups`` stays short.
    """

    zone: np.ndarray             # (R,) zone of each row
    groups: list                 # ``_groups`` of the rows' member counts
    row: np.ndarray              # (N,) row of each pair
    member: np.ndarray           # (N,) member of each pair


def _rows(m: _Members, zone: np.ndarray) -> _Rows:
    count = m.count[zone]
    row = np.repeat(np.arange(len(zone)), count)
    member = np.repeat(m.start[zone] - (np.cumsum(count) - count), count) + np.arange(len(row))
    return _Rows(zone, _groups(count), row, member)


def _rates(points: np.ndarray, rows: _Rows, m: _Members, params: "ChannelParams"):
    """Per-pair (bandwidth, rate, served) arrays, ``points`` holding each row's position.

    Pinned links keep their width; the others get the demand-fit width.
    Positions at or below a member's horizon give it a zero rate, so they
    score as unserved rather than being rejected and the swarm can move away.
    """
    demand, fit = m.demands[rows.member], m.fit[rows.member]
    snr_hz = channel.snr_hz_between(m.positions[rows.member], points[rows.row], params)
    bw = m.pinned[rows.member]
    if fit.any():
        # Fitting every pair and keeping the pinned widths is cheaper than
        # copying out the demand-fit pairs.
        fitted, _ = channel.demand_fit_kernel(snr_hz, demand, m.b_max_hz, m.grid_hz)
        bw = np.where(fit, fitted, bw)
    rate = channel.shannon_rate_kernel(snr_hz, bw)
    return bw, rate, rate >= demand


def _fitness(points: np.ndarray, rows: _Rows, m: _Members, params: "ChannelParams",
             box: FeasibleBox):
    """Each row's fitness and whether it is feasible, and the ``_rates`` of its pairs."""
    bw, rate, served = links = _rates(points, rows, m, params)
    value = _row_sums(np.minimum(rate, m.demands[rows.member]), rows.groups)
    unmet = _row_sums(~served, rows.groups)
    over_budget = _row_sums(bw, rows.groups) > m.b_max_hz
    outside = ~(
        np.all(points >= box.lower[None, :], axis=1)
        & np.all(points <= box.upper[None, :], axis=1)
    )
    penalty = m.penalty_scale[rows.zone] * (unmet + over_budget.astype(int) + outside.astype(int))
    return value - penalty, penalty == 0, links


def fitness(position: Point3, zone: CandidateZone, scenario: "Scenario",
            params: "ChannelParams") -> tuple[float, bool]:
    """Demand-capped throughput minus constraint penalties at one position."""
    m = _members([zone.members], scenario)
    values, feasible, _ = _fitness(position.as_array()[None, :], _rows(m, np.zeros(1, int)), m,
                                   params, scenario.venue)
    return float(values[0]), bool(feasible[0])


def _swarm_velocities(velocities, positions, pbest_pos, gbest_pos, r1, r2,
                      config: SwarmConfig, v_max):
    """One velocity update of whole swarms, clipped to +-v_max per axis."""
    return np.clip(
        config.inertia_weight * velocities
        + config.cognitive_coeff * r1 * (pbest_pos - positions)
        + config.social_coeff * r2 * (gbest_pos - positions),
        -v_max, v_max,
    )


# Cell-member pairs the infeasibility certificate may bound in all for one
# zone before it gives up unproven: a fixed count, so the outcome never
# depends on the host, and no zone's round holds more.
_CERTIFY_PAIRS = 1 << 16
# Cell-member pairs of all zones that one round scores at a time, so memory
# does not grow with the number of zones certified together.
_CERTIFY_BUDGET = 1 << 12
# Relative margin on the SNR bound: where a cell's nearest point is also its
# steepest (a flat cell), the bound is that point's exact SNR computed along
# another path, so rounding could put it a few ulps below the swarm's value.
_BOUND_MARGIN = 1e-9


def _halve(lo, hi, axes):
    """Every cell split at its midpoint along each of ``axes``; a cell's pieces stay adjacent."""
    for a in axes:
        mid = 0.5 * (lo[:, a] + hi[:, a])
        lo, hi = np.repeat(lo, 2, axis=0), np.repeat(hi, 2, axis=0)
        lo[1::2, a] = mid
        hi[0::2, a] = mid
    return lo, hi


def _unservable(m: _Members, zones: np.ndarray, params: "ChannelParams",
                box: FeasibleBox) -> tuple[np.ndarray, np.ndarray]:
    """For each of ``zones`` (ascending): True only when no position in the box serves every
    member, and the zone's first served probe (3,), NaN where no probe served it.

    A branch and bound over cells of the box, the cells of all zones a round
    at a time, each tagged with its zone. ``channel.snr_hz_upper_bound`` caps
    each member's SNR over a cell, which caps its rate and floors its
    demand-fit width there. A cell is excluded when some member misses its
    demand even at its widest allowed link (its pinned width, or the widest
    grid width), or when the members' smallest widths, less one grid step
    per demand-fit member as rounding slack, overrun the budget. The widest
    link is tested first, and widths are fitted only in cells that every
    member reaches. ``channel.demand_fit_kernel`` meets a demand wherever
    the widest grid width does, and returns that width wherever no grid
    width does, so the two tests exclude the same cells wherever the rate
    grows with the width: at every SNR density above about 1.3 kHz, below
    which rounding can put a narrower width's rate a few ulps above the
    widest's. A zone with no cell left is proven. Each surviving cell is
    probed at its zone members' mean position, clamped into the cell and
    raised to its top, since on a uniform venue reach grows with altitude
    up to the ceiling; a feasible probe ends the zone's search unproven,
    and the first such probe in cell order is returned. A zone some
    position serves is never proven, so the probe point changes the cost
    and the probe returned, never the outcome. Otherwise each cell is
    halved along the axes at least half as long as its longest. All cells
    share one shape, so a flat box stays 2D, a box about as tall as it is
    wide is halved along every axis, and a wide one is cut across its
    footprint alone until its cells are at most twice as wide as tall. A
    zone whose cells would take it past ``_CERTIFY_PAIRS`` pairs in all
    gives up, also unproven. Cells are judged one by one, so each zone gets
    the outcome and the probe it gets alone, and a round is scored at most
    ``_CERTIFY_BUDGET`` pairs at a time.
    """
    proven = np.zeros(len(m.count), bool)
    point = np.full((len(m.count), 3), np.nan)
    slack_hz = m.grid_hz * _row_sums(m.fit, _groups(m.count))
    widest = np.where(m.fit, int(m.b_max_hz // m.grid_hz) * m.grid_hz, m.pinned)
    mean = np.add.reduceat(m.positions, m.start) / m.count[:, None]
    extent = box.upper - box.lower
    examined = m.count.copy()
    tag = zones[examined[zones] <= _CERTIFY_PAIRS]
    lo, hi = np.tile(box.lower, (len(tag), 1)), np.tile(box.upper, (len(tag), 1))
    while len(tag):
        step = max(1, _CERTIFY_BUDGET // int(m.count[tag].max()))
        alive = np.zeros(len(tag), bool)
        for s in (slice(a, a + step) for a in range(0, len(tag), step)):
            rows = _rows(m, tag[s])
            demand = m.demands[rows.member]
            snr = channel.snr_hz_upper_bound(m.positions[rows.member], lo[s][rows.row],
                                             hi[s][rows.row], params) * (1.0 + _BOUND_MARGIN)
            bw = widest[rows.member]
            reach = _row_sums(~(channel.shannon_rate_kernel(snr, bw) >= demand), rows.groups) == 0
            fit = m.fit[rows.member] & reach[rows.row]
            if fit.any():
                bw[fit] = channel.demand_fit_kernel(snr[fit], demand[fit], m.b_max_hz, m.grid_hz)[0]
            alive[s] = reach & (_row_sums(bw, rows.groups) - slack_hz[tag[s]] <= m.b_max_hz)
        # Zones that end this round: first those with no cell left, then
        # those served at a probe.
        done = np.zeros(len(m.count), bool)
        done[tag] = True
        done[tag[alive]] = False
        proven |= done
        tag, lo, hi = tag[alive], lo[alive], hi[alive]
        probe = np.clip(mean[tag], lo, hi)
        probe[:, 2] = hi[:, 2]
        served = np.zeros(len(tag), bool)
        for s in (slice(a, a + step) for a in range(0, len(tag), step)):
            served[s] = _fitness(probe[s], _rows(m, tag[s]), m, params, box)[1]
        # Cells stay in zone order, so np.unique finds each zone's first served one.
        first, at = np.unique(tag[served], return_index=True)
        point[first] = probe[served][at]
        done[first] = True
        left = ~done[tag]
        tag, lo, hi = tag[left], lo[left], hi[left]
        axes = np.flatnonzero((extent > 0.0) & (extent >= 0.5 * extent.max()))
        extent[axes] *= 0.5
        # A zone whose halved cells would take it past the limit gives up
        # before they are made.
        examined += np.bincount(tag, minlength=len(m.count)) * m.count * 2 ** len(axes)
        keep = examined[tag] <= _CERTIFY_PAIRS
        tag, (lo, hi) = np.repeat(tag[keep], 2 ** len(axes)), _halve(lo[keep], hi[keep], axes)
    return proven[zones], point[zones]


def optimize_positions(
    zones: Sequence[CandidateZone],
    scenario: "Scenario",
    params: "ChannelParams",
    config: SwarmConfig,
    certify: bool = True,
) -> list[PlacementSolution]:
    """Global-best PSO over each zone, anchored at its witness, all swarms in lockstep.

    Every feasible position scores exactly the members' summed demand, which
    no position exceeds, so any feasible position is as good an answer as
    the swarm's, and a swarm stops at its first feasible best. Before any
    generator is made, each zone tries two anchors: its witness, scored for
    all zones in one evaluation, then, where the witness fails, the witness
    raised to the box top, ``(x, y, box.upper[2])``, in one more. The
    witness sits on the altitude floor, where the sphere deficits are
    smallest, while on a uniform venue reach grows with altitude up to the
    ceiling. A feasible anchor is the zone's answer at iteration 0, the
    witness first. With ``certify``, the zones that no anchor serves then
    try one batched branch and bound over the box (``_unservable``), sound
    and judging each zone alone. A zone it proves unservable, such as one
    whose pinned link widths alone overrun the budget, returns its witness;
    a zone served at one of its probes returns that probe, the first in
    cell order. Both end at iteration 0 with no generator made, so with
    ``certify`` only a zone on which the certificate gives up is searched.
    Without ``certify`` (the fixed-n baseline, which keeps its infeasible
    groups) zones skip the certificate and only the swarm's own stops apply.

    The remaining zones are seeded, each from one PCG64 stream seeded with
    ``SeedSequence([scenario.seed, *members])``: particle 0 sits at the
    witness, the starts of particles 1..n-1 are ``random((n - 1, 3))`` over
    the box, then every step draws ``random((n, 2, 3))``, each particle's r1
    then its r2, and moves at most half the box's extent per axis. A
    feasible start ends a zone at iteration 0 (``argmax`` takes the first
    maximum); otherwise all running swarms move in one array step, and a
    zone leaves at its first feasible best or at ``max_iterations``. So each
    zone's trajectory is a pure function of the zone and the inputs, whatever
    else shares the call; to re-seed the swarms, plan ``replace(scenario, seed=k)``.
    The global best is returned as found, even outside a member sphere: the
    demand check, not sphere containment, decides feasibility.

    Returns one solution per zone, in order, each with the one of
    ``ENDINGS`` that ended its search and the rows of its ``trace``.
    """
    if not zones:
        return []
    # Zones run in ascending member count, so that equal counts sit together.
    order = sorted(range(len(zones)), key=lambda k: len(zones[k].members))
    zones = [zones[k] for k in order]
    m = _members([z.members for z in zones], scenario)
    box = scenario.venue
    particles = config.particle_count
    best = np.array([z.witness.as_array() for z in zones])
    iterations = np.zeros(len(zones), int)
    ending = np.zeros(len(zones), int)  # index into ENDINGS, "witness" until a later step ends it
    trace = [[] for _ in zones]
    rows = _rows(m, np.arange(len(zones)))
    value, feas, (bw, rate, served) = _fitness(best, rows, m, params, box)

    def answer(zone, points, every=False):
        """Score ``points``, one per zone of ``zone`` (ascending), and make the feasible
        ones, or ``every`` one, those zones' answers; returns which are feasible."""
        sub = _rows(m, zone)
        v, f, (b, r, s) = _fitness(points, sub, m, params, box)
        take = np.ones_like(f) if every else f
        pairs = take[sub.row]
        best[zone[take]], value[zone[take]] = points[take], v[take]
        at = sub.member[pairs]
        bw[at], rate[at], served[at] = b[pairs], r[pairs], s[pairs]
        return f

    searched = ~feas  # zones that no anchor serves yet
    lift = np.flatnonzero(searched & (best[:, 2] < box.upper[2]))
    if len(lift):
        anchor = best[lift].copy()
        anchor[:, 2] = box.upper[2]
        ended = lift[answer(lift, anchor)]
        searched[ended], ending[ended] = False, ENDINGS.index("ceiling")
    if certify and searched.any():
        zone = np.flatnonzero(searched)
        proven, probe = _unservable(m, zone, params, box)
        searched[zone[proven]], ending[zone[proven]] = False, ENDINGS.index("proven")
        found = np.flatnonzero(~np.isnan(probe[:, 0]))
        if len(found):
            ended = zone[found][answer(zone[found], probe[found])]
            searched[ended], ending[ended] = False, ENDINGS.index("probe")
    for j in np.flatnonzero(~searched).tolist():
        trace[j].append((0, float(value[j]), tuple(best[j].tolist())))

    zone = np.flatnonzero(searched)  # the zones whose swarm runs, ascending
    if len(zone):
        members = [m.indices[m.start[j]:m.start[j] + m.count[j]].tolist() for j in zone]
        extent = box.upper - box.lower
        v_max = 0.5 * extent
        rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            [scenario.seed & 0xFFFFFFFF, *ues]))) for ues in members]
        draws = np.stack([rng.random((particles - 1, 3)) for rng in rngs])
        starts = box.lower + draws * extent
        positions = np.concatenate([best[zone][:, None, :], starts], axis=1)
        velocities = np.zeros_like(positions)
        swarm = _rows(m, np.repeat(zone, particles))
        values, feas, _ = _fitness(positions.reshape(-1, 3), swarm, m, params, box)
        values, feas = values.reshape(-1, particles), feas.reshape(-1, particles)
        pbest_pos, pbest_val, pbest_feas = positions.copy(), values.copy(), feas.copy()
        at = np.arange(len(zone))
        g = values.argmax(axis=1)
        gbest_pos, gbest_val, gbest_feas = positions[at, g], values[at, g], feas[at, g]
        it = 0
        while True:
            for k, j in enumerate(zone.tolist()):
                trace[j].append((it, float(gbest_val[k]), tuple(gbest_pos[k].tolist())))
            stop = gbest_feas | (it == config.max_iterations)
            if stop.any():
                best[zone[stop]] = gbest_pos[stop]
                iterations[zone[stop]] = it
                ending[zone[stop]] = ENDINGS.index("iterated" if it else "seeded")
                keep = ~stop
                if not keep.any():
                    break
                zone, positions, velocities, pbest_pos, pbest_val, pbest_feas, gbest_pos, \
                    gbest_val, gbest_feas = (
                        a[keep] for a in (zone, positions, velocities, pbest_pos, pbest_val,
                                          pbest_feas, gbest_pos, gbest_val, gbest_feas))
                rngs = [rng for rng, k in zip(rngs, keep) if k]
                swarm, at = _rows(m, np.repeat(zone, particles)), np.arange(len(zone))
            it += 1
            r = np.stack([rng.random((particles, 2, 3)) for rng in rngs])
            velocities = _swarm_velocities(velocities, positions, pbest_pos, gbest_pos[:, None, :],
                                           r[:, :, 0], r[:, :, 1], config, v_max)
            positions = box.clamp(positions + velocities)

            values, feas, _ = _fitness(positions.reshape(-1, 3), swarm, m, params, box)
            values, feas = values.reshape(-1, particles), feas.reshape(-1, particles)
            improved = values > pbest_val
            pbest_pos[improved] = positions[improved]
            pbest_val[improved] = values[improved]
            pbest_feas[improved] = feas[improved]
            g = pbest_val.argmax(axis=1)
            better = pbest_val[at, g] > gbest_val
            gbest_val[better] = pbest_val[at, g][better]
            gbest_pos[better] = pbest_pos[at, g][better]
            gbest_feas[better] = pbest_feas[at, g][better]

        answer(np.flatnonzero(searched), best[searched], every=True)

    feasible = ((_row_sums(~served, rows.groups) == 0)
                & (_row_sums(bw, rows.groups) <= m.b_max_hz)).tolist()
    ue = read_only(m.indices[rows.member])
    bw, rate = read_only(bw), read_only(rate)
    out = [None] * len(zones)
    for j in range(len(zones)):
        own = slice(m.start[j], m.start[j] + m.count[j])
        out[order[j]] = PlacementSolution(
            uav_position=read_only(best[j]),
            ue_indices=ue[own],
            bandwidth_hz=bw[own],
            rate_bps=rate[own],
            fitness=float(value[j]),
            feasible=feasible[j],
            iterations=int(iterations[j]),
            ending=ENDINGS[ending[j]],
            trace=tuple(trace[j]),
        )
    return out


def optimize_position(
    zone: CandidateZone,
    scenario: "Scenario",
    params: "ChannelParams",
    config: SwarmConfig,
    certify: bool = True,
) -> PlacementSolution:
    """``optimize_positions`` of one zone."""
    return optimize_positions([zone], scenario, params, config, certify=certify)[0]
