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
(``_row_sums``), so each zone follows, bit for bit, the trajectory it
follows alone. ``optimize_position`` is a one-zone call into it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

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
    ues = [scenario.ues[i] for i in indices.tolist()]
    demands = np.array([ue.demand_bps for ue in ues])
    pinned = np.array([scenario.pinned_bandwidth_hz(ue) for ue in ues], dtype=float)
    return _Members(
        indices=indices,
        positions=np.array([ue.position.as_array() for ue in ues]),
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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): the
# hashmix constants of the pool's mixing and of ``generate_state``, and mix's
# two multipliers. The pool holds 4 words.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """``init * mult**k mod 2**32`` for k = 0..n, as uint32."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, np.uint32)


_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """numpy's hashmix of ``value`` under the constants of its call: xor, then multiply."""
    value = (value ^ xor) * mul
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_L * x - _MIX_R * y
    return value ^ (value >> 16)


def _spawn_words(entropies: Sequence[Sequence[int]], children: int) -> np.ndarray:
    """``SeedSequence(e).spawn(children)[c].generate_state(4, np.uint64)`` for every e and c.

    Returns (len(entropies), children, 4) uint64 words; each entropy holds
    words below 2**32. numpy pads an entropy to the pool's 4 words when a
    spawn key follows, so a child's key is its last word, mixed in the
    remaining-entropy phase: each pool is mixed once up to it, and only the
    key and ``generate_state`` run per child. The k-th hashmix of a mixing
    takes the k-th constant whatever the entropy, so entropies of any length
    mix together, a word position at a time, and each pool is taken after
    its own last word. All words are uint32 arrays, which wrap silently as
    numpy's C words do.
    """
    given = np.array([len(e) for e in entropies])
    length = np.maximum(given, 4)
    width = int(length.max())
    words = np.zeros((len(entropies), width), np.uint32)
    words[np.arange(width) < given[:, None]] = np.fromiter(
        (w for e in entropies for w in e), np.uint32, int(given.sum()))
    # Hashmix k uses constants k and k + 1: 4 to fill the pool, 12 to mix it,
    # then 4 per word past the pool, the key included.
    h = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * (width - 3))
    pool = _hashmix(words[:, :4], h[:4], h[1:5])
    for src in range(4):
        dst, k = [d for d in range(4) if d != src], 4 + 3 * src
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], h[k:k + 3], h[k + 1:k + 4]))
    rest = h[16:16 + 4 * (width - 4) + 1]
    mixed = _hashmix(words[:, 4:, None], rest[:-1].reshape(-1, 4), rest[1:].reshape(-1, 4))
    pools = [pool]
    for p in range(width - 4):
        pools.append(_mix(pools[-1], mixed[:, p]))
    pool = np.stack(pools)[length - 4, np.arange(len(length))]
    key = 16 + 4 * (length - 4)[:, None] + np.arange(4)
    pool = _mix(pool[:, None, :], _hashmix(np.arange(children, dtype=np.uint32)[:, None],
                                           h[key][:, None, :], h[key + 1][:, None, :]))
    state = _hashmix(np.tile(pool, 2), _STATE_CONSTANTS[:-1], _STATE_CONSTANTS[1:])
    return state[..., ::2].astype(np.uint64) | state[..., 1::2].astype(np.uint64) << 32


@functools.cache
def _spawned_seed():
    """The ``ISeedSequence`` that hands PCG64 a spawned child's four uint64 words.

    Built on first use: ``np.random`` loads lazily, and a class defined at
    import would load it there, tens of milliseconds before any swarm runs.
    """

    class SpawnedSeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("a spawned seed holds PCG64's (4, uint64) words only")
            return self.words

    return SpawnedSeed


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
                box: FeasibleBox) -> np.ndarray:
    """For each of ``zones`` (ascending), True only when no position in the box serves every member.

    A branch and bound over cells of the box, the cells of all zones a round
    at a time, each tagged with its zone. ``channel.snr_hz_upper_bound`` caps
    each member's SNR over a cell, which caps its rate and floors its
    demand-fit width there. A cell is excluded when some member misses its
    demand even at its widest allowed link (its pinned width, or the widest
    grid width), or when the members' smallest widths, less one grid step
    per demand-fit member as rounding slack, overrun the budget. A zone with
    no cell left is proven. Surviving cells are probed at their centres, and
    a feasible centre ends the zone's search unproven; otherwise each is
    halved along every axis of positive extent, so a fixed-altitude box stays
    2D. A zone whose cells would take it past ``_CERTIFY_PAIRS`` pairs in all
    gives up, also unproven. Cells are judged one by one, so each zone gets
    the outcome it gets alone, and a round is scored at most
    ``_CERTIFY_BUDGET`` pairs at a time.
    """
    proven = np.zeros(len(m.count), bool)
    slack_hz = m.grid_hz * _row_sums(m.fit, _groups(m.count))
    axes = np.flatnonzero(box.upper > box.lower)
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
            fitted, _ = channel.demand_fit_kernel(snr, demand, m.b_max_hz, m.grid_hz)
            bw = np.where(m.fit[rows.member], fitted, m.pinned[rows.member])
            short = ~(channel.shannon_rate_kernel(snr, bw) >= demand)
            alive[s] = ((_row_sums(short, rows.groups) == 0)
                        & (_row_sums(bw, rows.groups) - slack_hz[tag[s]] <= m.b_max_hz))
        proven[np.setdiff1d(tag, tag[alive])] = True
        tag, lo, hi = tag[alive], lo[alive], hi[alive]
        served = np.zeros(len(tag), bool)
        for s in (slice(a, a + step) for a in range(0, len(tag), step)):
            served[s] = _fitness(0.5 * (lo[s] + hi[s]), _rows(m, tag[s]), m, params, box)[1]
        tag, lo, hi = (a[~np.isin(tag, tag[served])] for a in (tag, lo, hi))
        # A zone whose halved cells would take it past the limit gives up
        # before they are made.
        examined += np.bincount(tag, minlength=len(m.count)) * m.count * 2 ** len(axes)
        keep = examined[tag] <= _CERTIFY_PAIRS
        tag, (lo, hi) = np.repeat(tag[keep], 2 ** len(axes)), _halve(lo[keep], hi[keep], axes)
    return proven[zones]


def _init_bounds(witness, centers, radii, start, box: FeasibleBox):
    """Bounding box of each zone's member-sphere intersection, clipped to the box.

    ``centers`` and ``radii`` hold every zone's members, zone after zone from
    ``start``, or are None. The box is stretched to hold the witness.
    """
    lo = np.broadcast_to(box.lower, witness.shape)
    hi = np.broadcast_to(box.upper, witness.shape)
    if centers is not None:
        lo = np.maximum(lo, np.maximum.reduceat(centers - radii[:, None], start))
        hi = np.minimum(hi, np.minimum.reduceat(centers + radii[:, None], start))
    return np.minimum(lo, witness), np.maximum(hi, witness)


def optimize_positions(
    zones: Sequence[CandidateZone],
    scenario: "Scenario",
    params: "ChannelParams",
    config: SwarmConfig,
    spheres: Sequence = (),
    allow_capacity_overrun: bool = False,
    traces: Sequence[list] | None = None,
) -> list[PlacementSolution | None]:
    """Global-best PSO over each zone, anchored at its witness, all swarms in lockstep.

    One particle is pinned at the witness. Every feasible position scores
    exactly the members' summed demand, which no position exceeds, and the
    global best moves only on a strict improvement, so a search stops at
    its first feasible best. The witnesses are scored first, in one
    evaluation: a feasible witness is returned with no iteration, before any
    generator is made, as the full swarm would return it (``argmax`` takes
    the first maximum, particle 0). The other zones are seeded, each from its
    own streams, and every stop is checked after seeding (a feasible random
    start runs no iteration) and after every update. Each step moves all
    running swarms in one array step, and a zone leaves at its first
    feasible best. Zones whose global best is still infeasible at iteration
    ``early_stop_patience`` try one batched branch and bound over the box
    (``_unservable``); each zone it proves unservable stops there and
    returns that infeasible best. Placements that keep an infeasible zone
    (``allow_capacity_overrun``) also stop at their first feasible best;
    they only skip the certificate. Particle c draws from the PCG64 stream
    of child c of ``SeedSequence([scenario.seed, *members])``, every zone's
    seeding words derived in one pass (``_spawn_words``), so each zone's
    trajectory is a pure function of the zone and the inputs, whatever else
    shares the call; to re-seed the swarms, plan ``replace(scenario, seed=k)``.
    ``spheres`` is indexed by UE (see ``build_spheres``) and only bounds
    where the particles start and how fast they move; without spheres (the
    baselines) the box alone bounds both. The global best is returned as
    found, even outside a member sphere: the demand check, not sphere
    containment, decides feasibility.

    Returns one result per zone, in order: None where the members' pinned
    link widths alone overrun the bandwidth budget (the caller should split
    the zone), unless ``allow_capacity_overrun`` is set (baselines report
    violations instead). ``traces``, when given, holds one list per zone,
    which receives the zone's (iteration, global best fitness, position) rows.
    """
    if not zones:
        return []
    # Zones run in ascending member count, so that equal counts sit together.
    order = sorted(range(len(zones)), key=lambda k: len(zones[k].members))
    zones = [zones[k] for k in order]
    traces = [traces[k] for k in order] if traces is not None else None
    m = _members([z.members for z in zones], scenario)
    box = scenario.venue
    particles = config.particle_count
    out: list[PlacementSolution | None] = [None] * len(zones)

    # Pinned widths do not depend on the position, so if they alone overrun
    # the budget no position serves the zone; the demand-fit share varies
    # with position and is judged after the search.
    overrun = np.zeros(len(zones), bool)
    if not (allow_capacity_overrun or m.fit.all()):
        for j in range(len(zones)):
            own = slice(m.start[j], m.start[j] + m.count[j])
            overrun[j] = float(np.sum(m.pinned[own][~m.fit[own]])) > m.b_max_hz
    live = np.flatnonzero(~overrun)
    if not len(live):
        return out
    # Particle 0 sits at the witness, nothing scores above a feasible
    # position and argmax takes the first maximum: a feasible witness is the
    # swarm's answer, so it needs no generator.
    best = np.array([z.witness.as_array() for z in zones])
    iterations = np.zeros(len(zones), int)
    rows = _rows(m, live)
    value, feas, links = _fitness(best[live], rows, m, params, box)
    if traces is not None:
        for j, v in zip(live[feas].tolist(), value[feas].tolist()):
            traces[j].append((0, v, tuple(best[j])))

    zone = live[~feas]  # the zones whose swarm runs, ascending
    if len(zone):
        members = [m.indices[m.start[j]:m.start[j] + m.count[j]].tolist() for j in zone]
        centers = radii = None
        if spheres:
            centers = np.array([spheres[i].center.as_array() for g in members for i in g])
            radii = np.array([spheres[i].radius for g in members for i in g])
        lo, hi = _init_bounds(best[zone], centers, radii, np.cumsum(m.count[zone]) - m.count[zone],
                              box)
        v_max = 0.5 * (hi - lo)
        coefficients, draws = [], []
        words = _spawn_words([[scenario.seed & 0xFFFFFFFF, *ues] for ues in members], particles)
        seed = _spawned_seed()
        for zone_words in words:
            rngs = [np.random.Generator(np.random.PCG64(seed(w))) for w in zone_words]
            draws.append([rng.random(3) for rng in rngs[1:]])
            # Draws nothing until the first step: a feasible start draws no block.
            coefficients.append(_swarm_coefficients(rngs, config.max_iterations))
        starts = lo[:, None, :] + np.array(draws) * (hi - lo)[:, None, :]
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
            if traces is not None:
                for k, j in enumerate(zone.tolist()):
                    traces[j].append((it, float(gbest_val[k]), tuple(gbest_pos[k])))
            stop = gbest_feas.copy()
            if it == config.max_iterations:
                stop[:] = True
            elif it == config.early_stop_patience and not allow_capacity_overrun and not stop.all():
                stop[~stop] = _unservable(m, zone[~stop], params, box)
            if stop.any():
                best[zone[stop]] = gbest_pos[stop]
                iterations[zone[stop]] = it
                keep = ~stop
                if not keep.any():
                    break
                zone, positions, velocities, pbest_pos, pbest_val, pbest_feas, gbest_pos, \
                    gbest_val, gbest_feas, v_max = (
                        a[keep] for a in (zone, positions, velocities, pbest_pos, pbest_val,
                                          pbest_feas, gbest_pos, gbest_val, gbest_feas, v_max))
                coefficients = [c for c, k in zip(coefficients, keep) if k]
                swarm, at = _rows(m, np.repeat(zone, particles)), np.arange(len(zone))
            it += 1
            r1, r2 = (np.stack(r) for r in zip(*(next(c) for c in coefficients)))
            velocities = _swarm_velocities(velocities, positions, pbest_pos, gbest_pos[:, None, :],
                                           r1, r2, config, v_max[:, None, :])
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

        # Score every final position; when no swarm runs, the witness scores stand.
        value, _, links = _fitness(best[live], rows, m, params, box)

    bw, rate, served = links
    feasible = ((_row_sums(~served, rows.groups) == 0)
                & (_row_sums(bw, rows.groups) <= m.b_max_hz)).tolist()
    ue, bw, rate = m.indices[rows.member].tolist(), bw.tolist(), rate.tolist()
    at = 0
    for k, j in enumerate(live.tolist()):
        own = slice(at, at + int(m.count[j]))
        at = own.stop
        out[order[j]] = PlacementSolution(
            uav_position=Point3.from_array(best[j]),
            served_ues=tuple(LinkAllocation(ue_index=i, bandwidth_hz=b, rate_bps=r)
                             for i, b, r in zip(ue[own], bw[own], rate[own])),
            fitness=float(value[k]),
            feasible=feasible[k],
            iterations=int(iterations[j]),
        )
    return out


def optimize_position(
    zone: CandidateZone,
    scenario: "Scenario",
    params: "ChannelParams",
    config: SwarmConfig,
    spheres: Sequence = (),
    allow_capacity_overrun: bool = False,
    trace: list | None = None,
) -> PlacementSolution:
    """``optimize_positions`` of one zone.

    Raises ZoneCapacityError when the members' pinned link widths alone
    overrun the bandwidth budget (the caller should split the zone), unless
    ``allow_capacity_overrun`` is set.
    """
    traces = [trace] if trace is not None else None
    sol, = optimize_positions([zone], scenario, params, config, spheres=spheres,
                              allow_capacity_overrun=allow_capacity_overrun, traces=traces)
    if sol is None:
        raise ZoneCapacityError(
            f"zone {zone.members} pins more link bandwidth than the budget "
            f"{scenario.b_max_hz:.0f} Hz"
        )
    return sol
