"""Coverage spheres, candidate service zones, and zone set covering.

Every user gets a service ball whose radius is the maximum distance at which
its demand is satisfiable. A candidate zone is a nonempty intersection of
such balls with the feasible UAV box, certified by a witness point; a single
UAV placed at the witness can serve every member of the zone (capacity
permitting). Users sit below the altitude floor, so the witness is an exact
2D minimax of the member deficits on the floor, solved for many member sets
at once (``zone_witnesses``; ``zone_witness`` solves one). Selecting the
fewest zones that cover all users is the combinatorial core of minimizing
the UAV count.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .channel import ChannelDomainError, max_service_distance
from .geometry import FeasibleBox, Point3

if TYPE_CHECKING:  # pragma: no cover
    from .channel import ChannelParams
    from .scenario import Scenario


class UnservableError(Exception):
    """Some UEs cannot be served from anywhere inside the feasible box."""

    def __init__(self, ue_indices: Sequence[int]):
        self.ue_indices = tuple(sorted(ue_indices))
        super().__init__(f"unservable UEs: {self.ue_indices}")


class UncoverableError(Exception):
    """A UE appears in no candidate zone; covering is impossible."""


@dataclass(frozen=True)
class CoverageSphere:
    """Service ball around one UE: inside it the UE's demand is satisfiable."""

    ue_index: int
    center: Point3
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"sphere radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class CandidateZone:
    """Nonempty intersection of member spheres with the feasible box.

    ``slack`` is the smallest margin by which the witness sits inside the
    member spheres: min_i (radius_i - |witness - center_i|), >= 0.
    """

    members: tuple[int, ...]
    witness: Point3
    slack: float


def sphere_bandwidth(ue, scenario) -> float:
    """Bandwidth assumed when sizing a UE's coverage sphere.

    A pinned link (see ``Scenario.pinned_bandwidth_hz``) is sized at its
    width. A demand-fit link's width is chosen at positioning time, so its
    sphere uses the full per-UAV budget: the ball then contains exactly the
    positions where *some* admissible bandwidth meets the demand.
    """
    pinned = scenario.pinned_bandwidth_hz(ue)
    return scenario.b_max_hz if pinned is None else pinned


def build_spheres(scenario: "Scenario", params: "ChannelParams") -> list[CoverageSphere]:
    """One service sphere per UE, in UE order; fails if any UE is unservable.

    A UE is unservable when its sphere misses the UAV box, or when its demand
    is beyond the rate inversion at its sphere's width (``sphere_bandwidth``).

    Every later stage indexes spheres by position: ``spheres[i]`` is the
    sphere of UE ``i`` and has ``ue_index == i``.
    """
    spheres = []
    unservable = []
    box = scenario.venue
    for i, ue in enumerate(scenario.ues):
        try:
            radius = max_service_distance(ue.demand_bps, sphere_bandwidth(ue, scenario), params)
        except ChannelDomainError:  # demand/width overflows the rate inversion
            unservable.append(i)
            continue
        spheres.append(CoverageSphere(ue_index=i, center=ue.position, radius=radius))
        if box.distance_to(ue.position.as_array()) >= radius:
            unservable.append(i)
    if unservable:
        raise UnservableError(unservable)
    return spheres


# ---------------------------------------------------------------------------
# Witness search: minimize the worst sphere deficit over the box.
# ---------------------------------------------------------------------------

def _roots(a, b, c) -> np.ndarray:
    """Both roots of a t^2 + 2 b t + c = 0, elementwise, stacked on a new first axis.

    The product form keeps a small root accurate and gives the linear root
    when ``a`` is 0. A root that does not exist comes back non-finite or, from
    the clipped discriminant, as some real value; callers use every root only
    as a candidate point, scored exactly.
    """
    q = -(b + np.copysign(np.sqrt(np.maximum(b * b - a * c, 0.0)), b))
    return np.array([q / a, c / q])


@functools.lru_cache(maxsize=32)
def _basis_indices(m: int) -> tuple[np.ndarray, ...]:
    """Read-only index arrays of every basis of an m-member working set.

    The pairs ``i``, ``j``; for each edge line (after the centre segments)
    its edge x = lo, x = hi, y = lo, y = hi and its direction; the two ends
    of every line; each triple's first member and its other two.
    """
    i, j = np.triu_indices(m, 1)
    edge = np.repeat(np.arange(4), len(i))
    direction = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])[edge]
    ends = np.concatenate([np.tile(i, 5), np.tile(j, 5)])
    triples = np.array(list(itertools.combinations(range(m), 3)), dtype=np.intp).reshape(-1, 3)
    out = (i, j, edge, direction, ends, triples[:, 0], triples[:, 1:])
    for a in out:
        a.flags.writeable = False
    return out


def _basis_points(xy, h2, r, lo, hi) -> np.ndarray:
    """Minimizer of every basis of at most three pieces, per working set (first axis).

    A piece is a member's deficit sqrt(|q - a|^2 + h2) - r or an edge of the
    rectangle ``lo``-``hi``. The bases are: one member (its clamped centre);
    two members on their centre segment or on an edge line (where their
    deficits are equal); three members (where all three are equal); and the
    four corners. The minimum of the max over the members is one of them.
    Each equal-deficit point solves the lifted equations
    |q - a|^2 + h2 = (t + r)^2: subtracting two of them is linear in (q, t).
    The points are unclipped; a basis with no solution gives a non-finite one.
    """
    a, m = r.shape
    (x0, y0), (x1, y1) = lo, hi
    points = [xy.clip(lo, hi), np.broadcast_to([[x0, y0], [x0, y1], [x1, y0], [x1, y1]], (a, 4, 2))]
    if m >= 2:
        i, j, edge, edge_direction, ends, _, _ = _basis_indices(m)
        edge_origin = np.array([[x0, 0.0], [x1, 0.0], [0.0, y0], [0.0, y1]])[edge]
        seg = xy[:, j] - xy[:, i]
        origin = np.concatenate([xy[:, i], np.broadcast_to(edge_origin, (a, len(edge), 2))], axis=1)
        direction = np.concatenate([seg / np.hypot(seg[..., 0], seg[..., 1])[..., None],
                                    np.broadcast_to(edge_direction, (a, len(edge), 2))], axis=1)
        # Each line's two members: position along it, and h2 plus the squared offset.
        rel = xy[:, ends].reshape(a, 2, -1, 2).swapaxes(0, 1) - origin
        pos = (rel * direction).sum(axis=3)
        off = rel - pos[..., None] * direction
        (p_i, p_j), (g_i, g_j) = pos, h2[:, ends].reshape(a, 2, -1).swapaxes(0, 1) + (off * off).sum(axis=3)
        r_i, r_j = r[:, ends].reshape(a, 2, -1).swapaxes(0, 1)
        # Along a line the position is s = p_i + alpha t + beta.
        d = p_j - p_i
        alpha = (r_i - r_j) / d
        beta = ((r_i - r_j) * (r_i + r_j) + d * d - g_i + g_j) / (2 * d)
        t = _roots(alpha * alpha - 1, alpha * beta - r_i, beta * beta + g_i - r_i * r_i)
        points.extend(origin + (p_i + alpha * t + beta)[..., None] * direction)
    if m >= 3:
        *_, i, jk = _basis_indices(m)
        # With u = q - a_i, subtracting member i's lifted equation from j's
        # and k's gives two linear equations b u = e0 + e1 t.
        b = xy[:, jk] - xy[:, i][:, :, None]
        rhs = np.stack([0.5 * (r[:, i, None] ** 2 - r[:, jk] ** 2 + (b * b).sum(axis=3)
                               - h2[:, i, None] + h2[:, jk]),
                        r[:, i, None] - r[:, jk]], axis=3)
        det = b[..., 0, 0] * b[..., 1, 1] - b[..., 0, 1] * b[..., 1, 0]
        adj = np.stack([b[..., 1, 1], -b[..., 0, 1], -b[..., 1, 0], b[..., 0, 0]], axis=2).reshape(b.shape)
        u0, u1 = np.moveaxis(adj @ rhs / det[..., None, None], 3, 0)
        t = _roots((u1 * u1).sum(axis=2) - 1, (u0 * u1).sum(axis=2) - r[:, i],
                   (u0 * u0).sum(axis=2) + h2[:, i] - r[:, i] ** 2)
        points.extend(xy[:, i] + u0 + t[..., None] * u1)
    return np.concatenate(points, axis=1)


def _deficits(q, xy, h2, r) -> np.ndarray:
    """Per set, each member's deficit at each point, |q - c| summed as np.linalg.norm does."""
    dx, dy = q[..., :1] - xy[:, None, :, 0], q[..., 1:] - xy[:, None, :, 1]
    return np.sqrt(dx * dx + dy * dy + h2[:, None]) - r[:, None]


def _padded(sets: Sequence[Sequence[int]], centers: np.ndarray, radii: np.ndarray, pad):
    """Set sizes, and member centres and radii in rows padded by centre ``pad``, radius inf."""
    sizes = np.array([len(s) for s in sets])
    cols = np.full((len(sets), sizes.max()), len(centers))
    cols[np.arange(cols.shape[1]) < sizes[:, None]] = np.concatenate(sets)
    return sizes, np.vstack([centers, pad])[cols], np.append(radii, np.inf)[cols]


# Basis points x working members that one witness solve scores at once.
_WITNESS_BUDGET = 1 << 14


def zone_witnesses(sets: Sequence[Iterable[int]], centers: np.ndarray, radii: np.ndarray,
                   box: FeasibleBox) -> list[tuple[Point3, float]]:
    """Point in the box minimizing the worst member-sphere deficit, for each member set.

    ``centers`` and ``radii`` are indexed by UE, as ``sets`` is. Returns one
    ``(point, deficit)`` per set; ``deficit <= 0`` certifies that the point
    lies inside every member sphere (the zone is nonempty), ``deficit > 0``
    certifies infeasibility of the member set.

    Every member centre lies at or below the altitude floor (``Scenario``
    guarantees it; a flat box needs no such bound), so each deficit grows
    with altitude and the minimum lies on the floor. There it is an exact 2D
    minimax over the footprint: a working set grows from the member worst
    off at the clamped mean, each round adding the member most above the
    subset's optimum, whose basis points are closed-form (``_basis_points``).
    The sets still growing in a round have equally many working members, so
    the round solves them together, ``_WITNESS_BUDGET`` elements at a time;
    member lists are padded with a sphere of infinite radius, never the
    worst. Each set's result is, bit for bit, the one it gets alone.
    Deterministic; raises ValueError for an empty set or a centre above the
    floor of a box that is not flat.
    """
    sets = [sorted(set(s)) for s in sets]
    if not all(sets):
        raise ValueError("empty member set")
    if not sets:
        return []
    z = box.z[0]
    sizes, c, r = _padded(sets, centers, radii, [0.0, 0.0, z])  # the padding lies on the floor
    if box.z[1] > z and (c[..., 2] > z).any():
        raise ValueError(f"a member centre lies above the altitude floor {z} m")
    xy, h2 = c[..., :2], (z - c[..., 2]) ** 2
    lo, hi = box.lower[:2], box.upper[:2]
    out = np.empty((len(sets), 3))  # x, y, deficit

    with np.errstate(divide="ignore", invalid="ignore"):
        # The padding adds zeros after the members, in the order xy.mean(axis=0) sums them.
        start = (xy.sum(axis=1) / sizes[:, None]).clip(lo, hi)
        active = np.arange(len(sets))
        work = _deficits(start[:, None], xy, h2, r)[:, 0].argmax(axis=1)[:, None]
        while len(active):
            w = work.shape[1]
            step = max(1, _WITNESS_BUDGET // (w * (w + 4 + 10 * math.comb(w, 2) + 2 * math.comb(w, 3))))
            best, bound = np.empty((len(active), 2)), np.empty(len(active))
            for k in range(0, len(active), step):
                sub = [v[active[k:k + step, None], work[k:k + step]] for v in (xy, h2, r)]
                points = _basis_points(*sub, lo, hi)
                finite = np.isfinite(points).all(axis=2)
                points = points.clip(lo, hi)
                # A basis with no solution scores +inf, so argmin picks the first best of the rest.
                worst_in_work = np.where(finite, _deficits(points, *sub).max(axis=2), np.inf)
                pick = np.arange(len(points)), worst_in_work.argmin(axis=1)
                best[k:k + step], bound[k:k + step] = points[pick], worst_in_work[pick]
            d = _deficits(best[:, None], xy[active], h2[active], r[active])[:, 0]
            worst = d.argmax(axis=1)
            top = d[np.arange(len(active)), worst]
            done = top <= bound  # the subset optimum is the set's
            out[active[done]] = np.column_stack([best[done], top[done]])
            active, work = active[~done], np.column_stack([work[~done], worst[~done]])
    return [(Point3(float(x), float(y), float(z)), float(f)) for x, y, f in out]


def zone_witness(members: Iterable[int], spheres: Sequence[CoverageSphere],
                 box: FeasibleBox) -> tuple[Point3, float]:
    """``zone_witnesses`` of one member set; ``spheres`` is indexed by UE (see ``build_spheres``)."""
    centers = np.array([s.center.as_array() for s in spheres])
    return zone_witnesses([members], centers, np.array([s.radius for s in spheres]), box)[0]


# ---------------------------------------------------------------------------
# Zone enumeration: all maximal feasible member sets.
# ---------------------------------------------------------------------------

# Candidate points whose memberships, and sets whose containment, are decided at once.
_BLOCK = 512


def _membership(sets: Sequence[Iterable[int]], n: int) -> np.ndarray:
    """Set x user membership matrix: row k is 1.0 at each member of ``sets[k]``.

    ``n`` columns, more if a member index reaches past it. Float, so that
    intersection counts are one BLAS matmul; they are small integers, exact.
    """
    sizes = [len(s) for s in sets]
    cols = np.fromiter(itertools.chain.from_iterable(sets), np.intp, sum(sizes))
    member = np.zeros((len(sets), max(n, int(cols.max(initial=-1)) + 1)), np.float32)
    member[np.repeat(np.arange(len(sets)), sizes), cols] = 1.0
    return member


def _unique_rows(rows: np.ndarray, return_index: bool = False):
    """``np.unique(rows, axis=0)`` of ``uint8`` rows, each row compared as one byte string.

    ``axis=0`` sorts the rows a byte field at a time; as one ``np.void`` a
    row sorts by memcmp, which orders unsigned bytes the same. With
    ``return_index`` the 1-D ``np.unique`` sorts stably, so it keeps each
    first occurrence, as ``axis=0`` does.
    """
    rows = np.ascontiguousarray(rows, np.uint8)
    width = rows.shape[1]
    out = np.unique(rows.view(np.dtype((np.void, width))).ravel(), return_index=return_index)
    if return_index:
        return out[0].view(np.uint8).reshape(-1, width), out[1]
    return out.view(np.uint8).reshape(-1, width)


def _dominated(member: np.ndarray) -> np.ndarray:
    """Rows whose set lies inside another row's: strictly, or equal to an earlier row's.

    On a family of distinct sets these are exactly the non-maximal ones.
    Largest first, each row is tested only against the larger rows not yet
    found inside another, a block at a time: a set inside a larger one lies
    inside a maximal one.
    """
    size = member.sum(axis=1)
    inside = np.zeros(len(member), bool)
    for s in np.unique(size)[::-1]:
        kept, rows = member[~inside & (size > s)].astype(np.float32), np.flatnonzero(size == s)
        for block in np.array_split(rows, -(-len(rows) // _BLOCK)):
            inside[block] = (member[block] @ kept.T == s).any(axis=1)
    first = np.zeros(len(member), bool)
    first[_unique_rows(np.packbits(member > 0, axis=1), return_index=True)[1]] = True
    return inside | ~first


def _maximal(sets: list, n: int) -> list:
    """The sets of a family of distinct sets that lie inside no other, in order."""
    return [s for s, d in zip(sets, _dominated(_membership(sets, n))) if not d]


def _floor_points(xy, rho2, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Every vertex candidate of the floor disks in the rectangle ``lo``-``hi``.

    Disk ``i`` has centre ``xy[i]`` and squared radius ``rho2[i]``. Returns
    the points and, per point, the two disks that define it (index ``n``, one
    past the last disk, where none does): the clamped centres and the four
    corners (none), each crossing of a disk with an edge that lies on the
    rectangle (that disk, twice), and both crossings of every pair of disks
    that lie in it (the pair).
    """
    n = len(xy)
    (x0, y0), (x1, y1) = lo, hi
    points = [xy.clip(lo, hi), np.array([[x0, y0], [x0, y1], [x1, y0], [x1, y1]])]
    defined_by = [np.full((n + 4, 2), n)]
    with np.errstate(invalid="ignore", divide="ignore"):  # no crossing: nan, dropped
        for axis in (0, 1):
            for edge in (lo[axis], hi[axis]):
                half = np.sqrt(rho2 - (edge - xy[:, axis]) ** 2)
                along = np.concatenate([xy[:, 1 - axis] - half, xy[:, 1 - axis] + half])
                on = (along >= lo[1 - axis]) & (along <= hi[1 - axis])
                p = np.full((on.sum(), 2), edge)
                p[:, 1 - axis] = along[on]
                points.append(p)
                defined_by.append(np.tile(np.arange(n), 2)[on, None].repeat(2, axis=1))
        i, j = np.triu_indices(n, 1)
        d = xy[j] - xy[i]
        d2 = (d * d).sum(axis=1)
        # The crossings sit at a * d from disk i and b * d aside, in units of d.
        a = (d2 + rho2[i] - rho2[j]) / (2 * d2)
        b2 = rho2[i] / d2 - a * a
        cross = b2 >= 0
        i, j, d, a, b = i[cross], j[cross], d[cross], a[cross], np.sqrt(b2[cross])
        mid, perp = xy[i] + a[:, None] * d, b[:, None] * np.stack([-d[:, 1], d[:, 0]], axis=1)
        p = np.concatenate([mid - perp, mid + perp])
        on = ((p >= lo) & (p <= hi)).all(axis=1)
    points.append(p[on])
    defined_by.append(np.tile(np.stack([i, j], axis=1), (2, 1))[on])
    return np.concatenate(points), np.concatenate(defined_by)


def _sets_at(points, defined_by, xy, h2, radii) -> np.ndarray:
    """The distinct member sets at ``points``, as bit-packed rows.

    A point's members are the disks ``defined_by`` it and every sphere whose
    deficit there, by ``zone_witnesses``' arithmetic sqrt((dx^2 + dy^2) + h2)
    - r, is at most 0. The deficits are computed in place, so a block holds
    two arrays of points x spheres at a time.
    """
    n = len(xy)
    dx, dy = points[:, :1] - xy[:, 0], points[:, 1:] - xy[:, 1]
    dx *= dx
    dy *= dy
    dx += dy
    dx += h2
    inside = np.zeros((len(points), n + 1), bool)  # column n takes the padding
    inside[:, :n] = np.sqrt(dx, out=dx) - radii <= 0
    inside[np.arange(len(points))[:, None], defined_by] = True
    return _unique_rows(np.packbits(inside[:, :n], axis=1))


def _clamped_means(sets: Sequence[tuple[int, ...]], centers, radii,
                   box: FeasibleBox) -> list[Point3 | None]:
    """The clamped mean of each set's member centres, or None where it misses a member sphere.

    Member lists are padded with a zero centre: it adds zeros after the
    members, in the order ``mean(axis=0)`` sums them.
    """
    sizes, c, r = _padded(sets, centers, radii, np.zeros(3))
    p = box.clamp(c.sum(axis=1) / sizes[:, None])
    deficit = np.linalg.norm(p[:, None, :] - c, axis=2) - r
    return [Point3.from_array(q) if inside else None
            for q, inside in zip(p, (deficit.max(axis=1) <= 0).tolist())]


def _certify(sets: Sequence[tuple[int, ...]], centers, radii, box: FeasibleBox) -> list[Point3 | None]:
    """Witness of each member set, or None when it is infeasible.

    The clamped mean of the member centres when it lies in every member
    sphere, ``_BLOCK`` sets at a time, else the ``zone_witnesses`` point,
    one call for all such sets, looked up on this module so that a wrapper
    installed there sees it.
    """
    out = [w for k in range(0, len(sets), _BLOCK)
           for w in _clamped_means(sets[k:k + _BLOCK], centers, radii, box)]
    missed = [k for k, w in enumerate(out) if w is None]
    for k, (w, f) in zip(missed, zone_witnesses([sets[k] for k in missed], centers, radii, box)):
        out[k] = w if f <= 0 else None
    return out


def enumerate_zones(spheres: Sequence[CoverageSphere], box: FeasibleBox) -> list[CandidateZone]:
    """All maximal candidate zones of the sphere arrangement inside the box.

    Every zone lies on the altitude floor (see ``zone_witnesses``), where a
    member set is feasible exactly when its floor disks, of radius
    sqrt(r^2 - h^2), meet inside the footprint. Each maximal feasible set
    therefore holds a vertex candidate of the disks (``_floor_points``;
    Chazelle & Lee, "On a circle placement problem", Computing 36, 1986).
    The members at each candidate, the disks defining it included, form the
    candidate sets; each maximal one is certified once (``_certify``), the
    sets whose clamped mean misses in one batched witness solve per round.
    One that fails, which only a degenerate touch can cause, gives way to
    the candidate sets it hid. ``spheres`` is indexed by UE (see
    ``build_spheres``). Raises ValueError, as ``zone_witnesses`` does, for
    a centre above the floor of a box that is not flat.
    """
    if not spheres:
        raise ValueError("no spheres to enumerate")
    n = len(spheres)
    centers = np.array([s.center.as_array() for s in spheres])
    radii = np.array([s.radius for s in spheres])
    if box.z[1] > box.z[0] and (centers[:, 2] > box.z[0]).any():
        raise ValueError(f"a sphere centre lies above the altitude floor {box.z[0]} m")
    xy, h2 = centers[:, :2], (box.z[0] - centers[:, 2]) ** 2
    points, defined_by = _floor_points(xy, radii * radii - h2, box.lower[:2], box.upper[:2])

    rows = np.concatenate([_sets_at(points[k:k + _BLOCK], defined_by[k:k + _BLOCK], xy, h2, radii)
                           for k in range(0, len(points), _BLOCK)])
    member = np.unpackbits(_unique_rows(rows), axis=1, count=n).astype(bool)
    member = member[member.any(axis=1)]

    witness: dict[tuple[int, ...], Point3 | None] = {}
    while True:
        maximal = np.flatnonzero(~_dominated(member))
        top = [tuple(np.flatnonzero(member[k]).tolist()) for k in maximal]
        new = [s for s in top if s not in witness]
        witness.update(zip(new, _certify(new, centers, radii, box)))
        failed = [k for k, s in zip(maximal, top) if witness[s] is None]
        if not failed:
            break
        # Drop the sets that failed; the sets they hid may now be maximal.
        member = np.delete(member, failed, axis=0)

    zones = []
    for s in top:
        w, idx = witness[s], list(s)
        slack = float(np.min(radii[idx] - np.linalg.norm(w.as_array() - centers[idx], axis=1)))
        zones.append(CandidateZone(members=s, witness=w, slack=slack))
    zones.sort(key=lambda z: (-len(z.members), z.members))
    return zones


# ---------------------------------------------------------------------------
# Minimum zone cover with per-zone service caps.
# ---------------------------------------------------------------------------

def _caps_list(zones: Sequence[CandidateZone], capacity_limit) -> list[int]:
    if isinstance(capacity_limit, (int, np.integer)):
        caps = [int(capacity_limit)] * len(zones)
    else:
        caps = [int(c) for c in capacity_limit]
        if len(caps) != len(zones):
            raise ValueError("capacity_limit length must match zones")
    if any(c < 1 for c in caps):
        raise ValueError("capacity limits must be >= 1")
    return [min(c, len(z.members)) for c, z in zip(caps, zones)]


def _zones_of(zones: Sequence[CandidateZone], n_ues: int) -> list[list[int]]:
    """For each UE below ``n_ues``, the indices of the zones holding it, ascending."""
    zones_of: list[list[int]] = [[] for _ in range(n_ues)]
    for k, zone in enumerate(zones):
        for ue in set(zone.members):
            if ue < n_ues:
                zones_of[ue].append(k)
    return zones_of


def cover_assignment(
    cover: Sequence[CandidateZone],
    pick_caps: Sequence[int],
    n_ues: int,
) -> list[tuple[int, ...]]:
    """Deterministic UE-to-pick assignment for a capacitated cover.

    Each UE is matched to exactly one pick whose zone contains it, with pick
    loads bounded by ``pick_caps``; augmenting paths run in UE order so the
    result is reproducible. Raises UncoverableError when no full matching
    exists (the cover does not actually cover).
    """
    picks_of = _zones_of(cover, n_ues)
    served: list[set[int]] = [set() for _ in cover]
    assigned: dict[int, int] = {}

    def move(ue: int, p: int):
        if ue in assigned:
            served[assigned[ue]].discard(ue)
        assigned[ue] = p
        served[p].add(ue)

    def augment(ue: int, avoid: int | None, visited: set[int]) -> bool:
        for p in picks_of[ue]:
            if p in visited or p == avoid:
                continue
            visited.add(p)
            if len(served[p]) < pick_caps[p]:
                move(ue, p)
                return True
            for other in sorted(served[p]):
                # Relocate an already-assigned UE to free a slot here.
                if augment(other, p, visited):
                    move(ue, p)
                    return True
        return False

    for ue in range(n_ues):
        if not augment(ue, None, set()):
            raise UncoverableError(f"UE {ue} cannot be assigned within the cover's capacities")
    return [tuple(sorted(s)) for s in served]


def greedy_zone_cover(
    zones: Sequence[CandidateZone],
    n_ues: int,
    capacity_limit,
) -> list[CandidateZone]:
    """Greedy capacitated cover: most uncovered members first.

    Ties break on larger slack, then lower zone index; a pick covers at most
    the zone's cap, so a zone can be picked repeatedly. The exact solver's
    upper bound, and the cover when that search runs out of nodes.
    """
    caps = np.array(_caps_list(zones, capacity_limit))
    member = _membership([z.members for z in zones], n_ues)
    slack = np.array([z.slack for z in zones])
    uncovered = np.zeros(member.shape[1], np.float32)
    uncovered[:n_ues] = 1.0
    cover: list[CandidateZone] = []
    while uncovered.any():
        gain = np.minimum(member @ uncovered, caps)
        top = gain.max(initial=0.0)
        if top == 0:
            raise UncoverableError(f"UEs {np.flatnonzero(uncovered).tolist()} appear in no zone")
        tied = np.flatnonzero(gain == top)
        k = int(tied[slack[tied].argmax()])
        uncovered[np.flatnonzero(member[k] * uncovered)[: caps[k]]] = 0.0
        cover.append(zones[k])
    return cover


def minimal_zone_cover(
    zones: Sequence[CandidateZone],
    n_ues: int,
    capacity_limit,
) -> list[CandidateZone]:
    """Minimum-cardinality capacitated zone cover of all UEs.

    Exact (``_exact_cover``, capped or not) over the zones that survive
    dominance pruning (a zone is dominated when its member set is contained
    in another's) when the search finishes within ``NODE_BUDGET`` nodes;
    otherwise the greedy cover stands. A zone may appear multiple times in
    the result when its member count exceeds its cap: each pick serves at
    most cap members, which is what later forces oversized zones to split.
    """
    if n_ues < 1:
        raise ValueError("n_ues must be >= 1")
    member = _membership([z.members for z in zones], n_ues)
    missing = np.flatnonzero(~member[:, :n_ues].any(axis=0)).tolist()
    if missing:
        raise UncoverableError(f"UEs {missing} appear in no zone")

    caps = _caps_list(zones, capacity_limit)
    # Dominance pruning: keep only maximal member sets (caps grow with sets).
    keep = np.flatnonzero(~_dominated(member)).tolist()
    pruned = [zones[k] for k in keep]
    pruned_caps = [caps[k] for k in keep]

    greedy = greedy_zone_cover(pruned, n_ues, pruned_caps)
    best = _exact_cover(pruned, pruned_caps, n_ues, len(greedy))
    return greedy if best is None else [pruned[k] for k in best]


# Nodes the exact cover search may visit; one that needs more leaves the greedy cover.
NODE_BUDGET = 512


class _OutOfNodes(Exception):
    """The exact cover search spent ``NODE_BUDGET``."""


def _exact_cover(zones, caps, n_ues: int, ub: int) -> list[int] | None:
    """Branch and bound over UE-to-pick assignments, exact with or without binding caps.

    Each node serves the unserved UE in the fewest zones (ties on index):
    from a pick made earlier that contains it and has room left, or from a
    new pick, most unserved members first, then lower zone index. A pick
    whose room holds every unserved member of its zone serves them all at
    once, which costs no other UE a slot; with no binding cap every pick
    does, and the search is plain set-cover branch and bound. Returns the
    picked zone indices in pick order, or None when nothing shorter than
    ``ub`` exists (the caller's greedy cover of length ``ub`` is then
    optimal) or when the search does not finish within ``NODE_BUDGET``
    nodes, which also bounds its recursion depth.
    """
    zones_of = _zones_of(zones, n_ues)
    # Sets of UEs are bitmasks, one bit per UE in serving order, so the UE
    # to serve next is the lowest bit left.
    order = sorted(range(n_ues), key=lambda u: (len(zones_of[u]), u))
    bit = {u: 1 << b for b, u in enumerate(order)}
    members = [sum(bit[u] for u in set(z.members) if u < n_ues) for z in zones]
    top = max(caps)
    best_len, best, nodes = ub, None, 0

    def absorb(unserved: int, picks: list[tuple[int, int]]) -> int:
        fits = True
        while fits:
            fits = False
            for p, (k, room) in enumerate(picks):
                here = members[k] & unserved
                if here and room >= here.bit_count():
                    picks[p], unserved, fits = (k, room - here.bit_count()), unserved ^ here, True
                    break
        return unserved

    def search(unserved: int, picks: list[tuple[int, int]]):
        nonlocal best_len, best, nodes
        nodes += 1
        if nodes > NODE_BUDGET:
            raise _OutOfNodes
        if not unserved:
            # Shorter, or as short as a cover already found: the last wins.
            if len(picks) < best_len or (len(picks) == best_len and best is not None):
                best_len, best = len(picks), [k for k, _ in picks]
            return
        spare = sum(min(room, (members[k] & unserved).bit_count()) for k, room in picks)
        if len(picks) + math.ceil(max(unserved.bit_count() - spare, 0) / top) >= best_len:
            return
        u = unserved & -unserved
        rest, tried = unserved ^ u, set()
        for p, (k, room) in enumerate(picks):
            if room and members[k] & u and (k, room) not in tried:
                tried.add((k, room))
                child = picks.copy()
                child[p] = (k, room - 1)
                search(absorb(rest, child), child)
        for k in sorted(zones_of[order[u.bit_length() - 1]],
                        key=lambda k: (-(members[k] & unserved).bit_count(), k)):
            child = picks + [(k, caps[k] - 1)]
            search(absorb(rest, child), child)

    try:
        search((1 << n_ues) - 1, [])
    except _OutOfNodes:
        return None
    return best
