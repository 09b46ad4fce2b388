"""Coverage spheres, candidate service zones, and zone set covering.

Every user gets a service ball whose radius is the maximum distance at which
its demand is satisfiable. A candidate zone is a nonempty intersection of
such balls with the feasible UAV box, certified by a witness point; a single
UAV placed at the witness can serve every member of the zone (capacity
permitting). Users sit below the altitude floor, so the witness is an exact
2D minimax of the member deficits on the floor (``zone_witness``). Selecting
the fewest zones that cover all users is the combinatorial core of
minimizing the UAV count.
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


def _basis_points(xy, h2, r, lo, hi, corners, edge_origins) -> np.ndarray:
    """Minimizer of every basis of at most three pieces, clamped to the rectangle.

    A piece is a member's deficit sqrt(|q - a|^2 + h2) - r or an edge of the
    rectangle ``lo``-``hi``. The bases are: one member (its clamped centre);
    two members on their centre segment or on an edge line (where their
    deficits are equal); three members (where all three are equal); and the
    four ``corners``. The minimum of the max over the members is one of them.
    Each equal-deficit point solves the lifted equations
    |q - a|^2 + h2 = (t + r)^2: subtracting two of them is linear in (q, t).
    ``edge_origins`` holds a point of each edge line, in ``_basis_indices``
    order.
    """
    points = [xy.clip(lo, hi), corners]
    m = len(xy)
    if m >= 2:
        i, j, edge, edge_direction, ends, _, _ = _basis_indices(m)
        seg = xy[j] - xy[i]
        origin = np.concatenate([xy[i], edge_origins[edge]])
        direction = np.concatenate([seg / np.hypot(seg[:, 0], seg[:, 1])[:, None], edge_direction])
        # Each line's two members: position along it, and h2 plus the squared offset.
        rel = xy[ends].reshape(2, -1, 2) - origin
        pos = (rel * direction).sum(axis=2)
        off = rel - pos[..., None] * direction
        (p_i, p_j), (g_i, g_j) = pos, h2[ends].reshape(2, -1) + (off * off).sum(axis=2)
        r_i, r_j = r[ends].reshape(2, -1)
        # Along a line the position is s = p_i + alpha t + beta.
        d = p_j - p_i
        alpha = (r_i - r_j) / d
        beta = ((r_i - r_j) * (r_i + r_j) + d * d - g_i + g_j) / (2 * d)
        t = _roots(alpha * alpha - 1, alpha * beta - r_i, beta * beta + g_i - r_i * r_i)
        points.append((origin + (p_i + alpha * t + beta)[..., None] * direction).reshape(-1, 2))
    if m >= 3:
        *_, i, jk = _basis_indices(m)
        # With u = q - a_i, subtracting member i's lifted equation from j's
        # and k's gives two linear equations b u = e0 + e1 t.
        b = xy[jk] - xy[i][:, None]
        rhs = np.stack([0.5 * (r[i, None] ** 2 - r[jk] ** 2 + (b * b).sum(axis=2)
                               - h2[i, None] + h2[jk]),
                        r[i, None] - r[jk]], axis=2)
        det = b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0]
        adj = np.stack([b[:, 1, 1], -b[:, 0, 1], -b[:, 1, 0], b[:, 0, 0]], axis=1).reshape(-1, 2, 2)
        u0, u1 = (adj @ rhs / det[:, None, None]).transpose(2, 0, 1)
        t = _roots((u1 * u1).sum(axis=1) - 1, (u0 * u1).sum(axis=1) - r[i],
                   (u0 * u0).sum(axis=1) + h2[i] - r[i] ** 2)
        points.append((xy[i] + u0 + t[..., None] * u1).reshape(-1, 2))
    points = np.concatenate(points)
    return points[np.isfinite(points).all(axis=1)].clip(lo, hi)


def zone_witness(
    members: Iterable[int],
    spheres: Sequence[CoverageSphere],
    box: FeasibleBox,
    *,
    arrays: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[Point3, float]:
    """Point in the box minimizing the worst member-sphere deficit.

    Returns ``(point, deficit)``; ``deficit <= 0`` certifies that the point
    lies inside every member sphere (the zone is nonempty), ``deficit > 0``
    certifies infeasibility of the member set. ``spheres`` is indexed by UE
    (see ``build_spheres``). A caller that already holds every sphere's
    centre and radius as arrays indexed the same way passes them as
    ``arrays`` and spares the solve from gathering them.

    Every member centre lies at or below the altitude floor (``Scenario``
    guarantees it; a flat box needs no such bound), so each deficit grows
    with altitude and the minimum lies on the floor. There it is an exact 2D
    minimax over the footprint: a working set grows from the member worst
    off at the clamped mean, each step adding the member most above the
    subset's optimum, whose basis points are closed-form (``_basis_points``).
    Deterministic; raises ValueError for a centre above the floor of a box
    that is not flat.
    """
    idx = sorted(set(members))
    if not idx:
        raise ValueError("empty member set")
    if arrays is None:
        centers = np.array([spheres[i].center.as_array() for i in idx])
        radii = np.array([spheres[i].radius for i in idx])
    else:
        centers, radii = arrays[0][idx], arrays[1][idx]
    z = box.z[0]
    if box.z[1] > z and (centers[:, 2] > z).any():
        raise ValueError(f"a member centre lies above the altitude floor {z} m")
    xy, h2 = centers[:, :2], (z - centers[:, 2]) ** 2
    lo, hi = box.lower[:2], box.upper[:2]
    (x0, y0), (x1, y1) = lo, hi
    corners = np.array([[x0, y0], [x0, y1], [x1, y0], [x1, y1]])
    edge_origins = np.array([[x0, 0.0], [x1, 0.0], [0.0, y0], [0.0, y1]])

    def deficits(points: np.ndarray) -> np.ndarray:
        # |p - c| summed in the order np.linalg.norm sums it: (dx^2 + dy^2) + dz^2.
        dx, dy = points[:, :1] - xy[:, 0], points[:, 1:] - xy[:, 1]
        return np.sqrt(dx * dx + dy * dy + h2) - radii

    with np.errstate(divide="ignore", invalid="ignore"):
        work = [int(deficits(xy.mean(axis=0).clip(lo, hi)[None]).argmax())]
        while True:
            points = _basis_points(xy[work], h2[work], radii[work], lo, hi, corners, edge_origins)
            d = deficits(points)
            worst_in_work = d[:, work].max(axis=1)
            best = int(worst_in_work.argmin())
            worst = int(d[best].argmax())
            if d[best, worst] <= worst_in_work[best]:  # the subset optimum is the set's
                break
            work.append(worst)
    return Point3(float(points[best, 0]), float(points[best, 1]), float(z)), float(d[best, worst])


# ---------------------------------------------------------------------------
# Zone enumeration: all maximal feasible member sets.
# ---------------------------------------------------------------------------

# Largest overlap component whose zones are enumerated exactly, and the number
# of witness solves exact enumeration may spend; past either, zones are grown.
EXACT_LIMIT = 25
SOLVE_BUDGET = 20_000


class _FeasibilityCache:
    """Pairwise sphere overlap, decided once, and memoized member-set checks."""

    def __init__(self, spheres: Sequence[CoverageSphere], box: FeasibleBox):
        self.spheres = list(spheres)
        self.box = box
        self.centers = np.array([s.center.as_array() for s in self.spheres])
        self.radii = np.array([s.radius for s in self.spheres])
        dist = np.linalg.norm(self.centers[:, None, :] - self.centers[None, :, :], axis=2)
        self.overlap = dist <= self.radii[:, None] + self.radii[None, :]
        self.cache: dict[frozenset[int], tuple[bool, Point3, float]] = {}
        self.solves = 0

    def check(self, members: frozenset[int]) -> tuple[bool, Point3, float]:
        """``(feasible, witness, deficit)`` of a member set, memoized.

        Callers pass cliques of ``overlap``: overlapping pairs, cliques of
        the overlap graph and their subsets, and growth inside common
        neighbours. The verdict is right for any set (a separated pair
        never reaches deficit <= 0), but a non-clique would spend a witness
        solve that ``overlap`` already settles.
        """
        hit = self.cache.get(members)
        if hit is not None:
            return hit
        idx = sorted(members)
        centers = self.centers[idx]
        p = self.box.clamp(centers.mean(axis=0))
        f = float(np.max(np.linalg.norm(p - centers, axis=1) - self.radii[idx]))
        if f <= 0:
            out = (True, Point3.from_array(p), f)
        else:
            self.solves += 1
            w, f = zone_witness(idx, self.spheres, self.box, arrays=(self.centers, self.radii))
            out = (f <= 0, w, f)
        self.cache[members] = out
        return out

    def check_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Verdicts of the pairs ``(i, j)`` in the rows of ``pairs``, as a mask.

        ``check``'s clamped-mean shortcut, computed for every pair in one
        array pass with the same arithmetic: each pair it certifies is cached
        as ``check`` would cache it, and only the rest go through ``check``
        itself, in row order.
        """
        i, j = pairs.T
        mid = self.box.clamp((self.centers[i] + self.centers[j]) / 2)
        deficit = np.maximum(np.linalg.norm(mid - self.centers[i], axis=1) - self.radii[i],
                             np.linalg.norm(mid - self.centers[j], axis=1) - self.radii[j])
        ok = deficit <= 0
        for pair, p, f in zip(pairs[ok].tolist(), mid[ok].tolist(), deficit[ok].tolist()):
            self.cache[frozenset(pair)] = (True, Point3(*p), f)
        for k in np.flatnonzero(~ok).tolist():
            ok[k] = self.check(frozenset(pairs[k].tolist()))[0]
        return ok


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


def _dominated(member: np.ndarray) -> np.ndarray:
    """Rows whose set lies inside another row's: strictly, or equal to an earlier row's.

    On a family of distinct sets these are exactly the non-maximal ones.
    """
    size = member.sum(axis=1)
    inside = member @ member.T == size[:, None]  # inside[k, j]: row k within row j
    over = (size[None, :] > size[:, None]) | np.tri(len(member), k=-1, dtype=bool)
    return (inside & over).any(axis=1)


def _maximal(sets: list, n: int) -> list:
    """The sets of a family of distinct sets that lie inside no other, in order."""
    return [s for s, d in zip(sets, _dominated(_membership(sets, n))) if not d]


def _bron_kerbosch(adj: dict[int, set[int]], nodes: list[int]) -> list[list[int]]:
    """Maximal cliques of the pairwise-overlap graph, canonically ordered."""
    cliques: list[list[int]] = []

    def expand(r: set[int], p: set[int], x: set[int]):
        if not p and not x:
            cliques.append(sorted(r))
            return
        pivot = max(p | x, key=lambda u: (len(adj[u] & p), -u))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(nodes), set())
    return sorted(cliques)


def _maximal_feasible_subsets(
    clique: frozenset[int],
    cache: _FeasibilityCache,
    memo: dict[frozenset[int], list[frozenset[int]]],
    known_feasible: set[frozenset[int]],
) -> list[frozenset[int]] | None:
    """All maximal feasible subsets of a clique, or None on budget exhaustion.

    Feasibility is anti-monotone in the member set (supersets of an
    infeasible set are infeasible), so the search descends from the clique,
    dropping one member at a time, and stops a branch at the first feasible
    set it reaches.
    """
    if clique in memo:
        return memo[clique]
    for f in known_feasible:
        if clique <= f:
            memo[clique] = [clique]
            return [clique]
    if cache.solves > SOLVE_BUDGET:
        return None
    feasible, _, _ = cache.check(clique)
    if feasible:
        known_feasible.add(clique)
        memo[clique] = [clique]
        return [clique]
    found: dict[frozenset[int], None] = {}
    for e in sorted(clique):
        sub = _maximal_feasible_subsets(clique - {e}, cache, memo, known_feasible)
        if sub is None:
            return None
        for s in sub:
            found[s] = None
    maximal = _maximal(list(found), len(cache.radii))
    memo[clique] = maximal
    return maximal


def _grow_zones(component: list[int], linked: np.ndarray, cache: _FeasibilityCache) -> list[frozenset[int]]:
    """Pairwise-seeded greedy growth for components too large to enumerate.

    ``linked`` is the matrix of feasible pairs; a zone grows by common
    neighbours, nearest its witness first. The rows of ``found`` are the
    zones so far: one membership matrix decides every containment test.
    """
    found = np.zeros((0, len(linked)), bool)
    seeds = [[i] for i in component]
    for i in component:
        seeds.extend([i, j] for j in (np.flatnonzero(linked[i, i + 1:]) + i + 1).tolist())
    for seed in seeds:
        if found[:, seed].all(axis=1).any():
            continue
        current = frozenset(seed)
        ok, witness, _ = cache.check(current)
        if not ok:
            continue
        common = linked[seed].all(axis=0)
        while common.any():
            cands = np.flatnonzero(common)
            dist = np.linalg.norm(cache.centers[cands] - witness.as_array(), axis=1)
            order = [u for _, u in sorted(zip((round(d, 9) for d in dist.tolist()), cands.tolist()))]
            for u in order:
                ok, cand_witness, _ = cache.check(current | {u})
                if ok:
                    current = current | {u}
                    witness = cand_witness
                    common &= linked[u]
                    break
            else:
                break
        row = np.zeros(len(linked), bool)
        row[list(current)] = True
        if not found[:, row].all(axis=1).any():
            found = np.vstack([found[found[:, ~row].any(axis=1)], row])
    return [frozenset(np.flatnonzero(f).tolist()) for f in found]


def enumerate_zones(spheres: Sequence[CoverageSphere], box: FeasibleBox) -> list[CandidateZone]:
    """All maximal candidate zones of the sphere arrangement inside the box.

    Pairwise-overlapping spheres form a graph whose connected components are
    processed independently; within a component the maximal feasible member
    sets are enumerated exactly through the graph's maximal cliques (every
    feasible set is a clique), falling back to pairwise-seeded growth for
    components larger than ``EXACT_LIMIT`` or past ``SOLVE_BUDGET`` witness
    solves. Each emitted zone's member list is closed over its witness:
    every sphere containing the witness is a member. ``spheres`` is indexed
    by UE (see ``build_spheres``).
    """
    if not spheres:
        raise ValueError("no spheres to enumerate")
    cache = _FeasibilityCache(spheres, box)
    nodes = range(len(spheres))

    linked = np.zeros_like(cache.overlap)
    pairs = np.argwhere(np.triu(cache.overlap, 1))
    i, j = pairs[cache.check_pairs(pairs)].T
    linked[i, j] = linked[j, i] = True
    adj = {i: set(np.flatnonzero(row).tolist()) for i, row in enumerate(linked)}

    components: list[list[int]] = []
    seen: set[int] = set()
    for i in nodes:
        if i in seen:
            continue
        comp, stack = [], [i]
        seen.add(i)
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in sorted(adj[u]):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        components.append(sorted(comp))

    member_sets: dict[frozenset[int], None] = {}
    for comp in components:
        comp_set = frozenset(comp)
        if cache.overlap[np.ix_(comp, comp)].all() and cache.check(comp_set)[0]:
            member_sets[comp_set] = None
            continue
        if len(comp) <= EXACT_LIMIT:
            memo: dict[frozenset[int], list[frozenset[int]]] = {}
            known: set[frozenset[int]] = set()
            cliques = _bron_kerbosch(adj, comp)
            collected: dict[frozenset[int], None] = {}
            complete = True
            for clique in cliques:
                sets = _maximal_feasible_subsets(frozenset(clique), cache, memo, known)
                if sets is None:
                    complete = False
                    break
                for s in sets:
                    collected[s] = None
            if complete:
                for s in collected:
                    member_sets[s] = None
                continue
        for s in _grow_zones(comp, linked, cache):
            member_sets[s] = None

    zones: dict[tuple[int, ...], CandidateZone] = {}
    maximal = _maximal(list(member_sets), len(spheres))
    for s in sorted(maximal, key=lambda m: (-len(m), tuple(sorted(m)))):
        witness = cache.check(s)[1]
        # Close the member list over the witness: list every containing sphere.
        dist = np.linalg.norm(witness.as_array() - cache.centers, axis=1)
        members = tuple(sorted(set(np.flatnonzero(dist <= cache.radii).tolist()) | set(s)))
        slack = float(np.min(cache.radii[list(members)] - dist[list(members)]))
        if members not in zones or zones[members].slack < slack:
            zones[members] = CandidateZone(members=members, witness=witness, slack=slack)

    final = [zones[key] for key in _maximal(list(zones), len(spheres))]
    final.sort(key=lambda z: (-len(z.members), z.members))
    return final


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
    assigned: dict[int, int] = {}
    loads = [0] * len(cover)

    def augment(ue: int, avoid: int | None, visited: set[int]) -> bool:
        for p, zone in enumerate(cover):
            if p in visited or p == avoid or ue not in zone.members:
                continue
            visited.add(p)
            if loads[p] < pick_caps[p]:
                if ue in assigned:
                    loads[assigned[ue]] -= 1
                assigned[ue] = p
                loads[p] += 1
                return True
            for other in sorted(u for u, q in assigned.items() if q == p):
                # Relocate an already-assigned UE to free a slot here.
                if augment(other, p, visited):
                    if ue in assigned:
                        loads[assigned[ue]] -= 1
                    assigned[ue] = p
                    loads[p] += 1
                    return True
        return False

    for ue in range(n_ues):
        if not augment(ue, None, set()):
            raise UncoverableError(f"UE {ue} cannot be assigned within the cover's capacities")
    served: list[list[int]] = [[] for _ in cover]
    for ue in sorted(assigned):
        served[assigned[ue]].append(ue)
    return [tuple(s) for s in served]


def greedy_zone_cover(
    zones: Sequence[CandidateZone],
    n_ues: int,
    capacity_limit,
) -> list[CandidateZone]:
    """Greedy capacitated cover: most uncovered members first.

    Ties break on larger slack, then lower zone index; a pick covers at most
    the zone's cap, so a zone can be picked repeatedly. Used directly beyond
    the exact solver's instance cap and as the exact solver's upper bound.
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

    Exact (``_exact_cover``, capped or not) when at most 20 zones survive
    dominance pruning (a zone is dominated when its member set is contained
    in another's); greedy beyond that. A zone may appear multiple times in
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
    if len(pruned) > 20:
        return greedy
    best = _exact_cover(pruned, pruned_caps, n_ues, len(greedy))
    return greedy if best is None else [pruned[k] for k in best]


def _exact_cover(zones, caps, n_ues: int, ub: int) -> list[int] | None:
    """Branch and bound over UE-to-pick assignments, exact with or without binding caps.

    Each node serves the unserved UE in the fewest zones (ties on index):
    from a pick made earlier that contains it and has room left, or from a
    new pick, most unserved members first, then lower zone index. A pick
    whose room holds every unserved member of its zone serves them all at
    once, which costs no other UE a slot; with no binding cap every pick
    does, and the search is plain set-cover branch and bound. Returns the
    picked zone indices in pick order, or None when nothing shorter than
    ``ub`` exists: the caller's greedy cover of length ``ub`` is then optimal.
    """
    members = [frozenset(z.members) for z in zones]
    zones_of = [[k for k, m in enumerate(members) if u in m] for u in range(n_ues)]
    top = max(caps)
    best_len, best = ub, None

    def absorb(unserved: frozenset[int], picks: list[tuple[int, int]]) -> frozenset[int]:
        for p, (k, room) in enumerate(picks):
            here = members[k] & unserved
            if here and room >= len(here):
                picks[p] = (k, room - len(here))
                return absorb(unserved - here, picks)
        return unserved

    def search(unserved: frozenset[int], picks: list[tuple[int, int]]):
        nonlocal best_len, best
        if not unserved:
            # Shorter, or as short as a cover already found: the last wins.
            if len(picks) < best_len or (len(picks) == best_len and best is not None):
                best_len, best = len(picks), [k for k, _ in picks]
            return
        spare = sum(min(room, len(members[k] & unserved)) for k, room in picks)
        if len(picks) + math.ceil(max(len(unserved) - spare, 0) / top) >= best_len:
            return
        u = min(unserved, key=lambda v: (len(zones_of[v]), v))
        rest, tried = unserved - {u}, set()
        for p, (k, room) in enumerate(picks):
            if room and u in members[k] and (k, room) not in tried:
                tried.add((k, room))
                child = picks.copy()
                child[p] = (k, room - 1)
                search(absorb(rest, child), child)
        for k in sorted(zones_of[u], key=lambda k: (-len(members[k] & unserved), k)):
            child = picks + [(k, caps[k] - 1)]
            search(absorb(rest, child), child)

    search(frozenset(range(n_ues)), [])
    return best
