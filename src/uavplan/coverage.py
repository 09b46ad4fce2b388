"""Coverage spheres, candidate service zones, and zone set covering.

Every user gets a service ball whose radius is the maximum distance at which
its demand is satisfiable. A candidate zone is a nonempty intersection of
such balls with the feasible UAV box, certified by a witness point; a single
UAV placed at the witness can serve every member of the zone (capacity
permitting). Selecting the fewest zones that cover all users is the
combinatorial core of minimizing the UAV count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np
from scipy.optimize import minimize

from .channel import max_service_distance
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
    """One service sphere per UE, in UE order; fails if any sphere misses the UAV box.

    Every later stage indexes spheres by position: ``spheres[i]`` is the
    sphere of UE ``i`` and has ``ue_index == i``.
    """
    spheres = []
    unservable = []
    box = scenario.venue
    for i, ue in enumerate(scenario.ues):
        radius = max_service_distance(ue.demand_bps, sphere_bandwidth(ue, scenario), params)
        spheres.append(CoverageSphere(ue_index=i, center=ue.position, radius=radius))
        if box.distance_to(ue.position.as_array()) >= radius:
            unservable.append(i)
    if unservable:
        raise UnservableError(unservable)
    return spheres


# ---------------------------------------------------------------------------
# Witness search: minimize the worst sphere deficit over the box.
# ---------------------------------------------------------------------------

def _max_deficit(p: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(p[None, :] - centers, axis=1) - radii))


def _descend_witness(start, centers, radii, box: FeasibleBox):
    """Local descent on max_i(|p-c_i| - r_i) via the epigraph form.

    The objective is a max of convex functions, so any descent start
    converges to the global minimum over the box; SLSQP on (p, t) with
    t >= |p-c_i| - r_i handles the kinks.
    """
    p0 = box.clamp(np.asarray(start, dtype=float))
    t0 = _max_deficit(p0, centers, radii)
    if len(centers) == 1:
        # Single ball: the clamped center is already the exact minimizer.
        best = box.clamp(centers[0])
        return best, _max_deficit(best, centers, radii)

    def cons_f(q):
        d = np.linalg.norm(q[:3][None, :] - centers, axis=1)
        return q[3] + radii - d

    def cons_jac(q):
        diff = q[:3][None, :] - centers
        d = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
        jac = np.empty((len(centers), 4))
        jac[:, :3] = -diff / d[:, None]
        jac[:, 3] = 1.0
        return jac

    bounds = [(box.lower[k], box.upper[k]) for k in range(3)] + [(None, None)]
    res = minimize(
        lambda q: q[3],
        np.append(p0, t0),
        jac=lambda q: np.array([0.0, 0.0, 0.0, 1.0]),
        constraints=[{"type": "ineq", "fun": cons_f, "jac": cons_jac}],
        bounds=bounds,
        method="SLSQP",
        options={"maxiter": 200, "ftol": 1e-12},
    )
    p = box.clamp(res.x[:3])
    f = _max_deficit(p, centers, radii)
    if f <= t0:
        return p, f
    return p0, t0


def _witness_starts(centers: np.ndarray, box: FeasibleBox, max_pairs: int = 12) -> list[np.ndarray]:
    starts = [box.clamp(np.mean(centers, axis=0))]
    n = len(centers)
    if n == 1:
        return starts
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in pairs[:max_pairs]:
        starts.append(box.clamp(0.5 * (centers[i] + centers[j])))
    return starts


def zone_witness(
    members: Iterable[int],
    spheres: Sequence[CoverageSphere],
    box: FeasibleBox,
) -> tuple[Point3, float]:
    """Point in the box minimizing the worst member-sphere deficit.

    Returns ``(point, deficit)``; ``deficit <= 0`` certifies that the point
    lies inside every member sphere (the zone is nonempty), ``deficit > 0``
    certifies infeasibility of the member set. ``spheres`` is indexed by UE
    (see ``build_spheres``). Deterministic: the descent uses a fixed start
    schedule and no randomness.
    """
    idx = sorted(set(members))
    if not idx:
        raise ValueError("empty member set")
    centers = np.array([spheres[i].center.as_array() for i in idx])
    radii = np.array([spheres[i].radius for i in idx])

    best_p, best_f = None, math.inf
    for start in _witness_starts(centers, box):
        f0 = _max_deficit(start, centers, radii)
        if f0 < best_f:
            best_p, best_f = start, f0
    p, f = _descend_witness(best_p, centers, radii, box)
    if f < best_f:
        best_p, best_f = p, f
    if best_f > 0:
        # Retry remaining starts only when the best descent failed to certify.
        for start in _witness_starts(centers, box)[1:4]:
            p, f = _descend_witness(start, centers, radii, box)
            if f < best_f:
                best_p, best_f = p, f
            if best_f <= 0:
                break
    return Point3.from_array(best_p), best_f


# ---------------------------------------------------------------------------
# Zone enumeration: all maximal feasible member sets.
# ---------------------------------------------------------------------------

class _FeasibilityCache:
    """Memoized nonemptiness checks for member sets, with cheap fast paths."""

    def __init__(self, spheres: Sequence[CoverageSphere], box: FeasibleBox, budget: int):
        self.spheres = list(spheres)
        self.box = box
        self.centers = np.array([s.center.as_array() for s in self.spheres])
        self.radii = np.array([s.radius for s in self.spheres])
        self.cache: dict[frozenset[int], tuple[bool, Point3, float]] = {}
        self.budget = budget
        self.solves = 0

    def _quick_point(self, idx: list[int]) -> tuple[np.ndarray, float]:
        p = self.box.clamp(np.mean(self.centers[idx], axis=0))
        f = float(np.max(np.linalg.norm(p[None, :] - self.centers[idx], axis=1) - self.radii[idx]))
        return p, f

    def check(self, members: frozenset[int]) -> tuple[bool, Point3, float]:
        hit = self.cache.get(members)
        if hit is not None:
            return hit
        idx = sorted(members)
        # Pairwise separation is a certificate of infeasibility on its own.
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                i, j = idx[a], idx[b]
                if np.linalg.norm(self.centers[i] - self.centers[j]) > self.radii[i] + self.radii[j]:
                    out = (False, Point3.from_array(self._quick_point(idx)[0]), math.inf)
                    self.cache[members] = out
                    return out
        p, f = self._quick_point(idx)
        if f <= 0:
            out = (True, Point3.from_array(p), f)
        else:
            self.solves += 1
            w, f = zone_witness(idx, self.spheres, self.box)
            out = (f <= 0, w, f)
        self.cache[members] = out
        return out

    def exhausted(self) -> bool:
        return self.solves > self.budget


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
    if cache.exhausted():
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
    sets = list(found)
    maximal = [s for s in sets if not any(s < t for t in sets)]
    memo[clique] = maximal
    return maximal


def _grow_zones(component: list[int], adj: dict[int, set[int]], cache: _FeasibilityCache) -> list[frozenset[int]]:
    """Pairwise-seeded greedy growth for components too large to enumerate."""
    found: list[frozenset[int]] = []
    seeds: list[frozenset[int]] = [frozenset({i}) for i in component]
    for i in component:
        for j in sorted(adj[i]):
            if j > i:
                seeds.append(frozenset({i, j}))
    for seed in seeds:
        if any(seed <= f for f in found):
            continue
        ok, witness, _ = cache.check(seed)
        if not ok:
            continue
        current = seed
        while True:
            candidates = set(component) - current
            for m in current:
                candidates &= adj[m]
            if not candidates:
                break
            w = witness.as_array()
            order = sorted(
                candidates,
                key=lambda u: (round(float(np.linalg.norm(cache.centers[u] - w)), 9), u),
            )
            grew = False
            for u in order:
                ok, cand_witness, _ = cache.check(current | {u})
                if ok:
                    current = current | {u}
                    witness = cand_witness
                    grew = True
                    break
            if not grew:
                break
        if not any(current <= f for f in found):
            found = [f for f in found if not f <= current]
            found.append(current)
    return found


def enumerate_zones(
    spheres: Sequence[CoverageSphere],
    box: FeasibleBox,
    exact_limit: int = 25,
    solve_budget: int = 20000,
) -> list[CandidateZone]:
    """All maximal candidate zones of the sphere arrangement inside the box.

    Pairwise-overlapping spheres form a graph whose connected components are
    processed independently; within a component the maximal feasible member
    sets are enumerated exactly through the graph's maximal cliques (every
    feasible set is a clique), falling back to pairwise-seeded growth for
    components larger than ``exact_limit`` or past the solve budget. Each
    emitted zone's member list is closed over its witness: every sphere
    containing the witness is a member. ``spheres`` is indexed by UE (see
    ``build_spheres``).
    """
    if not spheres:
        raise ValueError("no spheres to enumerate")
    cache = _FeasibilityCache(spheres, box, solve_budget)
    nodes = list(range(len(spheres)))

    adj: dict[int, set[int]] = {i: set() for i in nodes}
    for a in range(len(nodes)):
        for b in range(a + 1, len(nodes)):
            i, j = nodes[a], nodes[b]
            ok, _, _ = cache.check(frozenset({i, j}))
            if ok:
                adj[i].add(j)
                adj[j].add(i)

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
        ok, _, _ = cache.check(comp_set)
        if ok:
            member_sets[comp_set] = None
            continue
        if len(comp) <= exact_limit:
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
        for s in _grow_zones(comp, adj, cache):
            member_sets[s] = None

    zones: dict[tuple[int, ...], CandidateZone] = {}
    all_sets = [s for s in member_sets if not any(s < t for t in member_sets)]
    for s in sorted(all_sets, key=lambda m: (-len(m), tuple(sorted(m)))):
        _, witness, deficit = cache.check(s)
        w = witness.as_array()
        # Close the member list over the witness: list every containing sphere.
        inside = np.linalg.norm(w[None, :] - cache.centers, axis=1) <= cache.radii
        members = tuple(sorted(set(np.flatnonzero(inside).tolist()) | set(s)))
        slack = float(np.min(cache.radii[list(members)]
                             - np.linalg.norm(w[None, :] - cache.centers[list(members)], axis=1)))
        key = members
        if key not in zones or zones[key].slack < slack:
            zones[key] = CandidateZone(members=members, witness=witness, slack=slack)

    final = list(zones.values())
    final = [z for z in final if not any(set(z.members) < set(t.members) for t in final)]
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
    caps = _caps_list(zones, capacity_limit)
    uncovered = set(range(n_ues))
    cover: list[CandidateZone] = []
    while uncovered:
        best_k, best_key = None, None
        for k, z in enumerate(zones):
            gain = min(len(uncovered & set(z.members)), caps[k])
            if gain == 0:
                continue
            key = (-gain, -z.slack, k)
            if best_key is None or key < best_key:
                best_k, best_key = k, key
        if best_k is None:
            raise UncoverableError(f"UEs {sorted(uncovered)} appear in no zone")
        z = zones[best_k]
        take = sorted(uncovered & set(z.members))[: caps[best_k]]
        uncovered -= set(take)
        cover.append(z)
    return cover


def _flow_feasible(picks: list[int], zones, caps, n_ues: int) -> bool:
    """Can every UE be matched to a pick copy within caps? (b-matching)"""
    cover = [zones[k] for k in picks]
    pick_caps = [caps[k] for k in picks]
    try:
        cover_assignment(cover, pick_caps, n_ues)
        return True
    except UncoverableError:
        return False


def minimal_zone_cover(
    zones: Sequence[CandidateZone],
    n_ues: int,
    capacity_limit,
) -> list[CandidateZone]:
    """Minimum-cardinality capacitated zone cover of all UEs.

    Exact branch and bound when at most 20 zones survive dominance pruning
    (a zone is dominated when its member set is contained in another's);
    greedy beyond that. A zone may appear multiple times in the result when
    its member count exceeds its cap: each pick serves at most cap members,
    which is what later forces oversized zones to split.
    """
    if n_ues < 1:
        raise ValueError("n_ues must be >= 1")
    covered_anywhere = set()
    for z in zones:
        covered_anywhere.update(z.members)
    missing = set(range(n_ues)) - covered_anywhere
    if missing:
        raise UncoverableError(f"UEs {sorted(missing)} appear in no zone")

    caps = _caps_list(zones, capacity_limit)
    # Dominance pruning: keep only maximal member sets (caps grow with sets).
    keep: list[int] = []
    for k, z in enumerate(zones):
        dominated = False
        for j, other in enumerate(zones):
            if j == k:
                continue
            if set(z.members) < set(other.members):
                dominated = True
                break
            if z.members == other.members and j < k:
                dominated = True
                break
        if not dominated:
            keep.append(k)
    pruned = [zones[k] for k in keep]
    pruned_caps = [caps[k] for k in keep]

    greedy = greedy_zone_cover(pruned, n_ues, pruned_caps)
    if len(pruned) > 20:
        return greedy

    if all(len(z.members) <= c for z, c in zip(pruned, pruned_caps)):
        best = _exact_cover_uncapped(pruned, n_ues, len(greedy))
        return best if best is not None else greedy
    best = _exact_cover_capped(pruned, pruned_caps, n_ues, len(greedy))
    return best if best is not None else greedy


def _exact_cover_uncapped(zones, n_ues: int, ub: int):
    """Classic set-cover branch and bound (every zone fits under its cap).

    Returns None when nothing strictly shorter than ``ub`` exists; the caller
    then keeps the greedy cover of length ``ub``, which is therefore optimal.
    """
    membership = [set(z.members) for z in zones]
    zones_of_ue: dict[int, list[int]] = {u: [] for u in range(n_ues)}
    for k, m in enumerate(membership):
        for u in m:
            zones_of_ue[u].append(k)
    max_size = max(len(m) for m in membership)
    best_len = [ub]
    best_picks: list[list[int] | None] = [None]

    def bnb(uncovered: frozenset[int], chosen: list[int]):
        if not uncovered:
            best_len[0] = len(chosen)
            best_picks[0] = list(chosen)
            return
        if len(chosen) + math.ceil(len(uncovered) / max_size) >= best_len[0]:
            return
        u = min(uncovered, key=lambda v: (len(zones_of_ue[v]), v))
        cands = sorted(zones_of_ue[u], key=lambda k: (-len(membership[k] & uncovered), k))
        for k in cands:
            bnb(uncovered - membership[k], chosen + [k])

    bnb(frozenset(range(n_ues)), [])
    if best_picks[0] is None:
        return None
    return [zones[k] for k in best_picks[0]]


def _exact_cover_capped(zones, caps, n_ues: int, ub: int):
    """Iterative deepening over zone multisets, checked by matching.

    Returns the first (hence minimum) pick count below ``ub`` that admits a
    full capacitated matching, or None when the greedy bound is optimal.
    """
    max_copies = [math.ceil(len(z.members) / c) for z, c in zip(zones, caps)]
    lb = max(1, math.ceil(n_ues / max(caps)))
    for target in range(lb, ub):
        found = _search_multiset(target, zones, caps, max_copies, n_ues)
        if found is not None:
            return [zones[k] for k in found]
    return None


def _search_multiset(target: int, zones, caps, max_copies, n_ues: int):
    """Depth-first over non-decreasing zone indices; matching check at leaves."""
    result: list[int] | None = None

    def rec(start: int, picks: list[int], cap_sum: int):
        nonlocal result
        if result is not None:
            return
        remaining = target - len(picks)
        if remaining == 0:
            union = set()
            for k in picks:
                union.update(zones[k].members)
            if len(union) >= n_ues and cap_sum >= n_ues and _flow_feasible(picks, zones, caps, n_ues):
                result = list(picks)
            return
        if start >= len(zones):
            return
        best_possible = cap_sum + remaining * max(
            (min(caps[k], len(zones[k].members)) for k in range(start, len(zones))), default=0
        )
        if best_possible < n_ues:
            return
        for k in range(start, len(zones)):
            if picks.count(k) >= max_copies[k]:
                continue
            rec(k, picks + [k], cap_sum + min(caps[k], len(zones[k].members)))
            if result is not None:
                return

    rec(0, [], 0)
    return result
