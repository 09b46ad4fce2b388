"""Coverage stage: witness search, zone enumeration, and minimum covers."""
import hashlib
import itertools
import math

import numpy as np
import pytest

from uavplan import (
    CandidateZone,
    ChannelParams,
    CoverageSphere,
    FeasibleBox,
    Point3,
    Scenario,
    UE,
    UnservableError,
    UncoverableError,
    build_spheres,
    cover_assignment,
    enumerate_zones,
    generate_scenario,
    greedy_zone_cover,
    max_service_distance,
    minimal_zone_cover,
    zone_witness,
)
from uavplan import coverage
from conftest import random_scenario
from witness_loop_reference import loop_witness
from witness_reference import reference_witness

BOX = FeasibleBox(x=(0.0, 1000.0), y=(0.0, 1000.0), z=(10.0, 100.0))


def sphere(i, x, y, r, z=0.0):
    return CoverageSphere(ue_index=i, center=Point3(x, y, z), radius=r)


# ---------------------------------------------------------------------------
# build_spheres
# ---------------------------------------------------------------------------

def make_scenario(ue_xy, demand=6.5e6, side=1000.0, z=(10.0, 100.0), **kw):
    ues = tuple(UE(position=Point3(x, y, 0.0), demand_bps=demand) for x, y in ue_xy)
    return Scenario(label="t", seed=1, venue=FeasibleBox((0.0, side), (0.0, side), z),
                    ues=ues, **kw)


def test_build_spheres_single_ue(params):
    scn = make_scenario([(50, 50)])
    spheres = build_spheres(scn, params)
    assert len(spheres) == 1
    assert spheres[0].radius == max_service_distance(6.5e6, scn.b_max_hz, params)


def test_build_spheres_identical_ues(params):
    scn = make_scenario([(70, 30), (70, 30)])
    a, b = build_spheres(scn, params)
    assert a.center == b.center and a.radius == b.radius


def test_build_spheres_uniform_demand_uniform_radius(params):
    rng = np.random.default_rng(0)
    scn = make_scenario([(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(20)],
                        side=100.0)
    spheres = build_spheres(scn, params)
    assert len(spheres) == 20
    assert len({s.radius for s in spheres}) == 1


def test_build_spheres_fixed_policy_radius(params):
    scn = make_scenario([(50, 50)], bandwidth_policy="fixed")
    spheres = build_spheres(scn, params)
    assert spheres[0].radius == max_service_distance(6.5e6, 20e6, params)


def test_build_spheres_unservable(params):
    # Demand so high the sphere cannot reach the altitude floor.
    scn = make_scenario([(50, 50)], demand=2.5e9, bandwidth_policy="fixed")
    with pytest.raises(UnservableError) as err:
        build_spheres(scn, params)
    assert err.value.ue_indices == (0,)


# ---------------------------------------------------------------------------
# zone_witness
# ---------------------------------------------------------------------------

def test_witness_singleton_is_clamped_nadir():
    s = sphere(0, 200.0, 300.0, 50.0)
    w, deficit = zone_witness([0], [s], BOX)
    assert (w.x, w.y, w.z) == (200.0, 300.0, 10.0)
    assert deficit == pytest.approx(-40.0)


def test_witness_two_overlapping_unit_spheres():
    # Centers 1 m apart on the altitude floor, unit radii: the midpoint
    # region is feasible and the deficit is negative.
    a = sphere(0, 100.0, 100.0, 1.0, z=9.5)
    b = sphere(1, 101.0, 100.0, 1.0, z=9.5)
    w, deficit = zone_witness([0, 1], [a, b], BOX)
    assert deficit < 0
    for s in (a, b):
        assert math.dist((w.x, w.y, w.z), (s.center.x, s.center.y, s.center.z)) <= s.radius


def test_witness_disjoint_spheres_infeasible():
    a = sphere(0, 0.0, 0.0, 30.0)
    b = sphere(1, 100.0, 0.0, 30.0)
    _, deficit = zone_witness([0, 1], [a, b], BOX)
    assert deficit > 0


def test_witness_tangent_geometry_accuracy():
    # Two spheres overlapping only near a point above the floor: the witness
    # search must find the thin lens.
    a = sphere(0, 0.0, 500.0, 60.0)
    b = sphere(1, 100.0, 500.0, 60.0)
    w, deficit = zone_witness([0, 1], [a, b], BOX)
    assert deficit <= 0
    # Analytic check: the lens center is at (50, 500, z) with z up to
    # sqrt(60^2 - 50^2) = 33.17; the box floor at 10 is inside.
    assert abs(w.x - 50.0) < 1.0


def test_witness_respects_box():
    a = sphere(0, 500.0, 500.0, 300.0)
    w, _ = zone_witness([0], [a], BOX)
    assert BOX.contains(w.as_array())


def test_witness_deterministic():
    a = sphere(0, 10.0, 20.0, 80.0)
    b = sphere(1, 60.0, 40.0, 90.0)
    c = sphere(2, 30.0, 90.0, 85.0)
    w1, d1 = zone_witness([0, 1, 2], [a, b, c], BOX)
    w2, d2 = zone_witness([0, 1, 2], [a, b, c], BOX)
    assert (w1.x, w1.y, w1.z, d1) == (w2.x, w2.y, w2.z, d2)


def _witness_cases(rng):
    """(spheres, box) cases: 1-12 members, clipped disks, flat boxes, near tangency."""
    for case in range(150):
        side = rng.uniform(100.0, 1500.0)
        floor = rng.uniform(10.0, 40.0)
        flat = case % 5 == 0
        box = FeasibleBox((0.0, side), (0.0, side), (floor, floor if flat else floor + 90.0))
        m = 1 + case % 12
        if case % 3 == 0:  # around a corner or an edge midpoint: disks clipped by the box
            anchor = rng.choice([0.0, 0.5 * side, side], size=2)
        else:
            anchor = rng.uniform(0.0, side, 2)
        xy = anchor + rng.normal(0.0, rng.uniform(10.0, 300.0), (m, 2))
        # A flat box takes any UE altitude; otherwise UEs sit below the floor.
        z = rng.uniform(0.0, floor + 5.0 if flat else floor - 0.5, m)
        radii = rng.uniform(20.0, 400.0, m)
        spheres = [sphere(i, *xy[i], radii[i], z=z[i]) for i in range(m)]
        yield spheres, box
        if m == 2:
            # Shift both radii so the pair's best deficit sits just off zero.
            _, ref = reference_witness(range(m), spheres, box)
            for eps in (-1e-3, 1e-3):
                yield [sphere(i, *xy[i], radii[i] + ref - eps, z=z[i]) for i in range(m)], box


def test_witness_matches_slsqp_reference():
    rng = np.random.default_rng(41)
    for spheres, box in _witness_cases(rng):
        members = range(len(spheres))
        w, deficit = zone_witness(members, spheres, box)
        _, ref = reference_witness(members, spheres, box)
        assert (deficit <= 0) == (ref <= 0)
        assert deficit <= ref + 1e-9
        assert box.contains(w.as_array()) and w.z == box.z[0]
        centers = np.array([s.center.as_array() for s in spheres])
        radii = np.array([s.radius for s in spheres])
        # The deficit is a true value at the returned point.
        assert deficit == np.max(np.linalg.norm(w.as_array() - centers, axis=1) - radii)


def test_witness_rejects_centre_above_floor():
    above = sphere(0, 100.0, 100.0, 50.0, z=BOX.z[0] + 1.0)
    with pytest.raises(ValueError, match="above the altitude floor"):
        zone_witness([0], [above], BOX)
    flat = FeasibleBox(BOX.x, BOX.y, (20.0, 20.0))
    w, deficit = zone_witness([0], [sphere(0, 100.0, 100.0, 50.0, z=30.0)], flat)
    assert (w.x, w.y, w.z) == (100.0, 100.0, 20.0) and deficit == pytest.approx(-40.0)


def _batch_venues(rng):
    """(centers, radii, box, sets) venues for the batched solve.

    In each, UEs 0 and 1 share a centre and UEs 2-6 lie on one line. Six
    random venues hold centres beyond the footprint, a ring of equal
    spheres (36-47) whose subsets grow long working sets, single members,
    and sets of neighbours or of random members, most of the latter
    infeasible; every third box is flat. A last, fixed venue has sets whose
    working sets take both shared-centre UEs (they swap order with
    distance from the centre) and three of the line's UEs (it runs below
    the footprint), where some bases have no solution.
    """
    for v in range(6):
        side = rng.uniform(200.0, 1500.0)
        floor = rng.uniform(10.0, 40.0)
        flat = v % 3 == 0
        box = FeasibleBox((0.0, side), (0.0, side), (floor, floor if flat else floor + 90.0))
        n = 48
        xy = rng.uniform(-0.2 * side, 1.2 * side, (n, 2))
        xy[1] = xy[0]
        xy[2:6] = xy[6] + np.outer(np.arange(1, 5), rng.normal(0.0, 0.05 * side, 2))
        angle = rng.uniform(0.0, 2 * math.pi, 12)
        xy[36:] = 0.5 * side + 0.3 * side * np.column_stack([np.cos(angle), np.sin(angle)])
        z = rng.uniform(0.0, floor + 5.0 if flat else floor - 0.5, n)
        radii = rng.uniform(0.05, 0.4, n) * side
        radii[36:] = 0.32 * side
        near = np.argsort(np.linalg.norm(xy[:, None] - xy, axis=2), axis=1)
        sets = [[i] for i in range(0, n, 4)] + [[0, 1], [2, 3, 4, 5, 6], list(range(36, n))]
        for _ in range(8):
            sets.append(rng.choice(np.arange(36, n), int(rng.integers(6, 12)), replace=False).tolist())
        for _ in range(50):
            k = int(rng.integers(2, 13))
            pick = near[rng.integers(n), :k] if rng.random() < 0.7 else rng.choice(n, k, replace=False)
            sets.append(pick.tolist())
        yield np.column_stack([xy, z]), radii, box, sets
    centers = np.array([[50, 50, 9], [50, 50, 0], [77, -20, 7], [90, -20, 6], [38, -20, 6],
                        [59, -20, 2], [120, -20, 5], [39, 88, 0]], float)
    radii = np.array([32, 36, 67, 39, 55, 39, 10, 56], float)
    yield centers, radii, BOX, [[0, 1, 7], [2, 3, 4, 5], [2, 3, 4, 5, 6], list(range(8))]


def test_batched_witness_matches_the_per_set_loop_bit_for_bit(monkeypatch):
    # The batched solve performs the per-set loop's arithmetic, so its
    # points and deficits are the loop's to the last bit, whichever sets
    # share its batch, in whatever order and however the rounds are chunked.
    def bits(results):
        return [tuple(v.hex() for v in (w.x, w.y, w.z, f)) for w, f in results]

    rng = np.random.default_rng(13)
    seen = set()
    for centers, radii, box, sets in _batch_venues(rng):
        got = bits(coverage.zone_witnesses(sets, centers, radii, box))
        for s, b in zip(sets, got):
            ref, working = loop_witness(s, centers, radii, box)
            assert b == tuple(v.hex() for v in ref), s
            seen |= {kind for kind, hit in (
                ("single", len(s) == 1), ("feasible", ref[3] <= 0), ("infeasible", ref[3] > 0),
                ("flat", box.z[0] == box.z[1]), ("grown to 5", len(working) >= 5),
                ("shared centre", {0, 1} <= set(working)),
                ("collinear", len(set(working) & set(range(2, 7))) >= 3)) if hit}
        assert bits(coverage.zone_witnesses([s], centers, radii, box)[0] for s in sets) == got
        with monkeypatch.context() as m:
            m.setattr(coverage, "_WITNESS_BUDGET", 1)
            assert bits(coverage.zone_witnesses(sets[::-1], centers, radii, box))[::-1] == got
    assert seen == {"single", "feasible", "infeasible", "flat", "grown to 5", "shared centre",
                    "collinear"}


def test_clamped_means_match_the_per_set_mean():
    # Sets below and past 8 members, whose means numpy would sum pairwise if
    # it summed along a contiguous axis; both outcomes of the sphere check.
    rng = np.random.default_rng(4)
    centers = np.column_stack([rng.uniform(-50.0, 1050.0, (40, 2)), np.zeros(40)])
    radii = rng.uniform(400.0, 2000.0, 40)
    sets = [tuple(sorted(rng.choice(40, size=k, replace=False).tolist()))
            for k in (1, 2, 5, 8, 9, 17, 33) for _ in range(6)]
    seen = set()
    for s, w in zip(sets, coverage._clamped_means(sets, centers, radii, BOX)):
        idx = list(s)
        p = BOX.clamp(centers[idx].mean(axis=0))
        inside = np.max(np.linalg.norm(p - centers[idx], axis=1) - radii[idx]) <= 0
        assert (w.as_array().tobytes() if w else None) == (p.tobytes() if inside else None), s
        seen.add(bool(inside))
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# enumerate_zones
# ---------------------------------------------------------------------------

def test_enumerate_coincident_ues_single_zone():
    spheres = [sphere(i, 50.0, 50.0, 100.0) for i in range(5)]
    zones = enumerate_zones(spheres, BOX)
    assert len(zones) == 1
    assert zones[0].members == (0, 1, 2, 3, 4)
    assert zones[0].slack >= 0


def test_enumerate_two_clusters_no_cross_zone():
    spheres = [
        sphere(0, 0.0, 0.0, 60.0), sphere(1, 20.0, 0.0, 60.0),
        sphere(2, 900.0, 900.0, 60.0), sphere(3, 920.0, 900.0, 60.0),
    ]
    zones = enumerate_zones(spheres, BOX)
    # Brute-force pairwise disjointness between the clusters.
    for i in (0, 1):
        for j in (2, 3):
            d = math.dist((spheres[i].center.x, spheres[i].center.y),
                          (spheres[j].center.x, spheres[j].center.y))
            assert d > spheres[i].radius + spheres[j].radius
    for z in zones:
        assert set(z.members) <= {0, 1} or set(z.members) <= {2, 3}
    covered = set().union(*(z.members for z in zones))
    assert covered == {0, 1, 2, 3}


def test_enumerate_seven_ues_two_zone_cover():
    # Two well-separated clusters of overlapping spheres: a 4-set and a
    # 3-set zone exist, so two zones cover all seven UEs.
    left = [(0.0, 0.0), (30.0, 0.0), (0.0, 30.0), (30.0, 30.0)]
    right = [(800.0, 800.0), (830.0, 800.0), (815.0, 830.0)]
    spheres = [sphere(i, x, y, 80.0) for i, (x, y) in enumerate(left + right)]
    zones = enumerate_zones(spheres, BOX)
    members = {z.members for z in zones}
    assert (0, 1, 2, 3) in members
    assert (4, 5, 6) in members
    cover = minimal_zone_cover(zones, 7, 7)
    assert len(cover) == 2


def test_enumerate_witness_validity_invariant(params):
    rng = np.random.default_rng(11)
    for _ in range(10):
        scn = random_scenario(rng, n_max=12, side_range=(150.0, 500.0))
        spheres = build_spheres(scn, params)
        zones = enumerate_zones(spheres, scn.venue)
        by_index = {s.ue_index: s for s in spheres}
        covered = set()
        for z in zones:
            w = z.witness.as_array()
            assert scn.venue.contains(w, tol=1e-9)
            for i in z.members:
                s = by_index[i]
                assert np.linalg.norm(w - s.center.as_array()) <= s.radius + 1e-6
            # Maximality over the witness: every containing sphere is a member.
            for s in spheres:
                if np.linalg.norm(w - s.center.as_array()) <= s.radius:
                    assert s.ue_index in z.members
            covered.update(z.members)
        assert covered == set(range(len(scn.ues)))


def test_enumerate_maximality_no_proper_subsets(params):
    rng = np.random.default_rng(23)
    for _ in range(8):
        scn = random_scenario(rng, n_max=10, side_range=(150.0, 450.0))
        spheres = build_spheres(scn, params)
        zones = enumerate_zones(spheres, scn.venue)
        sets = [set(z.members) for z in zones]
        for a, b in itertools.combinations(range(len(sets)), 2):
            assert not sets[a] < sets[b] and not sets[b] < sets[a]


def _solved_sets(monkeypatch) -> list:
    """Every member set ``coverage.zone_witnesses`` solves from now on, in order."""
    seen = []
    solve = coverage.zone_witnesses
    monkeypatch.setattr(coverage, "zone_witnesses",
                        lambda sets, *a: seen.extend(sets) or solve(sets, *a))
    return seen


def test_check_solves_through_the_module_global(monkeypatch):
    # A tracer times witness solves by replacing the solver on its module,
    # so enumeration must look coverage.zone_witnesses up there. Centres
    # beyond the footprint give zones whose clamped mean misses.
    seen = _solved_sets(monkeypatch)
    rng = np.random.default_rng(8)
    spheres = [sphere(i, *rng.uniform(-300.0, 1300.0, 2), rng.uniform(50.0, 300.0),
                      z=rng.uniform(0.0, 5.0)) for i in range(60)]
    zones = enumerate_zones(spheres, BOX)
    assert 0 < len(seen) <= len(zones)


def test_enumerate_complete_against_brute_force(params):
    # Every member set the SLSQP reference certifies lies inside some zone.
    # Venues of 400-1500 m at 26/52 Mbit/s split overlap components into
    # several zones that share members.
    rng = np.random.default_rng(2)
    shared_seen = False
    for _ in range(8):
        scn = random_scenario(rng, n_min=4, n_max=7, side_range=(400.0, 1500.0),
                              demands=(26e6, 52e6))
        spheres = build_spheres(scn, params)
        zones = enumerate_zones(spheres, scn.venue)
        member_sets = [set(z.members) for z in zones]
        shared_seen |= any(a & b for a, b in itertools.combinations(member_sets, 2))
        for r in range(1, len(spheres) + 1):
            for subset in itertools.combinations(range(len(spheres)), r):
                _, deficit = reference_witness(subset, spheres, scn.venue)
                if deficit <= 0:
                    assert any(set(subset) <= m for m in member_sets), subset
    assert shared_seen


def _assert_exact(spheres, box):
    """Zones against ``zone_witness``: each feasible, none extendable, and
    every feasible pair and triple inside one. Returns the feasible pairs."""
    n = len(spheres)
    zones = enumerate_zones(spheres, box)
    member_sets = [set(z.members) for z in zones]

    def feasible(members):
        return zone_witness(members, spheres, box)[1] <= 0

    for z in zones:
        assert feasible(z.members)
        for k in sorted(set(range(n)) - set(z.members)):
            assert not feasible(z.members + (k,)), (z.members, k)
    pairs = [p for p in itertools.combinations(range(n), 2) if feasible(p)]
    linked = set(pairs)
    triples = [t for t in itertools.combinations(range(n), 3)
               if {t[:2], t[::2], t[1:]} <= linked and feasible(t)]
    for subset in pairs + triples:
        assert any(set(subset) <= m for m in member_sets), subset
    return pairs


@pytest.mark.parametrize("flat", [False, True])
def test_enumerate_is_exact_on_one_large_component(flat):
    # 30 spheres in one overlap component. Centres around and beyond the
    # footprint clip disks at edges and corners; the flat box takes centres
    # above its altitude.
    rng = np.random.default_rng(0)
    xy = rng.uniform(-60.0, 460.0, (30, 2))
    radii = rng.uniform(70.0, 160.0, 30)
    z = rng.uniform(0.0, 35.0 if flat else 9.0, 30)
    box = FeasibleBox((0.0, 400.0), (0.0, 400.0), (30.0, 30.0) if flat else (10.0, 100.0))
    pairs = _assert_exact([sphere(i, *xy[i], radii[i], z=z[i]) for i in range(30)], box)
    component, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for v in {b for a, b in pairs if a == u} | {a for a, b in pairs if b == u}:
            if v not in component:
                component.add(v)
                stack.append(v)
    assert len(component) == 30


@pytest.mark.parametrize("flat", [False, True])
def test_enumerate_keeps_every_user_on_degenerate_touches(flat):
    # Floor disks that touch from outside, from inside, at an edge from both
    # sides and at a corner, and five circles through one point: sets whose
    # only common point is a touch may fail their certificate, and the sets
    # they hid must take their place.
    floor = 10.0
    disks = [(100.0, 100.0, 50.0), (200.0, 100.0, 50.0), (400.0, 150.0, 100.0),
             (450.0, 150.0, 50.0), (50.0, 600.0, 50.0), (-50.0, 800.0, 50.0),
             (1030.0, 1040.0, 50.0)]
    disks += [(500.0 + 60.0 * math.cos(0.1 + 0.4 * math.pi * k),
               500.0 + 60.0 * math.sin(0.1 + 0.4 * math.pi * k), 60.0) for k in range(5)]
    cz = floor if flat else 0.0
    spheres = [sphere(i, x, y, math.hypot(rho, floor - cz), z=cz) for i, (x, y, rho) in enumerate(disks)]
    box = FeasibleBox((0.0, 1000.0), (0.0, 1000.0), (floor, floor if flat else 100.0))
    zones = enumerate_zones(spheres, box)
    for z in zones:
        w = z.witness.as_array()
        assert box.contains(w) and z.slack >= 0
        assert all(np.linalg.norm(w - spheres[i].center.as_array()) <= spheres[i].radius
                   for i in z.members)
    assert set().union(*(z.members for z in zones)) == set(range(len(spheres)))
    sets = [set(z.members) for z in zones]
    assert not any(a < b for a, b in itertools.permutations(sets, 2))


def test_enumeration_solves_at_most_one_witness_per_zone(monkeypatch):
    # 20 densely overlapping users over 500 m at 26 Mbit/s: each emitted zone
    # is certified once, and no other set is solved.
    seen = _solved_sets(monkeypatch)
    users = np.random.default_rng(7).uniform(0.0, 500.0, (20, 2))
    scn = make_scenario(users.tolist(), demand=26e6, side=500.0)
    zones = enumerate_zones(build_spheres(scn, ChannelParams()), scn.venue)
    assert len(seen) <= len(zones)


def test_enumerate_large_chain_is_exact():
    # 30 spheres in a line, only neighbors overlapping: the zones are exactly
    # the adjacent pairs.
    box = FeasibleBox((0.0, 3000.0), (0.0, 3000.0), (10.0, 100.0))
    spheres = [sphere(i, 100.0 + 80.0 * i, 500.0, 50.0) for i in range(30)]
    zones = enumerate_zones(spheres, box)
    assert {z.members for z in zones} == {(i, i + 1) for i in range(29)}
    # Midpoint witness at the altitude floor: slack = 50 - sqrt(40^2 + 10^2).
    assert zones[0].slack == pytest.approx(50.0 - math.hypot(40.0, 10.0), abs=1e-6)
    cover = minimal_zone_cover(zones, 30, 30)
    assert len(cover) == 15


def test_enumerate_deterministic(params):
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    s1 = random_scenario(rng1, n_max=15, side_range=(300.0, 500.0))
    s2 = random_scenario(rng2, n_max=15, side_range=(300.0, 500.0))
    z1 = enumerate_zones(build_spheres(s1, ChannelParams()), s1.venue)
    z2 = enumerate_zones(build_spheres(s2, ChannelParams()), s2.venue)
    assert [(z.members, z.witness, z.slack) for z in z1] \
        == [(z.members, z.witness, z.slack) for z in z2]


def _zones_digest(zones) -> str:
    h = hashlib.sha256()
    for z in zones:
        w = z.witness
        h.update(repr((z.members, w.x.hex(), w.y.hex(), w.z.hex(), z.slack.hex())).encode())
    return h.hexdigest()[:16]


def test_enumerate_zones_output_is_pinned(params):
    # Zones bit for bit: 60 users over 1 km form one large overlap component
    # of many small zones, 11 users over 600 m form zones that share members,
    # and the paper cell A-5 is one zone. A change that keeps zones keeps
    # these digests.
    large = np.random.default_rng(7).uniform(0.0, 1000.0, (60, 2))
    shared = np.random.default_rng(7).uniform(0.0, 600.0, (11, 2))
    cases = [
        (make_scenario(large.tolist(), demand=26e6), 113, "9d244d0792e26cb0"),
        (make_scenario(shared.tolist(), demand=26e6, side=600.0), 7, "25eab45404f3d6e6"),
        (generate_scenario("A", 5, 0), 1, "7fe277deb9f27d12"),
    ]
    for scn, count, digest in cases:
        zones = enumerate_zones(build_spheres(scn, params), scn.venue)
        assert (len(zones), _zones_digest(zones)) == (count, digest)


# ---------------------------------------------------------------------------
# minimal_zone_cover
# ---------------------------------------------------------------------------

def zone(members, slack=1.0):
    return CandidateZone(members=tuple(sorted(members)), witness=Point3(0, 0, 10), slack=slack)


def brute_force_cover_size(zones, n_ues, cap=None):
    """Smallest zone subset covering everything, by exhaustive enumeration."""
    all_ues = set(range(n_ues))
    for k in range(1, len(zones) + 1):
        for combo in itertools.combinations(zones, k):
            if cap is None:
                covered = set().union(*(set(z.members) for z in combo))
                if covered == all_ues:
                    return k
            else:
                try:
                    cover_assignment(list(combo), [cap] * k, n_ues)
                    return k
                except UncoverableError:
                    continue
    return None


def test_cover_singletons_only():
    zones = [zone([i]) for i in range(6)]
    cover = minimal_zone_cover(zones, 6, 6)
    assert len(cover) == 6


def test_cover_one_zone_contains_all():
    zones = [zone(range(8))] + [zone([i]) for i in range(8)]
    cover = minimal_zone_cover(zones, 8, 8)
    assert len(cover) == 1


def test_cover_capacity_forces_multiplicity():
    # 20 members, cap 8: three picks of the same zone.
    zones = [zone(range(20))]
    cover = minimal_zone_cover(zones, 20, 8)
    assert len(cover) == 3
    served = cover_assignment(cover, [8, 8, 8], 20)
    assert sorted(u for s in served for u in s) == list(range(20))
    assert all(len(s) <= 8 for s in served)


def test_cover_uncoverable():
    with pytest.raises(UncoverableError):
        minimal_zone_cover([zone([0])], 2, 8)


def test_cover_exact_matches_brute_force_random():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(3, 11))
        n_zones = int(rng.integers(2, 10))
        zones = []
        for k in range(n_zones):
            size = int(rng.integers(1, n + 1))
            members = sorted(rng.choice(n, size=size, replace=False).tolist())
            zones.append(zone(members, slack=float(rng.uniform(0, 5))))
        for i in range(n):
            zones.append(zone([i], slack=0.0))
        exact = minimal_zone_cover(zones, n, n)
        brute = brute_force_cover_size(zones, n)
        assert len(exact) == brute
        greedy = greedy_zone_cover(zones, n, n)
        assert len(greedy) >= len(exact)
        covered = set().union(*(set(z.members) for z in exact))
        assert covered == set(range(n))


@pytest.mark.parametrize("members, n, cap", [
    ([[0, 1, 2, 4], [1, 3]], 5, 3),
    ([[0, 1, 2], [0, 1, 3]], 4, 2),
])
def test_cover_leaves_room_for_a_second_zone(members, n, cap):
    # Each first pick serves cap members and leaves the rest to the second
    # zone. A search that records a longer cover over a shorter one returns
    # three picks.
    cover = minimal_zone_cover([zone(m) for m in members], n, cap)
    assert len(cover) == 2
    served = cover_assignment(cover, [min(cap, len(z.members)) for z in cover], n)
    assert sorted(u for s in served for u in s) == list(range(n))


def test_minimal_zone_cover_picks_are_pinned():
    # Which of several equally short covers comes back is part of the plan.
    rng = np.random.default_rng(41)
    h = hashlib.sha256()
    for _ in range(100):
        n = int(rng.integers(10, 31))
        zones = [zone(rng.choice(n, size=int(rng.integers(1, n // 3 + 1)), replace=False).tolist(),
                      slack=float(rng.uniform(0, 5)))
                 for _ in range(int(rng.integers(10, 21)))]
        zones += [zone([i], slack=float(rng.uniform(0, 5))) for i in range(n)]
        for z in minimal_zone_cover(zones, n, n):
            h.update(repr(z.members).encode())
    assert h.hexdigest()[:16] == "01bde0815716ea25"


def test_capped_covers_of_many_users_stay_within_the_node_budget():
    # 600-1,400 users in 3-8 zones with caps 7-11, greedy above ceil(n / cap)
    # on most. The search serves one user per node, so only its node budget
    # keeps it within Python's recursion limit. Every cover must assign.
    rng = np.random.default_rng(5)
    above = 0
    for _ in range(40):
        n, k, cap = int(rng.integers(600, 1401)), int(rng.integers(3, 9)), int(rng.integers(7, 12))
        home = rng.integers(0, k, n)  # every user in at least one zone
        extra = rng.random((n, k)) < rng.uniform(0.05, 0.5)
        zones = [zone(np.flatnonzero((home == j) | extra[:, j]).tolist()) for j in range(k)]
        cover = minimal_zone_cover(zones, n, cap)
        assert math.ceil(n / cap) <= len(cover) <= len(greedy_zone_cover(zones, n, cap))
        served = cover_assignment(cover, [min(cap, len(z.members)) for z in cover], n)
        assert sorted(u for s in served for u in s) == list(range(n))
        above += len(cover) > math.ceil(n / cap)
    assert above > 0


def test_cover_greedy_tiebreaks_deterministic():
    zones = [zone([0, 1], slack=1.0), zone([2, 3], slack=2.0), zone([1, 2], slack=9.0)]
    g1 = greedy_zone_cover(zones, 4, 4)
    g2 = greedy_zone_cover(zones, 4, 4)
    assert [z.members for z in g1] == [z.members for z in g2]
    # First pick: all three cover 2 uncovered; slack 9.0 wins.
    assert g1[0].members == (1, 2)


def test_cover_capped_exact_vs_brute():
    rng = np.random.default_rng(29)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        cap = int(rng.integers(2, 4))
        zones = [zone(sorted(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                        replace=False).tolist()))
                 for _ in range(int(rng.integers(2, 7)))]
        for i in range(n):
            zones.append(zone([i]))
        exact = minimal_zone_cover(zones, n, cap)
        # Brute force over multisets: since each pick serves <= cap, compare
        # against exhaustive subsets with repetition up to the exact length.
        best = None
        pruned = [z for z in zones
                  if not any(set(z.members) < set(o.members) for o in zones)]
        for k in range(1, len(exact) + 1):
            for combo in itertools.combinations_with_replacement(pruned, k):
                try:
                    cover_assignment(list(combo), [cap] * k, n)
                    best = k
                    break
                except UncoverableError:
                    continue
            if best is not None:
                break
        assert len(exact) == best


@pytest.mark.parametrize("width", [1, 25])
@pytest.mark.parametrize("count", [0, 1, 300])
def test_unique_rows_match_numpy_axis0(width, count):
    # Packed member rows with duplicates and an all-zero row, at the widths
    # of 8 and 200 users, and the single-row and empty cases.
    rng = np.random.default_rng(width * 1000 + count)
    rows = np.packbits(rng.random((count, 8 * width)) < 0.3, axis=1)
    if count > 1:
        rows[rng.integers(0, count, count // 2)] = rows[rng.integers(0, count, count // 2)]
        rows[count // 3] = 0
        assert len(np.unique(rows, axis=0)) < count
    expected, first = np.unique(rows, axis=0, return_index=True)
    got, got_first = coverage._unique_rows(rows, return_index=True)
    assert got.dtype == np.uint8 and got.shape == expected.shape
    assert np.array_equal(got, expected) and np.array_equal(got_first, first)
    assert np.array_equal(coverage._unique_rows(rows), expected)
