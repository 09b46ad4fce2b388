"""Coverage stage: witness search, zone enumeration, and minimum covers."""
import hashlib
import itertools
import math

import numpy as np
import pytest

from uavplan import (
    CandidateZone,
    ChannelParams,
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
from membership_reference import dense_sets_at, loop_slack
from witness_loop_reference import loop_witness
from witness_reference import reference_witness

BOX = FeasibleBox(x=(0.0, 1000.0), y=(0.0, 1000.0), z=(10.0, 100.0))


def sphere(x, y, r, z=0.0):
    """A hand-built sphere: its centre and radius."""
    return (x, y, z), r


def as_spheres(items):
    """The ``Spheres`` of hand-built spheres; sphere ``i`` is ``items[i]``."""
    return coverage.Spheres(centers=np.array([c for c, _ in items], dtype=float),
                            radii=np.array([r for _, r in items], dtype=float))


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
    assert spheres.radii[0] == max_service_distance(6.5e6, scn.b_max_hz, params)


def test_build_spheres_identical_ues(params):
    scn = make_scenario([(70, 30), (70, 30)])
    spheres = build_spheres(scn, params)
    assert len(spheres) == 2
    assert np.array_equal(spheres.centers[0], spheres.centers[1])
    assert spheres.radii[0] == spheres.radii[1]


def test_build_spheres_uniform_demand_uniform_radius(params):
    rng = np.random.default_rng(0)
    scn = make_scenario([(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(20)],
                        side=100.0)
    spheres = build_spheres(scn, params)
    assert len(spheres) == 20
    assert len(set(spheres.radii.tolist())) == 1


def test_build_spheres_fixed_policy_radius(params):
    scn = make_scenario([(50, 50)], bandwidth_policy="fixed")
    spheres = build_spheres(scn, params)
    assert spheres.radii[0] == max_service_distance(6.5e6, 20e6, params)


@pytest.mark.parametrize("policy", ["demand-fit", "fixed"])
def test_build_spheres_radius_per_ue_from_its_own_link(params, policy):
    # Mixed demands and per-UE widths: each radius is the scalar service
    # distance of that UE's own (demand, width), bit for bit.
    demands = [6.5e6, 26e6, 6.5e6, 26e6, 13e6]
    widths = [None, 5e6, 5e6, None, 20e6]
    ues = tuple(UE(position=Point3(10.0 + 20.0 * k, 30.0, 0.0), demand_bps=d, bandwidth_hz=w)
                for k, (d, w) in enumerate(zip(demands, widths)))
    scn = Scenario(label="t", seed=1, venue=FeasibleBox((0.0, 200.0), (0.0, 200.0), (10.0, 100.0)),
                   ues=ues, bandwidth_policy=policy)
    spheres = build_spheres(scn, params)
    other = scn.b_max_hz if policy == "demand-fit" else scn.fixed_bandwidth_hz
    expected = [max_service_distance(d, other if w is None else w, params)
                for d, w in zip(demands, widths)]
    assert spheres.radii.tolist() == expected
    assert spheres.centers is scn.ue_positions
    assert [Point3(*c) for c in spheres.centers.tolist()] == [ue.position for ue in ues]
    assert len(spheres) == 5


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
    s = sphere(200.0, 300.0, 50.0)
    w, deficit = zone_witness([0], as_spheres([s]), BOX)
    assert (w.x, w.y, w.z) == (200.0, 300.0, 10.0)
    assert deficit == pytest.approx(-40.0)


def test_witness_two_overlapping_unit_spheres():
    # Centers 1 m apart on the altitude floor, unit radii: the midpoint
    # region is feasible and the deficit is negative.
    a = sphere(100.0, 100.0, 1.0, z=9.5)
    b = sphere(101.0, 100.0, 1.0, z=9.5)
    spheres = as_spheres([a, b])
    w, deficit = zone_witness([0, 1], spheres, BOX)
    assert deficit < 0
    for center, radius in zip(spheres.centers, spheres.radii):
        assert math.dist((w.x, w.y, w.z), center) <= radius


def test_witness_disjoint_spheres_infeasible():
    a = sphere(0.0, 0.0, 30.0)
    b = sphere(100.0, 0.0, 30.0)
    _, deficit = zone_witness([0, 1], as_spheres([a, b]), BOX)
    assert deficit > 0


def test_witness_tangent_geometry_accuracy():
    # Two spheres overlapping only near a point above the floor: the witness
    # search must find the thin lens.
    a = sphere(0.0, 500.0, 60.0)
    b = sphere(100.0, 500.0, 60.0)
    w, deficit = zone_witness([0, 1], as_spheres([a, b]), BOX)
    assert deficit <= 0
    # Analytic check: the lens center is at (50, 500, z) with z up to
    # sqrt(60^2 - 50^2) = 33.17; the box floor at 10 is inside.
    assert abs(w.x - 50.0) < 1.0


def test_witness_respects_box():
    a = sphere(500.0, 500.0, 300.0)
    w, _ = zone_witness([0], as_spheres([a]), BOX)
    assert BOX.contains(w.as_array())


def test_witness_deterministic():
    a = sphere(10.0, 20.0, 80.0)
    b = sphere(60.0, 40.0, 90.0)
    c = sphere(30.0, 90.0, 85.0)
    w1, d1 = zone_witness([0, 1, 2], as_spheres([a, b, c]), BOX)
    w2, d2 = zone_witness([0, 1, 2], as_spheres([a, b, c]), BOX)
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
        spheres = as_spheres([sphere(*xy[i], radii[i], z=z[i]) for i in range(m)])
        yield spheres, box
        if m == 2:
            # Shift both radii so the pair's best deficit sits just off zero.
            _, ref = reference_witness(range(m), spheres, box)
            for eps in (-1e-3, 1e-3):
                yield as_spheres([sphere(*xy[i], radii[i] + ref - eps, z=z[i])
                                  for i in range(m)]), box


def test_witness_matches_slsqp_reference():
    rng = np.random.default_rng(41)
    for spheres, box in _witness_cases(rng):
        members = range(len(spheres))
        w, deficit = zone_witness(members, spheres, box)
        _, ref = reference_witness(members, spheres, box)
        assert (deficit <= 0) == (ref <= 0)
        assert deficit <= ref + 1e-9
        assert box.contains(w.as_array()) and w.z == box.z[0]
        centers, radii = spheres.centers, spheres.radii
        # The deficit is a true value at the returned point.
        assert deficit == np.max(np.linalg.norm(w.as_array() - centers, axis=1) - radii)


def test_witness_rejects_centre_above_floor():
    above = sphere(100.0, 100.0, 50.0, z=BOX.z[0] + 1.0)
    with pytest.raises(ValueError, match="above the altitude floor"):
        zone_witness([0], as_spheres([above]), BOX)
    flat = FeasibleBox(BOX.x, BOX.y, (20.0, 20.0))
    w, deficit = zone_witness([0], as_spheres([sphere(100.0, 100.0, 50.0, z=30.0)]), flat)
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
    # it summed along a contiguous axis; both outcomes of the sphere check,
    # and the slack to the bit.
    rng = np.random.default_rng(4)
    centers = np.column_stack([rng.uniform(-50.0, 1050.0, (40, 2)), np.zeros(40)])
    radii = rng.uniform(400.0, 2000.0, 40)
    sets = [tuple(sorted(rng.choice(40, size=k, replace=False).tolist()))
            for k in (1, 2, 5, 8, 9, 17, 33) for _ in range(6)]
    seen = set()
    for s, found in zip(sets, coverage._clamped_means(sets, centers, radii, BOX)):
        idx = list(s)
        p = BOX.clamp(centers[idx].mean(axis=0))
        slack = float(np.min(radii[idx] - np.linalg.norm(p - centers[idx], axis=1)))
        inside = np.max(np.linalg.norm(p - centers[idx], axis=1) - radii[idx]) <= 0
        expected = (p.tobytes(), slack.hex()) if inside else None
        got = (found[0].as_array().tobytes(), found[1].hex()) if found else None
        assert got == expected, s
        seen.add(bool(inside))
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# enumerate_zones
# ---------------------------------------------------------------------------

def test_enumerate_coincident_ues_single_zone():
    spheres = as_spheres([sphere(50.0, 50.0, 100.0) for _ in range(5)])
    zones = enumerate_zones(spheres, BOX)
    assert len(zones) == 1
    assert zones[0].members == (0, 1, 2, 3, 4)
    assert zones[0].slack >= 0


def test_enumerate_two_clusters_no_cross_zone():
    spheres = as_spheres([
        sphere(0.0, 0.0, 60.0), sphere(20.0, 0.0, 60.0),
        sphere(900.0, 900.0, 60.0), sphere(920.0, 900.0, 60.0),
    ])
    zones = enumerate_zones(spheres, BOX)
    # Brute-force pairwise disjointness between the clusters.
    for i in (0, 1):
        for j in (2, 3):
            d = math.dist(spheres.centers[i, :2], spheres.centers[j, :2])
            assert d > spheres.radii[i] + spheres.radii[j]
    for z in zones:
        assert set(z.members) <= {0, 1} or set(z.members) <= {2, 3}
    covered = set().union(*(z.members for z in zones))
    assert covered == {0, 1, 2, 3}


def test_enumerate_seven_ues_two_zone_cover():
    # Two well-separated clusters of overlapping spheres: a 4-set and a
    # 3-set zone exist, so two zones cover all seven UEs.
    left = [(0.0, 0.0), (30.0, 0.0), (0.0, 30.0), (30.0, 30.0)]
    right = [(800.0, 800.0), (830.0, 800.0), (815.0, 830.0)]
    spheres = as_spheres([sphere(x, y, 80.0) for x, y in left + right])
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
        covered = set()
        for z in zones:
            w = z.witness.as_array()
            assert scn.venue.contains(w, tol=1e-9)
            gap = np.linalg.norm(w - spheres.centers, axis=1)
            for i in z.members:
                assert gap[i] <= spheres.radii[i] + 1e-6
            # Maximality over the witness: every containing sphere is a member.
            for i in np.flatnonzero(gap <= spheres.radii).tolist():
                assert i in z.members
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
    spheres = as_spheres([sphere(*rng.uniform(-300.0, 1300.0, 2), rng.uniform(50.0, 300.0),
                                 z=rng.uniform(0.0, 5.0)) for _ in range(60)])
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
    pairs = _assert_exact(as_spheres([sphere(*xy[i], radii[i], z=z[i]) for i in range(30)]), box)
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
    spheres = as_spheres([sphere(x, y, math.hypot(rho, floor - cz), z=cz) for x, y, rho in disks])
    box = FeasibleBox((0.0, 1000.0), (0.0, 1000.0), (floor, floor if flat else 100.0))
    zones = enumerate_zones(spheres, box)
    for z in zones:
        w = z.witness.as_array()
        assert box.contains(w) and z.slack >= 0
        assert all(np.linalg.norm(w - spheres.centers[i]) <= spheres.radii[i]
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
    spheres = as_spheres([sphere(100.0 + 80.0 * i, 500.0, 50.0) for i in range(30)])
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


def _zone_bits(zones):
    return [(z.members, *(v.hex() for v in (z.witness.x, z.witness.y, z.witness.z, z.slack)))
            for z in zones]


def _paper_venue(rng, params, flat, policy):
    """Spheres and box of 20-60 users over a 100-500 m venue at 6.5-19.5 Mbit/s."""
    side = float(rng.uniform(100.0, 500.0))
    floor = float(rng.uniform(10.0, 40.0))
    users = rng.uniform(0.0, side, (int(rng.integers(20, 61)), 2))
    scn = make_scenario(users.tolist(), demand=float(rng.choice([6.5e6, 13e6, 19.5e6])), side=side,
                        z=(floor, floor if flat else floor + 90.0), bandwidth_policy=policy)
    return build_spheres(scn, params), scn.venue


def test_shared_venues_give_the_vertex_paths_zone_bit_for_bit(monkeypatch, params):
    # Where the clamped mean of every centre lies in every sphere, the one
    # zone enumerate_zones returns without the arrangement is the vertex
    # path's answer to the bit: members, witness and slack. Some such
    # venues have floor disks that miss a footprint corner (as B-3 and B-4
    # do); on one where a member just misses the clamped mean, both calls
    # take the vertex path.
    floor_points, vertex_calls = coverage._floor_points, []
    monkeypatch.setattr(coverage, "_floor_points",
                        lambda *a: vertex_calls.append(a) or floor_points(*a))
    rng = np.random.default_rng(2801)
    seen, shared = set(), []
    for v in range(64):
        flat, policy = v % 2 == 1, ("demand-fit", "fixed")[v // 2 % 2]
        spheres, box = _paper_venue(rng, params, flat, policy)
        vertex_calls.clear()
        zones = enumerate_zones(spheres, box)
        shortcut = not vertex_calls
        assert _zone_bits(zones) == _zone_bits(coverage._vertex_zones(spheres, box))
        if not shortcut:
            continue
        assert [z.members for z in zones] == [tuple(range(len(spheres)))]
        shared.append((spheres, box, zones[0].witness.as_array()))
        rho = np.sqrt(spheres.radii ** 2 - (box.z[0] - spheres.centers[:, 2]) ** 2)
        corners = np.array([[x, y] for x in box.x for y in box.y])
        gap = np.linalg.norm(corners[:, None] - spheres.centers[:, :2], axis=2)
        seen |= {kind for kind, hit in (("flat", flat), ("3D", not flat), (policy, True),
                                        ("corner missed", (gap > rho).any())) if hit}
    assert len(shared) >= 50
    assert seen == {"flat", "3D", "demand-fit", "fixed", "corner missed"}

    spheres, box, witness = shared[0]
    gap = np.linalg.norm(witness - spheres.centers, axis=1)
    tight = int(np.argmin(spheres.radii - gap))
    radii = spheres.radii.copy()
    radii[tight] = gap[tight] * (1 - 1e-12)
    missed = coverage.Spheres(spheres.centers, radii)
    vertex_calls.clear()
    zones = enumerate_zones(missed, box)
    assert len(vertex_calls) == 1
    assert _zone_bits(zones) == _zone_bits(coverage._vertex_zones(missed, box))
    assert len(vertex_calls) == 2


def _spread_venue(rng, flat, users=(60, 150)):
    """Spheres of ``users[0]``-``users[1]`` users over 300-2000 m, and their box.

    A tenth of the users share another's position and a tenth stand on the
    footprint edge; floor disks take three radii. Flat boxes put some
    centres above the altitude.
    """
    side = rng.uniform(300.0, 2000.0)
    floor = rng.uniform(10.0, 40.0)
    box = FeasibleBox((0.0, side), (0.0, side), (floor, floor if flat else floor + 90.0))
    n = int(rng.integers(users[0], users[1] + 1))
    tenth = n // 10
    xy = rng.uniform(0.0, side, (n, 2))
    xy[:tenth] = xy[tenth:2 * tenth]
    edge = rng.choice(n, tenth, replace=False)
    xy[edge, rng.integers(0, 2, tenth)] = rng.choice([0.0, side], tenth)
    z = rng.uniform(0.0, floor + 5.0 if flat else floor, n)
    reach = rng.choice([0.06, 0.1, 0.15], n) * side
    return coverage.Spheres(centers=np.column_stack([xy, z]), radii=np.hypot(reach, floor - z)), box


@pytest.mark.parametrize("venue", range(8))
def test_block_memberships_match_the_dense_path(monkeypatch, venue):
    # Vertex candidates scored in spatial blocks, each against the spheres
    # that reach it, give each block the member sets of scoring it against
    # every sphere, and the zones, witnesses and slacks, to the bit, of
    # scoring every candidate in candidate order; the slacks are those of
    # the per-zone norm loop. Each block reports the dense path's touch, so
    # both fall back alike; 150-250 users make the lowest candidates alone
    # span more than one block.
    rng = np.random.default_rng(100 + venue)
    spheres, box = _spread_venue(rng, flat=venue % 2 == 1, users=(150, 250))
    sets_at, blocks = coverage._sets_at, []
    with monkeypatch.context() as m:
        m.setattr(coverage, "_sets_at", lambda *a: blocks.append(a) or sets_at(*a))
        zones = enumerate_zones(spheres, box)
    assert len(blocks) > 1
    for block in blocks:
        (rows, touch), (dense_rows, dense_touch) = sets_at(*block), dense_sets_at(*block)
        assert (rows.tobytes(), touch) == (dense_rows.tobytes(), dense_touch)
    with monkeypatch.context() as m:
        m.setattr(coverage, "_sets_at", dense_sets_at)
        m.setattr(coverage, "_z_order", lambda points, lo, hi: np.zeros(len(points)))
        assert _zone_bits(zones) == _zone_bits(enumerate_zones(spheres, box))
    assert [z.slack.hex() for z in zones] == [loop_slack(z.members, z.witness, spheres).hex()
                                               for z in zones]


def _uniform_venue(rng, flat):
    """Spheres of 5-80 users over 100-1500 m, centres up to a tenth of a side beyond the footprint."""
    side = rng.uniform(100.0, 1500.0)
    floor = rng.uniform(10.0, 40.0)
    box = FeasibleBox((0.0, side), (0.0, side), (floor, floor if flat else floor + 90.0))
    n = int(rng.integers(5, 81))
    xy = rng.uniform(-0.1 * side, 1.1 * side, (n, 2))
    z = rng.uniform(0.0, floor + 5.0 if flat else floor, n)
    reach = rng.uniform(0.05, 0.5, n) * side
    return coverage.Spheres(centers=np.column_stack([xy, z]), radii=np.hypot(reach, floor - z)), box


def _grid_venue(rng, flat):
    """Spheres of 5-40 users over 100-600 m, centres on a grid of an eighth of a side.

    Floor disks take three radii, each a multiple of the grid step, so many
    touch each other and the footprint edges exactly.
    """
    side = rng.uniform(100.0, 600.0)
    floor = rng.uniform(10.0, 40.0)
    box = FeasibleBox((0.0, side), (0.0, side), (floor, floor if flat else floor + 90.0))
    n = int(rng.integers(5, 41))
    xy = rng.integers(0, 9, (n, 2)) * (side / 8)
    z = np.full(n, floor) if flat else rng.uniform(0.0, floor, n)
    reach = rng.choice([0.125, 0.25, 0.375], n) * side
    return coverage.Spheres(centers=np.column_stack([xy, z]), radii=np.hypot(reach, floor - z)), box


@pytest.mark.parametrize("make, count, touches", [
    (_uniform_venue, 150, False), (_spread_venue, 100, True), (_grid_venue, 150, True)])
def test_lowest_candidates_give_the_zones_of_every_candidate(monkeypatch, make, count, touches):
    # The zones from the lowest vertex candidates, with the touch guard,
    # are those of scoring every candidate, bit for bit: members, witness
    # and slack, on 400 venues, flat and 3D. Uniform venues never touch, so
    # they take the lowest candidates alone; coincident users, users on the
    # footprint edge and grid-aligned disks touch, and fall back.
    floor_points, scored_sets = coverage._floor_points, coverage._scored_sets

    def every_candidate(*args):
        points, defined_by, _ = floor_points(*args)
        return points, defined_by, np.ones(len(points), bool)

    calls = []
    monkeypatch.setattr(coverage, "_scored_sets", lambda *a: calls.append(1) or scored_sets(*a))
    rng = np.random.default_rng(2901)
    fell = 0
    for v in range(count):
        spheres, box = make(rng, flat=v % 2 == 1)
        calls.clear()
        zones = coverage._vertex_zones(spheres, box)
        fell += len(calls) - 1
        with monkeypatch.context() as m:
            m.setattr(coverage, "_floor_points", every_candidate)
            assert _zone_bits(zones) == _zone_bits(coverage._vertex_zones(spheres, box)), v
    assert (fell > 0) == touches and fell < count


def test_a_sphere_at_its_radius_from_a_block_is_scored():
    # Spheres whose horizontal gap to the block's bounding rectangle is
    # exactly their radius (one touches a candidate on the rectangle's edge,
    # one the candidate at its corner), just past it, and well past it: the
    # block's sets are the dense ones, and both touching spheres are members.
    points = np.array([[100.0, 100.0], [200.0, 150.0], [200.0, 200.0], [150.0, 120.0]])
    defined_by = np.full((4, 2), 5)
    xy = np.array([[300.0, 150.0], [260.0, 280.0], [300.0 + 1e-11, 150.0], [500.0, 500.0],
                   [150.0, 150.0]])
    h2 = np.zeros(5)
    radii = np.array([100.0, 100.0, 100.0, 50.0, 80.0])
    got, touch = coverage._sets_at(points, defined_by, xy, h2, radii)
    dense, dense_touch = dense_sets_at(points, defined_by, xy, h2, radii)
    assert (got.tobytes(), touch) == (dense.tobytes(), dense_touch) == (dense.tobytes(), True)
    member = np.unpackbits(got, axis=1, count=5).astype(bool)
    assert member[:, :2].any(axis=0).all() and not member[:, 2:4].any()


def test_a_sphere_just_past_its_radius_from_a_block_is_a_touch():
    # A sphere whose horizontal gap to the block's rectangle is 0.75e-9 of
    # its radius past the radius misses every candidate, but its deficit at
    # the corner candidate is within the touch band: the block path scores
    # it and reports the touch the dense path reports. The other sphere
    # holds both candidates well inside.
    points = np.array([[100.0, 100.0], [200.0, 200.0]])
    defined_by = np.full((2, 2), 2)
    xy = np.array([[300.0 + 0.75e-7, 200.0], [150.0, 150.0]])
    h2 = np.zeros(2)
    radii = np.array([100.0, 100.0])
    got, touch = coverage._sets_at(points, defined_by, xy, h2, radii)
    dense, dense_touch = dense_sets_at(points, defined_by, xy, h2, radii)
    assert (got.tobytes(), touch) == (dense.tobytes(), dense_touch) == (dense.tobytes(), True)
    assert np.unpackbits(got, axis=1, count=2).tolist() == [[0, 1]]


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


@pytest.mark.parametrize("cap", [1, 7, 8, 19, 20, 25])
def test_cover_capacity_forces_multiplicity(cap):
    # 20 members: ceil(20 / cap) picks of the same zone, greedy's cover.
    zones = [zone(range(20))]
    cover = minimal_zone_cover(zones, 20, cap)
    assert len(cover) == math.ceil(20 / cap)
    assert cover == greedy_zone_cover(zones, 20, cap)
    served = cover_assignment(cover, [min(cap, 20)] * len(cover), 20)
    assert sorted(u for s in served for u in s) == list(range(20))
    assert all(len(s) <= cap for s in served)


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


@pytest.mark.parametrize("make", [_uniform_venue, _grid_venue])
def test_enumerated_zones_need_no_pruning(make):
    # The planner covers enumerate_zones output without dominance pruning.
    # On generated venues, touching grid-aligned ones included, no zone is
    # dominated, and with caps of 1 up to each zone's size the planner's
    # cover is the public one pick for pick (or both raise).
    rng = np.random.default_rng(3101)
    covered = 0
    for v in range(40):
        spheres, box = make(rng, flat=v % 2 == 1)
        zones = coverage.enumerate_zones(spheres, box)
        assert not coverage._dominated(coverage._membership([z.members for z in zones], len(spheres))).any()
        caps = [int(rng.integers(1, len(z.members) + 1)) for z in zones]
        try:
            public = [z.members for z in minimal_zone_cover(zones, len(spheres), caps)]
        except UncoverableError:
            with pytest.raises(UncoverableError):
                coverage._maximal_zone_cover(zones, len(spheres), caps)
            continue
        assert [z.members for z in coverage._maximal_zone_cover(zones, len(spheres), caps)] == public, v
        covered += len(zones) > 1
    assert covered >= 20


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
