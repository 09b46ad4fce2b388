"""Planner orchestration: end-to-end feasibility, validation, and splitting."""
import hashlib
import json
import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from uavplan import (
    Association,
    BaselineKind,
    CandidateZone,
    CapacityDeadlockError,
    Deployment,
    FeasibleBox,
    Point3,
    Scenario,
    UE,
    UnservableError,
    build_spheres,
    enumerate_zones,
    generate_scenario,
    link_rate,
    max_service_distance,
    plan_deployment,
    run_baseline,
    split_zone,
    validate_deployment,
    zone_witness,
)
from uavplan import evaluate_throughput, planner, positioning
from uavplan.cli import deployment_to_dict, main, scenario_to_dict
from uavplan.planner import served_links, uav_loads, zone_capacities
from uavplan.positioning import PlacementSolution
from conftest import random_scenario


def make_scenario(ue_xy, demand=6.5e6, side=300.0, z=(10.0, 100.0), seed=21, **kw):
    ues = tuple(UE(position=Point3(x, y, 0.0), demand_bps=demand) for x, y in ue_xy)
    return Scenario(label="t", seed=seed, venue=FeasibleBox((0.0, side), (0.0, side), z),
                    ues=ues, **kw)


def residual(report, name: str) -> float:
    """The residual of ``report``'s check called ``name``."""
    (value,) = [c.residual for c in report.checks if c.name == name]
    return value


def test_single_ue_single_uav(params):
    scn = make_scenario([(120, 180)], seed=1)
    dep = plan_deployment(scn, params)
    assert dep.uav_count == 1
    d = math.dist((120, 180, 0), dep.uav_positions[0])
    assert d <= max_service_distance(6.5e6, scn.b_max_hz, params)
    assert evaluate_throughput(dep, scn, params)[0] == pytest.approx(6.5e6, rel=1e-12)
    assert validate_deployment(dep, scn, params).passed


def test_planner_output_validates(params):
    rng = np.random.default_rng(31)
    for _ in range(8):
        scn = random_scenario(rng, n_max=15)
        dep = plan_deployment(scn, params)
        report = validate_deployment(dep, scn, params)
        assert report.passed, [(c.name, c.residual) for c in report.checks]
        assert dep.uav_count <= len(scn.ues)


def test_planner_deterministic(params):
    rng = np.random.default_rng(5)
    scn = replace(random_scenario(rng, n_max=12), seed=7)
    d1 = plan_deployment(scn, params)
    d2 = plan_deployment(scn, params)
    assert d1.uav_positions.tobytes() == d2.uav_positions.tobytes()
    assert np.array_equal(d1.association.z, d2.association.z)
    assert np.array_equal(d1.link_bandwidth_hz, d2.link_bandwidth_hz)
    assert evaluate_throughput(d1, scn, params) == evaluate_throughput(d2, scn, params)


def test_plan_and_pool_are_read_only_arrays(params, monkeypatch):
    # A venue like that of test_split_heavy_plans_are_pinned whose pool, the
    # plan's placements, holds failed swarms and swarms that neither anchor
    # served. With no pairs to spend, the certificate gives up on each of
    # them, so they stepped.
    monkeypatch.setattr(positioning, "_CERTIFY_PAIRS", 0)
    rng = np.random.default_rng(2027)
    scn = make_scenario(rng.uniform(0.0, 1000.0, (40, 2)).tolist(), demand=26e6, side=1000.0)
    dep = plan_deployment(replace(scn, seed=5), params)
    positions = dep.uav_positions
    assert isinstance(positions, np.ndarray) and positions.dtype == float
    assert positions.shape == (dep.uav_count, 3) and not positions.flags.writeable
    pool = dep.placements
    assert any(sol.iterations > 0 for sol in pool)
    assert any(not sol.feasible for sol in pool)
    for sol in pool:
        arrays = (sol.uav_position, sol.ue_indices, sol.bandwidth_hz, sol.rate_bps)
        assert not any(a.flags.writeable for a in arrays)
        assert sol.uav_position.shape == (3,)
        assert len(sol.bandwidth_hz) == len(sol.rate_bps) == len(sol.ue_indices)
    # The feasible placements are the plan's UAVs, in member order.
    assert sorted(sol.ue_indices.tolist() for sol in pool if sol.feasible) \
        == [np.flatnonzero(column).tolist() for column in dep.association.z.T]
    with pytest.raises(ValueError, match="read-only"):
        pool[0].rate_bps[0] = 0.0


def test_planner_unservable(params):
    scn = make_scenario([(50, 50)], demand=2.5e9, bandwidth_policy="fixed", seed=1)
    with pytest.raises(UnservableError):
        plan_deployment(scn, params)


@pytest.mark.parametrize("z, policy, width", [((120.0, 120.0), "fixed", 20e6),
                                               ((200.0, 250.0), "demand-fit", 160e6)])
def test_users_out_of_ball_reach_plan_at_their_nadirs(tmp_path, params, z, policy, width):
    # The 0.9-LoS ball of 52 Mbit/s misses the box (107.6 m of a 120 m
    # floor over 20 MHz, 170 m of 200 m over 160 MHz), but straight overhead
    # the LoS probability is nearly 1 and each nadir link serves: the plan
    # succeeds, one UAV per user, each at its nadir, and the CLI exits 0.
    scn = make_scenario([(100, 100), (250, 400), (420, 150)], demand=52e6, side=500.0, z=z,
                        bandwidth_policy=policy)
    assert max_service_distance(52e6, width, params) < z[0]
    dep = plan_deployment(scn, params)
    assert validate_deployment(dep, scn, params).passed and dep.uav_count == 3
    assert dep.uav_positions.tobytes() == scn.venue.clamp(scn.ue_positions).tobytes()
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scenario_to_dict(scn)))
    assert main(["plan", "--scenario", str(path), "--out", str(tmp_path / "r.json")]) == 0


def test_planner_capacity_deadlock(params):
    # Fixed per-UE bandwidth beyond the per-UAV budget is a config error.
    scn = make_scenario([(50, 50)], bandwidth_policy="fixed", fixed_bandwidth_hz=200e6,
                         seed=1)
    with pytest.raises(CapacityDeadlockError):
        plan_deployment(scn, params)


def test_planner_fixed_policy_capacity_splits(params):
    # 20 UEs at 20 MHz each, 160 MHz budget: at most 8 per UAV, so 3 UAVs.
    rng = np.random.default_rng(2)
    scn = make_scenario([(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
                         for _ in range(20)],
                        side=100.0, bandwidth_policy="fixed", seed=2)
    dep = plan_deployment(scn, params)
    assert dep.uav_count == 3
    report = validate_deployment(dep, scn, params)
    assert report.passed
    z = np.asarray(dep.association.z)
    assert int(z.sum(axis=0).max()) <= 8


def test_demand_fit_keeps_a_per_ue_bandwidth_pinned(params):
    # A per-UE bandwidth sizes the UE's sphere and capacity bound under
    # demand-fit too, so its link must get exactly that width, not a fitted one.
    scn = generate_scenario("A", 0, 3)
    scn = replace(scn, ues=(replace(scn.ues[0], bandwidth_hz=20e6),) + scn.ues[1:])
    assert scn.bandwidth_policy == "demand-fit"
    dep = plan_deployment(scn, params)
    assert dep.link_bandwidth_hz[0] == 20e6
    assert np.all(dep.link_bandwidth_hz[1:] < 20e6)
    report = validate_deployment(dep, scn, params)
    assert report.passed, [(c.name, c.residual) for c in report.checks]


def test_validator_catches_double_association(params):
    scn = make_scenario([(100, 100), (120, 100)], seed=3)
    dep = plan_deployment(scn, params)
    z = np.asarray(dep.association.z).copy()
    if z.shape[1] == 1:
        z = np.hstack([z, np.zeros_like(z)])
        a = np.array([1, 1], dtype=np.int8)
        positions = np.vstack([dep.uav_positions, [0.0, 0.0, 50.0]])
    else:
        a = np.asarray(dep.association.a).copy()
        positions = dep.uav_positions
    z[0, :] = 1  # UE 0 assigned everywhere
    bad = Deployment(
        uav_positions=positions,
        association=Association(z=z, a=a),
        link_bandwidth_hz=dep.link_bandwidth_hz,
        link_rate_bps=dep.link_rate_bps,
        uav_count=len(positions),
    )
    report = validate_deployment(bad, scn, params)
    assert not report.passed
    assert residual(report, "unique_association") > 0


def test_validator_capacity_residual_one_hz(params):
    # Hand-built deployment overshooting the budget by exactly 1 Hz.
    scn = make_scenario([(100, 100), (110, 100)], bandwidth_policy="fixed")
    uav = Point3(105.0, 100.0, 40.0)
    b = (scn.b_max_hz + 1.0) / 2.0
    rates = [link_rate(ue.position, uav, b, params) for ue in scn.ues]
    dep = Deployment(
        uav_positions=uav.as_array()[None, :],
        association=Association(z=np.ones((2, 1), dtype=np.int8), a=np.ones(1, dtype=np.int8)),
        link_bandwidth_hz=np.array([b, b]),
        link_rate_bps=np.array(rates),
        uav_count=1,
    )
    report = validate_deployment(dep, scn, params)
    assert residual(report, "bandwidth_capacity") == pytest.approx(1.0)
    assert not report.passed


def test_validator_position_in_box(params):
    # Hand-built deployment whose only fault is a UAV 1 m above the box.
    scn = make_scenario([(100, 100)], bandwidth_policy="fixed")
    uav = Point3(100.0, 100.0, scn.venue.z[1] + 1.0)
    b = scn.fixed_bandwidth_hz
    rate = link_rate(scn.ues[0].position, uav, b, params)
    dep = Deployment(
        uav_positions=uav.as_array()[None, :],
        association=Association(z=np.ones((1, 1), dtype=np.int8), a=np.ones(1, dtype=np.int8)),
        link_bandwidth_hz=np.array([b]),
        link_rate_bps=np.array([rate]),
        uav_count=1,
    )
    report = validate_deployment(dep, scn, params)
    assert [c.name for c in report.checks if not c.passed] == ["position_in_box"]
    assert residual(report, "position_in_box") == pytest.approx(1.0)


@pytest.mark.parametrize("pin", ["fixed-policy", "per-ue"])
def test_validator_pinned_width(params, pin):
    # Hand-built deployment whose only fault is one pinned 20 MHz link
    # narrowed to 19 MHz, which still meets its demand and the budget.
    if pin == "fixed-policy":
        scn = make_scenario([(100, 100), (130, 100)], bandwidth_policy="fixed")
    else:
        scn = make_scenario([(100, 100), (130, 100)])
        scn = replace(scn, ues=(replace(scn.ues[0], bandwidth_hz=20e6), scn.ues[1]))
    dep = plan_deployment(scn, params)
    assert validate_deployment(dep, scn, params).passed
    width = dep.link_bandwidth_hz.copy()
    width[0] = 19e6
    report = validate_deployment(replace(dep, link_bandwidth_hz=width), scn, params)
    assert [c.name for c in report.checks if not c.passed] == ["pinned_width"]
    assert residual(report, "pinned_width") == 1e6


@pytest.mark.parametrize("fault", ["position-dropped", "count-plus-one"])
def test_validator_shape_agreement(params, fault):
    # A-0 seed 3: dropping a position used to raise IndexError, and a
    # uav_count one too high passed.
    scn = generate_scenario("A", 0, 3)
    dep = plan_deployment(scn, params)
    assert residual(validate_deployment(dep, scn, params), "shape_agreement") == 0
    if fault == "position-dropped":
        bad = replace(dep, uav_positions=dep.uav_positions[:-1])
    else:
        bad = replace(dep, uav_count=dep.uav_count + 1)
    report = validate_deployment(bad, scn, params)
    assert residual(report, "shape_agreement") == 1.0
    assert not report.passed
    if fault == "count-plus-one":
        assert [c.name for c in report.checks if not c.passed] == ["shape_agreement"]
    else:
        # The throughput check reads no uav_count, but it does read positions.
        with pytest.raises(ValueError, match="1 association columns, 0 UAV positions"):
            evaluate_throughput(bad, scn, params)


def test_validator_activation_linkage(params):
    scn = make_scenario([(100, 100)], seed=4)
    dep = plan_deployment(scn, params)
    bad = Deployment(
        uav_positions=dep.uav_positions,
        association=Association(z=np.asarray(dep.association.z),
                                a=np.zeros(1, dtype=np.int8)),
        link_bandwidth_hz=dep.link_bandwidth_hz,
        link_rate_bps=dep.link_rate_bps,
        uav_count=1,
    )
    report = validate_deployment(bad, scn, params)
    assert not report.passed
    assert residual(report, "activation_linkage") > 0


@pytest.mark.parametrize("method", ["planner", "fixed-altitude", "fixed-n"])
def test_served_links_recompute_every_planned_rate_bit_for_bit(params, method):
    # The validator and the throughput check measure each link as the swarm
    # scored it, so a plan's own rates come back exactly.
    for kind, variant in (("A", 0), ("A", 3), ("A", 5), ("B", 2), ("B", 4), ("C", 2), ("C", 4)):
        for seed in (11, 12):
            scn = generate_scenario(kind, variant, seed)
            if method == "planner":
                dep = plan_deployment(scn, params)
            else:
                kind_of = {"fixed-altitude": BaselineKind.FIXED_ALTITUDE,
                           "fixed-n": BaselineKind.FIXED_GROUP_SIZE}[method]
                dep = run_baseline(kind_of, scn, params)
            z = np.asarray(dep.association.z)
            server, rate = served_links(z, dep.uav_positions, scn.ue_positions, dep.link_bandwidth_hz,
                                        params)
            assert np.array_equal(server, z.argmax(axis=1))
            assert np.array_equal(rate, dep.link_rate_bps)
            if np.all(uav_loads(z, dep.link_bandwidth_hz) <= scn.b_max_hz):
                _, delivered = evaluate_throughput(dep, scn, params)
                demands = [ue.demand_bps for ue in scn.ues]
                assert delivered == np.minimum(demands, dep.link_rate_bps).tolist()


def test_served_links_edge_cases(params):
    # UE 0 unassociated, UE 1 on both UAVs, UE 2 at zero width, UE 3 above
    # its UAV, UE 4 a working link; then the same UEs with no UAV at all.
    ues = tuple(UE(position=Point3(x, 50.0, ue_z), demand_bps=6.5e6)
                for x, ue_z in ((10.0, 0.0), (30.0, 0.0), (50.0, 0.0), (70.0, 60.0), (90.0, 0.0)))
    scn = Scenario(label="edges", seed=1, venue=FeasibleBox((0.0, 100.0), (0.0, 100.0), (10.0, 100.0)),
                   ues=ues, bandwidth_policy="fixed")
    uavs = np.array([[50.0, 50.0, 40.0], [70.0, 50.0, 40.0]])
    z = np.array([[0, 0], [1, 1], [1, 0], [0, 1], [1, 0]], dtype=np.int8)
    width = np.array([20e6, 20e6, 0.0, 20e6, 20e6])
    server, rate = served_links(z, uavs, scn.ue_positions, width, params)
    expected = link_rate(ues[4].position, Point3.from_array(uavs[0]), 20e6, params)
    assert server.tolist() == [-1, -1, 0, 1, 0]
    assert rate.tolist() == [0.0, 0.0, 0.0, 0.0, expected]
    dep = Deployment(uav_positions=uavs, association=Association(z=z, a=np.ones(2, dtype=np.int8)),
                     link_bandwidth_hz=width, link_rate_bps=rate, uav_count=2)
    report = validate_deployment(dep, scn, params)
    assert residual(report, "demand_rate") == 1.0
    assert uav_loads(z, width).tolist() == [40e6, 40e6]
    assert residual(report, "bandwidth_capacity") == 40e6 - scn.b_max_hz
    _, delivered = evaluate_throughput(dep, scn, params)
    assert delivered == [0.0, 0.0, 0.0, 0.0, min(6.5e6, expected)]

    server, rate = served_links(z[:, :0], uavs[:0], scn.ue_positions, width, params)
    assert server.tolist() == [-1] * 5 and rate.tolist() == [0.0] * 5
    assert uav_loads(z[:, :0], width).shape == (0,)


def test_demand_rate_fails_a_link_one_ulp_short(params):
    # The validator checks rate >= demand exactly, as the swarm scores it:
    # a demand equal to a link's recomputed rate passes, one ulp more fails.
    scn = make_scenario([(100, 100), (150, 150)], seed=2)
    dep = plan_deployment(scn, params)
    _, rate = served_links(dep.association.z, dep.uav_positions, scn.ue_positions,
                           dep.link_bandwidth_hz, params)
    for demand, passed in ((rate[0], True), (np.nextafter(rate[0], np.inf), False)):
        edged = replace(scn, ues=(replace(scn.ues[0], demand_bps=float(demand)),) + scn.ues[1:])
        report = validate_deployment(dep, edged, params)
        assert (residual(report, "demand_rate") <= 0) == passed
        assert report.passed == passed


def test_zone_capacities_match_the_running_total(params):
    # One sort and cumsum over +inf-padded rows count, bit for bit, the
    # prefix a running total fits: bounds at the budget's edge, ties, and
    # zones of uneven sizes.
    rng = np.random.default_rng(4)
    b_max = 160e6
    bounds = np.concatenate([rng.choice([20e6, 40e6, 80e6, 160e6], 30),
                             rng.uniform(1e6, 90e6, 30), [b_max / 3] * 6, [0.1 * b_max] * 10])
    zones = [sorted(rng.choice(len(bounds), size=int(k), replace=False).tolist())
             for k in rng.integers(1, 20, 200)]
    # Ten bounds of a tenth of the budget sum to it exactly, and all fit.
    zones += [list(range(66, 76)), list(range(60, 76))]

    def running_total(members):
        total, count = 0.0, 0
        for b in sorted(bounds[i] for i in members):
            if total + b > b_max:
                break
            total += b
            count += 1
        return max(count, 1)

    expected = [running_total(z) for z in zones]
    assert planner.zone_capacities(zones, bounds, b_max).tolist() == expected
    assert [zone_capacities([z], bounds, b_max)[0] for z in zones] == expected
    assert len(set(expected)) >= 5 and expected[-2:] == [10, 10]
    assert planner.zone_capacities([], bounds, b_max).tolist() == []


# ---------------------------------------------------------------------------
# split_zone
# ---------------------------------------------------------------------------

def zone_of(scn, params, members):
    spheres = build_spheres(scn, params)
    w, deficit = zone_witness(members, spheres, scn.venue)
    return CandidateZone(members=tuple(sorted(members)), witness=w, slack=-deficit), spheres


def test_split_halves_at_the_median_odd_member_first(params):
    # Three users on a line: the half below the median along it takes the
    # odd member.
    scn = make_scenario([(120, 100), (100, 100), (110, 100)])
    zone, spheres = zone_of(scn, params, [0, 1, 2])
    assert [z.members for z in split_zone([zone], spheres, scn)] == [(1, 2), (0,)]


def test_split_coincident_even_halves(params):
    scn = make_scenario([(100.0, 100.0)] * 16)
    zone, spheres = zone_of(scn, params, list(range(16)))
    out = split_zone([zone], spheres, scn)
    assert [len(z.members) for z in out] == [8, 8]
    assert sorted(i for z in out for i in z.members) == list(range(16))


def test_split_seventeen_members_into_nine_and_eight(params):
    rng = np.random.default_rng(3)
    scn = make_scenario([(float(rng.uniform(0, 120)), float(rng.uniform(0, 120)))
                         for _ in range(17)])
    zone, spheres = zone_of(scn, params, list(range(17)))
    out = split_zone([zone], spheres, scn)
    assert [len(z.members) for z in out] == [9, 8]
    assert not set(out[0].members) & set(out[1].members)
    assert sorted(i for z in out for i in z.members) == list(range(17))
    for z in out:
        assert z.slack >= 0


def test_split_groups_keep_witness_feasibility(params):
    # Halving each piece again down to singletons: every witness lies in
    # every member's sphere.
    rng = np.random.default_rng(9)
    scn = make_scenario([(float(rng.uniform(0, 200)), float(rng.uniform(0, 200)))
                         for _ in range(12)], side=200.0)
    zone, spheres = zone_of(scn, params, list(range(12)))
    queue, seen = [zone], 0
    while queue:
        sub = queue.pop()
        w = sub.witness.as_array()
        for i in sub.members:
            assert np.linalg.norm(w - spheres.centers[i]) <= spheres.radii[i] + 1e-9
        if len(sub.members) > 1:
            queue.extend(split_zone([sub], spheres, scn))
        seen += 1
    assert seen == 2 * 12 - 1


def test_split_half_that_no_point_serves_keeps_its_parent_witness(params):
    # A zone whose right half cannot be served from one point (a certified
    # zone never has one): that half keeps the parent's witness and slack,
    # and the left half gets the witness its members get alone.
    scn = make_scenario([(0.0, 500.0), (10.0, 500.0), (1000.0, 500.0), (1990.0, 500.0)],
                        demand=26e6, side=2000.0)
    spheres = build_spheres(scn, params)
    zone = CandidateZone(members=(0, 1, 2, 3), witness=Point3(0.0, 500.0, 10.0), slack=0.0)
    assert zone_witness((2, 3), spheres, scn.venue)[1] > 0
    left, right = split_zone([zone], spheres, scn)
    w, deficit = zone_witness((0, 1), spheres, scn.venue)
    assert (left.members, left.witness, left.slack) == ((0, 1), w, -deficit)
    assert right == replace(zone, members=(2, 3))


def test_split_of_a_wave_is_each_zone_split_alone(params):
    # A wave's failures are split in one call: the pieces come zone after
    # zone, each with the members, witness and slack bits its zone gets when
    # split alone. The middle zone is the uncertified zone above.
    users = [(0.0, 500.0), (10.0, 500.0), (1000.0, 500.0), (1990.0, 500.0),
             (500.0, 1500.0), (520.0, 1510.0), (505.0, 1530.0), (540.0, 1490.0), (515.0, 1480.0),
             (1500.0, 1500.0), (1520.0, 1500.0), (1510.0, 1500.0)]
    scn = make_scenario(users, demand=26e6, side=2000.0)
    a, spheres = zone_of(scn, params, [4, 5, 6, 7, 8])
    b = CandidateZone(members=(0, 1, 2, 3), witness=Point3(0.0, 500.0, 10.0), slack=0.0)
    c, _ = zone_of(scn, params, [9, 10, 11])

    def bits(zones):
        return [(z.members, *(v.hex() for v in (z.witness.x, z.witness.y, z.witness.z, z.slack)))
                for z in zones]

    alone = [split_zone([zone], spheres, scn) for zone in (a, b, c)]
    assert alone[1][1] == replace(b, members=(2, 3))
    assert bits(split_zone([a, b, c], spheres, scn)) == bits(alone[0] + alone[1] + alone[2])
    assert split_zone([], spheres, scn) == []


# ---------------------------------------------------------------------------
# capacity estimation and planner-wide properties
# ---------------------------------------------------------------------------

def test_zone_capacity_prefix_counting():
    assert zone_capacities([[0, 1, 2]], [50e6, 100e6, 20e6], 160e6)[0] == 2
    assert zone_capacities([[0, 1, 2]], [50e6, 90e6, 20e6], 160e6)[0] == 3
    assert zone_capacities([[0, 1, 2]], [100e6, 100e6, 100e6], 160e6)[0] == 1
    assert zone_capacities([[0, 1]], [20e6, 20e6], 160e6)[0] == 2


def test_demand_doubling_never_reduces_count(params):
    rng = np.random.default_rng(77)
    for _ in range(6):
        scn = random_scenario(rng, n_max=10, side_range=(100.0, 300.0),
                              demands=(6.5e6, 13e6))
        base = plan_deployment(scn, params).uav_count
        doubled = Scenario(
            label=scn.label, seed=scn.seed, venue=scn.venue,
            ues=tuple(UE(position=u.position, demand_bps=2 * u.demand_bps) for u in scn.ues),
            b_max_hz=scn.b_max_hz, bandwidth_policy=scn.bandwidth_policy,
            fixed_bandwidth_hz=scn.fixed_bandwidth_hz,
            bandwidth_grid_hz=scn.bandwidth_grid_hz,
        )
        harder = plan_deployment(doubled, params).uav_count
        assert harder >= base


def plan_digest(dep, scn, params) -> str:
    """First 16 hex digits of SHA-256 over the plan document, as tools/plan_digest.py."""
    doc = deployment_to_dict(dep, validate_deployment(dep, scn, params))
    del doc["validation"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def swarm_digest(placements) -> str:
    """First 16 hex digits of SHA-256 over a plan's swarms, as ``tools/plan_digest.py --swarms``."""
    h = hashlib.sha256()
    for sol in placements:
        bits = (v.hex() for v in (*sol.uav_position.tolist(), sol.fitness))
        members = tuple(sol.ue_indices.tolist())
        h.update(f"{members} {' '.join(bits)} {sol.feasible} {sol.iterations}\n".encode())
        for ue, bw, rate in zip(sol.ue_indices.tolist(), sol.bandwidth_hz.tolist(),
                                sol.rate_bps.tolist()):
            h.update(f"{ue} {bw.hex()} {rate.hex()}\n".encode())
    for sol in placements:
        h.update(f"{tuple(sol.ue_indices.tolist())} {len(sol.trace)} rows\n".encode())
        for it, val, pos in sol.trace:
            h.update(f"{it} {' '.join(float(v).hex() for v in (val, *pos))}\n".encode())
    return h.hexdigest()[:16]


def test_split_heavy_plans_are_pinned(params):
    # 40 users over 1 km at 26 Mbit/s: several cover picks fail their swarm
    # and are split, under the planner and, far more often, at fixed altitude.
    rng = np.random.default_rng(2024)
    scn = make_scenario(rng.uniform(0.0, 1000.0, (40, 2)).tolist(), demand=26e6, side=1000.0)
    scn = replace(scn, label="split-heavy", seed=5)
    dep = plan_deployment(scn, params)
    assert any(not sol.feasible for sol in dep.placements)
    assert (dep.uav_count, plan_digest(dep, scn, params)) == (8, "51eeb532fd62e739")
    # The swarms, in the order of the waves that placed them, as --dump-pool
    # and --pso-trace write them; each trace ends at its placement.
    assert all(sol.trace[-1] == (sol.iterations, sol.fitness, tuple(sol.uav_position))
               for sol in dep.placements)
    assert (len(dep.placements), swarm_digest(dep.placements)) == (10, "c8b88ed5b6449ff2")
    fixed = run_baseline(BaselineKind.FIXED_ALTITUDE, scn, params)
    assert (fixed.uav_count, plan_digest(fixed, scn, params)) == (24, "ddf748f5acae082e")


def test_mixed_pin_plans_are_pinned(params):
    # Random venues where most users pin their link width: many cover picks
    # pin more width than one UAV's budget, so no position serves them and
    # the planner halves them until every piece fits.
    h, uavs = hashlib.sha256(), 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = rng.integers(3, 30)
        side = rng.choice([100.0, 200.0, 400.0])
        xy = rng.uniform(0.0, side, (n, 2))
        ues = []
        for x, y in xy:
            demand = rng.choice([6.5e6, 13e6, 26e6])
            pin = rng.choice([20e6, 40e6, 60e6, 90e6, 120e6]) if rng.random() < 0.6 else None
            ues.append(UE(position=Point3(x, y, 0.0), demand_bps=float(demand),
                          bandwidth_hz=None if pin is None else float(pin)))
        scn = Scenario(label="mixed-pin", seed=seed,
                       venue=FeasibleBox((0.0, side), (0.0, side), (10.0, 100.0)), ues=tuple(ues))
        dep = plan_deployment(scn, params)
        assert validate_deployment(dep, scn, params).passed
        for a in (dep.uav_positions, dep.association.z, dep.link_bandwidth_hz, dep.link_rate_bps):
            h.update(np.ascontiguousarray(a).tobytes())
        uavs += dep.uav_count
    assert (uavs, h.hexdigest()[:16]) == (260, "3c1d1d3babfd5549")


def breadth_first(roots, scn, spheres, place):
    """The planner's queue one zone at a time, first in first out: its pool.

    Each pool entry is (wave, members, solution), the roots being wave 0.
    """
    pool, queue = [], deque((0, root) for root in roots)
    while queue:
        wave, sub = queue.popleft()
        sol = place(sub)
        pool.append((wave, sub.members, sol))
        if not sol.feasible:
            queue.extend((wave + 1, half) for half in split_zone([sub], spheres, scn))
    return pool


@pytest.mark.parametrize("salt", [3, 5])
def test_waves_report_swarms_in_wave_order_and_every_failing_user(params, monkeypatch, salt):
    # A stand-in swarm fails zones by a fixed rule, so that the split tree is
    # deep: a zone of more than one user whose key is a multiple of 5 or 3
    # fails. A singleton sits at its member's nadir, which the planner has
    # checked serves it, so it never fails, and the plan succeeds.
    rng = np.random.default_rng(2024)
    scn = make_scenario(rng.uniform(0.0, 1000.0, (40, 2)).tolist(), demand=26e6, side=1000.0)
    calls = []

    def place(zone):
        key = 7 * sum(zone.members) + len(zone.members) + salt
        feasible = len(zone.members) == 1 or (key % 5 != 0 and key % 3 != 0)
        links = np.zeros(len(zone.members))
        return PlacementSolution(zone.witness.as_array(), np.array(zone.members), links, links,
                                 float(key), feasible, 0,
                                 "witness" if feasible else "proven",
                                 ((0, float(len(zone.members)), (0.0, 0.0, 0.0)),))

    def place_all(zones, *args, **kwargs):
        calls.extend(zone.members for zone in zones)
        return [place(zone) for zone in zones]

    # The first wave: each cover pick restricted to the users it serves, a
    # pick left with one user anchored at that user's nadir.
    roots = []
    assign = planner.cover_assignment

    def record_roots(cover, *args):
        served_sets = assign(cover, *args)
        for z, served in zip(cover, served_sets):
            if len(served) == 1:
                nadir = scn.venue.clamp(scn.ue_positions[served[0]])
                z = replace(z, witness=Point3.from_array(nadir))
            if served:
                roots.append(replace(z, members=served))
        return served_sets

    monkeypatch.setattr(planner, "cover_assignment", record_roots)
    monkeypatch.setattr(planner, "optimize_positions", place_all)
    monkeypatch.setattr(planner, "optimize_position", lambda zone, *a, **kw: place_all([zone])[0])
    dep = plan_deployment(scn, params)
    spheres = build_spheres(scn, params)
    expected = breadth_first(roots, scn, spheres, place)

    # Each wave places its zones of two or more users in one call, then its
    # singletons one at a time.
    assert calls == [members for _, members, _ in
                     sorted(expected, key=lambda entry: (entry[0], len(entry[1]) == 1))]
    # The plan records the zones enumerated and every placement in wave
    # order, failed ones included; every singleton is placed at its nadir.
    assert [z.members for z in dep.zones] \
        == [z.members for z in enumerate_zones(spheres, scn.venue)]
    assert [(sol.ue_indices.tolist(), sol.uav_position.tobytes(), sol.fitness, sol.feasible,
             sol.trace) for sol in dep.placements] \
        == [(list(members), sol.uav_position.tobytes(), sol.fitness, sol.feasible,
             ((0, float(len(members)), (0.0, 0.0, 0.0)),)) for _, members, sol in expected]
    singles = [sol for sol in dep.placements if len(sol.ue_indices) == 1]
    assert len(singles) == {3: 0, 5: 8}[salt] and all(sol.feasible for sol in singles)
    nadirs = scn.venue.clamp(scn.ue_positions)
    assert all(sol.uav_position.tobytes() == nadirs[sol.ue_indices[0]].tobytes() for sol in singles)
    assert dep.uav_count == sum(sol.feasible for sol in dep.placements)
    assert len(expected) > len(roots)
