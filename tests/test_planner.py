"""Planner orchestration: end-to-end feasibility, validation, and splitting."""
import hashlib
import json
import math
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
    SwarmConfig,
    UE,
    UnservableError,
    build_spheres,
    generate_scenario,
    link_rate,
    max_service_distance,
    plan_deployment,
    run_baseline,
    split_zone,
    validate_deployment,
    zone_witness,
)
from uavplan import planner
from uavplan.cli import deployment_to_dict
from uavplan.planner import min_feasible_bandwidths, zone_capacity
from uavplan.positioning import PlacementSolution, ZoneCapacityError
from conftest import random_scenario


def make_scenario(ue_xy, demand=6.5e6, side=300.0, z=(10.0, 100.0), **kw):
    ues = tuple(UE(position=Point3(x, y, 0.0), demand_bps=demand) for x, y in ue_xy)
    return Scenario(label="t", seed=21, venue=FeasibleBox((0.0, side), (0.0, side), z),
                    ues=ues, **kw)


def test_single_ue_single_uav(params):
    scn = make_scenario([(120, 180)])
    dep = plan_deployment(scn, params, SwarmConfig(seed=1))
    assert dep.uav_count == 1
    d = math.dist((120, 180, 0), (dep.uav_positions[0].x, dep.uav_positions[0].y,
                                  dep.uav_positions[0].z))
    assert d <= max_service_distance(6.5e6, scn.b_max_hz, params)
    assert dep.aggregate_bps == pytest.approx(6.5e6, rel=1e-12)
    assert validate_deployment(dep, scn, params).passed


def test_planner_output_validates(params):
    rng = np.random.default_rng(31)
    for _ in range(8):
        scn = random_scenario(rng, n_max=15)
        dep = plan_deployment(scn, params, SwarmConfig(seed=scn.seed))
        report = validate_deployment(dep, scn, params)
        assert report.passed, [(c.name, c.residual) for c in report.checks]
        assert dep.uav_count <= len(scn.ues)


def test_planner_deterministic(params):
    rng = np.random.default_rng(5)
    scn = random_scenario(rng, n_max=12)
    d1 = plan_deployment(scn, params, SwarmConfig(seed=7))
    d2 = plan_deployment(scn, params, SwarmConfig(seed=7))
    assert d1.uav_positions == d2.uav_positions
    assert np.array_equal(d1.association.z, d2.association.z)
    assert np.array_equal(d1.link_bandwidth_hz, d2.link_bandwidth_hz)
    assert d1.aggregate_bps == d2.aggregate_bps


def test_planner_unservable(params):
    scn = make_scenario([(50, 50)], demand=2.5e9, bandwidth_policy="fixed")
    with pytest.raises(UnservableError):
        plan_deployment(scn, params, SwarmConfig(seed=1))


def test_planner_capacity_deadlock(params):
    # Fixed per-UE bandwidth beyond the per-UAV budget is a config error.
    scn = make_scenario([(50, 50)], bandwidth_policy="fixed", fixed_bandwidth_hz=200e6)
    with pytest.raises(CapacityDeadlockError):
        plan_deployment(scn, params, SwarmConfig(seed=1))


def test_planner_fixed_policy_capacity_splits(params):
    # 20 UEs at 20 MHz each, 160 MHz budget: at most 8 per UAV, so 3 UAVs.
    rng = np.random.default_rng(2)
    scn = make_scenario([(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
                         for _ in range(20)],
                        side=100.0, bandwidth_policy="fixed")
    dep = plan_deployment(scn, params, SwarmConfig(seed=2))
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
    dep = plan_deployment(scn, params, SwarmConfig(seed=scn.seed))
    assert dep.link_bandwidth_hz[0] == 20e6
    assert np.all(dep.link_bandwidth_hz[1:] < 20e6)
    report = validate_deployment(dep, scn, params)
    assert report.passed, [(c.name, c.residual) for c in report.checks]


def test_validator_catches_double_association(params):
    scn = make_scenario([(100, 100), (120, 100)])
    dep = plan_deployment(scn, params, SwarmConfig(seed=3))
    z = np.asarray(dep.association.z).copy()
    if z.shape[1] == 1:
        z = np.hstack([z, np.zeros_like(z)])
        a = np.array([1, 1], dtype=np.int8)
        positions = dep.uav_positions + (Point3(0, 0, 50),)
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
        aggregate_bps=dep.aggregate_bps,
    )
    report = validate_deployment(bad, scn, params)
    assert not report.passed
    assert report.residual("unique_association") > 0


def test_validator_capacity_residual_one_hz(params):
    # Hand-built deployment overshooting the budget by exactly 1 Hz.
    scn = make_scenario([(100, 100), (110, 100)], bandwidth_policy="fixed")
    uav = Point3(105.0, 100.0, 40.0)
    b = (scn.b_max_hz + 1.0) / 2.0
    rates = [link_rate(ue.position, uav, b, params) for ue in scn.ues]
    dep = Deployment(
        uav_positions=(uav,),
        association=Association(z=np.ones((2, 1), dtype=np.int8), a=np.ones(1, dtype=np.int8)),
        link_bandwidth_hz=np.array([b, b]),
        link_rate_bps=np.array(rates),
        uav_count=1,
        aggregate_bps=float(sum(min(r, ue.demand_bps) for r, ue in zip(rates, scn.ues))),
    )
    report = validate_deployment(dep, scn, params)
    assert report.residual("bandwidth_capacity") == pytest.approx(1.0)
    assert not report.passed


def test_validator_position_in_box(params):
    # Hand-built deployment whose only fault is a UAV 1 m above the box.
    scn = make_scenario([(100, 100)], bandwidth_policy="fixed")
    uav = Point3(100.0, 100.0, scn.venue.z[1] + 1.0)
    b = scn.fixed_bandwidth_hz
    rate = link_rate(scn.ues[0].position, uav, b, params)
    dep = Deployment(
        uav_positions=(uav,),
        association=Association(z=np.ones((1, 1), dtype=np.int8), a=np.ones(1, dtype=np.int8)),
        link_bandwidth_hz=np.array([b]),
        link_rate_bps=np.array([rate]),
        uav_count=1,
        aggregate_bps=min(rate, scn.ues[0].demand_bps),
    )
    report = validate_deployment(dep, scn, params)
    assert [c.name for c in report.checks if not c.passed] == ["position_in_box"]
    assert report.residual("position_in_box") == pytest.approx(1.0)


@pytest.mark.parametrize("fault", ["position-dropped", "count-plus-one"])
def test_validator_shape_agreement(params, fault):
    # A-0 seed 3: dropping a position used to raise IndexError, and a
    # uav_count one too high passed.
    scn = generate_scenario("A", 0, 3)
    dep = plan_deployment(scn, params, SwarmConfig(seed=scn.seed))
    assert validate_deployment(dep, scn, params).residual("shape_agreement") == 0
    if fault == "position-dropped":
        bad = replace(dep, uav_positions=dep.uav_positions[:-1])
    else:
        bad = replace(dep, uav_count=dep.uav_count + 1)
    report = validate_deployment(bad, scn, params)
    assert report.residual("shape_agreement") == 1.0
    assert not report.passed
    if fault == "count-plus-one":
        assert [c.name for c in report.checks if not c.passed] == ["shape_agreement"]


def test_validator_activation_linkage(params):
    scn = make_scenario([(100, 100)])
    dep = plan_deployment(scn, params, SwarmConfig(seed=4))
    bad = Deployment(
        uav_positions=dep.uav_positions,
        association=Association(z=np.asarray(dep.association.z),
                                a=np.zeros(1, dtype=np.int8)),
        link_bandwidth_hz=dep.link_bandwidth_hz,
        link_rate_bps=dep.link_rate_bps,
        uav_count=1,
        aggregate_bps=dep.aggregate_bps,
    )
    report = validate_deployment(bad, scn, params)
    assert not report.passed
    assert report.residual("activation_linkage") > 0


def test_validation_report_csv_round_trip(params, tmp_path):
    scn = make_scenario([(100, 100), (150, 150)])
    dep = plan_deployment(scn, params, SwarmConfig(seed=2))
    report = validate_deployment(dep, scn, params)
    out = tmp_path / "validation.csv"
    report.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "constraint,residual,pass"
    assert len(lines) == 1 + len(report.checks)
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == [c.name for c in report.checks]
    assert all(line.endswith(",true") for line in lines[1:])


# ---------------------------------------------------------------------------
# split_zone
# ---------------------------------------------------------------------------

def zone_of(scn, params, members):
    spheres = build_spheres(scn, params)
    w, deficit = zone_witness(members, spheres, scn.venue)
    return CandidateZone(members=tuple(sorted(members)), witness=w, slack=-deficit), spheres


def test_split_noop_when_under_cap(params):
    scn = make_scenario([(100, 100), (110, 100), (120, 100)])
    zone, spheres = zone_of(scn, params, [0, 1, 2])
    out = split_zone(zone, spheres, scn, max_members=8)
    assert out == [zone]


def test_split_coincident_even_halves(params):
    scn = make_scenario([(100.0, 100.0)] * 16)
    zone, spheres = zone_of(scn, params, list(range(16)))
    out = split_zone(zone, spheres, scn, max_members=8)
    assert len(out) == 2
    assert sorted(len(z.members) for z in out) == [8, 8]
    assert sorted(i for z in out for i in z.members) == list(range(16))


def test_split_seventeen_members_cap_eight(params):
    rng = np.random.default_rng(3)
    scn = make_scenario([(float(rng.uniform(0, 120)), float(rng.uniform(0, 120)))
                         for _ in range(17)])
    zone, spheres = zone_of(scn, params, list(range(17)))
    out = split_zone(zone, spheres, scn, max_members=8)
    assert len(out) == 3
    sizes = sorted(len(z.members) for z in out)
    assert sizes in ([1, 8, 8], [4, 5, 8])
    assert all(len(z.members) <= 8 for z in out)
    assert sorted(i for z in out for i in z.members) == list(range(17))
    for z in out:
        assert z.slack >= 0


def test_split_groups_keep_witness_feasibility(params):
    rng = np.random.default_rng(9)
    scn = make_scenario([(float(rng.uniform(0, 200)), float(rng.uniform(0, 200)))
                         for _ in range(12)], side=200.0)
    zone, spheres = zone_of(scn, params, list(range(12)))
    by_index = {s.ue_index: s for s in spheres}
    for sub in split_zone(zone, spheres, scn, max_members=5):
        w = sub.witness.as_array()
        for i in sub.members:
            s = by_index[i]
            assert np.linalg.norm(w - s.center.as_array()) <= s.radius + 1e-9


def test_split_falls_back_to_singletons_in_place(params):
    # A zone whose right half cannot be served from one point (a certified
    # zone never has one): that group becomes singletons where it stood,
    # and every witness is the one its members get alone.
    scn = make_scenario([(0.0, 500.0), (10.0, 500.0), (1000.0, 500.0), (1990.0, 500.0)],
                        demand=26e6, side=2000.0)
    spheres = build_spheres(scn, params)
    zone = CandidateZone(members=(0, 1, 2, 3), witness=Point3(0.0, 500.0, 10.0), slack=0.0)
    out = split_zone(zone, spheres, scn, max_members=2)
    assert [z.members for z in out] == [(0, 1), (2,), (3,)]
    for z in out:
        w, deficit = zone_witness(z.members, spheres, scn.venue)
        assert (z.witness, z.slack) == (w, -deficit)


# ---------------------------------------------------------------------------
# capacity estimation and planner-wide properties
# ---------------------------------------------------------------------------

def test_zone_capacity_prefix_counting():
    assert zone_capacity([0, 1, 2], [50e6, 100e6, 20e6], 160e6) == 2
    assert zone_capacity([0, 1, 2], [50e6, 90e6, 20e6], 160e6) == 3
    assert zone_capacity([0, 1, 2], [100e6, 100e6, 100e6], 160e6) == 1
    assert zone_capacity([0, 1], [20e6, 20e6], 160e6) == 2


def test_demand_doubling_never_reduces_count(params):
    rng = np.random.default_rng(77)
    for _ in range(6):
        scn = random_scenario(rng, n_max=10, side_range=(100.0, 300.0),
                              demands=(6.5e6, 13e6))
        base = plan_deployment(scn, params, SwarmConfig(seed=scn.seed)).uav_count
        doubled = Scenario(
            label=scn.label, seed=scn.seed, venue=scn.venue,
            ues=tuple(UE(position=u.position, demand_bps=2 * u.demand_bps) for u in scn.ues),
            b_max_hz=scn.b_max_hz, bandwidth_policy=scn.bandwidth_policy,
            fixed_bandwidth_hz=scn.fixed_bandwidth_hz,
            bandwidth_grid_hz=scn.bandwidth_grid_hz,
        )
        harder = plan_deployment(doubled, params, SwarmConfig(seed=scn.seed)).uav_count
        assert harder >= base


def plan_digest(dep, scn, params) -> str:
    """First 16 hex digits of SHA-256 over the plan document, as tools/plan_digest.py."""
    doc = deployment_to_dict(dep, validate_deployment(dep, scn, params))
    del doc["validation"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def swarm_digest(pool, trace) -> str:
    """First 16 hex digits of SHA-256 over a plan's swarms, as ``tools/plan_digest.py --swarms``."""
    h = hashlib.sha256()
    for members, sol in pool:
        bits = (v.hex() for v in (*sol.uav_position.as_array().tolist(), sol.fitness))
        h.update(f"{members} {' '.join(bits)} {sol.feasible} {sol.iterations}\n".encode())
        for link in sol.served_ues:
            h.update(f"{link.ue_index} {link.bandwidth_hz.hex()} {link.rate_bps.hex()}\n".encode())
    for members, rows in trace:
        h.update(f"{members} {len(rows)} rows\n".encode())
        for it, val, pos in rows:
            h.update(f"{it} {' '.join(float(v).hex() for v in (val, *pos))}\n".encode())
    return h.hexdigest()[:16]


def test_split_heavy_plans_are_pinned(params):
    # 40 users over 1 km at 26 Mbit/s: several cover picks fail their swarm
    # and are split, under the planner and, far more often, at fixed altitude.
    rng = np.random.default_rng(2024)
    scn = make_scenario(rng.uniform(0.0, 1000.0, (40, 2)).tolist(), demand=26e6, side=1000.0)
    scn = replace(scn, label="split-heavy", seed=5)
    pool, trace = [], []
    dep = plan_deployment(scn, params, pool=pool, trace=trace)
    assert any(not sol.feasible for _, sol in pool)
    assert (dep.uav_count, plan_digest(dep, scn, params)) == (8, "a3d8a1c42ff80a29")
    # The swarms, in the depth-first order of the split tree, as --dump-pool
    # and --pso-trace write them.
    assert [members for members, _ in trace] == [members for members, _ in pool]
    assert (len(pool), swarm_digest(pool, trace)) == (10, "31dfd84f96f553c5")
    fixed = run_baseline(BaselineKind.FIXED_ALTITUDE, scn, params)
    assert (fixed.uav_count, plan_digest(fixed, scn, params)) == (24, "0a944bb91fd5e514")



def depth_first(roots, scn, params, spheres, place):
    """The planner's queue one zone at a time: its pool, and the error it stops at."""
    lower = min_feasible_bandwidths(scn, params)
    pool, queue = [], list(roots)
    while queue:
        sub = queue.pop(0)
        sol = place(sub)
        if sol is None:
            if len(sub.members) == 1:
                return pool, (CapacityDeadlockError, sub.members[0])
            cap = max(min(zone_capacity(sub.members, lower, scn.b_max_hz), len(sub.members) - 1), 1)
            queue[0:0] = split_zone(sub, spheres, scn, max_members=cap)
            continue
        pool.append((sub.members, sol))
        if sol.feasible:
            continue
        if len(sub.members) == 1:
            return pool, (UnservableError, sub.members[0])
        queue[0:0] = split_zone(sub, spheres, scn, max_members=math.ceil(len(sub.members) / 2))
    return pool, None


@pytest.mark.parametrize("salt", [3, 5, 6])
def test_waves_keep_the_depth_first_pool_trace_and_first_error(params, monkeypatch, salt):
    # A stand-in swarm fails zones by a fixed rule, pinned overruns included,
    # so that the split tree is deep. Under salt 3 no singleton fails; under
    # 5 and 6 several do, and the plan stops at the first one that the queue
    # of one zone at a time reaches (5: a capacity deadlock, 6: an
    # unservable user).
    rng = np.random.default_rng(2024)
    scn = make_scenario(rng.uniform(0.0, 1000.0, (40, 2)).tolist(), demand=26e6, side=1000.0)

    def place(zone):
        key = 7 * sum(zone.members) + len(zone.members) + salt
        if key % 5 == 0:
            return None
        feasible = key % (2 if len(zone.members) == 1 else 3) != 0
        return PlacementSolution(zone.witness, (), float(key), feasible, 0)

    placed = []

    def place_all(zones, *args, traces=None, **kwargs):
        placed.extend(zones)
        for zone, rows in zip(zones, traces or [None] * len(zones)):
            if rows is not None and place(zone) is not None:
                rows.append((0, float(len(zone.members)), (0.0, 0.0, 0.0)))
        return [place(zone) for zone in zones]

    def place_one(zone, *args, trace=None, **kwargs):
        sol, = place_all([zone], traces=[trace])
        if sol is None:
            raise ZoneCapacityError(zone.members)
        return sol

    roots = []
    restrict = planner._restrict_zone
    monkeypatch.setattr(planner, "_restrict_zone",
                        lambda *a: roots.append(restrict(*a)) or roots[-1])
    monkeypatch.setattr(planner, "optimize_positions", place_all)
    monkeypatch.setattr(planner, "optimize_position", place_one)
    pool, trace, error = [], [], None
    try:
        plan_deployment(scn, params, pool=pool, trace=trace)
    except CapacityDeadlockError as exc:
        error = type(exc), int(str(exc).split()[1])
    except UnservableError as exc:
        error = type(exc), exc.ue_indices[0]
    expected, expected_error = depth_first(roots, scn, params, build_spheres(scn, params), place)
    assert (pool, error) == (expected, expected_error)
    assert trace == [(members, [(0, float(len(members)), (0.0, 0.0, 0.0))])
                     for members, _ in expected]
    assert (error and error[0]) == {3: None, 5: CapacityDeadlockError, 6: UnservableError}[salt]
    assert len(pool) > len(roots)
    if error is not None:
        assert len(placed) > len(pool)  # waves placed zones past the error
