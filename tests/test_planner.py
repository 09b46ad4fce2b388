"""Planner orchestration: end-to-end feasibility, validation, and splitting."""
import math
from dataclasses import replace

import numpy as np
import pytest

from uavplan import (
    Association,
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
    split_zone,
    validate_deployment,
    zone_witness,
)
from uavplan.planner import zone_capacity
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
