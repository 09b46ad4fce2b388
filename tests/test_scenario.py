"""Scenario generation, baselines, throughput evaluation, experiment harness."""
import math

import numpy as np
import pytest

from uavplan import (
    Association,
    BaselineKind,
    ConfigError,
    Deployment,
    FeasibleBox,
    MCS_RATES_BPS,
    Point3,
    Scenario,
    SwarmConfig,
    UE,
    evaluate_throughput,
    generate_scenario,
    link_rate,
    plan_deployment,
    run_baseline,
    run_experiment,
    validate_deployment,
)
from uavplan.scenario import demand_satisfaction_ratio, _proximity_groups


def test_mcs_rates_pinned():
    assert MCS_RATES_BPS == (6.5e6, 13e6, 19.5e6, 26e6, 39e6, 52e6)
    assert all(a < b for a, b in zip(MCS_RATES_BPS, MCS_RATES_BPS[1:]))


def test_generate_family_a():
    scn = generate_scenario("A", 0, seed=3)
    assert len(scn.ues) == 20
    assert all(ue.demand_bps == 6.5e6 for ue in scn.ues)
    assert scn.venue.x == (0.0, 100.0) and scn.venue.y == (0.0, 100.0)
    scn5 = generate_scenario("A", 5, seed=3)
    assert all(ue.demand_bps == 52e6 for ue in scn5.ues)


def test_generate_family_b_venues():
    for variant, side in enumerate((100.0, 200.0, 300.0, 400.0, 500.0)):
        scn = generate_scenario("B", variant, seed=1)
        assert scn.venue.x == (0.0, side)
        assert len(scn.ues) == 20
        assert all(ue.demand_bps == 6.5e6 for ue in scn.ues)


def test_generate_family_c_counts():
    for variant, n in enumerate((20, 30, 40, 50, 60)):
        scn = generate_scenario("C", variant, seed=1)
        assert len(scn.ues) == n


def test_generate_ues_inside_footprint_at_ground():
    for kind, variant in (("A", 2), ("B", 4), ("C", 3)):
        scn = generate_scenario(kind, variant, seed=9)
        for ue in scn.ues:
            assert scn.venue.footprint_contains(ue.position.x, ue.position.y)
            assert ue.position.z == 0.0


def test_generate_seeded_reproducible():
    a = generate_scenario("B", 2, seed=12)
    b = generate_scenario("B", 2, seed=12)
    assert a.ues == b.ues
    c = generate_scenario("B", 2, seed=13)
    assert a.ues != c.ues


def test_generate_invalid_variant():
    with pytest.raises(ConfigError):
        generate_scenario("A", 6, seed=1)
    with pytest.raises(ConfigError):
        generate_scenario("D", 0, seed=1)


def test_scenario_validation_errors():
    box = FeasibleBox((0.0, 100.0), (0.0, 100.0), (10.0, 100.0))
    with pytest.raises(ConfigError):
        Scenario(label="x", seed=1, venue=box, ues=()).validate()
    outside = Scenario(label="x", seed=1, venue=box,
                       ues=(UE(Point3(200.0, 50.0, 0.0), 1e6),))
    with pytest.raises(ConfigError):
        outside.validate()
    negative = Scenario(label="x", seed=1, venue=box,
                        ues=(UE(Point3(50.0, 50.0, 0.0), -1.0),))
    with pytest.raises(ConfigError):
        negative.validate()


def test_pinned_bandwidth_rule_under_both_policies():
    box = FeasibleBox((0.0, 100.0), (0.0, 100.0), (10.0, 100.0))
    free = UE(Point3(50.0, 50.0, 0.0), 1e6)
    own = UE(Point3(50.0, 50.0, 0.0), 1e6, bandwidth_hz=5e6)
    fit = Scenario(label="x", seed=1, venue=box, ues=(free, own))
    fixed = Scenario(label="x", seed=1, venue=box, ues=(free, own),
                     bandwidth_policy="fixed", fixed_bandwidth_hz=20e6)
    assert fit.pinned_bandwidth_hz(free) is None
    assert fit.pinned_bandwidth_hz(own) == 5e6
    assert fixed.pinned_bandwidth_hz(free) == 20e6
    assert fixed.pinned_bandwidth_hz(own) == 5e6


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def test_fixed_group_size_counts(params):
    for variant, n in enumerate((20, 30, 40, 50, 60)):
        scn = generate_scenario("C", variant, seed=4)
        dep = run_baseline(BaselineKind.FIXED_GROUP_SIZE, scn, params, SwarmConfig(seed=4))
        assert dep.uav_count == math.ceil(n / 10)
        z = np.asarray(dep.association.z)
        assert np.all(z.sum(axis=1) == 1)
        assert int(z.sum(axis=0).max()) <= 10


def test_proximity_groups_deterministic_and_capped(params):
    scn = generate_scenario("C", 2, seed=8)  # 40 UEs
    g1 = _proximity_groups(scn, 10)
    g2 = _proximity_groups(scn, 10)
    assert g1 == g2
    assert len(g1) == 4
    assert all(1 <= len(g) <= 10 for g in g1)
    assert sorted(i for g in g1 for i in g) == list(range(40))


def test_fixed_altitude_pins_z(params):
    scn = generate_scenario("A", 0, seed=6)
    dep = run_baseline(BaselineKind.FIXED_ALTITUDE, scn, params, SwarmConfig(seed=6))
    assert all(p.z == 20.0 for p in dep.uav_positions)
    assert validate_deployment(dep, scn, params).passed


def test_fixed_altitude_single_ue(params):
    scn = Scenario(label="one", seed=2,
                   venue=FeasibleBox((0.0, 100.0), (0.0, 100.0), (10.0, 100.0)),
                   ues=(UE(Point3(40.0, 60.0, 0.0), 6.5e6),))
    dep = run_baseline(BaselineKind.FIXED_ALTITUDE, scn, params, SwarmConfig(seed=2))
    assert dep.uav_count == 1
    assert dep.uav_positions[0].z == 20.0
    assert validate_deployment(dep, scn, params).passed


# ---------------------------------------------------------------------------
# evaluate_throughput
# ---------------------------------------------------------------------------

def test_throughput_equals_demand_sum_when_feasible(params):
    scn = generate_scenario("B", 1, seed=5)
    dep = plan_deployment(scn, params, SwarmConfig(seed=5))
    aggregate, delivered = evaluate_throughput(dep, scn, params)
    assert aggregate == sum(ue.demand_bps for ue in scn.ues)
    assert demand_satisfaction_ratio(delivered, scn) == 1.0


def test_throughput_demand_capped(params):
    scn = generate_scenario("B", 0, seed=5)
    dep = plan_deployment(scn, params, SwarmConfig(seed=5))
    _, delivered = evaluate_throughput(dep, scn, params)
    for d, ue in zip(delivered, scn.ues):
        assert d <= ue.demand_bps


def test_throughput_oversubscription_rescaling(params):
    # Two identical UEs on one UAV with a budget of one link's bandwidth:
    # each gets half, and delivery follows the rate at the halved width.
    ue_pos = Point3(50.0, 50.0, 0.0)
    uav = Point3(50.0, 50.0, 40.0)
    b = 20e6
    scn = Scenario(
        label="over", seed=1,
        venue=FeasibleBox((0.0, 100.0), (0.0, 100.0), (10.0, 100.0)),
        ues=(UE(ue_pos, 200e6), UE(ue_pos, 200e6)),
        b_max_hz=b, bandwidth_policy="fixed", fixed_bandwidth_hz=b,
    )
    rate_full = link_rate(ue_pos, uav, b, params)
    dep = Deployment(
        uav_positions=(uav,),
        association=Association(z=np.ones((2, 1), dtype=np.int8),
                                a=np.ones(1, dtype=np.int8)),
        link_bandwidth_hz=np.array([b, b]),
        link_rate_bps=np.array([rate_full, rate_full]),
        uav_count=1,
        aggregate_bps=2 * rate_full,
    )
    aggregate, delivered = evaluate_throughput(dep, scn, params)
    expected_each = min(200e6, link_rate(ue_pos, uav, b / 2, params))
    assert delivered[0] == pytest.approx(expected_each, rel=1e-12)
    assert delivered[1] == pytest.approx(expected_each, rel=1e-12)
    assert aggregate == pytest.approx(2 * expected_each, rel=1e-12)


def test_throughput_unassociated_ue_counts_zero(params):
    scn = Scenario(
        label="none", seed=1,
        venue=FeasibleBox((0.0, 100.0), (0.0, 100.0), (10.0, 100.0)),
        ues=(UE(Point3(50.0, 50.0, 0.0), 1e6),),
    )
    dep = Deployment(
        uav_positions=(Point3(50.0, 50.0, 40.0),),
        association=Association(z=np.zeros((1, 1), dtype=np.int8),
                                a=np.ones(1, dtype=np.int8)),
        link_bandwidth_hz=np.zeros(1),
        link_rate_bps=np.zeros(1),
        uav_count=1,
        aggregate_bps=0.0,
    )
    aggregate, delivered = evaluate_throughput(dep, scn, params)
    assert aggregate == 0.0 and delivered == [0.0]


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def test_experiment_single_run_rows(params):
    table = run_experiment("A", params, SwarmConfig(seed=0), n_runs=1, base_seed=100)
    assert len(table.rows) == 6 * 3
    methods = {r.method for r in table.rows}
    assert methods == {"planner", "fixed-altitude", "fixed-n"}
    for r in table.rows:
        assert r.error == "", r
        assert r.seed == 101


def test_experiment_deterministic_bytes(params, tmp_path):
    t1 = run_experiment("C", params, n_runs=1, base_seed=7)
    t2 = run_experiment("C", params, n_runs=1, base_seed=7)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    t1.write_csv(p1)
    t2.write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    s1, s2 = tmp_path / "sa.csv", tmp_path / "sb.csv"
    t1.write_summary_csv(s1)
    t2.write_summary_csv(s2)
    assert s1.read_bytes() == s2.read_bytes()


def test_experiment_planner_not_worse_than_fixed_n(params):
    table = run_experiment("C", params, n_runs=2, base_seed=40)
    by_cell = {}
    for r in table.rows:
        by_cell[(r.variant, r.method, r.run)] = r
    for (variant, method, run), r in by_cell.items():
        if method != "planner":
            continue
        base = by_cell[(variant, "fixed-n", run)]
        assert r.uav_count <= base.uav_count
        assert base.uav_count == math.ceil(variant / 10)
