"""Scenario generation, baselines, throughput evaluation, experiment harness."""
import hashlib
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

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
from uavplan import scenario as scenario_module
from uavplan.scenario import FIXED_BASELINE_GROUP_SIZE, demand_satisfaction_ratio, _proximity_groups


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
        xyz = scn.ue_positions
        assert np.all((xyz[:, :2] >= scn.venue.lower[:2]) & (xyz[:, :2] <= scn.venue.upper[:2]))
        assert np.all(xyz[:, 2] == 0.0)


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
    # The pinned-width array reads a NaN width as unpinned; the check reads the UE.
    for policy in ("demand-fit", "fixed"):
        nan_width = Scenario(label="x", seed=1, venue=box, bandwidth_policy=policy,
                             ues=(UE(Point3(50.0, 50.0, 0.0), 1e6, bandwidth_hz=math.nan),))
        with pytest.raises(ConfigError, match="UE 0 bandwidth must be positive and finite"):
            nan_width.validate()


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def test_ue_arrays_hold_the_tuples_bit_for_bit():
    scn = generate_scenario("C", 4, seed=5)
    scn = replace(scn, ues=scn.ues[:-1] + (replace(scn.ues[-1], bandwidth_hz=5e6),))
    xyz = [v for ue in scn.ues for v in (ue.position.x, ue.position.y, ue.position.z)]
    assert scn.ue_positions.shape == (len(scn.ues), 3)
    assert _bits(scn.ue_positions.ravel()) == _bits(xyz)
    assert _bits(scn.demands_bps) == _bits(ue.demand_bps for ue in scn.ues)
    assert np.isnan(scn.pinned_widths_hz[:-1]).all() and scn.pinned_widths_hz[-1] == 5e6
    box = scn.venue
    for a in (scn.ue_positions, scn.demands_bps, scn.pinned_widths_hz, box.lower, box.upper):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    assert scn.ue_positions is scn.ue_positions  # built once
    assert _bits(box.lower) == _bits((box.x[0], box.y[0], box.z[0]))
    assert _bits(box.upper) == _bits((box.x[1], box.y[1], box.z[1]))


def test_replaced_scenarios_build_fresh_arrays():
    scn = generate_scenario("A", 2, seed=5)
    # Build every array of the original first, so that a stale copy would show.
    assert np.isnan(scn.pinned_widths_hz).all()
    assert scn.ue_positions.shape == (20, 3) and scn.venue.lower[2] == 10.0
    fixed = replace(scn, bandwidth_policy="fixed")
    assert fixed.pinned_widths_hz.tolist() == [fixed.fixed_bandwidth_hz] * len(scn.ues)
    assert np.isnan(scn.pinned_widths_hz).all()
    # As the fixed-altitude baseline pins the altitude band.
    flat = replace(scn, venue=FeasibleBox(scn.venue.x, scn.venue.y, (20.0, 20.0)))
    assert flat.venue.lower[2] == flat.venue.upper[2] == 20.0
    moved = replace(scn, ues=tuple(replace(ue, position=Point3(1.0, 2.0, 0.0)) for ue in scn.ues))
    assert moved.ue_positions[:, :2].tolist() == [[1.0, 2.0]] * len(scn.ues)
    assert scn.ue_positions[:, :2].tolist() == [[ue.position.x, ue.position.y] for ue in scn.ues]


def test_pinned_bandwidth_rule_under_both_policies():
    box = FeasibleBox((0.0, 100.0), (0.0, 100.0), (10.0, 100.0))
    free = UE(Point3(50.0, 50.0, 0.0), 1e6)
    own = UE(Point3(50.0, 50.0, 0.0), 1e6, bandwidth_hz=5e6)
    fit = Scenario(label="x", seed=1, venue=box, ues=(free, own))
    fixed = Scenario(label="x", seed=1, venue=box, ues=(free, own),
                     bandwidth_policy="fixed", fixed_bandwidth_hz=20e6)
    assert np.array_equal(fit.pinned_widths_hz, [np.nan, 5e6], equal_nan=True)
    assert fixed.pinned_widths_hz.tolist() == [20e6, 5e6]


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def test_fixed_group_size_counts(params):
    for variant, n in enumerate((20, 30, 40, 50, 60)):
        scn = generate_scenario("C", variant, seed=4)
        dep = run_baseline(BaselineKind.FIXED_GROUP_SIZE, scn, params)
        assert dep.uav_count == math.ceil(n / 10)
        z = np.asarray(dep.association.z)
        assert np.all(z.sum(axis=1) == 1)
        assert int(z.sum(axis=0).max()) <= 10


def test_fixed_group_size_records_one_swarm_per_group(params):
    # The fixed-n plan is assembled from the swarms it records, one UAV per
    # proximity group in group order, and its arrays are pinned as they
    # were before it recorded them (B-4 seed 2968811710 oversubscribes a UAV).
    h = hashlib.sha256()
    for kind, variant in (("A", 0), ("A", 5), ("B", 2), ("B", 4), ("C", 4)):
        for seed in (11, 12, 2968811710):
            scn = generate_scenario(kind, variant, seed)
            dep = run_baseline(BaselineKind.FIXED_GROUP_SIZE, scn, params)
            groups = _proximity_groups(scn, FIXED_BASELINE_GROUP_SIZE)
            assert dep.zones == ()
            assert [sol.ue_indices.tolist() for sol in dep.placements] == groups
            assert np.array_equal(dep.uav_positions, [sol.uav_position for sol in dep.placements])
            for k, sol in enumerate(dep.placements):
                assert np.flatnonzero(dep.association.z[:, k]).tolist() == groups[k]
                assert np.array_equal(dep.link_bandwidth_hz[sol.ue_indices], sol.bandwidth_hz)
                assert np.array_equal(dep.link_rate_bps[sol.ue_indices], sol.rate_bps)
            for a in (dep.uav_positions, dep.association.z, dep.association.a,
                      dep.link_bandwidth_hz, dep.link_rate_bps):
                h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest()[:16] == "54ee9ae296c093c7"


def test_proximity_groups_deterministic_and_capped(params):
    scn = generate_scenario("C", 2, seed=8)  # 40 UEs
    g1 = _proximity_groups(scn, 10)
    g2 = _proximity_groups(scn, 10)
    assert g1 == g2
    assert len(g1) == 4
    assert all(1 <= len(g) <= 10 for g in g1)
    assert sorted(i for g in g1 for i in g) == list(range(40))


def reference_proximity_groups(scenario, group_size):
    """``_proximity_groups`` with all 50 Lloyd rounds and a per-group mean."""
    n = len(scenario.ues)
    k = math.ceil(n / group_size)
    pts = np.array([ue.position.as_array()[:2] for ue in scenario.ues])
    rng = np.random.default_rng(np.random.SeedSequence([scenario.seed & 0xFFFFFFFF, 0xC1]))
    centroids = pts[rng.choice(n, size=k, replace=False)]
    assign = np.zeros(n, dtype=int)
    for _ in range(50):
        dists = np.linalg.norm(pts[:, None, :] - centroids[None, :, :], axis=2)
        assign = np.argmin(dists, axis=1)
        for c in range(k):
            mask = assign == c
            if np.any(mask):
                centroids[c] = pts[mask].mean(axis=0)
    groups = [sorted(np.flatnonzero(assign == c).tolist()) for c in range(k)]
    for c in range(k):
        while len(groups[c]) > group_size:
            _, worst = min((-np.linalg.norm(pts[i] - centroids[c]), i) for i in groups[c])
            _, dest = min((np.linalg.norm(pts[worst] - centroids[d]), d) for d in range(k)
                          if d != c and len(groups[d]) < group_size)
            groups[c].remove(worst)
            groups[dest] = sorted(groups[dest] + [worst])
    for c in range(k):
        if groups[c]:
            continue
        donor = max(range(k), key=lambda d: (len(groups[d]), -d))
        _, moved = min((-np.linalg.norm(pts[i] - centroids[donor]), i) for i in groups[donor])
        groups[donor].remove(moved)
        groups[c] = [moved]
    return groups


def test_proximity_groups_match_the_fifty_round_loop():
    # Stopping at a repeated assignment and summing with bincount must give
    # the 50-round loop's groups, ties and duplicate positions included.
    rng = np.random.default_rng(21)
    venues = []
    for _ in range(18):
        side = float(rng.uniform(100.0, 2000.0))
        xy = rng.uniform(0.0, side, (int(rng.integers(1, 301)), 2))
        snapped = rng.random(len(xy)) < rng.choice([0.0, 0.5, 1.0])
        step = side / rng.choice([1, 8])  # the venue corners, or an 8 x 8 grid
        xy[snapped] = np.round(xy[snapped] / step) * step
        venues.append((side, xy))
    # Eleven users share a corner, so every starting centroid often sits
    # there and the first assignment puts everyone in group 0.
    venues += [(500.0, np.array([(0.0, 0.0)] * 11 + [(500.0, 500.0)]))] * 4
    for seed, (side, xy) in enumerate(venues):
        scn = Scenario(label="g", seed=seed,
                       venue=FeasibleBox((0.0, side), (0.0, side), (10.0, 100.0)),
                       ues=tuple(UE(Point3(x, y, 0.0), 6.5e6) for x, y in xy))
        for size in (3, 10):
            assert _proximity_groups(scn, size) == reference_proximity_groups(scn, size)


def test_fixed_altitude_pins_z(params):
    scn = generate_scenario("A", 0, seed=6)
    dep = run_baseline(BaselineKind.FIXED_ALTITUDE, scn, params)
    assert np.all(dep.uav_positions[:, 2] == 20.0)
    assert validate_deployment(dep, scn, params).passed


def test_fixed_altitude_single_ue(params):
    scn = Scenario(label="one", seed=2,
                   venue=FeasibleBox((0.0, 100.0), (0.0, 100.0), (10.0, 100.0)),
                   ues=(UE(Point3(40.0, 60.0, 0.0), 6.5e6),))
    dep = run_baseline(BaselineKind.FIXED_ALTITUDE, scn, params)
    assert dep.uav_count == 1
    assert dep.uav_positions[0, 2] == 20.0
    assert validate_deployment(dep, scn, params).passed


# ---------------------------------------------------------------------------
# evaluate_throughput
# ---------------------------------------------------------------------------

def test_throughput_equals_demand_sum_when_feasible(params):
    scn = generate_scenario("B", 1, seed=5)
    dep = plan_deployment(scn, params)
    aggregate, delivered = evaluate_throughput(dep, scn, params)
    assert aggregate == sum(ue.demand_bps for ue in scn.ues)
    assert demand_satisfaction_ratio(delivered, scn) == 1.0


def test_throughput_demand_capped(params):
    scn = generate_scenario("B", 0, seed=5)
    dep = plan_deployment(scn, params)
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
        uav_positions=uav.as_array()[None, :],
        association=Association(z=np.ones((2, 1), dtype=np.int8),
                                a=np.ones(1, dtype=np.int8)),
        link_bandwidth_hz=np.array([b, b]),
        link_rate_bps=np.array([rate_full, rate_full]),
        uav_count=1,
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
        uav_positions=np.array([[50.0, 50.0, 40.0]]),
        association=Association(z=np.zeros((1, 1), dtype=np.int8),
                                a=np.ones(1, dtype=np.int8)),
        link_bandwidth_hz=np.zeros(1),
        link_rate_bps=np.zeros(1),
        uav_count=1,
    )
    aggregate, delivered = evaluate_throughput(dep, scn, params)
    assert aggregate == 0.0 and delivered == [0.0]


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def test_experiment_single_run_rows(params):
    table = run_experiment("A", params, SwarmConfig(), n_runs=1, base_seed=100)
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


def test_experiment_runs_plan_as_each_scenario_alone(params, monkeypatch):
    # A given SwarmConfig sets how the swarms search, never their seed: each
    # run's plans are those of its own scenario alone, as plan_deployment's
    # and run_baseline's are.
    planned = []

    def recording(scn, *args):
        dep = plan_deployment(scn, *args)
        planned.append((scn, dep, lambda s: plan_deployment(s, params)))
        return dep

    def recording_fixed_n(kind, scn, *args):
        dep = run_baseline(kind, scn, *args)
        if kind is BaselineKind.FIXED_GROUP_SIZE:
            planned.append((scn, dep, lambda s: run_baseline(kind, s, params)))
        return dep

    monkeypatch.setattr(scenario_module, "plan_deployment", recording)
    monkeypatch.setattr(scenario_module, "run_baseline", recording_fixed_n)
    run_experiment("B", params, SwarmConfig(), n_runs=2, base_seed=3)
    assert {scn.seed for scn, _, _ in planned} == {4, 5}
    moved = 0
    for scn, dep, alone in planned:
        own = alone(scn)
        assert dep.uav_positions.tobytes() == own.uav_positions.tobytes()
        assert np.array_equal(dep.link_bandwidth_hz, own.link_bandwidth_hz)
        other = alone(replace(scn, seed=scn.seed + 100))
        moved += other.uav_positions.tobytes() != dep.uav_positions.tobytes()
    # The planner draws no random number on these cells; the fixed-n
    # baseline's clustering and swarms draw from the seed, which moves plans.
    assert moved


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


def test_planning_a_paper_cell_imports_no_scipy_solver():
    # The planner and both baselines on A-0 run on numpy alone; scipy.special
    # or scipy.optimize would add import time and resident memory to every run.
    # The second venue (conftest's random_scenario draw at rng 10, rebuilt here
    # because conftest imports scipy) is one whose swarm best ends outside a
    # member sphere. Its plan needs 4 UAVs and must validate as it is.
    code = """
import sys
import numpy as np
from uavplan import (UE, BaselineKind, ChannelParams, FeasibleBox, Point3, Scenario,
                     generate_scenario, plan_deployment, run_baseline, validate_deployment)
scn = generate_scenario("A", 0, 0)
plan_deployment(scn, ChannelParams())
for kind in BaselineKind:
    run_baseline(kind, scn, ChannelParams())
rng = np.random.default_rng(10)
side = float(rng.uniform(300.0, 1000.0))
n = int(rng.integers(1, 31))
demand = float(rng.choice((6.5e6, 26e6)))
ues = tuple(UE(position=Point3(float(rng.uniform(0, side)), float(rng.uniform(0, side)), 0.0),
               demand_bps=demand) for _ in range(n))
venue = Scenario(label="random", seed=int(rng.integers(0, 2**31 - 1)),
                 venue=FeasibleBox(x=(0.0, side), y=(0.0, side), z=(10.0, 100.0)), ues=ues)
dep = plan_deployment(venue, ChannelParams())
print(dep.uav_count, validate_deployment(dep, venue, ChannelParams()).passed)
print(sorted(m for m in sys.modules if m.split(".")[:2] in (["scipy", "special"], ["scipy", "optimize"])))
"""
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["4 True", "[]"]


def test_failed_sweep_cell_keeps_the_error_message(params):
    # 100 kHz cannot carry one 6.5 Mbit/s user, so the planner's cell fails.
    table = run_experiment("C", params, n_runs=1, base_seed=0,
                           scenario_overrides={"b_max_hz": 1e5})
    planner = next(r for r in table.rows if r.method == "planner")
    assert planner.uav_count is None
    assert planner.error.startswith("UnservableError: unservable UEs: (0, 1, ")
