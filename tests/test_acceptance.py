"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Criteria (tolerances pinned here, not deferred):
  1. Channel model matches a direct formula transcription to 1e-12 relative
     on a 1000-point grid; service-radius inversion matches bisection to
     1e-6 relative. Runtime < 5 s.
  2. Exact zone cover equals exhaustive enumeration on 200 random instances
     (N <= 10); greedy never beats exact. Runtime < 60 s.
  3. 100 random scenarios (N <= 30): every planned deployment re-validates
     with all residuals <= 0 and demand satisfaction exactly 1.0.
  4. 50 random scenarios (N <= 8): planner UAV count equals the exhaustive
     partition oracle.
  5. Venue sweep, 30 seeded runs: median count 1 at 100 m, medians
     non-decreasing with venue size, and the 500 m median exceeds the
     100 m median. Raw table emitted. Runtime < 10 min.
  6. Growing-population sweep, 30 runs per variant: planner count <= the
     fixed-group baseline in every cell; baseline count == ceil(N/10).
  7. Highest-demand variant, 30 runs: the fixed-altitude baseline's demand
     satisfaction never exceeds the planner's, which is exactly 1.0.
  8. Determinism: three repetitions of criteria 3 and 5 hash identically.
  9. 50 random scenarios: doubling every demand never lowers the UAV count.
"""
import hashlib
import itertools
import json
import math
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from uavplan import (
    BaselineKind,
    ChannelParams,
    UE,
    build_spheres,
    enumerate_zones,
    evaluate_throughput,
    generate_scenario,
    greedy_zone_cover,
    channel_gain,
    link_rate,
    los_probability,
    max_service_distance,
    minimal_zone_cover,
    plan_deployment,
    run_baseline,
    validate_deployment,
    Point3,
)
from uavplan.cli import deployment_to_dict
from uavplan.scenario import demand_satisfaction_ratio
from conftest import (
    oracle_chain,
    oracle_rate_at_threshold,
    partition_oracle,
    random_scenario,
)

PARAMS = ChannelParams()


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")


# ---------------------------------------------------------------------------
# Criterion 1: channel oracle equivalence.
# ---------------------------------------------------------------------------

def test_criterion_1_channel_oracle():
    t0 = time.time()
    rng = np.random.default_rng(10)
    worst_rel = 0.0
    for _ in range(1000):
        ue = (float(rng.uniform(-200, 200)), float(rng.uniform(-200, 200)), 0.0)
        uav = (float(rng.uniform(-400, 400)), float(rng.uniform(-400, 400)),
               float(rng.uniform(0.5, 200)))
        b = float(rng.uniform(1e6, 160e6))
        _, _, eps_o, gain_o, rate_o = oracle_chain(ue, uav, b, PARAMS)
        ue_p, uav_p = Point3(*ue), Point3(*uav)
        for got, want in (
            (los_probability(ue_p, uav_p, PARAMS), eps_o),
            (channel_gain(ue_p, uav_p, PARAMS), gain_o),
            (link_rate(ue_p, uav_p, b, PARAMS), rate_o),
        ):
            worst_rel = max(worst_rel, abs(got - want) / abs(want))

    from scipy.optimize import brentq

    worst_inv = 0.0
    for _ in range(50):
        t = float(rng.uniform(1e6, 60e6))
        b = float(rng.uniform(2e6, 160e6))
        if t / b > 8.0:
            continue
        d = max_service_distance(t, b, PARAMS)
        root = brentq(lambda x: oracle_rate_at_threshold(x, b, PARAMS) - t,
                      1e-3, 1e7, xtol=1e-9, rtol=1e-12)
        worst_inv = max(worst_inv, abs(d - root) / root)

    elapsed = time.time() - t0
    passed = worst_rel <= 1e-12 and worst_inv <= 1e-6 and elapsed < 5.0
    report("1 channel-oracle", passed,
           f"max rel err {worst_rel:.2e} (tol 1e-12), inversion {worst_inv:.2e} "
           f"(tol 1e-6), {elapsed:.2f}s (< 5s)")
    assert passed


# ---------------------------------------------------------------------------
# Criterion 2: set-cover exactness against exhaustive enumeration.
# ---------------------------------------------------------------------------

def _exhaustive_cover_size(zones, n_ues):
    all_ues = set(range(n_ues))
    for k in range(1, len(zones) + 1):
        for combo in itertools.combinations(zones, k):
            if set().union(*(set(z.members) for z in combo)) == all_ues:
                return k
    return None


def test_criterion_2_cover_exactness():
    t0 = time.time()
    rng = np.random.default_rng(20)
    exact_matches = 0
    greedy_ok = 0
    n_instances = 200
    for _ in range(n_instances):
        scn = random_scenario(rng, n_max=10, side_range=(100.0, 600.0),
                              demands=(6.5e6, 13e6, 26e6))
        n = len(scn.ues)
        spheres = build_spheres(scn, PARAMS)
        zones = enumerate_zones(spheres, scn.venue)
        cover = minimal_zone_cover(zones, n, n)
        brute = _exhaustive_cover_size(zones, n)
        greedy = greedy_zone_cover(zones, n, n)
        if len(cover) == brute:
            exact_matches += 1
        if len(greedy) >= len(cover):
            greedy_ok += 1
    elapsed = time.time() - t0
    passed = exact_matches == n_instances and greedy_ok == n_instances and elapsed < 60.0
    report("2 cover-exactness", passed,
           f"exact {exact_matches}/{n_instances}, greedy>=exact {greedy_ok}/{n_instances}, "
           f"{elapsed:.1f}s (< 60s)")
    assert passed


# ---------------------------------------------------------------------------
# Criteria 3 and 8 share the planning loop; criterion 8 re-runs it.
# ---------------------------------------------------------------------------

def _run_criterion_3():
    rng = np.random.default_rng(30)
    digest = hashlib.sha256()
    all_valid = True
    ratios_one = True
    for _ in range(100):
        scn = random_scenario(rng, n_max=30)
        dep = plan_deployment(scn, PARAMS)
        rep = validate_deployment(dep, scn, PARAMS)
        if not rep.passed or any(c.residual > 0 for c in rep.checks):
            all_valid = False
        _, delivered = evaluate_throughput(dep, scn, PARAMS)
        if demand_satisfaction_ratio(delivered, scn) != 1.0:
            ratios_one = False
        doc = deployment_to_dict(dep, rep)
        digest.update(json.dumps(doc, sort_keys=True).encode())
    return all_valid, ratios_one, digest.hexdigest()


@pytest.fixture(scope="module")
def criterion_3_result():
    return _run_criterion_3()


def test_criterion_3_end_to_end_feasibility(criterion_3_result):
    all_valid, ratios_one, _ = criterion_3_result
    passed = all_valid and ratios_one
    report("3 end-to-end-feasibility", passed,
           f"100 scenarios, residuals<=0: {all_valid}, satisfaction==1.0: {ratios_one}")
    assert passed


# ---------------------------------------------------------------------------
# Criterion 4: desk-scale minimality against the partition oracle.
# ---------------------------------------------------------------------------

def test_criterion_4_minimality():
    rng = np.random.default_rng(40)
    matches = 0
    n_instances = 50
    details = []
    for _ in range(n_instances):
        scn = random_scenario(rng, n_max=8, side_range=(80.0, 250.0),
                              demands=(6.5e6, 13e6))
        dep = plan_deployment(scn, PARAMS)
        opt = partition_oracle(scn, PARAMS)
        if dep.uav_count == opt:
            matches += 1
        else:
            details.append((len(scn.ues), dep.uav_count, opt))
    passed = matches == n_instances
    report("4 planner-minimality", passed,
           f"{matches}/{n_instances} match the partition oracle"
           + (f", mismatches {details}" if details else ""))
    assert passed


# ---------------------------------------------------------------------------
# Criteria 5 and 8 share the venue sweep; criterion 8 re-runs it.
# ---------------------------------------------------------------------------

def _run_criterion_5():
    rows = []
    for variant in range(5):
        for run in range(1, 31):
            seed = run
            scn = generate_scenario("B", variant, seed)
            dep = plan_deployment(scn, PARAMS)
            rows.append((100 * (variant + 1), run, seed, dep.uav_count))
    lines = ["scenario,variant,method,run,seed,uav_count,aggregate_bps,demand_satisfied_ratio"]
    for venue, run, seed, count in rows:
        lines.append(f"B,{float(venue)!r},planner,{run},{seed},{count},,")
    csv_text = "\n".join(lines) + "\n"
    medians = [
        statistics.median([c for v, _, _, c in rows if v == venue])
        for venue in (100, 200, 300, 400, 500)
    ]
    return medians, csv_text


@pytest.fixture(scope="module")
def criterion_5_result(tmp_path_factory):
    medians, csv_text = _run_criterion_5()
    out = tmp_path_factory.mktemp("venue_sweep") / "venue_sweep_counts.csv"
    out.write_text(csv_text)
    print(f"venue sweep table written to {out}")
    return medians, csv_text


def test_criterion_5_venue_sweep(criterion_5_result):
    t0 = time.time()
    medians, _ = criterion_5_result
    non_decreasing = all(a <= b for a, b in zip(medians, medians[1:]))
    passed = medians[0] == 1 and non_decreasing and medians[-1] > medians[0]
    elapsed = time.time() - t0
    report("5 venue-sweep", passed,
           f"medians by venue {medians} (100 m == 1, non-decreasing, 500 m > 100 m)")
    assert passed
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# Criterion 6: population sweep dominance over the fixed-group baseline.
# ---------------------------------------------------------------------------

def test_criterion_6_population_dominance():
    cells_ok = 0
    baseline_ok = 0
    total = 0
    for variant, n in enumerate((20, 30, 40, 50, 60)):
        for run in range(1, 31):
            scn = generate_scenario("C", variant, run)
            dep = plan_deployment(scn, PARAMS)
            base = run_baseline(BaselineKind.FIXED_GROUP_SIZE, scn, PARAMS)
            total += 1
            if dep.uav_count <= base.uav_count:
                cells_ok += 1
            if base.uav_count == math.ceil(n / 10):
                baseline_ok += 1
    passed = cells_ok == total and baseline_ok == total
    report("6 population-dominance", passed,
           f"planner<=baseline in {cells_ok}/{total} cells, "
           f"baseline==ceil(N/10) in {baseline_ok}/{total}")
    assert passed


# ---------------------------------------------------------------------------
# Criterion 7: fixed-altitude baseline never beats the planner's satisfaction.
# ---------------------------------------------------------------------------

def test_criterion_7_highest_demand_satisfaction():
    planner_perfect = 0
    baseline_bounded = 0
    runs = 30
    for run in range(1, runs + 1):
        scn = generate_scenario("A", 5, run)  # 52 Mbit/s per UE
        dep = plan_deployment(scn, PARAMS)
        _, delivered = evaluate_throughput(dep, scn, PARAMS)
        r_planner = demand_satisfaction_ratio(delivered, scn)
        alt = run_baseline(BaselineKind.FIXED_ALTITUDE, scn, PARAMS)
        _, delivered_alt = evaluate_throughput(alt, scn, PARAMS)
        r_alt = demand_satisfaction_ratio(delivered_alt, scn)
        if r_planner == 1.0:
            planner_perfect += 1
        if r_alt <= r_planner:
            baseline_bounded += 1
    passed = planner_perfect == runs and baseline_bounded == runs
    report("7 baseline-satisfaction", passed,
           f"planner ratio==1.0 in {planner_perfect}/{runs}, "
           f"baseline<=planner in {baseline_bounded}/{runs}")
    assert passed


# ---------------------------------------------------------------------------
# Criterion 8: determinism of criteria 3 and 5 across three repetitions.
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(criterion_3_result, criterion_5_result):
    _, _, digest_3 = criterion_3_result
    _, csv_5 = criterion_5_result
    hashes_3 = {digest_3}
    hashes_5 = {hashlib.sha256(csv_5.encode()).hexdigest()}
    for _ in range(2):
        _, _, d3 = _run_criterion_3()
        hashes_3.add(d3)
        _, c5 = _run_criterion_5()
        hashes_5.add(hashlib.sha256(c5.encode()).hexdigest())
    passed = len(hashes_3) == 1 and len(hashes_5) == 1
    report("8 determinism", passed,
           f"criterion-3 hashes {len(hashes_3)}/1 distinct, "
           f"criterion-5 hashes {len(hashes_5)}/1 distinct")
    assert passed


# ---------------------------------------------------------------------------
# Criterion 9: demand monotonicity.
# ---------------------------------------------------------------------------

def test_criterion_9_demand_monotonicity():
    rng = np.random.default_rng(90)
    ok = 0
    n_instances = 50
    for _ in range(n_instances):
        scn = random_scenario(rng, n_max=12, side_range=(100.0, 300.0),
                              demands=(6.5e6, 13e6))
        base = plan_deployment(scn, PARAMS).uav_count
        doubled = replace(
            scn,
            ues=tuple(UE(position=u.position, demand_bps=2 * u.demand_bps) for u in scn.ues),
        )
        harder = plan_deployment(doubled, PARAMS).uav_count
        if harder >= base:
            ok += 1
    passed = ok == n_instances
    report("9 demand-monotonicity", passed, f"{ok}/{n_instances} scenarios monotone")
    assert passed
