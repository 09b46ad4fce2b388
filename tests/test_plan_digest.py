"""The benchmark passes plan, enumerate, search and score byte for byte as pinned.

Every pass pins all four digests: n100-1km; n200-2km, where the zone
stage's blocks and row dedup, the swarm seeding and the planner's splits do
the most work; paper-sweep, the one pass that plans the baselines
(fixed-altitude on a flat box, so a 2D certificate, and fixed-n); and
paper-sweep:fixed, the one pass whose zone capacity caps bind and whose
every link is pinned. A change that moves any plan, zone, swarm or
throughput bit updates these pins and says why; ``tools/plan_digest.py``
prints the same digests for every workload. Its ``--endings`` counts, how
each planner swarm of a pass ended, are pinned on the two scaled passes.
How many enumerations of a pass skip the vertex arrangement is pinned on
paper-sweep (all 288) and n200-2km (none of 3), and its ``--candidates``
counts, the vertex candidates scored and the venues that fell back to
every candidate, on the two scaled passes.
"""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from uavplan import coverage
from uavplan.positioning import PlacementSolution

TOOL = Path(__file__).resolve().parent.parent / "tools" / "plan_digest.py"

PINS = {
    "plan_digest": "c405355e7543b1ce",
    "zone_digest": "2770973116f1e98e",
    "swarm_digest": "091f0aefdceca70d",
    "throughput_digest": "dd163e9cae56166c",
}
N200_PINS = {
    "plan_digest": "5ce2f8c215ed44ac",
    "zone_digest": "4ff046fc2c6bb991",
    "swarm_digest": "16d1ad8e94348b4c",
    "throughput_digest": "875f9423ddae894e",
}
PAPER_SWEEP_PLAN_DIGEST = "855abb2b37739ab8"
PAPER_SWEEP_PINS = {
    "zone_digest": "1a29f85849c202bc",
    "throughput_digest": "566c864e459b31d7",
    "swarm_digest": "f606ee94119acce2",
}
PAPER_SWEEP_FIXED_PLAN_DIGEST = "58248cd8c5291688"
PAPER_SWEEP_FIXED_PINS = {
    "zone_digest": "d6faa4be097bf226",
    "swarm_digest": "ec68815c9d3eb21d",
    "throughput_digest": "7283135b0d05e8b1",
}


@pytest.fixture(scope="module")
def plan_digest():
    spec = importlib.util.spec_from_file_location("plan_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("digest", sorted(PINS))
def test_n100_digests_are_pinned(plan_digest, digest):
    workload = plan_digest.workloads.WORKLOADS["n100-1km"]
    assert getattr(plan_digest, digest)(workload) == PINS[digest]


@pytest.mark.parametrize("digest", sorted(N200_PINS))
def test_n200_digests_are_pinned(plan_digest, digest):
    workload = plan_digest.workloads.WORKLOADS["n200-2km"]
    assert getattr(plan_digest, digest)(workload) == N200_PINS[digest]


def test_paper_sweep_plan_digest_is_pinned(plan_digest):
    workload = plan_digest.workloads.WORKLOADS["paper-sweep"]
    assert plan_digest.plan_digest(workload) == PAPER_SWEEP_PLAN_DIGEST


@pytest.mark.parametrize("digest", sorted(PAPER_SWEEP_PINS))
def test_paper_sweep_digests_are_pinned(plan_digest, digest):
    workload = plan_digest.workloads.WORKLOADS["paper-sweep"]
    assert getattr(plan_digest, digest)(workload) == PAPER_SWEEP_PINS[digest]


def test_paper_sweep_fixed_plan_digest_is_pinned(plan_digest):
    workload = plan_digest.workloads.WORKLOADS["paper-sweep"]
    assert plan_digest.plan_digest(workload, bandwidth_policy="fixed") == PAPER_SWEEP_FIXED_PLAN_DIGEST


@pytest.mark.parametrize("digest", sorted(PAPER_SWEEP_FIXED_PINS))
def test_paper_sweep_fixed_digests_are_pinned(plan_digest, digest):
    workload = plan_digest.workloads.WORKLOADS["paper-sweep"]
    assert getattr(plan_digest, digest)(workload, bandwidth_policy="fixed") \
        == PAPER_SWEEP_FIXED_PINS[digest]


@pytest.mark.parametrize("name, enumerations, shared", [("paper-sweep", 288, 288),
                                                       ("n200-2km", 3, 0)])
def test_shared_venues_skip_the_vertex_arrangement(plan_digest, monkeypatch, name,
                                                  enumerations, shared):
    # The paper-sweep gain rests on every enumeration of its pass (planner
    # and fixed-altitude) holding all users in one zone, found without the
    # floor-disk arrangement; each n200-2km enumeration builds it.
    planner, calls, arrangements = plan_digest.workloads.planner, [], []
    enumerate_zones, floor_points = planner.enumerate_zones, coverage._floor_points

    def record(spheres, box):
        zones = enumerate_zones(spheres, box)
        calls.append([z.members for z in zones] == [tuple(range(len(spheres)))])
        return zones

    monkeypatch.setattr(planner, "enumerate_zones", record)
    monkeypatch.setattr(coverage, "_floor_points",
                        lambda *a: arrangements.append(1) or floor_points(*a))
    for _ in plan_digest.planned(plan_digest.workloads.WORKLOADS[name]):
        pass
    assert (len(calls), sum(calls), len(arrangements)) \
        == (enumerations, shared, enumerations - shared)


# How the planner swarms of one pass end, as ``tools/plan_digest.py --endings`` prints them.
ENDINGS = {
    "n100-1km": "witness 2 ceiling 13 proven 11 seeded 0 iterated 0",
    "n200-2km": "witness 12 ceiling 94 proven 55 seeded 10 iterated 5",
}


@pytest.mark.parametrize("name", sorted(ENDINGS))
def test_swarm_endings_are_pinned(plan_digest, capsys, name):
    assert plan_digest.main(["--workload", name, "--endings"]) == 0
    assert capsys.readouterr().out == f"{name} {ENDINGS[name]}\n"


def test_each_ending_is_told_apart(plan_digest):
    # One zone's witness on the floor of a 10-100 m box, and a solution at
    # each ending: a pool solution carries only its position, feasibility
    # and iterations.
    box = plan_digest.workloads.WORKLOADS["n100-1km"].make_pass(0)[0].scenario.venue
    witness = np.array([120.0, 80.0, 10.0])

    def sol(position, feasible=True, iterations=0):
        return PlacementSolution(np.array(position), np.empty(0, int), np.empty(0), np.empty(0),
                                 0.0, feasible, iterations)

    cases = {
        "witness": sol(witness),
        "ceiling": sol([120.0, 80.0, 100.0]),
        "proven": sol(witness, feasible=False),
        "seeded": sol([121.0, 80.0, 100.0]),
        "iterated": sol([120.0, 80.0, 100.0], iterations=3),
    }
    assert tuple(cases) == plan_digest.ENDINGS
    assert [plan_digest.ending(s, witness, box) for s in cases.values()] == list(cases)


# The vertex candidates one pass scores, as ``tools/plan_digest.py --candidates`` prints them.
CANDIDATES = {
    "n100-1km": "candidates 3022 venues 2 fallbacks 0",
    "n200-2km": "candidates 5579 venues 3 fallbacks 0",
}


@pytest.mark.parametrize("name", sorted(CANDIDATES))
def test_candidate_traffic_is_pinned(plan_digest, capsys, name):
    # The scaled passes' zone-stage gain rests on scoring only the lowest
    # vertex candidates of every venue (of 12,720 and 18,787 in all), with
    # no venue touching and falling back to every candidate.
    assert plan_digest.main(["--workload", name, "--candidates"]) == 0
    assert capsys.readouterr().out == f"{name} {CANDIDATES[name]}\n"
