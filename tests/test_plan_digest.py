"""The benchmark passes plan, enumerate, search and score byte for byte as pinned.

Every pass pins all four digests: n100-1km; n200-2km, where the zone
stage's blocks and row dedup, the swarm seeding and the planner's splits do
the most work; paper-sweep, the one pass that plans the baselines
(fixed-altitude on a flat box, so a 2D certificate, and fixed-n); and
paper-sweep:fixed, the one pass whose zone capacity caps bind and whose
every link is pinned. A change that moves any plan, zone, swarm or
throughput bit updates these pins and says why; ``tools/plan_digest.py``
prints the same digests for every workload. Its ``--endings`` counts, how
each planner swarm of a pass ended, are pinned on every pass, and every
one-member placement of every pass is served at its user's nadir.
How many enumerations of a pass skip the vertex arrangement is pinned on
paper-sweep (all 288) and n200-2km (none of 3), and its ``--candidates``
counts, the vertex candidates scored and the venues that fell back to
every candidate, on the two scaled passes. Its ``--covers`` counts, how
each enumeration's cover was found, are pinned on every pass, and the
planner's cover search on each scaled venue is held to the search it
replaced.
"""
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import cover_search_reference as reference
from uavplan import Association, CandidateZone, Deployment, Point3, coverage, positioning
from uavplan.positioning import PlacementSolution

TOOL = Path(__file__).resolve().parent.parent / "tools" / "plan_digest.py"

PINS = {
    "plan_digest": "d206124fde45707e",
    "zone_digest": "2770973116f1e98e",
    "swarm_digest": "091f0aefdceca70d",
    "throughput_digest": "dd163e9cae56166c",
}
N200_PINS = {
    "plan_digest": "b3a9b0eb9ff52982",
    "zone_digest": "4ff046fc2c6bb991",
    "swarm_digest": "a3f7e1e7e9134432",
    "throughput_digest": "875f9423ddae894e",
}
PAPER_SWEEP_PLAN_DIGEST = "25ff5d17f6dae6bc"
PAPER_SWEEP_PINS = {
    "zone_digest": "1a29f85849c202bc",
    "throughput_digest": "566c864e459b31d7",
    "swarm_digest": "f639083609cac536",
}
PAPER_SWEEP_FIXED_PLAN_DIGEST = "6b364f05bf54cb92"
PAPER_SWEEP_FIXED_PINS = {
    "zone_digest": "d6faa4be097bf226",
    "swarm_digest": "166807060d847584",
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


# How the planner swarms of one pass end, as ``tools/plan_digest.py --endings`` prints them:
# every zone at an anchor, at a served certificate probe or proven, none seeded.
ENDINGS = {
    "paper-sweep": "paper-sweep witness 101 ceiling 43 probe 5 proven 5 seeded 0 iterated 0\n"
                   "paper-sweep:fixed witness 432 ceiling 97 probe 14 proven 3 seeded 0 iterated 0\n",
    "n100-1km": "n100-1km witness 2 ceiling 13 probe 0 proven 11 seeded 0 iterated 0\n",
    "n200-2km": "n200-2km witness 18 ceiling 90 probe 13 proven 55 seeded 0 iterated 0\n",
}


@pytest.mark.parametrize("name", sorted(ENDINGS))
def test_swarm_endings_are_pinned(plan_digest, capsys, name):
    assert plan_digest.main(["--workload", name, "--endings"]) == 0
    assert capsys.readouterr().out == ENDINGS[name]


# What each view of the plan record makes of the stand-in planner's record below.
VIEWS = {
    "endings": "witness 1 ceiling 1 probe 2 proven 1 seeded 1 iterated 1",
    "zone_digest": "e2376298c3ae367c",
    "swarm_digest": "d49a7d6ea9975383",
}


@pytest.mark.parametrize("view", sorted(VIEWS))
def test_views_read_the_plan_record_and_wrap_nothing(plan_digest, monkeypatch, view):
    # A stand-in planner records one zone and one placement at each ending,
    # "probe" twice, on a pass of one planner and one baseline operation, and
    # sees every uavplan module as it stood before the view: the view wraps
    # nothing.
    scenario = plan_digest.workloads.WORKLOADS["n100-1km"].make_pass(0)[0].scenario
    ops = [SimpleNamespace(label=label, method=method, scenario=scenario)
           for label, method in (("b", "fixed-n"), ("a", "planner"))]
    workload = SimpleNamespace(make_pass=lambda seed: ops)
    placements = tuple(
        PlacementSolution(np.zeros(3), np.zeros(1, int), np.zeros(1), np.zeros(1), 0.0,
                          ending != "proven", 0, ending, ((0, 0.0, (0.0, 0.0, 0.0)),))
        for ending in (*positioning.ENDINGS, "probe"))
    record = Deployment(np.zeros((0, 3)), Association(np.zeros((1, 0)), np.zeros(0)),
                        np.zeros(1), np.zeros(1), 0,
                        zones=(CandidateZone((0,), Point3(1.0, 2.0, 3.0), 0.5),),
                        placements=placements)

    def plan(*args):
        assert [dict(vars(m)) for m in modules] == before
        return record

    monkeypatch.setattr(plan_digest.workloads.planner, "plan_deployment", plan)
    monkeypatch.setattr(plan_digest.workloads.scenario, "run_baseline", plan)
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("uavplan")]
    before = [dict(vars(m)) for m in modules]
    assert getattr(plan_digest, view)(workload) == VIEWS[view]
    assert [dict(vars(m)) for m in modules] == before


def zone_bits(zones):
    return [(z.members, *(v.hex() for v in (z.witness.x, z.witness.y, z.witness.z, z.slack)))
            for z in zones]


@pytest.mark.parametrize("pairs", [positioning._CERTIFY_PAIRS, 0], ids=["certified", "no-pairs"])
def test_plans_record_their_zones_and_where_each_search_ended(plan_digest, monkeypatch, pairs):
    # Every plan_deployment of one n100-1km and one paper-sweep pass, the
    # fixed-altitude baseline's included: its zones are a fresh enumeration's
    # bit for bit, and each placement's trace ends at the placement. With no
    # pairs to spend, the certificate gives up and the swarms iterate.
    monkeypatch.setattr(positioning, "_CERTIFY_PAIRS", pairs)
    workloads, plans = plan_digest.workloads, []
    plan = workloads.planner.plan_deployment

    def record(scn, *args):
        plans.append((scn, plan(scn, *args)))
        return plans[-1][1]

    for module in (workloads.planner, workloads.scenario):
        monkeypatch.setattr(module, "plan_deployment", record)
    for name in ("n100-1km", "paper-sweep"):
        for _ in plan_digest.planned(workloads.WORKLOADS[name]):
            pass
    assert len(plans) == 2 + 288
    iterations = 0
    for scn, dep in plans:
        spheres = coverage.build_spheres(scn, workloads.PARAMS)
        assert zone_bits(dep.zones) == zone_bits(coverage.enumerate_zones(spheres, scn.venue))
        for sol in dep.placements:
            it, value, position = sol.trace[-1]
            assert (it, value.hex(), *(v.hex() for v in position)) \
                == (sol.iterations, sol.fitness.hex(), *(v.hex() for v in sol.uav_position.tolist()))
            iterations += sol.iterations
    assert (iterations > 0) == (pairs == 0)


def test_every_one_member_placement_is_served_at_its_nadir(plan_digest, monkeypatch):
    # The planner checks each user's link at its nadir before any zone
    # exists, and places every one-member zone there, so none fails: over
    # one pass of every workload, paper-sweep:fixed included, each such
    # placement of plan_deployment (planner and fixed-altitude, on the box
    # it planned in) ends at its witness, served, exactly at the nadir.
    workloads, plans = plan_digest.workloads, []
    plan = workloads.planner.plan_deployment

    def record(scn, *args):
        plans.append((scn, plan(scn, *args)))
        return plans[-1][1]

    for module in (workloads.planner, workloads.scenario):
        monkeypatch.setattr(module, "plan_deployment", record)
    for name, changes in [*((name, {}) for name in workloads.WORKLOADS),
                          ("paper-sweep", {"bandwidth_policy": "fixed"})]:
        for _ in plan_digest.planned(workloads.WORKLOADS[name], **changes):
            pass
    singles = [(scn, sol) for scn, dep in plans for sol in dep.placements
               if len(sol.ue_indices) == 1]
    assert len(plans) == 2 * 288 + 2 + 3 and singles
    for scn, sol in singles:
        nadir = scn.venue.clamp(scn.ue_positions[sol.ue_indices[0]])
        assert (sol.feasible, sol.ending, sol.uav_position.tobytes()) \
            == (True, "witness", nadir.tobytes())


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


# How each enumeration's cover was found over one pass, as ``tools/plan_digest.py --covers`` prints it.
COVERS = {
    "paper-sweep": "paper-sweep shared 288 proven 0 greedy 0\n"
                   "paper-sweep:fixed shared 288 proven 0 greedy 0\n",
    "n100-1km": "n100-1km shared 0 proven 2 greedy 0\n",
    "n200-2km": "n200-2km shared 0 proven 0 greedy 3\n",
}


@pytest.mark.parametrize("name", sorted(COVERS))
def test_cover_mechanisms_are_pinned(plan_digest, capsys, name):
    # Every paper-sweep cover is one shared zone, both n100-1km searches
    # finish, and every n200-2km search runs out of nodes, leaving greedy.
    assert plan_digest.main(["--workload", name, "--covers"]) == 0
    assert capsys.readouterr().out == COVERS[name]


@pytest.fixture(scope="module")
def scaled_covers(plan_digest):
    """The zones, user count and caps of every cover the planner asks for on the two scaled passes."""
    planner, calls = plan_digest.workloads.planner, []
    cover = planner.minimal_zone_cover

    def record(zones, n_ues, caps):
        calls.append((zones, n_ues, caps))
        return cover(zones, n_ues, caps)

    planner.minimal_zone_cover = record
    try:
        for name in ("n100-1km", "n200-2km"):
            for _ in plan_digest.planned(plan_digest.workloads.WORKLOADS[name]):
                pass
    finally:
        planner.minimal_zone_cover = cover
    return calls


def test_search_matches_the_reference_on_the_scaled_venues(scaled_covers, monkeypatch):
    # Five zone lists: no paper-sweep enumeration has a second zone (--covers).
    assert [len(zones) for zones, _, _ in scaled_covers] == [147, 67, 375, 491, 444]
    for budget in [*range(1, 65), 512]:
        monkeypatch.setattr(coverage, "NODE_BUDGET", budget)
        monkeypatch.setattr(reference, "NODE_BUDGET", budget)
        for zones, n_ues, caps in scaled_covers:
            caps = coverage._caps_list(zones, caps)
            ub = len(coverage.greedy_zone_cover(zones, n_ues, caps))
            member = coverage._membership([z.members for z in zones], n_ues)[:, :n_ues]
            assert coverage._exact_cover(member, caps, ub) \
                == reference.reference_cover(zones, caps, n_ues, ub), budget
