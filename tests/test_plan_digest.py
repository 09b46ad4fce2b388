"""The benchmark passes plan, enumerate, search and score byte for byte as pinned.

Every pass pins all four digests: n100-1km; n200-2km, where the zone
stage's blocks and row dedup, the swarm seeding and the planner's splits do
the most work; paper-sweep, the one pass that plans the baselines
(fixed-altitude on a flat box, so a 2D certificate, and fixed-n); and
paper-sweep:fixed, the one pass whose zone capacity caps bind and whose
every link is pinned. A change that moves any plan, zone, swarm or
throughput bit updates these pins and says why; ``tools/plan_digest.py``
prints the same digests for every workload.
"""
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "plan_digest.py"

PINS = {
    "plan_digest": "eb7e2aafa5b6f02b",
    "zone_digest": "2770973116f1e98e",
    "swarm_digest": "b7b5e0787d44df53",
    "throughput_digest": "dd163e9cae56166c",
}
N200_PINS = {
    "plan_digest": "0faafee3327e138c",
    "zone_digest": "4ff046fc2c6bb991",
    "swarm_digest": "ed856cbf7e4fe397",
    "throughput_digest": "875f9423ddae894e",
}
PAPER_SWEEP_PLAN_DIGEST = "09ef367a7d7f110b"
PAPER_SWEEP_PINS = {
    "zone_digest": "1a29f85849c202bc",
    "throughput_digest": "566c864e459b31d7",
    "swarm_digest": "cf1a36663dbc443f",
}
PAPER_SWEEP_FIXED_PLAN_DIGEST = "597629429edc4957"
PAPER_SWEEP_FIXED_PINS = {
    "zone_digest": "d6faa4be097bf226",
    "swarm_digest": "251bd77c63075e64",
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
