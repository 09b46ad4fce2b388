"""The benchmark passes plan, enumerate, search and score byte for byte as pinned.

n100-1km pins all four digests. n200-2km, where the zone stage's row dedup
and the swarm seeding do the most work, pins its zones and swarms. A change
that moves any plan, zone, swarm or throughput bit updates these pins and
says why; ``tools/plan_digest.py`` prints the same digests for every
workload.
"""
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "plan_digest.py"

PINS = {
    "plan_digest": "22544210d33fa7c7",
    "zone_digest": "2770973116f1e98e",
    "swarm_digest": "7ef5e3b4dc146416",
    "throughput_digest": "5e67ed65efeed6d5",
}
N200_PINS = {
    "zone_digest": "4ff046fc2c6bb991",
    "swarm_digest": "4da253c3ce66db2b",
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
