"""The n100-1km benchmark pass plans, enumerates, searches and scores byte for byte as pinned.

A change that moves any plan, zone, swarm or throughput bit updates these
pins and says why; ``tools/plan_digest.py`` prints the same digests for every
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
