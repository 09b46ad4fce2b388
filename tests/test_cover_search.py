"""The exact cover search against the search it replaced, return for return.

``coverage._exact_cover`` visits only the open picks and builds its inputs
from one membership matrix; ``cover_search_reference`` keeps the search that
visited every pick. Both must return the same picks, or None, and agree on
whether the search finished within ``NODE_BUDGET``: with binding caps, on
uncapped venues large enough to run out of nodes, and at every small budget,
which pins the node accounting. The zone lists of the benchmark's scaled
venues are held to the reference in ``test_plan_digest.py``.
"""
import numpy as np
import pytest

import cover_search_reference as reference
from uavplan import CandidateZone, Point3, coverage, greedy_zone_cover


def zone(members):
    return CandidateZone(members=tuple(sorted(members)), witness=Point3(0, 0, 10), slack=1.0)


def family(rng, n, zone_count, largest):
    """``zone_count`` random zones of up to ``largest`` of ``n`` users, then every singleton."""
    zones = [zone(rng.choice(n, size=int(rng.integers(1, largest + 1)), replace=False).tolist())
             for _ in range(zone_count)]
    return zones + [zone([u]) for u in range(n)]


def searches(zones, n_ues, capacity_limit):
    """The library search and the reference on one instance, greedy's length as the bound."""
    caps = coverage._caps_list(zones, capacity_limit)
    ub = len(greedy_zone_cover(zones, n_ues, caps))
    member = coverage._membership([z.members for z in zones], n_ues)[:, :n_ues]
    return coverage._exact_cover(member, caps, ub), reference.reference_cover(zones, caps, n_ues, ub)


def test_search_matches_the_reference_with_binding_caps():
    rng = np.random.default_rng(31)
    finished = []
    for _ in range(150):
        n = int(rng.integers(5, 41))
        zones = family(rng, n, int(rng.integers(3, 25)), max(2, n // 2))
        cap = int(rng.integers(1, 9))
        new, old = searches(zones, n, cap)
        assert new == old
        finished.append(new[1])
    assert 0 < sum(finished) < len(finished)


def test_search_matches_the_reference_where_it_runs_out_of_nodes():
    # Uncapped venues of 150-250 users: no pick stays open, and the search
    # spends its whole budget, as on every n200-2km venue.
    rng = np.random.default_rng(37)
    for _ in range(6):
        n = int(rng.integers(150, 251))
        zones = family(rng, n, int(rng.integers(100, 300)), 12)
        new, old = searches(zones, n, n)
        assert new == old == (None, False)


def test_node_accounting_matches_the_reference_at_every_budget(monkeypatch):
    rng = np.random.default_rng(43)
    instances = []
    for k in range(12):
        n = int(rng.integers(8, 40))
        instances.append((family(rng, n, int(rng.integers(4, 30)), max(2, n // 3)),
                          n, n if k % 2 else int(rng.integers(2, 7))))
    outcomes = set()
    for budget in [*range(1, 65), 512]:
        monkeypatch.setattr(coverage, "NODE_BUDGET", budget)
        monkeypatch.setattr(reference, "NODE_BUDGET", budget)
        for zones, n, cap in instances:
            new, old = searches(zones, n, cap)
            assert new == old, budget
            outcomes.add((new[0] is None, new[1]))
    assert outcomes == {(True, False), (True, True), (False, True)}


@pytest.mark.parametrize("n, cap", [(1, 1), (3, 1), (3, 3)])
def test_one_user_zones_match_the_reference(n, cap):
    # Every zone twice, so that equal picks of one zone are tried once.
    new, old = searches([zone([u]) for u in range(n)] * 2, n, cap)
    assert new == old
