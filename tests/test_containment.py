"""Containment between zones: the membership matrix against pairwise set comparisons.

Each reference below is the pairwise-``set`` definition the matrix code in
``uavplan.coverage`` replaced; the property test requires equal results.
"""
import re

import pytest
from hypothesis import given, settings, strategies as st

from uavplan import CandidateZone, Point3, UncoverableError, greedy_zone_cover
from uavplan.coverage import _dominated, _membership


def zone(members, slack=1.0):
    return CandidateZone(members=tuple(sorted(members)), witness=Point3(0, 0, 10), slack=slack)


def _reference_maximal(sets):
    return [s for s in sets if not any(s < t for t in sets)]


def _reference_dominated(zones):
    return [any(set(z.members) < set(o.members) or (z.members == o.members and j < k)
                for j, o in enumerate(zones) if j != k)
            for k, z in enumerate(zones)]


def _reference_greedy(zones, n_ues, caps):
    uncovered = set(range(n_ues))
    cover = []
    while uncovered:
        best_k, best_key = None, None
        for k, z in enumerate(zones):
            gain = min(len(uncovered & set(z.members)), caps[k])
            if gain == 0:
                continue
            key = (-gain, -z.slack, k)
            if best_key is None or key < best_key:
                best_k, best_key = k, key
        if best_k is None:
            raise UncoverableError(f"UEs {sorted(uncovered)} appear in no zone")
        take = sorted(uncovered & set(zones[best_k].members))[: caps[best_k]]
        uncovered -= set(take)
        cover.append(zones[best_k])
    return cover


@st.composite
def zone_families(draw):
    """Zones over n users: drawn sets, subsets of them (nested or equal), repeats."""
    n = draw(st.integers(1, 8))
    users = st.integers(0, n - 1)
    base = draw(st.lists(st.frozensets(users, min_size=1), min_size=1, max_size=6))
    subsets = draw(st.lists(st.tuples(st.sampled_from(base), st.frozensets(users)), max_size=6))
    sets = base + [s - drop for s, drop in subsets] + draw(st.lists(st.sampled_from(base), max_size=3))
    sets = draw(st.permutations([s for s in sets if s]))
    slack = st.sampled_from([0.0, 0.5, 2.0])
    zones = [zone(s, slack=draw(slack)) for s in sets]
    caps = draw(st.lists(st.integers(1, n), min_size=len(zones), max_size=len(zones)))
    return n, zones, caps


@settings(max_examples=150, derandomize=True, deadline=None)
@given(zone_families())
def test_containment_matrix_matches_pairwise_sets(family):
    n, zones, caps = family
    distinct = list(dict.fromkeys(frozenset(z.members) for z in zones))
    inside = _dominated(_membership(distinct, n))
    assert [s for s, d in zip(distinct, inside) if not d] == _reference_maximal(distinct)
    members = _membership([z.members for z in zones], n)
    assert _dominated(members).tolist() == _reference_dominated(zones)
    try:
        expected = [id(z) for z in _reference_greedy(zones, n, caps)]
    except UncoverableError as exc:
        with pytest.raises(UncoverableError, match=re.escape(str(exc))):
            greedy_zone_cover(zones, n, caps)
    else:
        assert [id(z) for z in greedy_zone_cover(zones, n, caps)] == expected
