"""Reference for the exact cover search: the search as it was before it tracked open picks.

``coverage._exact_cover`` visits only the picks that still have room and an
unserved member, and builds its inputs from one membership matrix. This
module keeps the earlier search verbatim, every pick visited at every node
and the inputs built member by member, so the tests can hold the new search
to it return for return. Its ``NODE_BUDGET`` is its own: a test that patches
the library's budget patches this one the same way.
"""
from __future__ import annotations

import math
from typing import Sequence

from uavplan.coverage import CandidateZone


def _zones_of(zones: Sequence[CandidateZone], n_ues: int) -> list[list[int]]:
    """For each UE below ``n_ues``, the indices of the zones holding it, ascending."""
    zones_of: list[list[int]] = [[] for _ in range(n_ues)]
    for k, zone in enumerate(zones):
        for ue in set(zone.members):
            if ue < n_ues:
                zones_of[ue].append(k)
    return zones_of


# Nodes the exact cover search may visit; one that needs more leaves the greedy cover.
NODE_BUDGET = 512


class _OutOfNodes(Exception):
    """The exact cover search spent ``NODE_BUDGET``."""


def _exact_cover(zones, caps, n_ues: int, ub: int) -> list[int] | None:
    """Branch and bound over UE-to-pick assignments, exact with or without binding caps.

    Each node serves the unserved UE in the fewest zones (ties on index):
    from a pick made earlier that contains it and has room left, or from a
    new pick, most unserved members first, then lower zone index. A pick
    whose room holds every unserved member of its zone serves them all at
    once, which costs no other UE a slot; with no binding cap every pick
    does, and the search is plain set-cover branch and bound. Returns the
    picked zone indices in pick order, or None when nothing shorter than
    ``ub`` exists (the caller's greedy cover of length ``ub`` is then
    optimal) or when the search does not finish within ``NODE_BUDGET``
    nodes, which also bounds its recursion depth.
    """
    zones_of = _zones_of(zones, n_ues)
    # Sets of UEs are bitmasks, one bit per UE in serving order, so the UE
    # to serve next is the lowest bit left.
    order = sorted(range(n_ues), key=lambda u: (len(zones_of[u]), u))
    bit = {u: 1 << b for b, u in enumerate(order)}
    members = [sum(bit[u] for u in set(z.members) if u < n_ues) for z in zones]
    top = max(caps)
    best_len, best, nodes = ub, None, 0

    def absorb(unserved: int, picks: list[tuple[int, int]]) -> int:
        fits = True
        while fits:
            fits = False
            for p, (k, room) in enumerate(picks):
                here = members[k] & unserved
                if here and room >= here.bit_count():
                    picks[p], unserved, fits = (k, room - here.bit_count()), unserved ^ here, True
                    break
        return unserved

    def search(unserved: int, picks: list[tuple[int, int]]):
        nonlocal best_len, best, nodes
        nodes += 1
        if nodes > NODE_BUDGET:
            raise _OutOfNodes
        if not unserved:
            # Shorter, or as short as a cover already found: the last wins.
            if len(picks) < best_len or (len(picks) == best_len and best is not None):
                best_len, best = len(picks), [k for k, _ in picks]
            return
        spare = sum(min(room, (members[k] & unserved).bit_count()) for k, room in picks)
        if len(picks) + math.ceil(max(unserved.bit_count() - spare, 0) / top) >= best_len:
            return
        u = unserved & -unserved
        rest, tried = unserved ^ u, set()
        for p, (k, room) in enumerate(picks):
            if room and members[k] & u and (k, room) not in tried:
                tried.add((k, room))
                child = picks.copy()
                child[p] = (k, room - 1)
                search(absorb(rest, child), child)
        for k in sorted(zones_of[order[u.bit_length() - 1]],
                        key=lambda k: (-(members[k] & unserved).bit_count(), k)):
            child = picks + [(k, caps[k] - 1)]
            search(absorb(rest, child), child)

    try:
        search((1 << n_ues) - 1, [])
    except _OutOfNodes:
        return None
    return best


def reference_cover(zones, caps, n_ues: int, ub: int) -> tuple[list[int] | None, bool]:
    """``_exact_cover``'s return, and whether the search finished: whether no ``_OutOfNodes`` was raised."""
    global _OutOfNodes
    plain, ran_out = _OutOfNodes, []

    class Recorded(plain):
        def __init__(self):
            ran_out.append(True)
            super().__init__()

    _OutOfNodes = Recorded
    try:
        return _exact_cover(zones, caps, n_ues, ub), not ran_out
    finally:
        _OutOfNodes = plain
