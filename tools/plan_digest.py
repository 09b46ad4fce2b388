"""Digest of every plan one benchmark pass produces, to show that a change keeps plans byte-identical.

    python3 tools/plan_digest.py [--workload NAME]
        [--zones | --swarms | --throughput | --endings | --candidates | --covers]

Run from anywhere inside a checkout. For each workload (all of them when
``--workload`` is not given) it plans one ``make_pass(0)`` of
``perfbench/workloads.py``, planner and both baselines, in label order, and
prints the first 16 hex digits of SHA-256 over each operation's label and
``json.dumps`` (sorted keys) of its ``deployment_to_dict`` without the
``validation`` entry. With paper-sweep it also prints ``paper-sweep:fixed``,
the same digest over that pass with every scenario under the ``fixed``
bandwidth policy: the one pass whose zone capacity caps bind.

With ``--zones`` each digest is over the candidate zones instead: the
``zones`` of every deployment that ``plan_deployment`` makes (the planner
and fixed-altitude operations), in label order, each zone's members and the
bits of its witness's x, y, z and of its slack. A plan shows only the zones
its cover picks, so this digest is the one that shows a witness moving in a
zone no cover picked.

With ``--swarms`` each digest is over the swarms of the planner operations
instead: for each, in label order, its deployment's ``placements`` in the
wave order the planner placed them in, first every placement (members, the
bits of the position and fitness, feasibility and iterations, then one line
per member: its UE and the bits of its link width and rate, read from the
solution's arrays), then every placement's ``trace`` (members, then every
row's iteration and bits). These are what ``uavplan plan --dump-pool`` and
``--pso-trace`` write, less each solution's ``ending``, which ``--endings``
counts, so the digest shows a swarm that moves, or runs in another order,
even where the plan does not.

With ``--throughput`` each digest is over what the plans are judged by
instead: for each operation, in label order, the pass flag of every
``validate_deployment`` check and the ``float.hex`` of ``evaluate_throughput``'s
aggregate and of every UE's delivered rate. The validation is outside the
plan digest, so this one shows a change to how the plans are checked.

With ``--endings`` it prints counts instead of a digest: how each swarm in
the placements of every planner operation ended, over one pass, as each
solution's ``ending`` records it. ``witness``: the zone's witness served
it; ``ceiling``: the witness raised to the box top did; ``probe``: the
certificate's first served probe did; ``proven``: the certificate proved
the zone unservable; ``seeded``: the swarm stopped at its random start;
``iterated``: the swarm stepped at least once. Zones of one user count
too, each as ``witness``: it sits at the user's nadir, whose link the
planner checked before any zone existed.

With ``--candidates`` it prints counts instead of a digest, over every
enumeration of one pass: the floor-disk vertex candidates scored, the venues
that built the arrangement (those that do not share one zone) and how many
of them fell back from the lowest candidates to every candidate on a touch.

With ``--covers`` it prints counts instead of a digest, over every
enumeration of one pass: how its cover was found. ``shared``: all users
share its one zone, picked ceil(n / cap) times; ``proven``: the exact search
finished, so the cover is a fewest-picks one; ``greedy``: the search ran out
of nodes and the greedy cover stands.
"""
import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402  (puts the checkout's src on the path)
from uavplan import coverage, positioning  # noqa: E402
from uavplan.cli import deployment_to_dict  # noqa: E402


def plan_digest(workload, **changes) -> str:
    """Digest of one pass; ``changes`` replace fields of every scenario."""
    h = hashlib.sha256()
    for op, scn, dep in planned(workload, **changes):
        doc = deployment_to_dict(dep, workloads.planner.validate_deployment(dep, scn, workloads.PARAMS))
        del doc["validation"]
        h.update(op.label.encode())
        h.update(json.dumps(doc, sort_keys=True).encode())
    return h.hexdigest()[:16]


def planned(workload, **changes):
    """Each operation of one pass in label order, with its scenario and deployment."""
    for op in sorted(workload.make_pass(0), key=lambda op: op.label):
        scn = replace(op.scenario, **changes)
        if op.method == "planner":
            dep = workloads.planner.plan_deployment(scn, workloads.PARAMS)
        else:
            dep = workloads.scenario.run_baseline(workloads.BASELINES[op.method], scn, workloads.PARAMS)
        yield op, scn, dep


def throughput_digest(workload, **changes) -> str:
    """Digest of every op's validation pass flags and throughput; ``changes`` as in ``plan_digest``."""
    h = hashlib.sha256()
    for op, scn, dep in planned(workload, **changes):
        report = workloads.planner.validate_deployment(dep, scn, workloads.PARAMS)
        aggregate, delivered = workloads.scenario.evaluate_throughput(dep, scn, workloads.PARAMS)
        h.update(op.label.encode())
        h.update(f" {' '.join(str(c.passed) for c in report.checks)}\n".encode())
        h.update(f"{' '.join(v.hex() for v in (aggregate, *delivered))}\n".encode())
    return h.hexdigest()[:16]


def zone_digest(workload, **changes) -> str:
    """Digest of every zone list the plans of one pass enumerate; ``changes`` as in ``plan_digest``."""
    h = hashlib.sha256()
    for op, _, dep in planned(workload, **changes):
        if op.method in workloads.PLAN_METHODS:
            h.update(f"{len(dep.zones)} zones\n".encode())
            for z in dep.zones:
                bits = (v.hex() for v in (z.witness.x, z.witness.y, z.witness.z, z.slack))
                h.update(f"{z.members} {' '.join(bits)}\n".encode())
    return h.hexdigest()[:16]


def swarms(workload, **changes):
    """Each planner operation of one pass in label order, with its deployment's placements."""
    for op in sorted(workload.make_pass(0), key=lambda op: op.label):
        if op.method == "planner":
            scn = replace(op.scenario, **changes)
            yield op, workloads.planner.plan_deployment(scn, workloads.PARAMS).placements


def swarm_digest(workload, **changes) -> str:
    """Digest of every planner op's placements and traces; ``changes`` as in ``plan_digest``."""
    h = hashlib.sha256()
    for op, placements in swarms(workload, **changes):
        h.update(op.label.encode())
        members = [tuple(sol.ue_indices.tolist()) for sol in placements]
        for tag, sol in zip(members, placements):
            bits = (v.hex() for v in (*sol.uav_position.tolist(), sol.fitness))
            h.update(f"{tag} {' '.join(bits)} {sol.feasible} {sol.iterations}\n".encode())
            for ue, bw, rate in zip(sol.ue_indices.tolist(), sol.bandwidth_hz.tolist(),
                                    sol.rate_bps.tolist()):
                h.update(f"{ue} {bw.hex()} {rate.hex()}\n".encode())
        for tag, sol in zip(members, placements):
            h.update(f"{tag} {len(sol.trace)} rows\n".encode())
            for it, val, pos in sol.trace:
                h.update(f"{it} {' '.join(float(v).hex() for v in (val, *pos))}\n".encode())
    return h.hexdigest()[:16]


def endings(workload, **changes) -> str:
    """Counts of each ending over one pass's planner swarms; ``changes`` as in ``plan_digest``."""
    counts = dict.fromkeys(positioning.ENDINGS, 0)
    for _, placements in swarms(workload, **changes):
        for sol in placements:
            counts[sol.ending] += 1
    return " ".join(f"{name} {n}" for name, n in counts.items())


def candidates(workload, **changes) -> str:
    """Candidates scored, venues arranged and fallbacks over one pass; ``changes`` as in ``plan_digest``."""
    venues = []  # per arrangement: its lowest candidates, and the candidates scored
    floor_points, sets_at = coverage._floor_points, coverage._sets_at

    def arranged(*args):
        points, defined_by, lowest = floor_points(*args)
        venues.append([int(lowest.sum()), 0])
        return points, defined_by, lowest

    def scored(points, *args):
        venues[-1][1] += len(points)
        return sets_at(points, *args)

    coverage._floor_points, coverage._sets_at = arranged, scored
    try:
        for _ in planned(workload, **changes):
            pass
    finally:
        coverage._floor_points, coverage._sets_at = floor_points, sets_at
    fell = sum(n > lowest for lowest, n in venues)
    return f"candidates {sum(n for _, n in venues)} venues {len(venues)} fallbacks {fell}"


COVERS = ("shared", "proven", "greedy")


def covers(workload, **changes) -> str:
    """Counts of each of ``COVERS`` over one pass's enumerations; ``changes`` as in ``plan_digest``."""
    counts = dict.fromkeys(COVERS, 0)
    cover, search = workloads.planner.minimal_zone_cover, coverage._exact_cover

    def covered(zones, *args):
        counts["shared"] += len(zones) == 1
        return cover(zones, *args)

    def searched(*args):
        best, finished = search(*args)
        counts["proven" if finished else "greedy"] += 1
        return best, finished

    workloads.planner.minimal_zone_cover, coverage._exact_cover = covered, searched
    try:
        for _ in planned(workload, **changes):
            pass
    finally:
        workloads.planner.minimal_zone_cover, coverage._exact_cover = cover, search
    return " ".join(f"{name} {n}" for name, n in counts.items())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default=None)
    what = p.add_mutually_exclusive_group()
    what.add_argument("--zones", action="store_true",
                      help="digest the candidate zones, not the plans")
    what.add_argument("--swarms", action="store_true",
                      help="digest the planner's swarms, not the plans")
    what.add_argument("--throughput", action="store_true",
                      help="digest the validation pass flags and throughput, not the plans")
    what.add_argument("--endings", action="store_true",
                      help="count how the planner's swarms ended, not a digest")
    what.add_argument("--candidates", action="store_true",
                      help="count the vertex candidates scored and the fallbacks, not a digest")
    what.add_argument("--covers", action="store_true",
                      help="count the shared, proven and greedy covers, not a digest")
    args = p.parse_args(argv)
    digest = (zone_digest if args.zones else swarm_digest if args.swarms
              else throughput_digest if args.throughput else endings if args.endings
              else candidates if args.candidates else covers if args.covers else plan_digest)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        print(f"{name} {digest(workloads.WORKLOADS[name])}", flush=True)
        if name == "paper-sweep":
            fixed = digest(workloads.WORKLOADS[name], bandwidth_policy="fixed")
            print(f"{name}:fixed {fixed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
