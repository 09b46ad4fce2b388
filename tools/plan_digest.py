"""Digest of every plan one benchmark pass produces, to show that a change keeps plans byte-identical.

    python3 tools/plan_digest.py [--workload NAME] [--zones | --swarms]

Run from anywhere inside a checkout. For each workload (all of them when
``--workload`` is not given) it plans one ``make_pass(0)`` of
``perfbench/workloads.py``, planner and both baselines, in label order, and
prints the first 16 hex digits of SHA-256 over each operation's label and
``json.dumps`` (sorted keys) of its ``deployment_to_dict`` without the
``validation`` entry. With paper-sweep it also prints ``paper-sweep:fixed``,
the same digest over that pass with every scenario under the ``fixed``
bandwidth policy: the one pass whose zone capacity caps bind.

With ``--zones`` each digest is over the candidate zones instead: every
``enumerate_zones`` result the same plans ask for, in call order, each zone's
members and the bits of its witness's x, y, z and of its slack. A plan
shows only the zones its cover picks, so this digest is the one that shows
a witness moving in a zone no cover picked.

With ``--swarms`` each digest is over the swarms of the planner operations
instead: for each, in label order, ``plan_deployment``'s ``pool`` (members,
the bits of the position, fitness and every link, feasibility and iterations)
and ``trace`` (members, then every row's iteration and bits). These are what
``uavplan plan --dump-pool`` and ``--pso-trace`` write, so the digest shows a
swarm that moves, or runs in another order, even where the plan does not.
"""
import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402  (puts the checkout's src on the path)
from uavplan.cli import deployment_to_dict  # noqa: E402


def plan_digest(workload, **changes) -> str:
    """Digest of one pass; ``changes`` replace fields of every scenario."""
    h = hashlib.sha256()
    for op in sorted(workload.make_pass(0), key=lambda op: op.label):
        scn = replace(op.scenario, **changes)
        if op.method == "planner":
            dep = workloads.planner.plan_deployment(scn, workloads.PARAMS)
        else:
            dep = workloads.scenario.run_baseline(workloads.BASELINES[op.method], scn, workloads.PARAMS)
        doc = deployment_to_dict(dep, workloads.planner.validate_deployment(dep, scn, workloads.PARAMS))
        del doc["validation"]
        h.update(op.label.encode())
        h.update(json.dumps(doc, sort_keys=True).encode())
    return h.hexdigest()[:16]


def zone_digest(workload, **changes) -> str:
    """Digest of every zone list the plans of one pass enumerate; ``changes`` as in ``plan_digest``."""
    h = hashlib.sha256()
    enumerate_zones = workloads.planner.enumerate_zones

    def record(spheres, box):
        zones = enumerate_zones(spheres, box)
        h.update(f"{len(zones)} zones\n".encode())
        for z in zones:
            bits = (v.hex() for v in (z.witness.x, z.witness.y, z.witness.z, z.slack))
            h.update(f"{z.members} {' '.join(bits)}\n".encode())
        return zones

    workloads.planner.enumerate_zones = record
    try:
        plan_digest(workload, **changes)
    finally:
        workloads.planner.enumerate_zones = enumerate_zones
    return h.hexdigest()[:16]


def swarm_digest(workload, **changes) -> str:
    """Digest of every planner op's swarm pool and trace; ``changes`` as in ``plan_digest``."""
    h = hashlib.sha256()
    for op in sorted(workload.make_pass(0), key=lambda op: op.label):
        if op.method != "planner":
            continue
        pool, trace = [], []
        scn = replace(op.scenario, **changes)
        workloads.planner.plan_deployment(scn, workloads.PARAMS, pool=pool, trace=trace)
        h.update(op.label.encode())
        for members, sol in pool:
            bits = (v.hex() for v in (*sol.uav_position.as_array().tolist(), sol.fitness))
            h.update(f"{members} {' '.join(bits)} {sol.feasible} {sol.iterations}\n".encode())
            for link in sol.served_ues:
                bits = f"{link.bandwidth_hz.hex()} {link.rate_bps.hex()}"
                h.update(f"{link.ue_index} {bits}\n".encode())
        for members, rows in trace:
            h.update(f"{members} {len(rows)} rows\n".encode())
            for it, val, pos in rows:
                h.update(f"{it} {' '.join(float(v).hex() for v in (val, *pos))}\n".encode())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default=None)
    what = p.add_mutually_exclusive_group()
    what.add_argument("--zones", action="store_true",
                      help="digest the candidate zones, not the plans")
    what.add_argument("--swarms", action="store_true",
                      help="digest the planner's swarms, not the plans")
    args = p.parse_args(argv)
    digest = zone_digest if args.zones else swarm_digest if args.swarms else plan_digest
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        print(f"{name} {digest(workloads.WORKLOADS[name])}", flush=True)
        if name == "paper-sweep":
            fixed = digest(workloads.WORKLOADS[name], bandwidth_policy="fixed")
            print(f"{name}:fixed {fixed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
