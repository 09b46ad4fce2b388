"""Steadiness mode: repeat each workload over seeds and size the regression bounds.

    python3 perfbench/steady.py --first-seed 1 [--write-bounds]

Runs ``perfbench/run.py`` ``RUNS`` times on every workload in BENCHMARK.json,
each time with the next seed, one run at a time. A workload plans the same
instances whatever the seed, so the runs differ only in the order of the
operations and in the machine's noise. Prints the median and quartiles of
every end-to-end metric with its spread: the interquartile distance as a share
of the median, as ``statistics.quantiles(values, n=4)`` gives it. A metric's
bound is three times the widest spread any workload shows, clamped to
[``MIN_BOUND``, ``MAX_BOUND``]; ``setup_s`` gets ``MAX_BOUND``.
``--write-bounds`` stores the bounds in BENCHMARK.json. Every run's JSON line
goes to ``perfbench/out/steady.json``.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
MAX_BOUND = 0.25
MIN_BOUND = 0.05
RUNS = 10
RUN_TIMEOUT_S = 900


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return result


def bound_for(widest_spread: float) -> float:
    return min(MAX_BOUND, max(MIN_BOUND, math.ceil(300 * widest_spread) / 100))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--write-bounds", action="store_true")
    args = p.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + RUNS)

    runs = {w: [] for w in names}
    for w in names:
        for seed in seeds:
            runs[w].append(run_once(spec, w, seed))
            print(f"# {w} seed {seed} done", file=sys.stderr, flush=True)
    out = HERE / "out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seeds": list(seeds), "runs": runs}, indent=1))

    widest = {}
    print(f"{'workload':<12} {'metric':<16} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for w in names:
            values = [r["metrics"][name]["value"] for r in runs[w]]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            s = stats.spread(values)
            widest[name] = max(widest.get(name, 0.0), s)
            flag = "" if s < metric["bound"] / 3 else "  (over a third of its bound)"
            print(f"{w:<12} {name:<16} {q1:>12.6g} {q2:>12.6g} {q3:>12.6g} {s:>8.4f}{flag}")

    bounds = {name: bound_for(s) for name, s in widest.items()}
    # Set-up plans nothing, so its spread is the host's alone; it gets the
    # widest bound, and its spread is reported but not held to a third of it.
    bounds["setup_s"] = MAX_BOUND
    for name, b in bounds.items():
        steady = name == "setup_s" or widest[name] * 3 <= b
        print(f"bound {name:<16} {b:.2f}  widest spread {widest[name]:.4f}"
              + ("" if steady else "  NOT STEADY: spread exceeds a third of the largest bound"))
    if args.write_bounds:
        for metric in spec["end_to_end"]:
            metric["bound"] = bounds[metric["name"]]
        SPEC_PATH.write_text(json.dumps(spec, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
