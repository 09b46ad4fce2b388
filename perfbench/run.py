"""Planner benchmark entry point.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Prints every metric by name with its unit,
then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Exits 1 when any
operation raised or produced a wrong plan, 2 when the checkout has no sources.
"""
import argparse
import json
import os
import statistics
import sys
import time

_T0 = time.perf_counter()  # set-up time counts from here: imports and instance generation
# Imports happen once per process; instance generation is repeated and its
# median counted.
SETUP_REPEATS = 5

# One thread for BLAS and OpenMP, fixed before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import harness
        import workloads
    except SystemExit as exc:  # the checkout has no sources to benchmark
        print(exc, file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    import_s = time.perf_counter() - _T0
    generate_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = workload.make_pass(args.seed)
        generate_s.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(generate_s)

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} pass_ops={len(ops)}")
    print(f"# env {harness.environment(args.seed)}")
    if args.trace:
        run = harness.measure_traced(workload, ops)
        metrics = harness.traced_metrics(run)
        path = workloads.ROOT / "perfbench" / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        run.tracer.write(path)
        extra = [f"# spans written to {path.relative_to(workloads.ROOT)}"]
    else:
        run = harness.measure(ops, args.seconds)
        metrics = harness.end_to_end(run, setup_s)
        extra = [f"# passes={run.passes} wall-clock setup_s={setup_s:.4f} "
                 f"import_s={import_s:.4f} generate_s={[round(s, 4) for s in generate_s]}"]

    for r in run.failures:
        print(f"FAIL {r.label}: {r.error}", file=sys.stderr)
    for line in harness.report_lines(run, metrics) + extra:
        print(line)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": len(run.results),
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
