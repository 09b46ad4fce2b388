"""Traced run: spans around the public calls into each layer, and the per-layer metrics.

``Tracer`` replaces each name in ``WRAPPED`` on the module where its caller
looks it up, records one span per call (name, start, end, parent span, op id)
in memory, and puts every original back when it exits. Nothing is wrapped
outside a ``with Tracer():`` block, so the untraced run calls the library
directly. A span is named after the module that defines the function, which
is its layer: ``uavplan.planner.zone_witness`` records ``coverage.zone_witness``.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

# (module the caller looks the name up in, name). The benchmark itself calls
# plan_deployment and validate_deployment through uavplan.planner, and
# run_baseline and evaluate_throughput through uavplan.scenario.
WRAPPED = (
    ("uavplan.planner", "plan_deployment"),
    ("uavplan.planner", "validate_deployment"),
    ("uavplan.planner", "build_spheres"),
    ("uavplan.planner", "enumerate_zones"),
    ("uavplan.planner", "minimal_zone_cover"),
    ("uavplan.planner", "cover_assignment"),
    ("uavplan.planner", "optimize_position"),
    ("uavplan.planner", "split_zone"),
    ("uavplan.planner", "zone_witness"),
    ("uavplan.coverage", "zone_witness"),
    ("uavplan.scenario", "plan_deployment"),
    ("uavplan.scenario", "optimize_position"),
    ("uavplan.scenario", "run_baseline"),
    ("uavplan.scenario", "evaluate_throughput"),
    ("uavplan.channel", "gain_kernel"),
)

LAYERS = ("coverage", "positioning", "channel", "planner", "scenario")

# Covers with more zones than this skip the exact solver (coverage.minimal_zone_cover).
GREEDY_COVER_ZONES = 20


def _zones_info(args, kwargs, result):
    return len(result)


def _cover_info(args, kwargs, result):
    zones = args[0] if args else kwargs["zones"]
    return len(result), len(zones)


def _pso_info(args, kwargs, result):
    return result.iterations, result.feasible


def _kernel_info(args, kwargs, result):
    return int(np.broadcast(args[0], args[1]).size)


def _plan_info(args, kwargs, result):
    return result.uav_count


# Result facts recorded with a span, by span name; recorded only when the call returns.
INFO = {
    "coverage.enumerate_zones": _zones_info,
    "coverage.minimal_zone_cover": _cover_info,
    "positioning.optimize_position": _pso_info,
    "channel.gain_kernel": _kernel_info,
    "planner.plan_deployment": _plan_info,
}


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int
    info: object = None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class Tracer:
    """Context manager that wraps ``WRAPPED`` and collects spans in memory."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.op = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self):
        try:
            for module_name, attr in WRAPPED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                self._originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        info = INFO.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            start = time.perf_counter_ns()
            result = done = None
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                facts = info(args, kwargs, result) if info and done else None
                spans[sid] = Span(name, start, end, parent, self.op, facts)

        return wrapper

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                    "parent": s.parent, "op": s.op,
                }) + "\n")


def self_seconds(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls run on one thread, so children of one span never overlap and their
    durations add up.
    """
    own = [s.end_ns - s.start_ns for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end_ns - s.start_ns
    return [ns * 1e-9 for ns in own]


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit)."""
    own = self_seconds(spans)
    by_name = defaultdict(list)
    for sid, s in enumerate(spans):
        by_name[s.name].append(sid)

    def total_s(name):
        return sum(spans[i].seconds for i in by_name[name])

    def infos(name):
        return [spans[i].info for i in by_name[name] if spans[i].info is not None]

    # The validator is timed on its own (planner.validate_s), so planner.self_s
    # is the planning logic only: plan_deployment and split_zone minus children.
    layer_self = defaultdict(float)
    for s, t in zip(spans, own):
        if s.name != "planner.validate_deployment":
            layer_self[s.name.split(".", 1)[0]] += t

    covers = infos("coverage.minimal_zone_cover")
    pso = infos("positioning.optimize_position")
    pso_calls = len(by_name["positioning.optimize_position"])
    cover_size_in = defaultdict(int)
    for i in by_name["coverage.minimal_zone_cover"]:
        if spans[i].info is not None and spans[i].parent is not None:
            cover_size_in[spans[i].parent] += spans[i].info[0]
    gap = sum(
        spans[i].info - cover_size_in[i]
        for i in by_name["planner.plan_deployment"] if spans[i].info is not None
    )

    out = {
        "coverage.zones_s": (total_s("coverage.enumerate_zones"), "s"),
        "coverage.witness_calls": (len(by_name["coverage.zone_witness"]), "count"),
        "coverage.witness_s": (total_s("coverage.zone_witness"), "s"),
        "coverage.zone_count": (sum(infos("coverage.enumerate_zones")), "count"),
        "coverage.cover_s": (
            total_s("coverage.minimal_zone_cover") + total_s("coverage.cover_assignment"), "s"),
        "coverage.cover_size": (sum(size for size, _ in covers), "count"),
        "coverage.cover_greedy": (sum(1 for _, n in covers if n > GREEDY_COVER_ZONES), "count"),
        "positioning.pso_calls": (pso_calls, "count"),
        "positioning.pso_s": (total_s("positioning.optimize_position"), "s"),
        "positioning.pso_iterations": (sum(it for it, _ in pso), "count"),
        "positioning.pso_feasible_ratio": (
            sum(1 for _, ok in pso if ok) / pso_calls if pso_calls else 0.0, "ratio"),
        "channel.kernel_calls": (len(by_name["channel.gain_kernel"]), "count"),
        "channel.link_evals": (sum(infos("channel.gain_kernel")), "count"),
        "planner.split_calls": (len(by_name["planner.split_zone"]), "count"),
        "planner.uav_gap": (gap, "count"),
        "planner.validate_s": (total_s("planner.validate_deployment"), "s"),
        "scenario.baseline_s": (
            sum(own[i] for i in by_name["scenario.run_baseline"]), "s"),
        "scenario.throughput_s": (total_s("scenario.evaluate_throughput"), "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer], "s")
    return out
