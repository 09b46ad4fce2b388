"""Command-line front end: scenario files in, plans/validations/sweeps out.

Exit codes are a stable contract: 0 success, 2 I/O failure, 3 unservable
scenario, 4 configuration/schema error, 5 every run of a sweep failed.
All numbers are SI (Hz, W, m, bit/s) except explicitly suffixed dBm/dBi/dB
keys, which are converted on load.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .channel import ChannelParams, db_to_linear, dbm_to_watt
from .coverage import UnservableError, build_spheres, enumerate_zones
from .geometry import FeasibleBox, Point3
from .planner import CapacityDeadlockError, plan_deployment, validate_deployment
from .positioning import SwarmConfig
from .scenario import (
    METHODS,
    UE,
    BaselineKind,
    ConfigError,
    Scenario,
    demand_satisfaction_ratio,
    evaluate_throughput,
    generate_scenario,
    run_baseline,
    run_experiment,
)

EXIT_OK = 0
EXIT_IO = 2
EXIT_UNSERVABLE = 3
EXIT_CONFIG = 4
EXIT_ALL_RUNS_FAILED = 5


# What converting a malformed JSON value raises: ``int([1])``, ``float("x")``,
# ``int(float("inf"))``, ``10.0 ** 1e4``, a zero noise bandwidth.
_CAST_ERRORS = (TypeError, ValueError, ArithmeticError)


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def _from_db(db) -> float:
    return db_to_linear(float(db))


def _from_dbm(dbm) -> float:
    return dbm_to_watt(float(dbm))


def _integer(value) -> int:
    """A JSON integer as given: ``int()`` would truncate 30.9 and read ``true`` as 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _noise_floor(dbm, bandwidth_hz=20e6) -> float:
    """Noise spectral density of a floor of ``dbm`` over ``bandwidth_hz``."""
    return dbm_to_watt(float(dbm)) / float(bandwidth_hz)


# Section name -> (what it builds, its key -> (field, conversion) table).
# Keys that set the same field are alternatives: a section gives at most
# one. A tuple of keys is one entry whose conversion takes the first key's
# value and then those of the others the section gives; the others mean
# nothing alone.
_SECTIONS = {
    "channel": (ChannelParams, {
        "carrier_frequency_hz": ("carrier_frequency_hz", float),
        "tx_power_dbm": ("tx_power_w", _from_dbm),
        "tx_power_w": ("tx_power_w", float),
        "tx_antenna_gain_dbi": ("tx_antenna_gain", _from_db),
        "tx_antenna_gain": ("tx_antenna_gain", float),
        "rx_antenna_gain_dbi": ("rx_antenna_gain", _from_db),
        "rx_antenna_gain": ("rx_antenna_gain", float),
        ("noise_floor_dbm", "noise_floor_bandwidth_hz"): ("noise_spectral_density", _noise_floor),
        "noise_spectral_density": ("noise_spectral_density", float),
        "c1": ("c1", float),
        "c2": ("c2", float),
        "mu_los_db": ("mu_los", _from_db),
        "mu_los": ("mu_los", float),
        "mu_nlos_db": ("mu_nlos", _from_db),
        "mu_nlos": ("mu_nlos", float),
        "los_threshold": ("los_threshold", float),
    }),
    "pso": (SwarmConfig, {
        "particle_count": ("particle_count", _integer),
        "max_iterations": ("max_iterations", _integer),
        "inertia_weight": ("inertia_weight", float),
        "cognitive_coeff": ("cognitive_coeff", float),
        "social_coeff": ("social_coeff", float),
        "early_stop_patience": ("early_stop_patience", _integer),
    }),
    # Scenario field values; absent keys are left out.
    "policy": (dict, {
        "bandwidth": ("bandwidth_policy", str),
        "fixed_bandwidth_hz": ("fixed_bandwidth_hz", float),
        "grid_hz": ("bandwidth_grid_hz", float),
    }),
}


def parse_section(name: str, section):
    """Build what the ``name`` section of a scenario or config file sets."""
    build, table = _SECTIONS[name]
    where = f"{name} section"
    entries = [((keys,) if isinstance(keys, str) else keys, field, convert)
               for keys, (field, convert) in table.items()]
    _require_keys(section, {k for keys, _, _ in entries for k in keys}, where)
    given: dict = {}  # field -> the entry's first key, which the section gives
    values: dict = {}  # field -> its converted value
    for keys, field, convert in entries:
        present = [k for k in keys if k in section]
        if not present:
            continue
        if present[0] != keys[0]:
            raise ConfigError(f"{', '.join(present)} needs {keys[0]!r} in the {where}")
        if field in given:
            raise ConfigError(f"give {given[field]!r} or {keys[0]!r} in the {where}, not both")
        given[field] = keys[0]
        try:
            values[field] = convert(*(section[k] for k in present))
        except _CAST_ERRORS as exc:
            raise ConfigError(f"invalid {keys[0]!r} in the {where}: {exc}") from exc
    try:
        return build(**values)
    except _CAST_ERRORS as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _cast(cast, value, where: str):
    try:
        return cast(value)
    except _CAST_ERRORS as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def scenario_from_dict(doc: dict) -> tuple[Scenario, ChannelParams, SwarmConfig]:
    _require_keys(doc, {"label", "seed", "venue", "b_max_hz", "ues", "channel", "pso", "policy"},
                  "scenario document")
    for key in ("seed", "venue", "ues"):
        if key not in doc:
            raise ConfigError(f"scenario document is missing {key!r}")
    venue_doc = doc["venue"]
    _require_keys(venue_doc, {"x", "y", "z_uav"}, "venue section")
    try:
        venue = FeasibleBox(
            x=(float(venue_doc["x"][0]), float(venue_doc["x"][1])),
            y=(float(venue_doc["y"][0]), float(venue_doc["y"][1])),
            z=(float(venue_doc["z_uav"][0]), float(venue_doc["z_uav"][1])),
        )
    except (KeyError, IndexError, *_CAST_ERRORS) as exc:
        raise ConfigError(f"invalid venue section: {exc}") from exc

    if not isinstance(doc["ues"], list):
        raise ConfigError("ues must be a JSON list")
    ues = []
    for n, ue_doc in enumerate(doc["ues"]):
        _require_keys(ue_doc, {"x", "y", "z", "demand_bps", "bandwidth_hz"}, f"ues[{n}]")
        try:
            ues.append(UE(
                position=Point3(float(ue_doc["x"]), float(ue_doc["y"]), float(ue_doc.get("z", 0.0))),
                demand_bps=float(ue_doc["demand_bps"]),
                bandwidth_hz=float(ue_doc["bandwidth_hz"]) if "bandwidth_hz" in ue_doc else None,
            ))
        except (KeyError, *_CAST_ERRORS) as exc:
            raise ConfigError(f"invalid ues[{n}]: {exc}") from exc

    scenario = Scenario(
        label=str(doc.get("label", "")),
        seed=_cast(_integer, doc["seed"], "seed"),
        venue=venue,
        ues=tuple(ues),
        b_max_hz=_cast(float, doc.get("b_max_hz", 160e6), "b_max_hz"),
        **parse_section("policy", doc.get("policy", {})),
    )
    scenario.validate()
    return (scenario, parse_section("channel", doc.get("channel", {})),
            parse_section("pso", doc.get("pso", {})))


def scenario_to_dict(scenario: Scenario) -> dict:
    doc = {
        "label": scenario.label,
        "seed": scenario.seed,
        "venue": {
            "x": [scenario.venue.x[0], scenario.venue.x[1]],
            "y": [scenario.venue.y[0], scenario.venue.y[1]],
            "z_uav": [scenario.venue.z[0], scenario.venue.z[1]],
        },
        "b_max_hz": scenario.b_max_hz,
        "ues": [
            {
                "x": ue.position.x, "y": ue.position.y, "z": ue.position.z,
                "demand_bps": ue.demand_bps,
                **({} if ue.bandwidth_hz is None else {"bandwidth_hz": ue.bandwidth_hz}),
            }
            for ue in scenario.ues
        ],
        "channel": {},
        "pso": {},
        "policy": {
            "bandwidth": scenario.bandwidth_policy,
            "fixed_bandwidth_hz": scenario.fixed_bandwidth_hz,
            "grid_hz": scenario.bandwidth_grid_hz,
        },
    }
    return doc


def _apply_config_overrides(path, scenario, params, swarm):
    doc = _load_json(path)
    _require_keys(doc, {*_SECTIONS, "seed"}, "config document")
    if "channel" in doc:
        params = parse_section("channel", doc["channel"])
    if "seed" in doc:
        scenario = replace(scenario, seed=_cast(_integer, doc["seed"], "seed"))
    if "pso" in doc:
        swarm = parse_section("pso", doc["pso"])
    if "policy" in doc:
        scenario = replace(scenario, **parse_section("policy", doc["policy"]))
        scenario.validate()
    return scenario, params, swarm


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise _IOFailure(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


class _IOFailure(Exception):
    pass


def _write_text(path, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IOFailure(f"cannot write {path}: {exc}") from exc


def _dump_json(path, obj) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def deployment_to_dict(deployment, report) -> dict:
    assoc = [
        {
            "ue": int(i),
            "uav": int(k),
            "bandwidth_hz": float(deployment.link_bandwidth_hz[i]),
            "rate_bps": float(deployment.link_rate_bps[i]),
        }
        for i, k in np.argwhere(np.asarray(deployment.association.z) == 1)
    ]
    return {
        "uav_count": deployment.uav_count,
        "positions": [{"x": p.x, "y": p.y, "z": p.z} for p in deployment.uav_positions],
        "assoc": assoc,
        "aggregate_bps": deployment.aggregate_bps,
        "validation": {
            "pass": report.passed,
            "constraints": [
                {"name": c.name, "residual": c.residual, "pass": c.passed}
                for c in report.checks
            ],
        },
    }


def cmd_generate(args) -> int:
    scenario = generate_scenario(args.kind, args.variant, args.seed)
    _dump_json(args.out, scenario_to_dict(scenario))
    return EXIT_OK


def cmd_plan(args) -> int:
    scenario, params, swarm = scenario_from_dict(_load_json(args.scenario))
    if args.config:
        scenario, params, swarm = _apply_config_overrides(args.config, scenario, params, swarm)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)

    if args.dump_zones:
        spheres = build_spheres(scenario, params)
        zones = enumerate_zones(spheres, scenario.venue)
        _dump_json(args.dump_zones, [
            {
                "members": list(zone.members),
                "witness": {"x": zone.witness.x, "y": zone.witness.y, "z": zone.witness.z},
                "slack_m": zone.slack,
            }
            for zone in zones
        ])

    pool: list | None = [] if args.dump_pool else None
    trace: list | None = [] if args.pso_trace else None
    if args.baseline:
        kind = BaselineKind(args.baseline)
        deployment = run_baseline(kind, scenario, params, swarm)
    else:
        deployment = plan_deployment(scenario, params, swarm, pool=pool, trace=trace)

    report = validate_deployment(deployment, scenario, params)
    aggregate, delivered = evaluate_throughput(deployment, scenario, params)
    doc = deployment_to_dict(deployment, report)
    doc["aggregate_bps"] = aggregate
    doc["demand_satisfied_ratio"] = demand_satisfaction_ratio(delivered, scenario)
    _dump_json(args.out, doc)

    if args.dump_pool and pool is not None:
        _dump_json(args.dump_pool, [
            {
                "members": list(members),
                "position": {"x": s.uav_position.x, "y": s.uav_position.y, "z": s.uav_position.z},
                "fitness_bps": s.fitness,
                "feasible": s.feasible,
            }
            for members, s in pool
        ])
    if args.pso_trace and trace is not None:
        lines = ["members,iteration,gbest_fitness_bps,x_m,y_m,z_m"]
        for members, rows in trace:
            tag = "|".join(str(m) for m in members)
            for it, val, pos in rows:
                lines.append(",".join([tag, str(it), *(repr(float(v)) for v in (val, *pos))]))
        _write_text(args.pso_trace, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    sections = {}
    if args.config:
        doc = _load_json(args.config)
        _require_keys(doc, set(_SECTIONS), "sweep config (seeds come from --base-seed)")
        sections = {name: parse_section(name, doc[name]) for name in doc}

    table = run_experiment(
        args.kind, sections.get("channel", ChannelParams()), sections.get("pso", SwarmConfig()),
        n_runs=args.runs, base_seed=args.base_seed, scenario_overrides=sections.get("policy"),
    )
    import os

    try:
        os.makedirs(args.out_dir, exist_ok=True)
        table.write_csv(os.path.join(args.out_dir, f"runs_{table.kind}.csv"))
        table.write_summary_csv(os.path.join(args.out_dir, f"summary_{table.kind}.csv"))
        _write_plot_data(table, args.out_dir)
    except OSError as exc:
        raise _IOFailure(str(exc)) from exc

    for r in table.rows:
        if r.error:
            print(f"failed: {r.scenario} variant {r.variant:g} {r.method} run {r.run}: {r.error}",
                  file=sys.stderr)
    if all(r.error for r in table.rows):
        print("every run failed", file=sys.stderr)
        return EXIT_ALL_RUNS_FAILED
    return EXIT_OK


def _write_plot_data(table, out_dir) -> None:
    """Per-figure CSVs: mean UAV count and mean throughput per variant/method."""
    import os

    summary = table.summary()
    variants = sorted({row["variant"] for row in summary})
    for metric, fname in (
        ("uav_count_mean", f"plot_uav_count_{table.kind}.csv"),
        ("aggregate_bps_mean", f"plot_throughput_{table.kind}.csv"),
    ):
        lines = ["variant," + ",".join(METHODS)]
        for v in variants:
            cells = []
            for m in METHODS:
                hit = [r for r in summary if r["variant"] == v and r["method"] == m]
                cells.append(repr(hit[0][metric]) if hit else "nan")
            lines.append(f"{v!r}," + ",".join(cells))
        _write_text(os.path.join(out_dir, fname), "\n".join(lines) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavplan",
        description="Plan minimum-count UAV access point deployments for ground traffic demands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a scenario file for a published family")
    gen.add_argument("--kind", required=True, choices=["A", "B", "C"])
    gen.add_argument("--variant", required=True, type=int)
    gen.add_argument("--seed", required=True, type=int)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    plan = sub.add_parser("plan", help="plan a deployment for a scenario file")
    plan.add_argument("--scenario", required=True)
    plan.add_argument("--config", default=None)
    plan.add_argument("--out", required=True)
    plan.add_argument("--seed", type=int, default=None)
    plan.add_argument("--baseline", choices=[k.value for k in BaselineKind], default=None)
    plan.add_argument("--dump-zones", default=None, metavar="PATH")
    plan.add_argument("--pso-trace", default=None, metavar="PATH")
    plan.add_argument("--dump-pool", default=None, metavar="PATH")
    plan.set_defaults(func=cmd_plan)

    sweep = sub.add_parser("sweep", help="run a seeded experiment sweep to CSV")
    sweep.add_argument("--kind", required=True, choices=["A", "B", "C"])
    sweep.add_argument("--config", default=None)
    sweep.add_argument("--runs", type=int, default=30)
    sweep.add_argument("--base-seed", type=int, default=0)
    sweep.add_argument("--out-dir", required=True)
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _IOFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnservableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSERVABLE
    except (ConfigError, CapacityDeadlockError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
