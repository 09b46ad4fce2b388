"""Generated scenario and config files through ``uavplan plan``: the exit-code contract.

Every document, however malformed, must exit 0, 3 (unservable) or 4
(configuration error), never raise; every exit-0 plan must re-validate
from the written file with no positive residual, and an exit 3 needs a user
whose link straight above it, at the altitude floor (its nadir), misses its
demand, judged by the scalar channel functions. A baseline (``--baseline
fixed-altitude`` or ``fixed-n``) may report demand and capacity violations,
but its exit-0 deployment must still be well formed: consistent counts, one
UAV per UE, binary variables and UAVs inside the box. Sizes stay small (at
most 6 UEs, 64 particles, 200 iterations) so that no draw asks for a large
allocation.
"""
import json
import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from uavplan import (Association, Deployment, Point3, link_rate, min_bandwidth_for_demand,
                     validate_deployment)
from uavplan.cli import _apply_config_overrides, main, scenario_from_dict
from uavplan.scenario import FIXED_BASELINE_ALTITUDE_M

# Values of the wrong JSON type or out of every domain, for any key.
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just([]),
                 st.lists(st.integers(0, 3), min_size=1, max_size=2), st.just({}))
WILD = st.one_of(JUNK, st.floats(allow_nan=True, allow_infinity=True),
                 st.sampled_from([0.0, -1.0, float("nan"), float("inf"), float("-inf")]))


def mostly(plausible, wild=WILD):
    """A plausible value seven times in eight, else a wild one."""
    return st.integers(0, 7).flatmap(lambda k: wild if k == 7 else plausible)


def number(lo, hi):
    return mostly(st.floats(lo, hi))


def count(lo, hi):
    return mostly(st.integers(lo, hi))


def pair(lo, hi):
    """Box bounds: two numbers, possibly out of order, or a list of another length."""
    return mostly(st.lists(number(lo, hi), min_size=2, max_size=2) | st.lists(number(lo, hi)))


def some_of(fields: dict, most: int):
    """A section giving at most ``most`` of its keys, each with a drawn value."""
    keys = st.lists(st.sampled_from(sorted(fields)), max_size=most, unique=True)
    return keys.flatmap(lambda ks: st.fixed_dictionaries({k: fields[k] for k in ks}))


# Several keys of one section can set the same field, so some draws give both
# alternatives of a channel key.
CHANNEL = {
    "carrier_frequency_hz": number(1e8, 1e11),
    "tx_power_dbm": number(-10.0, 40.0),
    "tx_power_w": number(1e-3, 10.0),
    "tx_antenna_gain_dbi": number(-5.0, 10.0),
    "tx_antenna_gain": number(0.1, 10.0),
    "rx_antenna_gain_dbi": number(-5.0, 10.0),
    "rx_antenna_gain": number(0.1, 10.0),
    "noise_floor_dbm": number(-120.0, -60.0),
    "noise_floor_bandwidth_hz": number(1e3, 1e9),
    "noise_spectral_density": number(1e-22, 1e-15),
    "c1": number(1.0, 20.0),
    "c2": number(0.05, 1.0),
    "mu_los_db": number(0.0, 5.0),
    "mu_los": number(1.0, 3.0),
    "mu_nlos_db": number(5.0, 40.0),
    "mu_nlos": number(3.0, 1e4),
    "los_threshold": number(0.05, 0.99),
}
PSO = {
    "particle_count": count(2, 64),
    "max_iterations": count(0, 200),
    "inertia_weight": number(0.0, 1.0),
    "cognitive_coeff": number(0.0, 3.0),
    "social_coeff": number(0.0, 3.0),
}
POLICY = {
    "bandwidth": mostly(st.sampled_from(["demand-fit", "fixed", "other"])),
    "fixed_bandwidth_hz": number(1e5, 1e8),
    "grid_hz": mostly(st.sampled_from([1e-11, 1e-8, 1e-3, 1.0, 1e3, 1e5])),
}
SEED = mostly(st.integers(-2**40, 2**70))
UE = {
    "x": number(0.0, 300.0),
    "y": number(0.0, 300.0),
    "z": number(0.0, 2.0),
    "demand_bps": mostly(st.sampled_from([1e5, 6.5e6, 26e6, 52e6, 1e12]) | st.floats(1e5, 6e7)),
    "bandwidth_hz": number(1e5, 4e7),
}
VENUE = {"x": pair(0.0, 300.0), "y": pair(0.0, 300.0), "z_uav": pair(0.0, 120.0)}
SECTIONS = {
    "seed": SEED,
    "channel": mostly(some_of(CHANNEL, 3)),
    "pso": mostly(some_of(PSO, 3)),
    "policy": mostly(some_of(POLICY, 3)),
}
SCENARIO = {
    **SECTIONS,
    "label": mostly(st.text(max_size=3)),
    "venue": mostly(st.fixed_dictionaries(VENUE), some_of(VENUE, 3)),
    "b_max_hz": number(1e3, 1e9),
    "ues": mostly(st.lists(mostly(st.fixed_dictionaries(
        {k: UE[k] for k in ("x", "y", "demand_bps")},
        optional={k: UE[k] for k in ("z", "bandwidth_hz")}), some_of(UE, 5)), max_size=6)),
}
SKELETON = {
    "seed": 3,
    "venue": {"x": [0.0, 300.0], "y": [0.0, 300.0], "z_uav": [10.0, 100.0]},
    "ues": [{"x": 60.0, "y": 80.0, "demand_bps": 6.5e6},
            {"x": 240.0, "y": 220.0, "demand_bps": 26e6}],
}
# Mostly a valid skeleton with a few parts redrawn, so that many draws reach
# the planner; else any subset of the keys and an unknown one.
DOCUMENTS = mostly(some_of(SCENARIO, 3).map(lambda drawn: {**SKELETON, **drawn}),
                   some_of({**SCENARIO, "bogus": st.integers()}, len(SCENARIO) + 1))
CONFIGS = st.none() | mostly(some_of(SECTIONS, 2), some_of({**SECTIONS, "bogus": st.integers()}, 5))


# The checks that hold for any deployment the CLI writes, baselines included.
STRUCTURAL = {"shape_agreement", "unique_association", "binary_variables", "position_in_box",
              "pinned_width"}


# Three users on a 500 m venue at 52 Mbit/s over pinned 20 MHz links, on a
# flat 120 m box: the 0.9-LoS ball (107.6 m) misses the box, but each nadir
# link reaches 320 m, so the plan must not exit 3.
FLAT_BOX_AT_REACH = {
    "seed": 3,
    "venue": {"x": [0.0, 500.0], "y": [0.0, 500.0], "z_uav": [120.0, 120.0]},
    "policy": {"bandwidth": "fixed", "fixed_bandwidth_hz": 20e6},
    "ues": [{"x": 100.0, "y": 100.0, "demand_bps": 52e6},
            {"x": 250.0, "y": 400.0, "demand_bps": 52e6},
            {"x": 420.0, "y": 150.0, "demand_bps": 52e6}],
}


def load(scenario_path, config_path):
    """The scenario and channel that ``uavplan plan`` reads from the written files."""
    scenario, params, swarm = scenario_from_dict(json.loads(scenario_path.read_text()))
    if config_path is not None:
        scenario, params, swarm = _apply_config_overrides(config_path, scenario, params, swarm)
    return scenario, params


def misses_at_its_nadir(scenario, params, ue, pin, floor) -> bool:
    """Whether the UE's link straight above it at altitude ``floor`` misses its demand.

    A demand-fit link is fitted within ``b_max_hz``; a pinned one keeps ``pin``.
    """
    nadir = Point3(ue.position.x, ue.position.y, floor)
    if math.isnan(pin):
        return min_bandwidth_for_demand(ue.position, nadir, ue.demand_bps, params,
                                        scenario.b_max_hz, scenario.bandwidth_grid_hz) is None
    return link_rate(ue.position, nadir, pin, params) < ue.demand_bps


def revalidate(result: dict, scenario_path, config_path, checks=None) -> None:
    """Rebuild the deployment from the written file and check it from scratch.

    ``checks`` names the checks that must pass; all of them when None.
    """
    scenario, params = load(scenario_path, config_path)
    n_ues, n_uavs = len(scenario.ues), result["uav_count"]
    z = np.zeros((n_ues, n_uavs), dtype=np.int8)
    bandwidth, rate = np.zeros(n_ues), np.zeros(n_ues)
    for link in result["assoc"]:
        z[link["ue"], link["uav"]] = 1
        bandwidth[link["ue"]], rate[link["ue"]] = link["bandwidth_hz"], link["rate_bps"]
    deployment = Deployment(
        uav_positions=np.array([[p["x"], p["y"], p["z"]] for p in result["positions"]],
                               dtype=float).reshape(-1, 3),
        association=Association(z=z, a=np.ones(n_uavs, dtype=np.int8)),
        link_bandwidth_hz=bandwidth, link_rate_bps=rate,
        uav_count=n_uavs,
    )
    report = validate_deployment(deployment, scenario, params)
    checked = [c for c in report.checks if checks is None or c.name in checks]
    assert len(checked) == len(checks or report.checks), report.checks
    assert all(c.residual <= 0 for c in checked), report.checks


def plan_file(tmp_path, doc, config, *options) -> None:
    """``uavplan plan`` of the written documents: exit 0, 3 or 4, an exit-0 result re-checked,
    and an exit 3 explained by a user whose nadir link misses its demand."""
    scenario_path, result_path = tmp_path / "scn.json", tmp_path / "res.json"
    scenario_path.write_text(json.dumps(doc))
    argv = ["plan", "--scenario", str(scenario_path), "--out", str(result_path), *options]
    config_path = None
    if config is not None:
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        argv += ["--config", str(config_path)]
    result_path.unlink(missing_ok=True)
    code = main(argv)
    assert code in (0, 3, 4)
    if code == 0:
        revalidate(json.loads(result_path.read_text()), scenario_path, config_path,
                   STRUCTURAL if options else None)
    if code == 3:
        scenario, params = load(scenario_path, config_path)
        floor, ceiling = scenario.venue.z
        if "fixed-altitude" in options:  # the baseline flies at one altitude of the band
            floor = min(max(FIXED_BASELINE_ALTITUDE_M, floor), ceiling)
        assert any(misses_at_its_nadir(scenario, params, ue, pin, floor)
                   for ue, pin in zip(scenario.ues, scenario.pinned_widths_hz.tolist()))


SETTINGS = dict(derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])


@settings(max_examples=300, **SETTINGS)
@given(doc=DOCUMENTS, config=CONFIGS)
@example(doc=FLAT_BOX_AT_REACH, config=None)
def test_plan_exits_within_the_contract_on_generated_files(tmp_path, doc, config):
    plan_file(tmp_path, doc, config)


@settings(max_examples=100, **SETTINGS)
@given(doc=DOCUMENTS, config=CONFIGS, baseline=st.sampled_from(["fixed-altitude", "fixed-n"]))
@example(doc=FLAT_BOX_AT_REACH, config=None, baseline="fixed-altitude")
def test_baselines_exit_within_the_contract_on_generated_files(tmp_path, doc, config, baseline):
    plan_file(tmp_path, doc, config, "--baseline", baseline)
