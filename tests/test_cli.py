"""CLI surface: file round trips, exit codes, dumps, and byte determinism."""
import json
import math

import pytest

from uavplan.cli import main, scenario_from_dict, scenario_to_dict
from uavplan import generate_scenario


def run_cli(*argv):
    return main(list(argv))


def write_scenario(path, kind="B", variant=0, seed=7, mutate=None):
    scn = generate_scenario(kind, variant, seed)
    doc = scenario_to_dict(scn)
    if mutate:
        mutate(doc)
    path.write_text(json.dumps(doc, indent=2))
    return doc


def test_generate_round_trip(tmp_path):
    out = tmp_path / "scn.json"
    assert run_cli("generate", "--kind", "C", "--variant", "4", "--seed", "3",
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert len(doc["ues"]) == 60
    assert doc["ues"][0]["demand_bps"] == 6.5e6
    scn, params, swarm = scenario_from_dict(doc)
    assert scenario_to_dict(scn) == doc
    assert swarm.seed == scn.seed == 3


def test_generate_matches_library(tmp_path):
    out = tmp_path / "scn.json"
    run_cli("generate", "--kind", "A", "--variant", "0", "--seed", "11", "--out", str(out))
    doc = json.loads(out.read_text())
    lib = generate_scenario("A", 0, 11)
    assert len(doc["ues"]) == len(lib.ues) == 20
    assert doc["ues"][3]["x"] == lib.ues[3].position.x


def test_plan_exit_zero_and_results_schema(tmp_path):
    scn = tmp_path / "scn.json"
    res = tmp_path / "res.json"
    write_scenario(scn)
    assert run_cli("plan", "--scenario", str(scn), "--out", str(res)) == 0
    doc = json.loads(res.read_text())
    assert set(doc) == {"uav_count", "positions", "assoc", "aggregate_bps",
                        "validation", "demand_satisfied_ratio"}
    assert doc["uav_count"] == 1
    assert doc["validation"]["pass"] is True
    assert doc["demand_satisfied_ratio"] == 1.0
    assert len(doc["assoc"]) == 20
    names = {c["name"] for c in doc["validation"]["constraints"]}
    assert names == {"demand_rate", "bandwidth_capacity", "unique_association",
                     "activation_linkage", "binary_variables"}


def test_plan_byte_identical_reruns(tmp_path):
    scn = tmp_path / "scn.json"
    write_scenario(scn)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli("plan", "--scenario", str(scn), "--out", str(r1)) == 0
    assert run_cli("plan", "--scenario", str(scn), "--out", str(r2)) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_plan_seed_override_changes_nothing_feasible(tmp_path):
    # Different seeds may move positions but never break feasibility.
    scn = tmp_path / "scn.json"
    write_scenario(scn, kind="B", variant=3)
    for seed in (1, 2):
        res = tmp_path / f"r{seed}.json"
        assert run_cli("plan", "--scenario", str(scn), "--out", str(res),
                       "--seed", str(seed)) == 0
        assert json.loads(res.read_text())["validation"]["pass"] is True


def test_plan_missing_file_is_io_error(tmp_path):
    assert run_cli("plan", "--scenario", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "r.json")) == 2


def test_plan_unwritable_output_is_io_error(tmp_path):
    scn = tmp_path / "scn.json"
    write_scenario(scn)
    assert run_cli("plan", "--scenario", str(scn),
                   "--out", str(tmp_path / "no_dir" / "r.json")) == 2


def test_plan_unknown_key_is_config_error(tmp_path):
    scn = tmp_path / "scn.json"
    write_scenario(scn, mutate=lambda d: d.update(bogus=1))
    assert run_cli("plan", "--scenario", str(scn), "--out", str(tmp_path / "r.json")) == 4


def test_plan_unknown_channel_key_is_config_error(tmp_path):
    scn = tmp_path / "scn.json"
    write_scenario(scn, mutate=lambda d: d["channel"].update(tx_power=0.1))
    assert run_cli("plan", "--scenario", str(scn), "--out", str(tmp_path / "r.json")) == 4


def test_plan_malformed_json_is_config_error(tmp_path):
    scn = tmp_path / "scn.json"
    scn.write_text("{not json")
    assert run_cli("plan", "--scenario", str(scn), "--out", str(tmp_path / "r.json")) == 4


@pytest.mark.parametrize("mutate", [
    lambda d: d["ues"][0].update(demand_bps=math.nan),
    lambda d: d["ues"][0].update(bandwidth_hz=math.nan),
    lambda d: d.update(b_max_hz=math.inf),
    lambda d: d["policy"].update(fixed_bandwidth_hz=math.nan),
    lambda d: d["policy"].update(grid_hz=math.inf),
    lambda d: d.update(b_max_hz=500.0),  # below one 1 kHz grid step
    lambda d: d["policy"].update(grid_hz="fine"),
], ids=["nan-demand", "nan-ue-bandwidth", "inf-b-max", "nan-fixed-bandwidth",
        "inf-grid", "b-max-below-grid", "text-grid"])
def test_plan_bad_bandwidth_numbers_are_config_errors(tmp_path, mutate):
    scn = tmp_path / "scn.json"
    write_scenario(scn, mutate=mutate)
    assert run_cli("plan", "--scenario", str(scn), "--out", str(tmp_path / "r.json")) == 4


def test_plan_unservable_exit_three(tmp_path):
    scn = tmp_path / "scn.json"

    def crank_demand(doc):
        for ue in doc["ues"]:
            ue["demand_bps"] = 1e12

    write_scenario(scn, mutate=crank_demand)
    assert run_cli("plan", "--scenario", str(scn), "--out", str(tmp_path / "r.json")) == 3


def test_plan_dumps(tmp_path):
    scn = tmp_path / "scn.json"
    write_scenario(scn)
    zones, trace, pool = (tmp_path / n for n in ("z.json", "t.csv", "p.json"))
    assert run_cli(
        "plan", "--scenario", str(scn), "--out", str(tmp_path / "r.json"),
        "--dump-zones", str(zones), "--pso-trace", str(trace), "--dump-pool", str(pool),
    ) == 0
    zdoc = json.loads(zones.read_text())
    assert zdoc and {"members", "witness", "slack_m"} == set(zdoc[0])
    assert trace.read_text().splitlines()[0] == "members,iteration,gbest_fitness_bps,x_m,y_m,z_m"
    pdoc = json.loads(pool.read_text())
    assert pdoc and pdoc[0]["feasible"] is True


def test_plan_baseline_flag(tmp_path):
    scn = tmp_path / "scn.json"
    write_scenario(scn, kind="C", variant=1, seed=5)  # 30 UEs
    res = tmp_path / "r.json"
    assert run_cli("plan", "--scenario", str(scn), "--out", str(res),
                   "--baseline", "fixed-n") == 0
    assert json.loads(res.read_text())["uav_count"] == 3
    assert run_cli("plan", "--scenario", str(scn), "--out", str(res),
                   "--baseline", "fixed-altitude") == 0
    doc = json.loads(res.read_text())
    assert all(p["z"] == 20.0 for p in doc["positions"])


def test_plan_config_override(tmp_path):
    scn = tmp_path / "scn.json"
    cfg = tmp_path / "cfg.json"
    res = tmp_path / "r.json"
    write_scenario(scn)
    cfg.write_text(json.dumps({"policy": {"bandwidth": "fixed"}}))
    assert run_cli("plan", "--scenario", str(scn), "--config", str(cfg),
                   "--out", str(res)) == 0
    # Fixed 20 MHz allocation: 20 UEs cannot share one 160 MHz UAV.
    doc = json.loads(res.read_text())
    assert doc["uav_count"] == 3
    assert all(link["bandwidth_hz"] == 20e6 for link in doc["assoc"])
    cfg.write_text(json.dumps({"policy": {"bandwidth": "fixed"}, "oops": 1}))
    assert run_cli("plan", "--scenario", str(scn), "--config", str(cfg),
                   "--out", str(res)) == 4


def test_sweep_outputs(tmp_path):
    out_dir = tmp_path / "sweep"
    assert run_cli("sweep", "--kind", "A", "--runs", "1", "--base-seed", "3",
                   "--out-dir", str(out_dir)) == 0
    runs = (out_dir / "runs_A.csv").read_text().splitlines()
    assert runs[0] == "scenario,variant,method,run,seed,uav_count,aggregate_bps,demand_satisfied_ratio"
    assert len(runs) == 1 + 6 * 3
    assert (out_dir / "summary_A.csv").exists()
    assert (out_dir / "plot_uav_count_A.csv").exists()
    assert (out_dir / "plot_throughput_A.csv").exists()


def test_sweep_byte_identical(tmp_path):
    d1, d2 = tmp_path / "s1", tmp_path / "s2"
    for d in (d1, d2):
        assert run_cli("sweep", "--kind", "C", "--runs", "1", "--base-seed", "9",
                       "--out-dir", str(d)) == 0
    for name in ("runs_C.csv", "summary_C.csv", "plot_uav_count_C.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
