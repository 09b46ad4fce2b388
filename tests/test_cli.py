"""CLI surface: file round trips, exit codes, dumps, and byte determinism."""
import json
import math

import pytest

from uavplan.cli import main, scenario_from_dict, scenario_to_dict
from uavplan import (BaselineKind, ChannelParams, Point3, SwarmConfig, generate_scenario, link_rate,
                     run_baseline)
from uavplan.positioning import ENDINGS
from uavplan.scenario import FIXED_BASELINE_GROUP_SIZE, _proximity_groups


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
    assert scn.seed == 3 and swarm == SwarmConfig()


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
                     "activation_linkage", "binary_variables", "position_in_box",
                     "shape_agreement", "pinned_width"}


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
    lambda d: d.update(venue=[1, 2]),
    lambda d: d.update(channel=[1]),
    lambda d: d.update(ues=5),
    lambda d: d.update(pso={"particle_count": "abc"}),
    lambda d: d.update(seed="x"),
    lambda d: d.update(b_max_hz="x"),
    lambda d: d.update(channel={"c1": "x"}),
    lambda d: d["policy"].update(grid_hz=1e-11),  # 1.6e19 steps overflow the grid index
], ids=["nan-demand", "nan-ue-bandwidth", "inf-b-max", "nan-fixed-bandwidth",
        "inf-grid", "b-max-below-grid", "text-grid", "list-venue", "list-channel",
        "int-ues", "text-particle-count", "text-seed", "text-b-max", "text-c1",
        "overflowing-grid"])
def test_plan_bad_bandwidth_numbers_are_config_errors(tmp_path, mutate):
    scn = tmp_path / "scn.json"
    write_scenario(scn, mutate=mutate)
    assert run_cli("plan", "--scenario", str(scn), "--out", str(tmp_path / "r.json")) == 4


@pytest.mark.parametrize("pso", [
    {"max_iterations": -5},
    {"early_stop_patience": 5},
    {"cognitive_coeff": -1.0},
    {"social_coeff": math.nan},
    {"cognitive_coeff": math.inf},
    {"position_precision_m": 1.0},
], ids=["negative-iterations", "removed-patience", "negative-cognitive", "nan-social",
        "inf-cognitive", "removed-precision"])
def test_plan_bad_pso_numbers_are_config_errors(tmp_path, pso):
    scn = tmp_path / "scn.json"
    write_scenario(scn, mutate=lambda d: d.update(pso=pso))
    assert run_cli("plan", "--scenario", str(scn), "--out", str(tmp_path / "r.json")) == 4


@pytest.mark.parametrize("channel", [
    {"c1": math.nan},
    {"c2": math.inf},
    {"carrier_frequency_hz": math.nan},
    {"mu_nlos": math.nan},
    {"mu_los": math.inf},
    {"tx_power_w": math.inf},
    {"tx_antenna_gain": math.nan},
    {"rx_antenna_gain": math.inf},
    {"noise_spectral_density": math.inf},
    {"los_threshold": math.nan},
], ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items()))
def test_plan_non_finite_channel_constants_are_config_errors(tmp_path, capsys, channel):
    # NaN passes every "<= 0" check, so these planned as unservable (exit 3).
    scn = tmp_path / "scn.json"
    write_scenario(scn, kind="A", variant=5, seed=3, mutate=lambda d: d.update(channel=channel))
    assert run_cli("plan", "--scenario", str(scn), "--out", str(tmp_path / "r.json")) == 4
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("channel", [
    {"tx_antenna_gain": -1.0},
    {"rx_antenna_gain": 0.0},
    {"tx_antenna_gain_dbi": -math.inf},
], ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items()))
def test_plan_non_positive_antenna_gains_are_config_errors(tmp_path, capsys, channel):
    # A negative gain planned without end: the demand fit walked its grid
    # index up from the int64 minimum one step at a time.
    scn = tmp_path / "scn.json"
    write_scenario(scn, kind="A", variant=5, seed=3, mutate=lambda d: d.update(channel=channel))
    assert run_cli("plan", "--scenario", str(scn), "--out", str(tmp_path / "r.json")) == 4
    assert "antenna gains must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("where, key, value", [
    ("pso", "particle_count", 30.9),
    ("pso", "particle_count", 30.0),
    ("pso", "max_iterations", True),
    ("pso", "max_iterations", "10"),
    ("pso", "particle_count", False),
    ("scenario", "seed", 3.0),
    ("scenario", "seed", True),
    ("config", "seed", 7.5),
    ("config", "seed", False),
], ids=lambda v: str(v))
def test_plan_counts_and_seeds_must_be_json_integers(tmp_path, capsys, where, key, value):
    # int() truncated 30.9 and read true as 1: such files planned and exited 0.
    scn, cfg = tmp_path / "scn.json", tmp_path / "cfg.json"
    doc = write_scenario(scn, kind="A", variant=5, seed=3)
    argv = ["plan", "--scenario", str(scn), "--out", str(tmp_path / "r.json")]
    if where == "pso":
        doc["pso"] = {key: value}
    elif where == "scenario":
        doc[key] = value
    else:
        cfg.write_text(json.dumps({key: value}))
        argv += ["--config", str(cfg)]
    scn.write_text(json.dumps(doc))
    assert run_cli(*argv) == 4
    assert key in capsys.readouterr().err


def test_plan_integer_counts_and_seed_still_plan(tmp_path):
    scn = tmp_path / "scn.json"
    write_scenario(scn, kind="A", variant=5, seed=3, mutate=lambda d: d.update(
        seed=2**40, pso={"particle_count": 8, "max_iterations": 20}))
    assert run_cli("plan", "--scenario", str(scn), "--out", str(tmp_path / "r.json")) == 0


# Each channel key with the bits it parses to; a key and its alternative
# (dBm or W, dBi or linear, dB or linear, a noise floor or a density) set
# the same field.
@pytest.mark.parametrize("section, field, bits", [
    ({"carrier_frequency_hz": 2.4e9}, "carrier_frequency_hz", "0x1.1e1a300000000p+31"),
    ({"tx_power_dbm": 23}, "tx_power_w", "0x1.98a13577c93c0p-3"),
    ({"tx_power_w": 0.2}, "tx_power_w", "0x1.999999999999ap-3"),
    ({"tx_antenna_gain_dbi": 3}, "tx_antenna_gain", "0x1.fec982d5bb8afp+0"),
    ({"tx_antenna_gain": 2.5}, "tx_antenna_gain", "0x1.4000000000000p+1"),
    ({"rx_antenna_gain_dbi": 2}, "rx_antenna_gain", "0x1.95bb8f6d46053p+0"),
    ({"rx_antenna_gain": 1.5}, "rx_antenna_gain", "0x1.8000000000000p+0"),
    ({"noise_floor_dbm": -90}, "noise_spectral_density", "0x1.d83c94fb6d2acp-65"),
    ({"noise_floor_dbm": -90, "noise_floor_bandwidth_hz": 40e6}, "noise_spectral_density",
     "0x1.d83c94fb6d2acp-66"),
    ({"noise_spectral_density": 1e-20}, "noise_spectral_density", "0x1.79ca10c924223p-67"),
    ({"c1": 11.95}, "c1", "0x1.7e66666666666p+3"),
    ({"c2": 0.136}, "c2", "0x1.16872b020c49cp-3"),
    ({"mu_los_db": 1.6}, "mu_los", "0x1.7208573fb105ep+0"),
    ({"mu_los": 1.5}, "mu_los", "0x1.8000000000000p+0"),
    ({"mu_nlos_db": 23}, "mu_nlos", "0x1.8f0d6e36fa846p+7"),
    ({"mu_nlos": 150}, "mu_nlos", "0x1.2c00000000000p+7"),
    ({"los_threshold": 0.8}, "los_threshold", "0x1.999999999999ap-1"),
], ids=lambda v: "+".join(v) if isinstance(v, dict) else None)
def test_channel_keys_parse_to_pinned_bits(section, field, bits):
    doc = scenario_to_dict(generate_scenario("B", 0, 7))
    doc["channel"] = section
    _, params, _ = scenario_from_dict(doc)
    assert getattr(params, field).hex() == bits


@pytest.mark.parametrize("section", [
    {"tx_power_dbm": 20, "tx_power_w": 0.1},
    {"tx_antenna_gain_dbi": 0, "tx_antenna_gain": 1.0},
    {"rx_antenna_gain_dbi": 0, "rx_antenna_gain": 1.0},
    {"mu_los_db": 1, "mu_los": 1.3},
    {"mu_nlos_db": 20, "mu_nlos": 100.0},
    {"noise_floor_dbm": -85, "noise_spectral_density": 1e-20},
    {"noise_floor_bandwidth_hz": 20e6},
    {"noise_floor_bandwidth_hz": 20e6, "noise_spectral_density": 1e-20},
], ids=["tx-power", "tx-gain", "rx-gain", "mu-los", "mu-nlos", "noise", "orphan-noise-bandwidth",
        "noise-bandwidth-with-density"])
def test_plan_both_alternatives_or_an_orphan_noise_key_are_config_errors(tmp_path, section):
    scn = tmp_path / "scn.json"
    write_scenario(scn, mutate=lambda d: d.update(channel=section))
    assert run_cli("plan", "--scenario", str(scn), "--out", str(tmp_path / "r.json")) == 4


def test_plan_config_seed_is_the_scenario_seed(tmp_path):
    # The fixed-n baseline's clustering and swarms draw from the scenario
    # seed, so on B-3 seed 4 the seed moves its plan; a config seed and
    # --seed set the same scenario seed.
    scn, cfg = tmp_path / "scn.json", tmp_path / "cfg.json"
    write_scenario(scn, kind="B", variant=3, seed=4)
    cfg.write_text(json.dumps({"seed": 7}))
    out = {name: tmp_path / f"{name}.json" for name in ("own", "config", "flag")}
    fixed_n = ("--baseline", "fixed-n")
    assert run_cli("plan", "--scenario", str(scn), *fixed_n, "--out", str(out["own"])) == 0
    assert run_cli("plan", "--scenario", str(scn), "--config", str(cfg), *fixed_n,
                   "--out", str(out["config"])) == 0
    assert run_cli("plan", "--scenario", str(scn), "--seed", "7", *fixed_n,
                   "--out", str(out["flag"])) == 0
    assert out["config"].read_bytes() == out["flag"].read_bytes() != out["own"].read_bytes()


def test_plan_unservable_exit_three(tmp_path):
    def crank_every_demand(doc):
        for ue in doc["ues"]:
            ue["demand_bps"] = 1e12

    def crank_one_fixed_width_demand(doc):
        # 1 Tbit/s over a pinned 20 MHz is beyond the rate inversion (50,000 bit/s/Hz).
        doc["policy"]["bandwidth"] = "fixed"
        doc["ues"][0]["demand_bps"] = 1e12

    def pin_one_demand_past_its_nadir(doc):
        # 2.5 Gbit/s over a pinned 20 MHz misses even straight overhead.
        doc["policy"]["bandwidth"] = "fixed"
        doc["ues"][0]["demand_bps"] = 2.5e9

    scn = tmp_path / "scn.json"
    for mutate in (crank_every_demand, crank_one_fixed_width_demand, pin_one_demand_past_its_nadir):
        write_scenario(scn, mutate=mutate)
        assert run_cli("plan", "--scenario", str(scn), "--out", str(tmp_path / "r.json")) == 3


def test_an_over_budget_pin_exits_four_even_where_its_nadir_link_misses(tmp_path):
    # A configuration error outranks an unservable user: UE 0's 1 Tbit/s
    # misses at its nadir, and its link is pinned at 200 MHz, beyond the
    # 160 MHz budget, by its own width or by the fixed policy.
    def pin_ue_0(doc):
        doc["ues"][0].update(demand_bps=1e12, bandwidth_hz=200e6)

    def pin_every_link(doc):
        doc["ues"][0]["demand_bps"] = 1e12
        doc["policy"].update(bandwidth="fixed", fixed_bandwidth_hz=200e6)

    scn = tmp_path / "scn.json"
    for mutate in (pin_ue_0, pin_every_link):
        doc = write_scenario(scn, mutate=mutate)
        ue = Point3(*(doc["ues"][0][k] for k in "xyz"))
        nadir = Point3(ue.x, ue.y, doc["venue"]["z_uav"][0])
        assert link_rate(ue, nadir, 200e6, ChannelParams()) < 1e12 and doc["b_max_hz"] == 160e6
        assert run_cli("plan", "--scenario", str(scn), "--out", str(tmp_path / "r.json")) == 4


def test_a_failed_plan_writes_no_dump(tmp_path):
    # A failed plan has no record, so it writes no dump: every pinned 20 MHz
    # link overruns a 10 MHz budget (exit 4), or UE 0's 1 Tbit/s misses at
    # its nadir (exit 3). Both fail before any zone exists.
    def shrink_the_budget(doc):
        doc["policy"]["bandwidth"] = "fixed"
        doc["b_max_hz"] = 10e6

    def crank_one_demand(doc):
        doc["ues"][0]["demand_bps"] = 1e12

    scn = tmp_path / "scn.json"
    dumps = [tmp_path / name for name in ("z.json", "p.json", "t.csv")]
    for mutate, code in ((shrink_the_budget, 4), (crank_one_demand, 3)):
        write_scenario(scn, kind="B", variant=4, seed=5, mutate=mutate)
        assert run_cli("plan", "--scenario", str(scn), "--out", str(tmp_path / "r.json"),
                       "--dump-zones", str(dumps[0]), "--dump-pool", str(dumps[1]),
                       "--pso-trace", str(dumps[2])) == code
        assert not any(path.exists() for path in dumps)


def record_views(zones, placements):
    """What --dump-zones, --dump-pool and --pso-trace write of a plan record."""
    return (
        [{"members": list(z.members), "witness": {"x": z.witness.x, "y": z.witness.y,
                                                  "z": z.witness.z}, "slack_m": z.slack}
         for z in zones],
        [{"members": s.ue_indices.tolist(), "position": dict(zip("xyz", s.uav_position.tolist())),
          "fitness_bps": s.fitness, "feasible": s.feasible, "iterations": s.iterations,
          "ending": s.ending} for s in placements],
        ["members,iteration,gbest_fitness_bps,x_m,y_m,z_m"]
        + [",".join(["|".join(map(str, s.ue_indices.tolist())), str(it),
                     *(repr(float(v)) for v in (val, *pos))])
           for s in placements for it, val, pos in s.trace],
    )


def plan_with_dumps(tmp_path, *options):
    """Exit code of ``uavplan plan`` with every dump, and the dumps as read back."""
    paths = [tmp_path / name for name in ("z.json", "p.json", "t.csv")]
    code = run_cli("plan", "--scenario", str(tmp_path / "scn.json"), "--out",
                   str(tmp_path / "r.json"), "--dump-zones", str(paths[0]), "--dump-pool",
                   str(paths[1]), "--pso-trace", str(paths[2]), *options)
    return code, (json.loads(paths[0].read_text()), json.loads(paths[1].read_text()),
                  paths[2].read_text().splitlines())


def test_plan_dumps(tmp_path):
    # A-5 seed 3's swarms write trace positions that are numpy floats.
    scn = tmp_path / "scn.json"
    write_scenario(scn, kind="A", variant=5, seed=3)
    zones, trace, pool = (tmp_path / n for n in ("z.json", "t.csv", "p.json"))
    assert run_cli(
        "plan", "--scenario", str(scn), "--out", str(tmp_path / "r.json"),
        "--dump-zones", str(zones), "--pso-trace", str(trace), "--dump-pool", str(pool),
    ) == 0
    zdoc = json.loads(zones.read_text())
    assert zdoc and {"members", "witness", "slack_m"} == set(zdoc[0])
    header, *rows = trace.read_text().splitlines()
    assert header == "members,iteration,gbest_fitness_bps,x_m,y_m,z_m"
    assert rows
    for row in rows:
        members, iteration, *numbers = row.split(",")
        assert all(m.isdigit() for m in members.split("|")) and iteration.isdigit()
        assert len(numbers) == 4 and all(math.isfinite(float(v)) for v in numbers)
    pdoc = json.loads(pool.read_text())
    assert pdoc and pdoc[0]["feasible"] is True
    for entry in pdoc:
        assert {"members", "position", "fitness_bps", "feasible", "iterations", "ending"} \
            == set(entry)
        assert isinstance(entry["iterations"], int) and entry["ending"] in ENDINGS


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


@pytest.mark.parametrize("baseline", [k.value for k in BaselineKind])
def test_plan_dumps_under_a_baseline_are_views_of_its_record(tmp_path, baseline):
    # Every method returns the same record: fixed-altitude its enumeration
    # and every swarm of its waves (three fail here and are split), fixed-n
    # no zones and one swarm per proximity group, in group order.
    doc = write_scenario(tmp_path / "scn.json", kind="B", variant=4, seed=5)
    scn, params, swarm = scenario_from_dict(doc)
    dep = run_baseline(BaselineKind(baseline), scn, params, swarm)
    code, views = plan_with_dumps(tmp_path, "--baseline", baseline)
    assert code == 0 and views == record_views(dep.zones, dep.placements)
    if baseline == "fixed-n":
        assert views[0] == []
        assert [entry["members"] for entry in views[1]] \
            == _proximity_groups(scn, FIXED_BASELINE_GROUP_SIZE)
    else:
        assert views[0] and sum(not entry["feasible"] for entry in views[1]) == 3


def test_plan_fixed_altitude_stays_in_the_venue_band(tmp_path):
    # 20 m is below this venue's band, so the baseline flies at the band's floor.
    scn = tmp_path / "scn.json"
    write_scenario(scn, mutate=lambda doc: doc["venue"].update(z_uav=[30.0, 100.0]))
    res = tmp_path / "r.json"
    assert run_cli("plan", "--scenario", str(scn), "--out", str(res),
                   "--baseline", "fixed-altitude") == 0
    doc = json.loads(res.read_text())
    assert doc["validation"]["pass"] is True
    assert all(p["z"] == 30.0 for p in doc["positions"])


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


def test_sweep_reports_each_failed_row(tmp_path, capsys):
    # A 100 kHz link cannot carry a 6.5 Mbit/s user: the planner and
    # fixed-altitude rows fail while the fixed-n rows plan, so the sweep exits
    # 0 and only stderr says which rows failed and why.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"policy": {"bandwidth": "fixed", "fixed_bandwidth_hz": 100000.0}}))
    assert run_cli("sweep", "--kind", "C", "--runs", "1", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "sweep")) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 10
    assert err[0].startswith("failed: C variant 20 planner run 1: "
                             "UnservableError: unservable UEs: (0, 1, ")
    assert err[1].startswith("failed: C variant 20 fixed-altitude run 1: UnservableError: ")


def test_sweep_config_rejects_a_seed(tmp_path, capsys):
    # A sweep seeds every run from --base-seed; a config seed would be ignored.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 123}))
    assert run_cli("sweep", "--kind", "B", "--runs", "1", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "sweep")) == 4
    assert "--base-seed" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_sweep_byte_identical(tmp_path):
    d1, d2 = tmp_path / "s1", tmp_path / "s2"
    for d in (d1, d2):
        assert run_cli("sweep", "--kind", "C", "--runs", "1", "--base-seed", "9",
                       "--out-dir", str(d)) == 0
    for name in ("runs_C.csv", "summary_C.csv", "plot_uav_count_C.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
