"""PSO refinement: fitness semantics, determinism, and dominance guarantees."""
import math
from dataclasses import replace

import numpy as np
import pytest

from uavplan import (
    CandidateZone,
    FeasibleBox,
    Point3,
    Scenario,
    SwarmConfig,
    UE,
    build_spheres,
    enumerate_zones,
    fitness,
    link_rate,
    optimize_position,
    optimize_positions,
)
from uavplan import channel, positioning
from uavplan.positioning import (
    _fitness,
    _members,
    _rows,
    _swarm_velocities,
    _unservable,
)
from uavplan.scenario import _pseudo_zone

import swarm_loop_reference as ref


def make_scenario(ue_xy, demand=6.5e6, side=300.0, z=(10.0, 100.0), seed=9, **kw):
    ues = tuple(UE(position=Point3(x, y, 0.0), demand_bps=demand) for x, y in ue_xy)
    return Scenario(label="t", seed=seed, venue=FeasibleBox((0.0, side), (0.0, side), z),
                    ues=ues, **kw)


def feasible_at(points, members, scn, params):
    """Whether each of ``points`` serves every member within the budget."""
    m = _members([members], scn)
    return _fitness(points, _rows(m, np.zeros(len(points), int)), m, params, scn.venue)[1]


def unservable(members, scn, params) -> bool:
    """The infeasibility certificate of one zone."""
    return bool(_unservable(_members([members], scn), np.zeros(1, int), params, scn.venue)[0][0])


def full_zone(scn, params):
    spheres = build_spheres(scn, params)
    zones = enumerate_zones(spheres, scn.venue)
    assert len(zones) == 1
    return zones[0], spheres


def test_fitness_at_witness_meets_all_demands(params):
    scn = make_scenario([(100, 100), (140, 120), (90, 160)])
    zone, spheres = full_zone(scn, params)
    value, feasible = fitness(zone.witness, zone, scn, params)
    assert feasible
    assert value == pytest.approx(sum(ue.demand_bps for ue in scn.ues), rel=1e-12)
    # Re-verify the demand checks link by link through the channel model.
    for link_ue in scn.ues:
        b = scn.b_max_hz
        assert link_rate(link_ue.position, zone.witness, b, params) >= link_ue.demand_bps


def test_fitness_outside_all_spheres_negative(params):
    scn = make_scenario([(10, 10), (20, 10)], side=5000.0)
    zone, _ = full_zone(scn, params)
    far = Point3(4900.0, 4900.0, 50.0)
    value, feasible = fitness(far, zone, scn, params)
    assert not feasible
    assert value < 0


def test_fitness_beyond_service_range_infeasible(params):
    scn = make_scenario([(10, 10)], side=5000.0, bandwidth_policy="fixed")
    spheres = build_spheres(scn, params)
    zone = enumerate_zones(spheres, scn.venue)[0]
    r = spheres.radii[0]
    # Slightly past the service radius along an in-box ray at threshold-high
    # elevation: the demand cannot be met there.
    d = r * 1.05
    pos = Point3(10.0 + d * math.cos(math.radians(80)), 10.0, d * math.sin(math.radians(80)))
    if pos.z > scn.venue.z[1]:
        pos = Point3(10.0 + d, 10.0, scn.venue.z[1])
    _, feasible = fitness(pos, zone, scn, params)
    assert not feasible


def test_fitness_below_horizon_penalized_not_raised(params):
    scn = make_scenario([(50, 50)])
    zone, _ = full_zone(scn, params)
    value, feasible = fitness(Point3(50.0, 50.0, 0.0), zone, scn, params)
    assert not feasible and value < 0


def test_optimize_singleton_within_service_distance(params):
    scn = make_scenario([(150, 150)], seed=3)
    zone, spheres = full_zone(scn, params)
    cfg = SwarmConfig()
    sol = optimize_position(zone, scn, params, cfg)
    assert sol.feasible
    d = math.dist((150, 150, 0), sol.uav_position)
    assert d <= spheres.radii[0]
    assert sol.rate_bps[0] >= 6.5e6


def test_optimize_deterministic_same_seed(params):
    scn = make_scenario([(100, 80), (180, 200), (240, 60), (60, 240)], seed=42)
    zone, _ = full_zone(scn, params)
    cfg = SwarmConfig()
    s1 = optimize_position(zone, scn, params, cfg)
    s2 = optimize_position(zone, scn, params, cfg)
    assert s1.uav_position.tobytes() == s2.uav_position.tobytes()
    assert s1.fitness == s2.fitness
    for name in ("ue_indices", "bandwidth_hz", "rate_bps"):
        assert getattr(s1, name).tobytes() == getattr(s2, name).tobytes()


def test_optimize_seed_changes_trajectory(params):
    # Spread UEs make both the low-altitude witness and the witness raised to
    # the ceiling infeasible, while some position serves them. Without the
    # certificate, which would end the zone at a served probe, the swarm has
    # to explore and different streams take different paths.
    scn = make_scenario([(388, 154), (135, 432), (441, 255)], demand=26e6, side=500.0)
    zone, _ = full_zone(scn, params)
    t1, t2 = (optimize_position(zone, replace(scn, seed=k), params, SwarmConfig(),
                                certify=False).trace for k in (1, 2))
    assert len(t1) > 1 and t1 != t2


def test_optimize_dominates_witness(params):
    scn = make_scenario([(60, 60), (210, 210)], seed=5)
    zone, _ = full_zone(scn, params)
    w_value, _ = fitness(zone.witness, zone, scn, params)
    sol = optimize_position(zone, scn, params, SwarmConfig())
    assert sol.fitness >= w_value


def test_optimize_gbest_monotone_trace(params):
    scn = make_scenario([(60, 60), (210, 210), (120, 250), (250, 120)], seed=8)
    zone, _ = full_zone(scn, params)
    trace = optimize_position(zone, scn, params, SwarmConfig()).trace
    values = [row[1] for row in trace]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_optimize_respects_box(params):
    scn = make_scenario([(10, 10), (290, 290)], seed=13)
    zone, _ = full_zone(scn, params)
    sol = optimize_position(zone, scn, params, SwarmConfig())
    assert scn.venue.contains(sol.uav_position)


def test_optimize_degenerate_altitude_band(params):
    # Fixed-altitude search: z pinned to a single value.
    scn = make_scenario([(100, 100), (150, 150)], z=(20.0, 20.0), seed=4)
    zone, _ = full_zone(scn, params)
    sol = optimize_position(zone, scn, params, SwarmConfig())
    assert sol.uav_position[2] == 20.0
    assert sol.feasible


def test_optimize_proves_a_pinned_overrun_before_seeding(params):
    # Nine UEs at 20 MHz each against a 160 MHz budget: no position serves
    # them, and the certificate proves it at its first cell, alone and beside
    # a feasible zone. The zone keeps its witness.
    ue_xy = [(100 + 5 * k, 100) for k in range(9)]
    scn = make_scenario(ue_xy, bandwidth_policy="fixed", seed=1)
    zone, _ = full_zone(scn, params)
    cfg = SwarmConfig()
    sol = optimize_position(zone, scn, params, cfg)
    assert not sol.feasible and sol.iterations == 0
    assert np.array_equal(sol.uav_position, zone.witness.as_array())
    assert sol.trace == ((0, sol.fitness, tuple(sol.uav_position)),)
    pair = _pseudo_zone((0, 1), scn)
    beside, overrun = optimize_positions([pair, zone], scn, params, cfg)
    assert beside.feasible
    assert not overrun.feasible and overrun.iterations == 0 and len(overrun.trace) == 1
    # Without the certificate the search runs to the end.
    kept = optimize_position(zone, scn, params, cfg, certify=False)
    assert not kept.feasible and kept.iterations == cfg.max_iterations


def record_generators(monkeypatch):
    """Lists that receive every generator the swarms make and the size of every draw."""
    seeded, drawn = [], []
    generator = np.random.Generator

    class Recorded:
        def __init__(self, bit_generator):
            seeded.append(bit_generator)
            self.rng = generator(bit_generator)

        def random(self, size):
            drawn.append(size)
            return self.rng.random(size)

    monkeypatch.setattr(np.random, "Generator", Recorded)
    return seeded, drawn


def test_optimize_early_stop_activates(params, monkeypatch):
    scn = make_scenario([(150, 150)], seed=2)
    zone, _ = full_zone(scn, params)
    assert fitness(zone.witness, zone, scn, params)[1]
    seeded, drawn = record_generators(monkeypatch)
    cfg = SwarmConfig(max_iterations=100)
    sol = optimize_position(zone, scn, params, cfg)
    # A feasible witness is the first feasible best: no iteration, no draw,
    # no generator.
    value = fitness(zone.witness, zone, scn, params)[0]
    assert sol.feasible and np.array_equal(sol.uav_position, zone.witness.as_array())
    assert sol.fitness == value
    assert sol.iterations == 0 and not drawn and not seeded
    assert sol.trace == ((0, value, tuple(zone.witness.as_array())),)
    # The recorder sees a swarm that runs, here without the certificate,
    # which would end the zone at a served probe: one generator, its starts,
    # then one draw per step.
    spread = make_scenario([(388, 154), (135, 432), (441, 255)], demand=26e6, side=500.0, seed=1)
    zone, _ = full_zone(spread, params)
    sol = optimize_position(zone, spread, params, cfg, certify=False)
    assert sol.feasible and sol.iterations > 0 and len(seeded) == 1
    assert drawn == [(cfg.particle_count - 1, 3)] + [(cfg.particle_count, 2, 3)] * sol.iterations


def anchored_zones():
    """On a 2 km venue at 26 Mbit/s: a user served at its floor witness, a
    pair 200 m apart that the floor midpoint misses and the point above it
    at the ceiling serves, and a pair 1.5 km apart that no point serves."""
    scn = make_scenario([(500, 1600), (900, 1000), (1100, 1000), (250, 300), (1750, 300)],
                        demand=26e6, side=2000.0, seed=1)
    floor = scn.venue.lower[2]
    return scn, [CandidateZone(members=members, witness=Point3(x, y, floor), slack=0.0)
                 for members, (x, y) in (((0,), (500.0, 1600.0)), ((1, 2), (1000.0, 1000.0)),
                                         ((3, 4), (1000.0, 300.0)))]


def test_anchored_and_proven_zones_make_no_generator(params, monkeypatch):
    scn, zones = anchored_zones()
    floor = scn.venue.lower[2]
    assert unservable((3, 4), scn, params)
    seeded, drawn = record_generators(monkeypatch)
    sols = optimize_positions(zones, scn, params, SwarmConfig())
    assert not seeded and not drawn
    assert [(s.feasible, s.iterations) for s in sols] == [(True, 0), (True, 0), (False, 0)]
    assert [s.uav_position.tolist() for s in sols] == [[500.0, 1600.0, floor],
                                                        [1000.0, 1000.0, scn.venue.upper[2]],
                                                        [1000.0, 300.0, floor]]
    assert [s.trace for s in sols] == [((0, s.fitness, tuple(s.uav_position)),) for s in sols]
    # The anchored pair scores its summed demand, as any feasible position does.
    assert sols[1].fitness == 2 * 26e6


def reference_placement(zone, scn, params, config):
    """The per-zone search's seeding over the box, then all ``max_iterations`` with no stop."""
    data = ref.member_data(zone.members, scn)
    box = scn.venue
    lo, hi = box.lower, box.upper
    rng = np.random.default_rng([scn.seed, *data.indices.tolist()])
    positions = np.concatenate([zone.witness.as_array()[None, :],
                                lo + rng.random((config.particle_count - 1, 3)) * (hi - lo)])
    velocities = np.zeros_like(positions)
    pbest_pos = positions.copy()
    pbest_val, _ = ref.swarm_fitness(positions, data, params, box)
    gbest_pos, gbest_val = positions[np.argmax(pbest_val)].copy(), np.max(pbest_val)
    for _ in range(config.max_iterations):
        r1, r2 = np.moveaxis(rng.random((config.particle_count, 2, 3)), 1, 0)
        velocities = ref.swarm_velocities(velocities, positions, pbest_pos, gbest_pos, r1, r2,
                                          config, 0.5 * (hi - lo))
        positions = box.clamp(positions + velocities)
        values, _ = ref.swarm_fitness(positions, data, params, box)
        improved = values > pbest_val
        pbest_pos[improved] = positions[improved]
        pbest_val[improved] = values[improved]
        g = int(np.argmax(pbest_val))
        if pbest_val[g] > gbest_val:
            gbest_pos, gbest_val = pbest_pos[g].copy(), pbest_val[g]
    value, feasible = ref.swarm_fitness(gbest_pos[None, :], data, params, box)
    return gbest_pos, float(value[0]), bool(feasible[0])


def ceiling_anchor(zone, scn):
    """The zone's witness raised to the box top."""
    x, y, _ = zone.witness.as_array()
    return np.array([x, y, scn.venue.upper[2]])


def test_first_feasible_best_is_the_full_search_result(params):
    # Every feasible position scores the summed demand, so stopping at a
    # feasible anchor or a served probe, or at the first feasible best,
    # scores what the whole search would. Where no anchor serves, the
    # certificate ends the zone at a served probe or proves it, and the
    # search without the certificate (the fixed-n baseline's) is the full
    # one. The draws hold every ending; a seeded particle, now drawn over the
    # whole box, is the rarest (one in 80).
    rng = np.random.default_rng(44)
    kinds = set()
    for k in range(80):
        side = float(rng.choice([200.0, 500.0, 2000.0]))
        scn = make_scenario(rng.uniform(0.0, side, (int(rng.integers(2, 5)), 2)),
                            demand=float(rng.choice([6.5e6, 26e6])), side=side, seed=k)
        zone = _pseudo_zone(range(len(scn.ues)), scn)
        cfg = SwarmConfig()
        sol = optimize_position(zone, scn, params, cfg)
        ref_pos, ref_val, ref_feasible = reference_placement(zone, scn, params, cfg)
        ceiling = ceiling_anchor(zone, scn)
        if fitness(zone.witness, zone, scn, params)[1]:
            kinds.add("feasible witness")
        elif feasible_at(ceiling[None, :], zone.members, scn, params)[0]:
            assert sol.feasible and sol.iterations == 0
            assert np.array_equal(sol.uav_position, ceiling)
            assert not ref_feasible or sol.fitness == ref_val
            kinds.add("ceiling")
            continue
        else:
            if sol.feasible:
                assert sol.iterations == 0 and not unservable(zone.members, scn, params)
                assert not ref_feasible or sol.fitness == ref_val
                kinds.add("probe")
            else:
                assert unservable(zone.members, scn, params) and sol.iterations == 0
                kinds.add("unservable")
            sol = optimize_position(zone, scn, params, cfg, certify=False)
            if sol.feasible and sol.iterations == 0:
                kinds.add("seeded particle")
            elif sol.feasible:
                kinds.add("swarm reaches feasibility")
        if sol.feasible or ref_feasible:
            assert sol.feasible and ref_feasible
            assert np.array_equal(sol.uav_position, ref_pos)
            assert sol.fitness == ref_val
    assert kinds == {"feasible witness", "ceiling", "probe", "seeded particle",
                     "swarm reaches feasibility", "unservable"}


def solution_bits(sol):
    """Every field of a placement, floats by their bits."""
    links = zip(sol.ue_indices.tolist(), sol.bandwidth_hz.tolist(), sol.rate_bps.tolist())
    return (tuple(v.hex() for v in sol.uav_position.tolist()), sol.fitness.hex(),
            sol.feasible, sol.iterations, sol.ending,
            tuple((i, b.hex(), r.hex()) for i, b, r in links),
            tuple((it, float(v).hex(), tuple(float(p).hex() for p in pos))
                  for it, v, pos in sol.trace))


def swarm_batches(params):
    """Random zones of 1 to 12 members, pseudo and enumerated, under both bandwidth policies."""
    rng = np.random.default_rng(7)
    for trial in range(8):
        side = float(rng.choice([300.0, 800.0, 1500.0]))
        scn = make_scenario(rng.uniform(0.0, side, (14, 2)), side=side,
                            bandwidth_policy="fixed" if trial % 3 == 2 else "demand-fit",
                            seed=trial)
        # Uneven demands, so that sums over members round: padded or
        # regrouped sums would change their bits.
        demands = rng.uniform(0.5, 1.0, 14) * rng.choice([13e6, 52e6])
        scn = replace(scn, ues=tuple(replace(ue, demand_bps=float(d))
                                     for ue, d in zip(scn.ues, demands)))
        spheres = build_spheres(scn, params)
        zones = [_pseudo_zone(sorted(rng.choice(14, size=k, replace=False).tolist()), scn)
                 for k in (1, 3, 5, 8, 9, 12)] + enumerate_zones(spheres, scn.venue)[:3]
        cfg = SwarmConfig(particle_count=6, max_iterations=int(rng.choice([4, 25])))
        yield scn, zones, cfg, trial % 4 != 3
    # Most random zones end at an anchor or the certificate; the lens zones
    # also reach a seeded start and the swarm's steps.
    scn, zones = lens_zones()
    for certify in (True, False):
        yield scn, zones, SwarmConfig(particle_count=6, max_iterations=4), certify


def lens_zones():
    """Zones at one altitude, so that none has a ceiling anchor of its own: two
    close users and a third 120 m (then 150 m) away, where only a thin lens
    between them serves all three and the witness, their mean, misses it.

    The certificate serves both at a probe. Without it, with 6 particles and
    4 steps, the first is served at a start drawn over the box (seed 38 is
    the first of 60 whose stream does so), the second not within 4 steps.
    """
    xy = [(100.0, 300.0), (100.0, 310.0), (220.0, 305.0),
          (100.0, 700.0), (100.0, 710.0), (250.0, 705.0)]
    scn = make_scenario(xy, demand=26e6, side=1000.0, z=(20.0, 20.0), seed=38,
                        bandwidth_policy="fixed")
    return scn, [_pseudo_zone(members, scn) for members in ([0, 1, 2], [3, 4, 5])]


def test_each_ending_is_recorded_at_the_step_that_ends_the_zone(params, monkeypatch):
    # The anchored zones end at the witness, the ceiling anchor and the
    # certificate's proof, the lens zones at a served probe and, without the
    # certificate or with no pairs for it to spend, at a seeded start and
    # after stepping.
    cfg = SwarmConfig(particle_count=6, max_iterations=4)
    scn, zones = anchored_zones()
    assert [s.ending for s in optimize_positions(zones, scn, params, cfg)] \
        == ["witness", "ceiling", "proven"]
    scn, zones = lens_zones()
    assert [s.ending for s in optimize_positions(zones, scn, params, cfg)] == ["probe", "probe"]
    searched = [("seeded", True, 0), ("iterated", False, cfg.max_iterations)]
    for certify, pairs in ((False, positioning._CERTIFY_PAIRS), (True, 0)):
        monkeypatch.setattr(positioning, "_CERTIFY_PAIRS", pairs)
        sols = optimize_positions(zones, scn, params, cfg, certify=certify)
        assert [(s.ending, s.feasible, s.iterations) for s in sols] == searched


def outcomes(zone, sol, certify, scn, params):
    if sol.iterations == 0:
        if not sol.feasible:
            # Pinned widths do not move with the position.
            overrun = np.nansum(scn.pinned_widths_hz[list(zone.members)]) > scn.b_max_hz
            return {"pinned overrun" if overrun else "certificate stop"}
        if np.array_equal(sol.uav_position, zone.witness.as_array()):
            return {"feasible witness"}
        if np.array_equal(sol.uav_position, ceiling_anchor(zone, scn)):
            return {"ceiling"}
        probe = ref.served_probe(zone, scn, params) if certify else None
        return {"probe" if probe is not None and np.array_equal(sol.uav_position, probe)
                else "seeded start"}
    if sol.feasible:
        return {"swarm"}
    return {"max iterations" if certify else "uncertified"}


def test_lockstep_swarms_match_the_per_zone_search(params, monkeypatch):
    seen = set()
    for scn, zones, cfg, certify in swarm_batches(params):
        # A certified batch also runs with no pairs to spend, so that both
        # certificates give up on every zone that no anchor serves and the
        # swarms run.
        for pairs in (positioning._CERTIFY_PAIRS, 0) if certify else (positioning._CERTIFY_PAIRS,):
            with monkeypatch.context() as m:
                m.setattr(positioning, "_CERTIFY_PAIRS", pairs)
                m.setattr(ref, "_CERTIFY_PAIRS", pairs)
                expected = []
                for zone in zones:
                    sol = ref.loop_position(zone, scn, params, cfg, certify)
                    expected.append(solution_bits(sol))
                    n = len(zone.members)
                    seen |= outcomes(zone, sol, certify, scn, params)
                    seen.add("singleton" if n == 1 else "below 8" if n < 8 else "8 or more")

                def lockstep(batch):
                    sols = optimize_positions(batch, scn, params, cfg, certify=certify)
                    return [solution_bits(s) for s in sols]

                assert lockstep(zones) == expected
                assert [lockstep([zone])[0] for zone in zones] == expected
                # One certificate cell scored at a time.
                m.setattr(positioning, "_CERTIFY_BUDGET", 1)
                assert lockstep(zones[::-1]) == expected[::-1]
    assert seen == {"singleton", "below 8", "8 or more", "pinned overrun", "feasible witness",
                    "ceiling", "probe", "seeded start", "swarm", "uncertified",
                    "certificate stop", "max iterations"}


@pytest.mark.parametrize("particles", [3, SwarmConfig().particle_count])
def test_optimize_returns_a_proven_unservable_zone_before_seeding(params, monkeypatch, particles):
    # Two users 1.5 km apart at 26 Mbit/s: no point of the box reaches both.
    scn = make_scenario([(250, 1000), (1750, 1000)], demand=26e6, side=2000.0, seed=1)
    zone = _pseudo_zone((0, 1), scn)
    assert unservable(zone.members, scn, params)
    seeded, drawn = record_generators(monkeypatch)
    cfg = SwarmConfig(particle_count=particles)
    sol = optimize_position(zone, scn, params, cfg)
    # The witness is the answer: no generator, no draw and no step.
    assert not sol.feasible and sol.iterations == 0
    assert np.array_equal(sol.uav_position, zone.witness.as_array())
    assert sol.trace == ((0, sol.fitness, tuple(sol.uav_position)),)
    assert not seeded and not drawn
    # Without the certificate an infeasible zone is seeded and runs the
    # whole search.
    kept = optimize_position(zone, scn, params, cfg, certify=False)
    assert not kept.feasible and kept.iterations == cfg.max_iterations
    assert len(seeded) == 1 and len(drawn) == 1 + cfg.max_iterations


@pytest.mark.parametrize("pairs", [positioning._CERTIFY_PAIRS, 64], ids=["budget", "small-budget"])
def test_certificate_stop_keeps_the_full_search_result(params, monkeypatch, pairs):
    # Plans do not depend on when the certificate runs: every zone it proves
    # stays infeasible through all ``max_iterations``, a zone anchored or
    # served at a probe scores what a feasible search would, and every zone
    # on which the certificate gives up gets the full search's result bit
    # for bit. A small pair budget leaves such zones, some of which the
    # swarm cannot serve either.
    monkeypatch.setattr(positioning, "_CERTIFY_PAIRS", pairs)
    rng = np.random.default_rng(17)
    seen = set()
    for trial in range(12):
        side = float(rng.choice([150.0, 400.0, 1000.0]))
        flat = trial % 4 >= 2
        policy = "fixed" if trial % 2 else "demand-fit"
        scn = make_scenario(rng.uniform(0.0, side, (8, 2)),
                            demand=float(rng.choice([6.5e6, 26e6])), side=side,
                            z=(20.0, 20.0) if flat else (10.0, 100.0), seed=trial,
                            bandwidth_policy=policy)
        zones = [_pseudo_zone(sorted(rng.choice(8, size=k, replace=False).tolist()), scn)
                 for k in (2, 3, 4, 6)]
        cfg = SwarmConfig(particle_count=10, max_iterations=40)
        sols = optimize_positions(zones, scn, params, cfg)
        for zone, sol in zip(zones, sols):
            ref_pos, ref_val, ref_feasible = reference_placement(zone, scn, params, cfg)
            probe = ref.served_probe(zone, scn, params)
            witness, ceiling = zone.witness.as_array(), ceiling_anchor(zone, scn)
            if not fitness(zone.witness, zone, scn, params)[1] and not flat \
                    and feasible_at(ceiling[None, :], zone.members, scn, params)[0]:
                assert sol.feasible and sol.iterations == 0
                assert np.array_equal(sol.uav_position, ceiling)
                assert not ref_feasible or sol.fitness == ref_val
                seen.add(("anchored", flat, policy))
            elif unservable(zone.members, scn, params):
                assert not ref_feasible
                assert not sol.feasible and sol.iterations == 0
                assert np.array_equal(sol.uav_position, witness)
                seen.add(("proven", flat, policy))
            elif probe is not None and not fitness(zone.witness, zone, scn, params)[1]:
                assert sol.feasible and sol.iterations == 0
                assert np.array_equal(sol.uav_position, probe)
                assert not ref_feasible or sol.fitness == ref_val
                seen.add(("probe", flat, policy))
            else:
                assert sol.uav_position.tobytes() == ref_pos.tobytes()
                assert sol.fitness.hex() == ref_val.hex() and sol.feasible == ref_feasible
                seen.add(("served" if sol.feasible else "unserved", flat, policy))
    assert {(kind, flat, policy) for kind in ("proven", "served") for flat in (False, True)
            for policy in ("fixed", "demand-fit")} <= seen
    assert {("anchored", False, "fixed"), ("probe", True, "fixed"),
            ("probe", True, "demand-fit")} <= seen
    if pairs == 64:
        assert any(kind == "unserved" for kind, _, _ in seen)


def test_certificate_never_fires_where_a_dense_grid_serves_the_zone(params):
    rng = np.random.default_rng(3)
    outcomes = set()
    for _ in range(40):
        side = float(rng.choice([200.0, 400.0, 800.0]))
        z = (10.0, 10.0) if rng.random() < 0.3 else (10.0, 100.0)
        scn = make_scenario(rng.uniform(0.0, side, (int(rng.integers(2, 6)), 2)),
                            demand=float(rng.choice([26e6, 52e6, 104e6])), side=side, z=z,
                            bandwidth_policy=str(rng.choice(["demand-fit", "fixed"])))
        members = range(len(scn.ues))
        xy = np.linspace(0.0, side, 61)
        grid = np.stack(np.meshgrid(xy, xy, np.linspace(*z, 10 if z[1] > z[0] else 1),
                                    indexing="ij"), axis=-1).reshape(-1, 3)
        served = bool(feasible_at(grid, members, scn, params).any())
        proved = unservable(members, scn, params)
        assert not (served and proved)
        outcomes.add((served, proved))
    assert {(True, False), (False, True)} <= outcomes  # both sides are exercised


# Box kinds for the certificate: a tall venue (the n200-2km box), a box about
# as tall as it is wide, and a flat fixed-altitude box, each with demands
# that some zones of its users meet and others do not.
CERTIFY_BOXES = {
    "n200": (2000.0, (10.0, 100.0), (6.5e6, 26e6)),
    "cubic": (100.0, (10.0, 100.0), (150e6, 300e6, 450e6)),
    "flat": (2000.0, (20.0, 20.0), (6.5e6, 26e6)),
}


def test_certificate_proves_exactly_the_zones_the_reference_proves(params):
    # The reference halves every axis and probes cell centres, so only the
    # outcome is comparable, and only where it does not give up. The last
    # two users of each venue demand within 10 % of what their nadir at the
    # floor delivers at their widest link, so reach alone decides them.
    rng = np.random.default_rng(29)
    outcomes, judged, gave_up = set(), 0, 0
    for trial in range(24):
        kind = list(CERTIFY_BOXES)[trial % 3]
        side, z, demands = CERTIFY_BOXES[kind]
        policy = "fixed" if trial % 6 >= 3 else "demand-fit"
        spread = side * rng.uniform(0.1, 0.5)
        xy = rng.uniform(0.0, side - spread, 2) + rng.uniform(0.0, spread, (14, 2))
        scn = make_scenario(xy, demand=float(rng.choice(demands)), side=side, z=z, seed=trial,
                            bandwidth_policy=policy)
        widest = scn.fixed_bandwidth_hz if policy == "fixed" else scn.b_max_hz
        edge = [replace(ue, demand_bps=rng.uniform(0.9, 1.1) * link_rate(
            ue.position, Point3(ue.position.x, ue.position.y, z[0]), widest, params))
            for ue in scn.ues[12:]]
        scn = replace(scn, ues=scn.ues[:12] + tuple(edge))
        zones = sorted((sorted(rng.choice(12, size=k, replace=False).tolist())
                        for k in rng.integers(1, 9, 10)), key=len)
        zones = [[12], [13]] + zones
        proven, probe = _unservable(_members(zones, scn), np.arange(len(zones)), params,
                                    scn.venue)
        for members, got, point in zip(zones, proven.tolist(), probe):
            outcome = ref.zone_outcome(ref.member_data(members, scn), params, scn.venue)
            if outcome == "gave up":
                gave_up += 1
                continue
            assert got == (outcome == "proven"), (kind, policy, members)
            # A zone the reference serves at a probe is served at one of its own.
            assert np.isnan(point[0]) == (outcome == "proven"), (kind, policy, members)
            if outcome == "served":
                assert feasible_at(point[None, :], members, scn, params)[0]
            judged += 1
            outcomes.add((kind, policy, outcome))
    assert judged >= 200 and gave_up <= judged // 20
    assert outcomes == {(kind, policy, outcome) for kind in CERTIFY_BOXES
                        for policy in ("fixed", "demand-fit") for outcome in ("proven", "served")}


def certified_venues(params):
    """The ``swarm_batches`` venues, then seeded uniform and spread venues of each certificate box."""
    for scn, zones, _, certify in swarm_batches(params):
        if certify:
            yield scn, zones
    rng = np.random.default_rng(31)
    for trial in range(36):
        kind = list(CERTIFY_BOXES)[trial % 3]
        side, z, demands = CERTIFY_BOXES[kind]
        if trial < 18:
            xy = rng.uniform(0.0, side, (12, 2))
        else:
            spread = side * rng.uniform(0.1, 0.5)
            xy = rng.uniform(0.0, side - spread, 2) + rng.uniform(0.0, spread, (12, 2))
        scn = make_scenario(xy, demand=float(rng.choice(demands)), side=side, z=z, seed=trial,
                            bandwidth_policy="fixed" if trial % 2 else "demand-fit")
        yield scn, [_pseudo_zone(sorted(rng.choice(12, size=k, replace=False).tolist()), scn)
                    for k in rng.integers(1, 9, 8)]


def test_every_served_zone_ends_at_iteration_0_with_no_generator(params, monkeypatch):
    # Every zone that some position serves, by the reference's outcome, ends
    # at an anchor or at the certificate's first served probe: feasible, at
    # iteration 0, with no generator made, and at the answer it gets alone.
    # Only a zone on which the certificate gives up may be seeded.
    cfg = SwarmConfig(particle_count=6, max_iterations=4)
    made, pcg64 = [], np.random.PCG64
    endings, gave_up = [], 0
    for scn, zones in certified_venues(params):
        batch = optimize_positions(zones, scn, params, cfg)
        for zone, sol in zip(zones, batch):
            if ref.zone_outcome(ref.member_data(zone.members, scn), params, scn.venue) != "served":
                continue
            proven, probe = _unservable(_members([zone.members], scn), np.zeros(1, int), params,
                                        scn.venue)
            assert not proven[0]
            if np.isnan(probe[0, 0]):
                gave_up += 1
                continue
            with monkeypatch.context() as m:
                m.setattr(np.random, "PCG64", lambda *a: made.append(a) or pcg64(*a))
                alone = optimize_position(zone, scn, params, cfg)
            assert not made
            assert alone.feasible and alone.iterations == 0
            assert solution_bits(sol) == solution_bits(alone)
            position = alone.uav_position
            endings.append("witness" if np.array_equal(position, zone.witness.as_array())
                           else "ceiling" if np.array_equal(position, ceiling_anchor(zone, scn))
                           else "probe" if np.array_equal(position, probe[0]) else "other")
    assert set(endings) == {"witness", "ceiling", "probe"}
    assert len(endings) >= 100 and gave_up <= len(endings) // 20


# A flight box a micrometre wide at 20 m: every cell the certificate cuts
# from it is flat, so its SNR bound is the exact SNR of the cell's nearest
# point, computed along another path than the swarm's, and no width moves
# within it.
TINY_BOX = FeasibleBox((500.0, 500.000001), (500.0, 500.000001), (20.0, 20.0))


def test_certificate_keeps_a_member_whose_bound_rounds_below_its_rate(params):
    # Each user's demand is exactly its widest link's rate at the box's
    # nearest point, as the swarm scores it, so that point serves it. Where
    # the bound's path rounds that rate a few ulps lower, only the bound
    # margin keeps the certificate from proving a zone the point serves.
    rng = np.random.default_rng(1)
    xy = np.round(500.0 + rng.uniform(-150.0, 150.0, (400, 2)), 1)
    scn = make_scenario(xy, side=1000.0)
    ue = scn.ue_positions
    nearest = np.clip(ue, TINY_BOX.lower, TINY_BOX.upper)
    widest = scn.b_max_hz
    demand = channel.shannon_rate_kernel(channel.snr_hz_between(ue, nearest, params), widest)
    bound = channel.shannon_rate_kernel(
        channel.snr_hz_upper_bound(ue, TINY_BOX.lower, TINY_BOX.upper, params), widest)
    edge = np.flatnonzero(bound < demand)
    assert len(edge) >= 3 and np.all(demand[edge] - bound[edge] <= 8 * np.spacing(demand[edge]))
    scn = replace(scn, ues=tuple(replace(u, demand_bps=float(d)) for u, d in zip(scn.ues, demand)))
    m = _members([[i] for i in edge.tolist()], scn)
    rows = _rows(m, np.arange(len(edge)))
    assert _fitness(nearest[edge], rows, m, params, TINY_BOX)[1].all()
    assert not _unservable(m, np.arange(len(edge)), params, TINY_BOX)[0].any()


def test_certificate_keeps_widths_within_one_grid_step_per_member_of_the_budget(params):
    # Two demand-fit users whose smallest grid widths at the box sum to
    # b_max_hz plus one grid step: no point of the box serves both, but the
    # certificate excludes a cell on its width sum only beyond one grid step
    # per demand-fit member of the budget, its rounding slack, so it halves
    # the cells until it gives up instead of proving the zone.
    scn = make_scenario([(440.0, 470.0), (560.0, 530.0)], side=1000.0)
    ue, grid = scn.ue_positions, scn.bandwidth_grid_hz
    snr = channel.snr_hz_upper_bound(ue, TINY_BOX.lower, TINY_BOX.upper, params) \
        * (1.0 + positioning._BOUND_MARGIN)
    width = np.array([0.5 * scn.b_max_hz, 0.5 * scn.b_max_hz + grid])
    # Each demand lies halfway between its width's rate and one step less's.
    demand = 0.5 * (channel.shannon_rate_kernel(snr, width - grid)
                    + channel.shannon_rate_kernel(snr, width))
    scn = replace(scn, ues=tuple(replace(u, demand_bps=float(d)) for u, d in zip(scn.ues, demand)))
    fitted = channel.demand_fit_kernel(snr, demand, scn.b_max_hz, grid)[0]
    assert fitted.tolist() == width.tolist() and fitted.sum() == scn.b_max_hz + grid
    corners = np.stack(np.meshgrid(*zip(TINY_BOX.lower, TINY_BOX.upper), indexing="ij"),
                       axis=-1).reshape(-1, 3)
    m = _members([[0, 1]], scn)
    assert not _fitness(corners, _rows(m, np.zeros(len(corners), int)), m, params,
                        TINY_BOX)[1].any()
    assert not _unservable(m, np.zeros(1, int), params, TINY_BOX)[0][0]


def halving_rounds(monkeypatch, xy, demand, side, z, params):
    """The certificate's halving rounds of one zone: each round's axes and cell extent."""
    rounds = []
    halve = positioning._halve

    def recorded(lo, hi, axes):
        if len(lo):
            rounds.append((axes.tolist(), (hi[0] - lo[0]).tolist()))
        return halve(lo, hi, axes)

    monkeypatch.setattr(positioning, "_halve", recorded)
    assert unservable(range(len(xy)), make_scenario(xy, demand=demand, side=side, z=z), params)
    return rounds


def test_certificate_halves_only_the_long_axes(params, monkeypatch):
    # Each zone is unservable, but by so little that it takes several rounds.
    flat = halving_rounds(monkeypatch, [(0, 0), (100, 100)], 60e6, 100.0, (20.0, 20.0), params)
    assert len(flat) >= 3 and all(axes == [0, 1] for axes, _ in flat)
    # Two users 426 m apart at 26 Mbit/s, just past twice the ceiling's reach.
    tall = halving_rounds(monkeypatch, [(787.0, 1000.0), (1213.0, 1000.0)], 26e6, 2000.0,
                          (10.0, 100.0), params)
    assert len(tall) >= 7
    assert [extent for _, extent in tall[:6]] == [[2000.0 / 2 ** k] * 2 + [90.0]
                                                   for k in range(5)] + [[62.5, 62.5, 45.0]]
    assert [axes for axes, _ in tall] == [[0, 1]] * 4 + [[0, 1, 2]] * (len(tall) - 4)
    cubic = halving_rounds(monkeypatch, [(0, 0), (100, 100)], 350e6, 100.0, (10.0, 100.0), params)
    assert len(cubic) >= 3 and all(axes == [0, 1, 2] for axes, _ in cubic)
    assert cubic[0][1] == [100.0, 100.0, 90.0]


def test_swarm_config_invariants():
    with pytest.raises(ValueError):
        SwarmConfig(particle_count=1)
    with pytest.raises(ValueError):
        SwarmConfig(inertia_weight=1.0)
    for bad in ({"max_iterations": -1}, {"cognitive_coeff": -0.1}, {"social_coeff": math.nan},
                {"cognitive_coeff": math.inf}):
        with pytest.raises(ValueError):
            SwarmConfig(**bad)
    SwarmConfig(max_iterations=0, cognitive_coeff=0.0, social_coeff=0.0)


def reference_swarm_steps(rng, positions, pbest_pos, gbest_pos, config, v_max, box, iterations):
    """The per-particle velocity loop: each particle's r1 then r2 by ``random(3)``, inertia, clip."""
    velocities = np.zeros_like(positions)
    trajectory = []
    for _ in range(iterations):
        for i in range(len(positions)):
            r1 = rng.random(3)
            r2 = rng.random(3)
            velocities[i] = (
                config.inertia_weight * velocities[i]
                + config.cognitive_coeff * r1 * (pbest_pos[i] - positions[i])
                + config.social_coeff * r2 * (gbest_pos - positions[i])
            )
        np.clip(velocities, -v_max, v_max, out=velocities)
        positions = box.clamp(positions + velocities)
        trajectory.append((velocities.copy(), positions))
    return trajectory


@pytest.mark.parametrize("iterations", [5])
def test_swarm_step_reproduces_the_per_particle_loop(iterations):
    config = SwarmConfig(particle_count=7)
    box = FeasibleBox((0.0, 300.0), (0.0, 300.0), (10.0, 100.0))
    data = np.random.default_rng(11)
    start = box.clamp(data.uniform(-50.0, 350.0, (7, 3)))
    pbest_pos = box.clamp(data.uniform(0.0, 300.0, (7, 3)))
    gbest_pos = pbest_pos[3].copy()
    v_max = np.array([40.0, 25.0, 9.0])

    def stream():
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([99, 4, 8])))
        rng.random((6, 3))  # the initial positions of particles 1..n-1
        return rng

    expected = reference_swarm_steps(stream(), start.copy(), pbest_pos, gbest_pos, config,
                                     v_max, box, iterations)
    positions, velocities, rng = start.copy(), np.zeros_like(start), stream()
    for v_ref, x_ref in expected:
        r = rng.random((7, 2, 3))
        velocities = _swarm_velocities(velocities, positions, pbest_pos, gbest_pos,
                                       r[:, 0], r[:, 1], config, v_max)
        positions = box.clamp(positions + velocities)
        assert np.array_equal(velocities, v_ref)
        assert np.array_equal(positions, x_ref)
