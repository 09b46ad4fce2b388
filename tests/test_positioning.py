"""PSO refinement: fitness semantics, determinism, and dominance guarantees."""
import math
from dataclasses import replace

import numpy as np
import pytest

from uavplan import (
    FeasibleBox,
    Point3,
    Scenario,
    SwarmConfig,
    UE,
    ZoneCapacityError,
    build_spheres,
    enumerate_zones,
    fitness,
    link_rate,
    optimize_position,
    optimize_positions,
)
from uavplan import positioning
from uavplan.positioning import (
    _DRAW_CHUNK,
    _fitness,
    _members,
    _rows,
    _spawn_words,
    _spawned_seed,
    _swarm_coefficients,
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
    return bool(_unservable(_members([members], scn), np.zeros(1, int), params, scn.venue)[0])


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
    r = spheres[0].radius
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
    sol = optimize_position(zone, scn, params, cfg, spheres=spheres)
    assert sol.feasible
    d = math.dist((150, 150, 0), (sol.uav_position.x, sol.uav_position.y, sol.uav_position.z))
    assert d <= spheres[0].radius
    assert sol.served_ues[0].rate_bps >= 6.5e6


def test_optimize_deterministic_same_seed(params):
    scn = make_scenario([(100, 80), (180, 200), (240, 60), (60, 240)], seed=42)
    zone, spheres = full_zone(scn, params)
    cfg = SwarmConfig()
    s1 = optimize_position(zone, scn, params, cfg, spheres=spheres)
    s2 = optimize_position(zone, scn, params, cfg, spheres=spheres)
    assert s1.uav_position == s2.uav_position
    assert s1.fitness == s2.fitness
    assert s1.served_ues == s2.served_ues


def test_optimize_seed_changes_trajectory(params):
    # Spread UEs make the low-altitude witness infeasible, so the swarm has
    # to explore and different streams take different paths.
    scn = make_scenario([(20, 20), (480, 480), (20, 480)], side=500.0)
    zone, spheres = full_zone(scn, params)
    t1, t2 = [], []
    optimize_position(zone, replace(scn, seed=1), params, SwarmConfig(), spheres=spheres, trace=t1)
    optimize_position(zone, replace(scn, seed=2), params, SwarmConfig(), spheres=spheres, trace=t2)
    assert t1 != t2


def test_optimize_dominates_witness(params):
    scn = make_scenario([(60, 60), (210, 210)], seed=5)
    zone, spheres = full_zone(scn, params)
    w_value, _ = fitness(zone.witness, zone, scn, params)
    sol = optimize_position(zone, scn, params, SwarmConfig(), spheres=spheres)
    assert sol.fitness >= w_value


def test_optimize_gbest_monotone_trace(params):
    scn = make_scenario([(60, 60), (210, 210), (120, 250), (250, 120)], seed=8)
    zone, spheres = full_zone(scn, params)
    trace = []
    optimize_position(zone, scn, params, SwarmConfig(), spheres=spheres, trace=trace)
    values = [row[1] for row in trace]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_optimize_respects_box(params):
    scn = make_scenario([(10, 10), (290, 290)], seed=13)
    zone, spheres = full_zone(scn, params)
    sol = optimize_position(zone, scn, params, SwarmConfig(), spheres=spheres)
    assert scn.venue.contains(sol.uav_position.as_array())


def test_optimize_degenerate_altitude_band(params):
    # Fixed-altitude search: z pinned to a single value.
    scn = make_scenario([(100, 100), (150, 150)], z=(20.0, 20.0), seed=4)
    zone, spheres = full_zone(scn, params)
    sol = optimize_position(zone, scn, params, SwarmConfig(), spheres=spheres)
    assert sol.uav_position.z == 20.0
    assert sol.feasible


def test_optimize_capacity_error_under_fixed_policy(params):
    # Nine UEs at 20 MHz each against a 160 MHz budget: the witness overruns.
    ue_xy = [(100 + 5 * k, 100) for k in range(9)]
    scn = make_scenario(ue_xy, bandwidth_policy="fixed", seed=1)
    zone, spheres = full_zone(scn, params)
    with pytest.raises(ZoneCapacityError):
        optimize_position(zone, scn, params, SwarmConfig(), spheres=spheres)
    sol = optimize_position(zone, scn, params, SwarmConfig(), spheres=spheres,
                            allow_capacity_overrun=True)
    assert not sol.feasible


def test_optimize_early_stop_activates(params, monkeypatch):
    scn = make_scenario([(150, 150)], seed=2)
    zone, spheres = full_zone(scn, params)
    assert fitness(zone.witness, zone, scn, params)[1]
    drawn, seeded = [], []
    monkeypatch.setattr(positioning, "_swarm_coefficients",
                        lambda *args: drawn.append(args) or iter(()))
    spawn_words = positioning._spawn_words
    monkeypatch.setattr(positioning, "_spawn_words",
                        lambda *args: seeded.append(args) or spawn_words(*args))
    cfg = SwarmConfig(max_iterations=100, early_stop_patience=10)
    trace = []
    sol = optimize_position(zone, scn, params, cfg, spheres=spheres, trace=trace)
    # A feasible witness is the first feasible best: no iteration, no draw,
    # no generator.
    value = fitness(zone.witness, zone, scn, params)[0]
    assert sol.feasible and sol.uav_position == zone.witness and sol.fitness == value
    assert sol.iterations == 0 and not drawn and not seeded
    assert trace == [(0, value, tuple(zone.witness.as_array()))]


def reference_placement(zone, scn, params, config, spheres):
    """The per-zone search's seeding, then all ``max_iterations`` with no stop."""
    data = ref.member_data(zone.members, scn)
    box = scn.venue
    centers = np.array([spheres[i].center.as_array() for i in data.indices])
    radii = np.array([spheres[i].radius for i in data.indices])
    lo, hi = ref.init_bounds(zone, centers, radii, box)
    seed_seq = np.random.SeedSequence([scn.seed, *data.indices.tolist()])
    rngs = [np.random.default_rng(s) for s in seed_seq.spawn(config.particle_count)]
    positions = np.array([zone.witness.as_array()]
                         + [lo + rng.random(3) * (hi - lo) for rng in rngs[1:]])
    velocities = np.zeros_like(positions)
    pbest_pos = positions.copy()
    pbest_val, _ = ref.swarm_fitness(positions, data, params, box)
    gbest_pos, gbest_val = positions[np.argmax(pbest_val)].copy(), np.max(pbest_val)
    for r1, r2 in ref.swarm_coefficients(rngs, config.max_iterations):
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


def test_first_feasible_best_is_the_full_search_result(params):
    # Every feasible position scores the summed demand, so stopping at the
    # first feasible best returns what the whole search would.
    rng = np.random.default_rng(5)
    kinds = set()
    for k in range(20):
        side = float(rng.choice([200.0, 500.0, 2000.0]))
        scn = make_scenario(rng.uniform(0.0, side, (int(rng.integers(2, 5)), 2)),
                            demand=float(rng.choice([6.5e6, 26e6])), side=side, seed=k)
        zone = _pseudo_zone(range(len(scn.ues)), scn)
        spheres = build_spheres(scn, params)
        cfg = SwarmConfig()
        sol = optimize_position(zone, scn, params, cfg, spheres=spheres)
        ref_pos, ref_val, ref_feasible = reference_placement(zone, scn, params, cfg, spheres)
        if sol.feasible or ref_feasible:
            assert sol.feasible and ref_feasible
            assert np.array_equal(sol.uav_position.as_array(), ref_pos)
            assert sol.fitness == ref_val
        if fitness(zone.witness, zone, scn, params)[1]:
            kinds.add("feasible witness")
        elif sol.feasible and sol.iterations == 0:
            kinds.add("seeded particle")
        elif sol.feasible:
            kinds.add("swarm reaches feasibility")
        elif unservable(zone.members, scn, params):
            assert not sol.feasible and sol.iterations == cfg.early_stop_patience
            kinds.add("unservable")
    assert kinds == {"feasible witness", "seeded particle", "swarm reaches feasibility",
                     "unservable"}


def solution_bits(sol):
    """Every field of a placement, floats by their bits; None stays None."""
    if sol is None:
        return None
    return (tuple(v.hex() for v in sol.uav_position.as_array().tolist()), sol.fitness.hex(),
            sol.feasible, sol.iterations,
            tuple((k.ue_index, k.bandwidth_hz.hex(), k.rate_bps.hex()) for k in sol.served_ues))


def trace_bits(rows):
    return [(it, float(v).hex(), tuple(float(p).hex() for p in pos)) for it, v, pos in rows]


def swarm_batches(params):
    """Random zones of 1 to 12 members, pseudo and enumerated, under both bandwidth policies."""
    rng = np.random.default_rng(7)
    for trial in range(6):
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
        cfg = SwarmConfig(particle_count=6, max_iterations=int(rng.choice([4, 25])),
                          early_stop_patience=int(rng.choice([1, 5])))
        yield scn, zones, spheres, cfg, trial % 4 == 3


def outcomes(zone, sol, cfg, allow):
    if sol is None:
        return {"pinned overrun"}
    if sol.iterations == 0:
        return {"feasible witness" if sol.uav_position == zone.witness else "seeded start"}
    seen = {"runs on past the certificate"} if (
        not allow and cfg.early_stop_patience < sol.iterations) else set()
    if sol.feasible:
        return seen | {"swarm"}
    if allow:
        return seen | {"overrun kept"}
    if sol.iterations == cfg.early_stop_patience < cfg.max_iterations:
        return seen | {"certificate stop"}
    return seen | {"max iterations"}


def test_lockstep_swarms_match_the_per_zone_search(params, monkeypatch):
    seen = set()
    for scn, zones, spheres, cfg, allow in swarm_batches(params):
        expected = []
        for zone in zones:
            rows = []
            try:
                sol = ref.loop_position(zone, scn, params, cfg, spheres, allow, trace=rows)
            except ZoneCapacityError:
                sol = None
            expected.append((solution_bits(sol), trace_bits(rows)))
            n = len(zone.members)
            seen |= outcomes(zone, sol, cfg, allow)
            seen.add("singleton" if n == 1 else "below 8" if n < 8 else "8 or more")

        def lockstep(batch):
            traces = [[] for _ in batch]
            sols = optimize_positions(batch, scn, params, cfg, spheres=spheres,
                                      allow_capacity_overrun=allow, traces=traces)
            return [(solution_bits(s), trace_bits(t)) for s, t in zip(sols, traces)]

        assert lockstep(zones) == expected
        assert [lockstep([zone])[0] for zone in zones] == expected
        with monkeypatch.context() as m:
            # One certificate cell scored at a time.
            m.setattr(positioning, "_CERTIFY_BUDGET", 1)
            assert lockstep(zones[::-1]) == expected[::-1]
    assert seen == {"singleton", "below 8", "8 or more", "pinned overrun", "feasible witness",
                    "seeded start", "swarm", "overrun kept", "certificate stop",
                    "max iterations", "runs on past the certificate"}


@pytest.mark.parametrize("patience", [3, 10])
def test_optimize_stops_at_patience_on_a_proven_unservable_zone(params, patience):
    # Two users 1.5 km apart at 26 Mbit/s: no point of the box reaches both.
    scn = make_scenario([(250, 1000), (1750, 1000)], demand=26e6, side=2000.0, seed=1)
    spheres = build_spheres(scn, params)
    zone = _pseudo_zone((0, 1), scn)
    assert unservable(zone.members, scn, params)
    cfg = SwarmConfig(early_stop_patience=patience)
    trace = []
    sol = optimize_position(zone, scn, params, cfg, spheres=spheres, trace=trace)
    assert not sol.feasible
    assert sol.iterations == patience and len(trace) == patience + 1
    # Placements that keep an infeasible zone run the whole search.
    kept = optimize_position(zone, scn, params, cfg, spheres=spheres,
                             allow_capacity_overrun=True)
    assert not kept.feasible and kept.iterations == cfg.max_iterations


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


def test_swarm_config_invariants():
    with pytest.raises(ValueError):
        SwarmConfig(particle_count=1)
    with pytest.raises(ValueError):
        SwarmConfig(inertia_weight=1.0)
    for bad in ({"max_iterations": -1}, {"early_stop_patience": 0},
                {"cognitive_coeff": -0.1}, {"social_coeff": math.nan},
                {"cognitive_coeff": math.inf}):
        with pytest.raises(ValueError):
            SwarmConfig(**bad)
    SwarmConfig(max_iterations=0, cognitive_coeff=0.0, social_coeff=0.0)


def reference_swarm_steps(rngs, positions, pbest_pos, gbest_pos, config, v_max, box, iterations):
    """The per-particle velocity loop: r1 then r2 by ``random(3)``, inertia, clip."""
    velocities = np.zeros_like(positions)
    trajectory = []
    for _ in range(iterations):
        for i in range(len(positions)):
            r1 = rngs[i].random(3)
            r2 = rngs[i].random(3)
            velocities[i] = (
                config.inertia_weight * velocities[i]
                + config.cognitive_coeff * r1 * (pbest_pos[i] - positions[i])
                + config.social_coeff * r2 * (gbest_pos - positions[i])
            )
        np.clip(velocities, -v_max, v_max, out=velocities)
        positions = box.clamp(positions + velocities)
        trajectory.append((velocities.copy(), positions))
    return trajectory


@pytest.mark.parametrize("iterations", [5, _DRAW_CHUNK, 2 * _DRAW_CHUNK + 3])
def test_swarm_step_reproduces_the_per_particle_loop(iterations):
    # Below one draw chunk, exactly one, and across two chunk boundaries.
    config = SwarmConfig(particle_count=7)
    box = FeasibleBox((0.0, 300.0), (0.0, 300.0), (10.0, 100.0))
    data = np.random.default_rng(11)
    start = box.clamp(data.uniform(-50.0, 350.0, (7, 3)))
    pbest_pos = box.clamp(data.uniform(0.0, 300.0, (7, 3)))
    gbest_pos = pbest_pos[3].copy()
    v_max = np.array([40.0, 25.0, 9.0])

    def streams():
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(99).spawn(7)]
        for rng in rngs[1:]:
            rng.random(3)  # the initial position draw of particles 1..n-1
        return rngs

    expected = reference_swarm_steps(streams(), start.copy(), pbest_pos, gbest_pos, config,
                                     v_max, box, iterations)
    positions, velocities = start.copy(), np.zeros_like(start)
    steps = list(_swarm_coefficients(streams(), iterations))
    assert len(steps) == iterations
    for (r1, r2), (v_ref, x_ref) in zip(steps, expected):
        velocities = _swarm_velocities(velocities, positions, pbest_pos, gbest_pos, r1, r2,
                                       config, v_max)
        positions = box.clamp(positions + velocities)
        assert np.array_equal(velocities, v_ref)
        assert np.array_equal(positions, x_ref)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spawn_words_are_numpys_spawned_seeds():
    # One call mixes entropy lengths 1 to 40 (padded to the pool, exactly
    # the pool, past it) in shuffled order, with the extreme words.
    data = np.random.default_rng(17)
    entropies = [data.integers(0, 2**32, n, dtype=np.uint64).tolist() for n in range(1, 41)]
    entropies += [[0], [0xFFFFFFFF], [0xFFFFFFFF, 0, 7], [0] * 4, [0xFFFFFFFF] * 6]
    data.shuffle(entropies)
    words = _spawn_words(entropies, 30)
    assert words.shape == (len(entropies), 30, 4) and words.dtype == np.uint64
    for e, zone_words in zip(entropies, words):
        children = np.random.SeedSequence(e).spawn(30)
        for child, w in zip(children, zone_words):
            assert np.array_equal(w, child.generate_state(4, np.uint64))
        for c in (0, 29):
            drawn = np.random.Generator(np.random.PCG64(_spawned_seed()(zone_words[c]))).random(200)
            assert np.array_equal(drawn, np.random.default_rng(children[c]).random(200))


def test_spawned_seed_gives_only_pcg64s_words():
    seed = _spawned_seed()(_spawn_words([[1, 2]], 1)[0, 0])
    for n_words, dtype in ((4, np.uint32), (2, np.uint64), (8, np.uint64)):
        with pytest.raises(ValueError):
            seed.generate_state(n_words, dtype)
