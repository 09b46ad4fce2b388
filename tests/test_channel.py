"""Channel model: pinned values, domain errors, and analytic properties."""
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from uavplan import (
    ChannelDomainError,
    ChannelParams,
    Point3,
    channel_gain,
    db_to_linear,
    dbm_to_watt,
    link_budget,
    link_rate,
    los_probability,
    max_service_distance,
    min_bandwidth_for_demand,
    path_distance,
    watt_to_dbm,
)
from uavplan.channel import (
    SPEED_OF_LIGHT,
    demand_fit_kernel,
    gain_kernel,
    link_geometry,
    los_probability_kernel,
    shannon_rate_kernel,
    snr_hz_between,
    snr_hz_upper_bound,
)
from conftest import oracle_chain, oracle_rate_at_threshold


def test_path_distance_pinned():
    assert path_distance(Point3(0, 0, 0), Point3(0, 0, 0)) == 0.0
    assert path_distance(Point3(0, 0, 0), Point3(3, 4, 0)) == 5.0
    assert path_distance(Point3(1, 2, 3), Point3(4, 6, 15)) == 13.0


def test_path_distance_symmetry():
    a, b = Point3(1.5, -2.0, 7.0), Point3(-3.0, 4.0, 11.0)
    assert path_distance(a, b) == path_distance(b, a)


def test_los_probability_at_c1_elevation(params):
    # Elevation exactly c1 degrees zeroes the exponent: 1/(1 + c1).
    theta = math.radians(params.c1)
    uav = Point3(math.cos(theta), 0.0, math.sin(theta))
    assert los_probability(Point3(0, 0, 0), uav, params) == pytest.approx(1.0 / 10.6, rel=1e-12)


def test_los_probability_zenith(params):
    eps = los_probability(Point3(0, 0, 0), Point3(0, 0, 100), params)
    assert 1.0 - eps == pytest.approx(1.6048478101993169e-09, rel=1e-9)


def test_los_probability_near_horizon(params):
    # Grazing geometry approaches 1/(1 + c1*exp(c1*c2)).
    eps = los_probability(Point3(0, 0, 0), Point3(100, 0, 1e-7), params)
    assert eps == pytest.approx(1.0 / (1.0 + 9.6 * math.exp(0.28 * 9.6)), rel=1e-6)


def test_los_probability_rejects_below_horizon(params):
    with pytest.raises(ChannelDomainError):
        los_probability(Point3(0, 0, 5), Point3(10, 0, 5), params)
    with pytest.raises(ChannelDomainError):
        los_probability(Point3(0, 0, 5), Point3(10, 0, 1), params)
    with pytest.raises(ChannelDomainError):
        los_probability(Point3(0, 0, 0), Point3(0, 0, 0), params)


def test_gain_is_inverse_k0_at_unit_distance():
    p = ChannelParams(mu_los=1.0, mu_nlos=1.0)
    gain = channel_gain(Point3(0, 0, 0), Point3(0, 0, 1), p)
    k0 = (4 * math.pi * p.carrier_frequency_hz / SPEED_OF_LIGHT) ** 2
    assert gain == pytest.approx(1.0 / k0, rel=1e-12)
    assert gain == pytest.approx(2.0649192406869657e-05, rel=1e-12)


def test_gain_inverse_square_along_fixed_elevation(params):
    # Doubling the distance at fixed elevation divides the gain by 4.
    g1 = channel_gain(Point3(0, 0, 0), Point3(30, 0, 40), params)
    g2 = channel_gain(Point3(0, 0, 0), Point3(60, 0, 80), params)
    assert g1 / g2 == pytest.approx(4.0, rel=1e-12)


def test_gain_ignores_los_split_when_mus_equal():
    p = ChannelParams(mu_los=7.0, mu_nlos=7.0)
    low = channel_gain(Point3(0, 0, 0), Point3(80, 0, 60), p)    # 36.9 deg
    high = channel_gain(Point3(0, 0, 0), Point3(60, 0, 80), p)   # 53.1 deg
    assert low == pytest.approx(high, rel=1e-12)


def test_link_rate_regression_at_defaults(params):
    # Frozen from a direct scripted evaluation of the full chain.
    rate = link_rate(Point3(0, 0, 0), Point3(0, 0, 20), 20e6, params)
    assert rate == pytest.approx(206835057.03280416, rel=1e-12)


def test_link_rate_equals_bandwidth_at_unit_snr(params):
    # Along the zenith ray the LoS mix is fixed; solve d for SNR == 1.
    b = 20e6
    eps = 1.0 / (1.0 + params.c1 * math.exp(-params.c2 * (90.0 - params.c1)))
    bracket = eps * params.mu_los + (1 - eps) * params.mu_nlos
    d = math.sqrt(params.tx_power_w / (params.k0 * bracket * params.noise_spectral_density * b))
    rate = link_rate(Point3(0, 0, 0), Point3(0, 0, d), b, params)
    assert rate == pytest.approx(b, rel=1e-9)


def test_link_rate_monotone_in_distance(params):
    rates = [
        link_rate(Point3(0, 0, 0), Point3(3 * k, 0, 4 * k), 20e6, params)
        for k in range(1, 40)
    ]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_los_monotone_in_elevation(params):
    # Fixed distance, sweeping elevation upward.
    probs = []
    for theta_deg in np.linspace(1.0, 89.0, 60):
        t = math.radians(theta_deg)
        probs.append(los_probability(Point3(0, 0, 0), Point3(100 * math.cos(t), 0, 100 * math.sin(t)), params))
    assert all(a < b for a, b in zip(probs, probs[1:]))
    assert all(0.0 < p < 1.0 for p in probs)


def test_link_budget_complement_exact(params):
    rng = np.random.default_rng(7)
    for _ in range(100):
        uav = Point3(float(rng.uniform(-200, 200)), float(rng.uniform(-200, 200)),
                     float(rng.uniform(1, 150)))
        lb = link_budget(Point3(0, 0, 0), uav, 20e6, params)
        assert lb.p_los + lb.p_nlos == 1.0
        assert 0.0 < lb.p_los < 1.0
        assert lb.rate_bps > 0


def test_oracle_equivalence_random_grid(params):
    rng = np.random.default_rng(42)
    for _ in range(300):
        ue = (float(rng.uniform(-100, 100)), float(rng.uniform(-100, 100)), 0.0)
        uav = (float(rng.uniform(-300, 300)), float(rng.uniform(-300, 300)),
               float(rng.uniform(0.5, 150)))
        b = float(rng.uniform(1e6, 160e6))
        _, _, eps_o, gain_o, rate_o = oracle_chain(ue, uav, b, params)
        ue_p, uav_p = Point3(*ue), Point3(*uav)
        assert los_probability(ue_p, uav_p, params) == pytest.approx(eps_o, rel=1e-12)
        assert channel_gain(ue_p, uav_p, params) == pytest.approx(gain_o, rel=1e-12)
        assert link_rate(ue_p, uav_p, b, params) == pytest.approx(rate_o, rel=1e-12)


def test_max_service_distance_trivial_exponent(params):
    # Demand equal to bandwidth forces 2^1 - 1 = 1 in the denominator.
    b = 20e6
    d = max_service_distance(b, b, params)
    bracket = params.los_threshold * params.mu_los + (1 - params.los_threshold) * params.mu_nlos
    expected = math.sqrt(
        params.tx_power_w / (params.k0 * bracket * params.noise_spectral_density * b)
    )
    assert d == pytest.approx(expected, rel=1e-12)


def test_max_service_distance_sqrt_law(params):
    # Quadrupling (2^(T/B) - 1) halves the radius.
    b = 10e6
    t1 = b * 1.0                      # 2^1 - 1 = 1
    t2 = b * math.log2(5.0)           # 2^log2(5) - 1 = 4
    assert max_service_distance(t1, b, params) / max_service_distance(t2, b, params) \
        == pytest.approx(2.0, rel=1e-12)


def test_max_service_distance_decreasing_in_demand(params):
    radii = [max_service_distance(t, 20e6, params) for t in np.linspace(1e6, 60e6, 25)]
    assert all(a > b for a, b in zip(radii, radii[1:]))


def test_max_service_distance_matches_bisection(params):
    for t, b in [(6.5e6, 20e6), (52e6, 20e6), (6.5e6, 160e6), (39e6, 160e6)]:
        d = max_service_distance(t, b, params)
        root = brentq(lambda x: oracle_rate_at_threshold(x, b, params) - t, 1e-3, 1e7,
                      xtol=1e-9, rtol=1e-12)
        assert d == pytest.approx(root, rel=1e-6)


def test_rate_at_max_service_distance_is_demand(params):
    # Inversion consistency on a (T, B) grid with the LoS mix clamped.
    for t in (1e6, 6.5e6, 13e6, 26e6, 52e6):
        for b in (5e6, 20e6, 80e6, 160e6):
            d = max_service_distance(t, b, params)
            assert oracle_rate_at_threshold(d, b, params) == pytest.approx(t, rel=1e-9)


def test_max_service_distance_of_a_vanishing_demand_is_finite(params):
    # 2**x - 1 rounds to 0 below x of about 1e-16: such demands, down to the
    # smallest subnormal, get the finite distance at the floor ratio.
    floor = max_service_distance(1e-12 * 20e6, 20e6, params)
    assert math.isfinite(floor) and floor > max_service_distance(1.0, 20e6, params)
    for demand in (1e-9, 9.5e-131, 5e-324):
        assert max_service_distance(demand, 20e6, params) == floor


def test_max_service_distance_overflow_guard(params):
    with pytest.raises(ChannelDomainError):
        max_service_distance(2e12, 1e6, params)
    with pytest.raises(ChannelDomainError):
        max_service_distance(-1.0, 1e6, params)
    with pytest.raises(ChannelDomainError):
        max_service_distance(1e6, 0.0, params)


def test_dbm_round_trip():
    for dbm in (-85.0, 0.0, 20.0, 36.5):
        assert watt_to_dbm(dbm_to_watt(dbm)) == pytest.approx(dbm, rel=1e-12, abs=1e-12)
    assert dbm_to_watt(20.0) == pytest.approx(0.1, rel=1e-12)


def test_noise_floor_interpretation(params):
    # -85 dBm total over a 20 MHz channel.
    assert params.noise_spectral_density * 20e6 == pytest.approx(dbm_to_watt(-85.0), rel=1e-12)


def test_min_bandwidth_for_demand_properties(params):
    ue, uav = Point3(0, 0, 0), Point3(30, 10, 60)
    b = min_bandwidth_for_demand(ue, uav, 6.5e6, params, b_max_hz=160e6, grid_hz=1e3)
    assert b is not None and b % 1e3 == 0
    assert link_rate(ue, uav, b, params) >= 6.5e6
    if b > 1e3:
        assert link_rate(ue, uav, b - 1e3, params) < 6.5e6
    # Unreachable demand returns None.
    assert min_bandwidth_for_demand(ue, Point3(5000, 5000, 60), 52e6, params,
                                    b_max_hz=160e6, grid_hz=1e3) is None
    # A budget below one grid step has no grid width at all.
    with pytest.raises(ChannelDomainError):
        min_bandwidth_for_demand(ue, uav, 6.5e6, params, b_max_hz=500.0, grid_hz=1e3)
    # Nor one with more steps than an exact grid index holds (1.6e19 > 2**53).
    with pytest.raises(ChannelDomainError):
        min_bandwidth_for_demand(ue, uav, 6.5e6, params, b_max_hz=160e6, grid_hz=1e-11)


def test_demand_fit_kernel_matches_a_linear_scan():
    rng = np.random.default_rng(17)
    grid_hz, steps = 1e3, 300
    snr_hz = 10.0 ** rng.uniform(3.0, 9.0, (40, 7))
    demand = rng.uniform(1e4, 3e6, 7)
    # A budget between grid steps: the last usable width is steps * grid_hz.
    bw, rate = demand_fit_kernel(snr_hz, demand, (steps + 0.5) * grid_hz, grid_hz)
    widths = np.arange(1, steps + 1) * grid_hz
    achieved = 0
    for (p, m), s in np.ndenumerate(snr_hz):
        scan = widths * np.log2(1.0 + s / widths)
        enough = np.flatnonzero(scan >= demand[m])
        k = enough[0] if enough.size else steps - 1
        assert bw[p, m] == widths[k]
        assert rate[p, m] == scan[k]
        assert (rate[p, m] >= demand[m]) == bool(enough.size)
        achieved += bool(enough.size)
    assert 0 < achieved < snr_hz.size  # both reachable and unreachable demands


def test_channel_params_invariants():
    with pytest.raises(ValueError):
        ChannelParams(mu_nlos=1.0, mu_los=2.0)
    with pytest.raises(ValueError):
        ChannelParams(los_threshold=1.0)
    with pytest.raises(ValueError):
        ChannelParams(tx_power_w=0.0)
    with pytest.raises(ValueError):
        ChannelParams(c1=-1.0)
    # NaN fails no ordered comparison, and nothing above bounds these from above.
    for field in ("c1", "mu_nlos", "tx_power_w", "rx_antenna_gain"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                ChannelParams(**{field: value})
    # A negative gain makes every SNR negative, and the demand fit never ends.
    for field in ("tx_antenna_gain", "rx_antenna_gain"):
        for value in (0.0, -1.0):
            with pytest.raises(ValueError, match="must be positive"):
                ChannelParams(**{field: value})


def random_cells(rng, ues, kind):
    """One cell (lo, hi) per UE, of the given kind, over a 2 km x 2 km x 120 m region."""
    n = len(ues)
    lo = rng.uniform([-200.0, -200.0, -20.0], [1800.0, 1800.0, 100.0], (n, 3))
    if kind != "general":  # general cells may straddle or sit below the UE
        lo[:, 2] = rng.uniform(5.0, 100.0, n)
    size = rng.uniform(0.0, 400.0, (n, 3)) * rng.choice([1e-3, 1.0], (n, 3))
    if kind == "flat":
        size[:, 2] = 0.0
    elif kind == "own column":
        lo[:, :2] = ues[:, :2] - rng.uniform(0.0, 1.0, (n, 2)) * size[:, :2]
    elif kind == "below":
        lo[:, 2] = ues[:, 2] - size[:, 2] - rng.uniform(0.0, 30.0, n)
    return lo, lo + size


@pytest.mark.parametrize("kind", ["general", "flat", "own column", "below"])
@pytest.mark.parametrize("channel_params", [
    ChannelParams(),
    ChannelParams(c1=4.9, c2=0.43, mu_los=db_to_linear(0.1), mu_nlos=db_to_linear(21.0)),
    ChannelParams(mu_los=db_to_linear(3.0), mu_nlos=db_to_linear(3.0)),
])
def test_snr_upper_bound_holds_inside_every_cell(channel_params, kind):
    rng = np.random.default_rng([17, len(kind)])
    ues = rng.uniform([0.0, 0.0, 0.0], [1600.0, 1600.0, 3.0], (400, 3))
    lo, hi = random_cells(rng, ues, kind)
    bound = snr_hz_upper_bound(ues, lo, hi, channel_params)
    # Uniform points of each cell, its corners, and the point nearest the UE.
    inside = lo + rng.uniform(0.0, 1.0, (64, 1, 3)) * (hi - lo)
    corners = np.array([[[a, b, c]] for a in (0, 1) for b in (0, 1) for c in (0, 1)])
    points = np.concatenate([inside, lo + corners * (hi - lo), np.clip(ues, lo, hi)[None]])
    snr = snr_hz_between(ues, points, channel_params)
    assert np.all(snr <= bound * (1.0 + 1e-12))
    above = hi[:, 2] > ues[:, 2]
    assert np.array_equal(bound > 0.0, above)
    if kind == "below":
        assert not above.any()
        return
    if kind != "general":
        assert above.all()
    # Tight as well as sound: the median cell's best sample reaches half its bound.
    assert np.median(np.max(snr[:, above], axis=0) / bound[above]) > 0.5


# The production grid: a 160 MHz budget on a 1 kHz grid, k_max = 160,000.
B_MAX_HZ, GRID_HZ = 160e6, 1e3


def assert_first_sufficient_width(snr_hz, demand, bw, rate, b_max_hz=B_MAX_HZ, grid_hz=GRID_HZ):
    """Each element is the first grid width meeting its demand, or the last one."""
    k_max = int(b_max_hz // grid_hz)
    snr_hz, demand, bw, rate = np.broadcast_arrays(snr_hz, demand, bw, rate)
    k = bw / grid_hz
    assert np.array_equal(k, np.round(k)) and np.all((k >= 1) & (k <= k_max))
    assert np.array_equal(rate, shannon_rate_kernel(snr_hz, bw))
    below = shannon_rate_kernel(snr_hz, np.maximum(k - 1, 1) * grid_hz)
    met = rate >= demand
    assert np.all(~met <= (k == k_max))  # only the last width may fall short
    assert np.all((k == 1) | (below < demand))


def test_demand_fit_kernel_at_the_production_grid():
    rng = np.random.default_rng(23)
    snr_hz = 10.0 ** rng.uniform(2.0, 12.0, (200, 50))
    # Demands from far below to past the S/ln2 ceiling of each link.
    demand = snr_hz / math.log(2.0) * 10.0 ** rng.uniform(-5.0, 0.2, snr_hz.shape)
    bw, rate = demand_fit_kernel(snr_hz, demand, B_MAX_HZ, GRID_HZ)
    assert_first_sufficient_width(snr_hz, demand, bw, rate)
    assert 0 < np.sum(rate >= demand) < demand.size


def test_demand_fit_kernel_demands_on_the_grid_rates():
    # The rate of width k, or one ulp above the rate of width k - 1, needs
    # exactly width k; the closed-form estimate lands on either side of it,
    # so both walks are exercised.
    rng = np.random.default_rng(5)
    snr_hz = 10.0 ** rng.uniform(4.0, 11.0, 5000)
    k = rng.integers(2, int(B_MAX_HZ // GRID_HZ) + 1, snr_hz.size)
    for demand in (shannon_rate_kernel(snr_hz, k * GRID_HZ),
                   np.nextafter(shannon_rate_kernel(snr_hz, (k - 1) * GRID_HZ), np.inf)):
        bw, rate = demand_fit_kernel(snr_hz, demand, B_MAX_HZ, GRID_HZ)
        assert np.array_equal(bw, k * GRID_HZ)
        assert_first_sufficient_width(snr_hz, demand, bw, rate)


def test_demand_fit_kernel_unreachable_demands_take_the_last_width():
    snr_hz = np.array([0.0, 0.0, 1e6, 1e8, 5e9])
    # Zero SNR, then demands at and past the S/ln2 ceiling, which no width reaches.
    demand = np.array([1.0, 6.5e6, 1e6 / math.log(2.0), 1e8 / math.log(2.0), 5e9])
    bw, rate = demand_fit_kernel(snr_hz, demand, B_MAX_HZ, GRID_HZ)
    assert np.all(bw == B_MAX_HZ)
    assert np.all(rate < demand)
    assert_first_sufficient_width(snr_hz, demand, bw, rate)


def test_demand_fit_kernel_negative_or_nan_snr_takes_the_last_width():
    # No root exists (c = D*ln2/S < 0 or NaN): the walk starts at the last
    # width, not at a cast of a NaN root to the int64 minimum.
    demand = np.array([6.5e6, 6.5e6])
    bw, rate = demand_fit_kernel(np.array([-1.0, math.nan]), demand, B_MAX_HZ, GRID_HZ)
    assert np.array_equal(bw, [int(B_MAX_HZ // GRID_HZ) * GRID_HZ] * 2)
    assert rate[0] < demand[0] and np.isnan(rate[1])


def test_demand_fit_kernel_reachable_only_at_the_last_width():
    snr_hz = np.array([1e5, 3e7, 1e8, 4e9])
    last = shannon_rate_kernel(snr_hz, B_MAX_HZ)
    previous = shannon_rate_kernel(snr_hz, B_MAX_HZ - GRID_HZ)
    for demand in (last, 0.5 * (last + previous)):
        bw, rate = demand_fit_kernel(snr_hz, demand, B_MAX_HZ, GRID_HZ)
        assert np.all(bw == B_MAX_HZ)
        assert np.all(rate >= demand)
    # One step less is enough for the previous width's rate.
    bw, _ = demand_fit_kernel(snr_hz, previous, B_MAX_HZ, GRID_HZ)
    assert np.all(bw == B_MAX_HZ - GRID_HZ)


def test_demand_fit_kernel_single_width_budget():
    # grid_hz == b_max_hz: the only width is the whole budget.
    snr_hz = np.array([0.0, 500.0, 1e3, 1e9])
    demand = np.array([1e3, 1e3, 1e3, 1e3])
    bw, rate = demand_fit_kernel(snr_hz, demand, GRID_HZ, GRID_HZ)
    assert np.all(bw == GRID_HZ)
    assert np.array_equal(rate >= demand, [False, False, True, True])
    assert_first_sufficient_width(snr_hz, demand, bw, rate, GRID_HZ, GRID_HZ)


def test_a_link_misses_at_its_fitted_width_exactly_where_it_misses_at_its_widest():
    # The certificate tests each member at its widest link and fits widths
    # only where every member reaches: the same cells as the fitted test.
    snr_hz = np.concatenate([[0.0], np.logspace(0.0, 13.0, 6501)])[:, None]
    demand = np.array([1e3, 6.5e6, 26e6, 52e6, 104e6, 450e6])
    pinned = np.array([math.nan, 5e6, 20e6, math.nan, B_MAX_HZ, math.nan])
    fit = np.isnan(pinned)
    widest = np.where(fit, int(B_MAX_HZ // GRID_HZ) * GRID_HZ, pinned)
    # Demands one ulp either side of each widest rate, from 2 kHz up: below
    # about 1.3 kHz, log2(1 + S/B) rounds coarser than one grid step's gain,
    # so a narrower width can round to a rate above the widest's and meet a
    # demand one ulp above it. Those rates are under 2 kbit/s, and the SNR
    # bound's margin is far wider than that rounding.
    fine = snr_hz[snr_hz[:, 0] >= 2e3]
    top = shannon_rate_kernel(fine, widest)
    shorts = []
    for snr, d in ((snr_hz, np.broadcast_to(demand, (len(snr_hz), len(demand)))),
                   (fine, np.nextafter(top, np.inf)), (fine, np.nextafter(top, -np.inf))):
        fitted, _ = demand_fit_kernel(snr, d, B_MAX_HZ, GRID_HZ)
        short = shannon_rate_kernel(snr, widest) < d
        assert np.array_equal(shannon_rate_kernel(snr, np.where(fit, fitted, pinned)) < d, short)
        shorts.append(short)
    assert shorts[0].any() and not shorts[0].all()
    assert shorts[1].all() and not shorts[2].any()


def test_min_bandwidth_for_demand_scalar_at_the_production_grid(params):
    ue = Point3(0, 0, 0)
    for uav in (Point3(0, 0, 10), Point3(30, 10, 60), Point3(400, 0, 100), Point3(1500, 0, 20)):
        for demand in (1e3, 6.5e6, 52e6, 300e6):
            b = min_bandwidth_for_demand(ue, uav, demand, params, B_MAX_HZ, GRID_HZ)
            top = link_rate(ue, uav, B_MAX_HZ, params)
            if b is None:
                assert top < demand
                continue
            assert b % GRID_HZ == 0 and GRID_HZ <= b <= B_MAX_HZ
            assert link_rate(ue, uav, b, params) >= demand
            assert b == GRID_HZ or link_rate(ue, uav, b - GRID_HZ, params) < demand


def test_scalar_operations_equal_the_array_kernels_bit_for_bit(params):
    # Each scalar operation measures its link with link_geometry, as
    # snr_hz_between does for a batch, so it returns its kernel's bits there.
    rng = np.random.default_rng(2024)
    n = 2000
    ue = np.column_stack([rng.uniform(-500, 500, (n, 2)), rng.uniform(0, 5, n)])
    uav = np.column_stack([rng.uniform(-500, 500, (n, 2)), rng.uniform(0, 150, n)])
    uav[:40, 2] = ue[:40, 2]  # level with the UE: outside the elevation model
    uav[40:60] = ue[40:60]    # coincident
    bandwidth = rng.uniform(GRID_HZ, B_MAX_HZ, n)
    demand = rng.uniform(1e5, 60e6, n)
    distance, elevation, valid = link_geometry(ue, uav)
    p_los = los_probability_kernel(elevation, params.c1, params.c2)
    gain = gain_kernel(np.where(valid, distance, 1.0), elevation, params)
    snr_hz = snr_hz_between(ue, uav, params)
    rate = shannon_rate_kernel(snr_hz, bandwidth)
    fit_bw, fit_rate = demand_fit_kernel(snr_hz, demand, B_MAX_HZ, GRID_HZ)
    assert 60 < n - valid.sum() < n // 10
    for i in range(n):
        a, b = Point3(*ue[i]), Point3(*uav[i])
        if not valid[i]:
            assert snr_hz[i] == 0.0 and rate[i] == 0.0
            with pytest.raises(ChannelDomainError):
                link_rate(a, b, bandwidth[i], params)
            with pytest.raises(ChannelDomainError):
                min_bandwidth_for_demand(a, b, demand[i], params, B_MAX_HZ, GRID_HZ)
            continue
        assert los_probability(a, b, params) == p_los[i]
        assert channel_gain(a, b, params) == gain[i]
        assert link_rate(a, b, bandwidth[i], params) == rate[i]
        lb = link_budget(a, b, bandwidth[i], params)
        assert (lb.distance_m, lb.elevation_deg, lb.p_los, lb.gain, lb.rate_bps) \
            == (distance[i], elevation[i], p_los[i], gain[i], rate[i])
        width = min_bandwidth_for_demand(a, b, demand[i], params, B_MAX_HZ, GRID_HZ)
        assert width == (fit_bw[i] if fit_rate[i] >= demand[i] else None)
