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
    dbm_to_watt,
    link_budget,
    link_rate,
    los_probability,
    max_service_distance,
    min_bandwidth_for_demand,
    path_distance,
    watt_to_dbm,
)
from uavplan.channel import demand_fit_kernel
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
    k0 = (4 * math.pi * p.carrier_frequency_hz / p.speed_of_light) ** 2
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
