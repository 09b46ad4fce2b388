"""Shared fixtures and oracle helpers for the test suite."""
from __future__ import annotations

import math

import numpy as np
import pytest

from uavplan import ChannelParams, FeasibleBox, Point3, Scenario, UE
from uavplan.channel import SPEED_OF_LIGHT
from uavplan.coverage import build_spheres
from witness_reference import reference_witness


@pytest.fixture
def params():
    return ChannelParams()


# ---------------------------------------------------------------------------
# Independent oracle: straight transcription of the model chain, kept free of
# any library code so the implementation is checked against the formulas.
# ---------------------------------------------------------------------------

def oracle_chain(ue, uav, bandwidth, p: ChannelParams):
    """(distance, elevation_deg, p_los, gain, rate) by direct evaluation."""
    d = math.sqrt((uav[0] - ue[0]) ** 2 + (uav[1] - ue[1]) ** 2 + (uav[2] - ue[2]) ** 2)
    theta = math.degrees(math.asin((uav[2] - ue[2]) / d))
    eps = 1.0 / (1.0 + p.c1 * math.exp(-p.c2 * (theta - p.c1)))
    k0 = (4.0 * math.pi * p.carrier_frequency_hz / SPEED_OF_LIGHT) ** 2
    gain = 1.0 / (k0 * d * d * (eps * p.mu_los + (1.0 - eps) * p.mu_nlos))
    snr = p.tx_power_w * p.tx_antenna_gain * p.rx_antenna_gain * gain \
        / (p.noise_spectral_density * bandwidth)
    rate = bandwidth * math.log2(1.0 + snr)
    return d, theta, eps, gain, rate


def oracle_rate_at_threshold(d, bandwidth, p: ChannelParams):
    """Rate along a ray with the LoS probability clamped at the threshold."""
    k0 = (4.0 * math.pi * p.carrier_frequency_hz / SPEED_OF_LIGHT) ** 2
    bracket = p.los_threshold * p.mu_los + (1.0 - p.los_threshold) * p.mu_nlos
    gain = 1.0 / (k0 * d * d * bracket)
    snr = p.tx_power_w * p.tx_antenna_gain * p.rx_antenna_gain * gain \
        / (p.noise_spectral_density * bandwidth)
    return bandwidth * math.log2(1.0 + snr)


# ---------------------------------------------------------------------------
# Random scenario generators for property-style tests.
# ---------------------------------------------------------------------------

def random_scenario(
    rng: np.random.Generator,
    n_max: int = 30,
    n_min: int = 1,
    side_range=(80.0, 400.0),
    demands=(6.5e6, 13e6, 19.5e6),
    z_band=(10.0, 100.0),
    label="random",
) -> Scenario:
    side = float(rng.uniform(*side_range))
    n = int(rng.integers(n_min, n_max + 1))
    demand = float(rng.choice(demands))
    ues = tuple(
        UE(position=Point3(float(rng.uniform(0, side)), float(rng.uniform(0, side)), 0.0),
           demand_bps=demand)
        for _ in range(n)
    )
    return Scenario(
        label=label,
        seed=int(rng.integers(0, 2**31 - 1)),
        venue=FeasibleBox(x=(0.0, side), y=(0.0, side), z=z_band),
        ues=ues,
    )


def partition_oracle(scenario: Scenario, params: ChannelParams) -> int:
    """Minimum group count over all UE partitions with witness-feasible groups.

    Exhaustive: feasibility of every nonempty subset is decided by the
    reference witness search (``witness_reference``, independent of the
    planner's ``zone_witness``), then a subset-DP finds the optimal
    partition. Only sensible for small N.
    """
    spheres = build_spheres(scenario, params)
    n = len(scenario.ues)
    full = (1 << n) - 1
    feasible = np.zeros(full + 1, dtype=bool)
    for mask in range(1, full + 1):
        members = [i for i in range(n) if mask >> i & 1]
        _, deficit = reference_witness(members, spheres, scenario.venue)
        feasible[mask] = deficit <= 0
    best = np.full(full + 1, n + 1, dtype=int)
    best[0] = 0
    for mask in range(1, full + 1):
        sub = mask
        while sub:
            if feasible[sub]:
                cand = best[mask ^ sub] + 1
                if cand < best[mask]:
                    best[mask] = cand
            sub = (sub - 1) & mask
    return int(best[full])
