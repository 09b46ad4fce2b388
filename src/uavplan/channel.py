"""Air-to-ground propagation and achievable-rate model.

The link model combines an elevation-angle logistic line-of-sight probability
with inverse-square spreading and LoS/NLoS excess attenuation, and evaluates
the achievable uplink rate as Shannon capacity over the averaged channel.
Inverting the rate at a design LoS probability yields the maximum service
distance used to build per-user coverage spheres.

Every link's distance and elevation come from one function on numpy arrays,
``link_geometry``: ``snr_hz_between`` calls it on batches (swarm, validator,
throughput) and every scalar operation on one ``Point3`` pair, so a link
gets the same bits whichever path measures it.

All quantities are linear SI internally (W, Hz, m, bit/s); dBm/dBi/dB are
accepted only at construction helpers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .geometry import Point3

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Largest demand/bandwidth ratio (bit/s/Hz) before 2**x overflows a double.
_MAX_SPECTRAL_EFFICIENCY = 1000.0

# Most bandwidth grid steps a budget may hold: every grid index and width
# stays an exact double (and fits the int64 index).
MAX_GRID_STEPS = 2 ** 53


class ChannelDomainError(ValueError):
    """Link geometry or rate target outside the model's domain."""


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watt_to_dbm(watt: float) -> float:
    if watt <= 0:
        raise ValueError(f"power must be positive, got {watt} W")
    return 10.0 * math.log10(watt) + 30.0


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class ChannelParams:
    """Radio and environment constants for the air-to-ground model.

    Defaults follow an 802.11ac-style setup in the 5 GHz band: 20 dBm
    transmit power, 0 dBi antennas, and a -85 dBm noise floor interpreted
    as total noise over a 20 MHz channel (hence the spectral density
    default). ``c1``/``c2`` are the urban constants of the elevation-angle
    LoS model; ``mu_los``/``mu_nlos`` are the canonical urban excess
    attenuation factors (1 dB / 20 dB).
    """

    carrier_frequency_hz: float = 5.25e9
    tx_power_w: float = dbm_to_watt(20.0)
    tx_antenna_gain: float = 1.0
    rx_antenna_gain: float = 1.0
    noise_spectral_density: float = dbm_to_watt(-85.0) / 20e6  # W/Hz
    c1: float = 9.6
    c2: float = 0.28
    mu_los: float = db_to_linear(1.0)
    mu_nlos: float = db_to_linear(20.0)
    los_threshold: float = 0.9

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.carrier_frequency_hz <= 0:
            raise ValueError("carrier frequency must be positive")
        if self.tx_power_w <= 0:
            raise ValueError("tx power must be positive")
        if self.tx_antenna_gain <= 0 or self.rx_antenna_gain <= 0:
            raise ValueError("antenna gains must be positive")
        if self.noise_spectral_density <= 0:
            raise ValueError("noise spectral density must be positive")
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("LoS model constants c1, c2 must be positive")
        if self.mu_los < 1.0:
            raise ValueError("mu_los must be >= 1 (no gain from attenuation)")
        if self.mu_nlos < self.mu_los:
            raise ValueError("mu_nlos must be >= mu_los")
        if not 0.0 < self.los_threshold < 1.0:
            raise ValueError("los_threshold must lie strictly in (0, 1)")

    @property
    def k0(self) -> float:
        """Free-space constant (4*pi*f/c)^2, dimensionless for d in meters."""
        return (4.0 * math.pi * self.carrier_frequency_hz / SPEED_OF_LIGHT) ** 2


@dataclass(frozen=True)
class LinkBudget:
    """Per-link evaluation of the full model at one geometry."""

    distance_m: float
    elevation_deg: float
    p_los: float
    p_nlos: float
    gain: float
    rate_bps: float
    bandwidth_hz: float


# ---------------------------------------------------------------------------
# Array kernels. These carry the actual formulas; the scalar operations wrap
# them on one link's numpy values, so every consumer computes identical bits.
# ---------------------------------------------------------------------------

def los_probability_kernel(elevation_deg, c1, c2):
    return 1.0 / (1.0 + c1 * np.exp(-c2 * (elevation_deg - c1)))


def attenuation_bracket(p_los, params: ChannelParams):
    return p_los * params.mu_los + (1.0 - p_los) * params.mu_nlos


def gain_kernel(distance, elevation_deg, params: ChannelParams):
    p_los = los_probability_kernel(elevation_deg, params.c1, params.c2)
    # distance * distance, not ** 2: on a numpy scalar ** 2 calls pow, which
    # can round differently from the product an array's ** 2 computes.
    return 1.0 / (params.k0 * (distance * distance) * attenuation_bracket(p_los, params))


def snr_hz_kernel(gain, params: ChannelParams):
    """Received power over noise density: P*Gt*Gr*gain/N0, in Hz."""
    return params.tx_power_w * params.tx_antenna_gain * params.rx_antenna_gain * gain \
        / params.noise_spectral_density


def shannon_rate_kernel(snr_hz, bandwidth_hz):
    """Shannon rate B*log2(1 + S/B) of a link with received SNR density S (Hz)."""
    return bandwidth_hz * np.log2(1.0 + snr_hz / bandwidth_hz)


def link_geometry(ue_xyz, uav_xyz):
    """Distance (m), elevation (deg) and validity of the UE->UAV links of broadcast (..., 3) arrays.

    A link is valid when its UAV lies strictly above its UE at a positive
    distance. An invalid link reads elevation 0; callers mask or reject it.
    """
    d = np.linalg.norm(uav_xyz - ue_xyz, axis=-1)
    dz = uav_xyz[..., 2] - ue_xyz[..., 2]
    valid = (d > 0.0) & (dz > 0.0)
    sin_elev = np.clip(np.where(valid, dz, 0.0) / np.where(valid, d, 1.0), 0.0, 1.0)
    return d, np.degrees(np.arcsin(sin_elev)), valid


def snr_hz_between(ue_xyz, uav_xyz, params: ChannelParams):
    """SNR density (Hz) between broadcast arrays of UE and UAV positions (..., 3).

    A UAV at or below its UE lies outside the elevation model; its link gets
    0, which the Shannon kernel turns into a zero rate, so a swarm can score
    such positions as unserved and move away from them.
    """
    distance, elevation_deg, valid = link_geometry(ue_xyz, uav_xyz)
    gain = gain_kernel(np.where(valid, distance, 1.0), elevation_deg, params)
    return np.where(valid, snr_hz_kernel(gain, params), 0.0)


def snr_hz_upper_bound(ue_xyz, lo, hi, params: ChannelParams):
    """Upper bound on ``snr_hz_between`` over every UAV position in the cell [lo, hi].

    Arrays broadcast as in ``snr_hz_between``; ``lo`` and ``hi`` are a cell's
    corners. The gain falls with distance and, because ``c2 > 0`` and
    ``mu_los <= mu_nlos``, rises with elevation, so the bound takes the nearest
    distance from the UE to the cell and the steepest elevation, that of the
    cell's top above its nearest horizontal point. Where the top is not above
    the UE every point of the cell gets 0, and so does the bound; a UE inside
    the cell gets inf.
    """
    nearest = np.clip(ue_xyz, lo, hi)
    offset = nearest - ue_xyz
    d = np.linalg.norm(offset, axis=-1)
    top = hi[..., 2] - ue_xyz[..., 2]
    above = top > 0.0
    elevation = np.degrees(np.arctan2(np.where(above, top, 0.0),
                                      np.hypot(offset[..., 0], offset[..., 1])))
    with np.errstate(divide="ignore"):
        gain = gain_kernel(d, elevation, params)
    return np.where(above, snr_hz_kernel(gain, params), 0.0)


def _fit_width_root(c):
    """Root u > 0 of log1p(u) = c*u, elementwise, for 0 < c < 1.

    g(u) = log1p(u) - c*u is concave and peaks at u = 1/c - 1, so Newton
    started right of the root converges to it monotonically from the right.
    Both starts lie there: (2/c)ln(2/c) - 1, where g <= c - 1 < 0, and for
    c > 1/2 the bound 2(1-c)/(2c-1) from log1p(u) <= u(2+u)/(2+2u), which
    keeps the near-double root at c -> 1 to a few steps. Five steps reach
    rounding level over the whole range.
    """
    u = (2.0 / c) * np.log(2.0 / c) - 1.0
    near_one = c > 0.5
    u[near_one] = np.minimum(u[near_one], 2.0 * (1.0 - c[near_one]) / (2.0 * c[near_one] - 1.0))
    for _ in range(5):
        u = u - (np.log1p(u) - c * u) / (1.0 / (1.0 + u) - c)
    return u


def demand_fit_kernel(snr_hz, demand_bps, b_max_hz: float, grid_hz: float):
    """Smallest grid bandwidth meeting each demand, and the rate it gives.

    Arrays broadcast against each other; demands are positive. With
    c = D·ln2/S, the width solving B·log2(1 + S/B) = D is S/u for the root u
    of log1p(u) = c·u (``_fit_width_root``), which exists only for c < 1:
    the rate stays below S/ln2. Its grid index is then walked up while the
    rate falls short and down while one step less still meets the demand, so
    the Shannon kernel itself decides the first sufficient multiple of
    ``grid_hz``. Where even the last index b_max_hz//grid_hz falls short,
    the bandwidth is the last grid width and the rate stays below the
    demand. Needs ``grid_hz <= b_max_hz`` within ``MAX_GRID_STEPS`` steps,
    which ``Scenario.validate`` guarantees.
    """
    snr_hz, demand_bps = np.broadcast_arrays(np.asarray(snr_hz, dtype=float),
                                             np.asarray(demand_bps, dtype=float))
    k_max = int(b_max_hz // grid_hz)
    with np.errstate(divide="ignore"):  # a zero SNR gives c = inf: unreachable
        c = demand_bps * math.log(2.0) / snr_hz
    fits = c < 1.0
    k = np.full(snr_hz.shape, k_max, dtype=np.int64)
    k[fits] = np.clip(np.ceil(snr_hz[fits] / _fit_width_root(c[fits]) / grid_hz), 1, k_max)

    def rate_at(steps):
        return shannon_rate_kernel(snr_hz, steps * grid_hz)

    while (short := (rate_at(k) < demand_bps) & (k < k_max)).any():
        k += short
    while (spare := (rate_at(np.maximum(k - 1, 1)) >= demand_bps) & (k > 1)).any():
        k -= spare
    return k * grid_hz, rate_at(k)


# ---------------------------------------------------------------------------
# Scalar operations on explicit geometries.
# ---------------------------------------------------------------------------

def path_distance(a: Point3, b: Point3) -> float:
    """Euclidean distance in meters between two points, as ``link_geometry`` measures it."""
    return float(link_geometry(a.as_array(), b.as_array())[0])


def _checked_geometry(ue: Point3, uav: Point3):
    """``link_geometry`` of one link, as numpy values; raises outside the elevation model."""
    d, elev, valid = link_geometry(ue.as_array(), uav.as_array())
    if not valid:
        raise ChannelDomainError(
            f"UAV altitude {uav.z} m not above UE altitude {ue.z} m at a positive distance; "
            "the elevation model is undefined at or below the horizon"
        )
    return d, elev


def los_probability(ue: Point3, uav: Point3, params: ChannelParams) -> float:
    """Line-of-sight probability of the UE->UAV link, strictly in (0, 1)."""
    _, elev = _checked_geometry(ue, uav)
    return float(los_probability_kernel(elev, params.c1, params.c2))


def channel_gain(ue: Point3, uav: Point3, params: ChannelParams) -> float:
    """Average linear channel gain (free-space spreading x LoS/NLoS mix)."""
    return float(gain_kernel(*_checked_geometry(ue, uav), params))


def link_rate(ue: Point3, uav: Point3, bandwidth_hz: float, params: ChannelParams) -> float:
    """Achievable rate in bit/s over the given bandwidth."""
    if bandwidth_hz <= 0:
        raise ChannelDomainError(f"bandwidth must be positive, got {bandwidth_hz}")
    snr_hz = snr_hz_kernel(gain_kernel(*_checked_geometry(ue, uav), params), params)
    return float(shannon_rate_kernel(snr_hz, bandwidth_hz))


def link_budget(ue: Point3, uav: Point3, bandwidth_hz: float, params: ChannelParams) -> LinkBudget:
    """Evaluate the whole chain at one geometry; p_nlos is the exact complement."""
    if bandwidth_hz <= 0:
        raise ChannelDomainError(f"bandwidth must be positive, got {bandwidth_hz}")
    d, elev = _checked_geometry(ue, uav)
    p_los = float(los_probability_kernel(elev, params.c1, params.c2))
    gain = gain_kernel(d, elev, params)
    rate = shannon_rate_kernel(snr_hz_kernel(gain, params), bandwidth_hz)
    return LinkBudget(
        distance_m=float(d),
        elevation_deg=float(elev),
        p_los=p_los,
        p_nlos=1.0 - p_los,
        gain=float(gain),
        rate_bps=float(rate),
        bandwidth_hz=bandwidth_hz,
    )


def max_service_distance(demand_bps: float, bandwidth_hz: float, params: ChannelParams) -> float:
    """Largest UE-UAV distance at which the demand is satisfiable.

    The LoS mix in the gain depends on the (unknown) elevation angle, so it
    is evaluated at the fixed design probability ``params.los_threshold``.
    The result is a conservative closed form: any position within this
    distance whose realized LoS probability meets the threshold achieves at
    least ``demand_bps`` over ``bandwidth_hz``.
    """
    if demand_bps <= 0:
        raise ChannelDomainError(f"demand must be positive, got {demand_bps}")
    if bandwidth_hz <= 0:
        raise ChannelDomainError(f"bandwidth must be positive, got {bandwidth_hz}")
    spectral = demand_bps / bandwidth_hz
    if not math.isfinite(spectral) or spectral > _MAX_SPECTRAL_EFFICIENCY:
        raise ChannelDomainError(
            f"demand/bandwidth = {spectral} bit/s/Hz overflows the rate inversion"
        )
    a = 1.0 / (params.k0 * attenuation_bracket(params.los_threshold, params))
    numerator = a * params.tx_power_w * params.tx_antenna_gain * params.rx_antenna_gain
    denominator = params.noise_spectral_density * bandwidth_hz * (2.0 ** spectral - 1.0)
    return math.sqrt(numerator / denominator)


def min_bandwidth_for_demand(
    ue: Point3,
    uav: Point3,
    demand_bps: float,
    params: ChannelParams,
    b_max_hz: float,
    grid_hz: float = 1e3,
) -> float | None:
    """Smallest bandwidth on the grid meeting the demand at this geometry.

    Returns None when even ``b_max_hz`` cannot deliver the demand.
    """
    if demand_bps <= 0:
        raise ChannelDomainError(f"demand must be positive, got {demand_bps}")
    if not (0 < grid_hz <= b_max_hz < math.inf and b_max_hz // grid_hz <= MAX_GRID_STEPS):
        raise ChannelDomainError(
            f"need 0 < grid_hz <= b_max_hz < inf within {MAX_GRID_STEPS} grid steps, "
            f"got grid {grid_hz}, budget {b_max_hz}"
        )
    snr_hz = snr_hz_kernel(gain_kernel(*_checked_geometry(ue, uav), params), params)
    bw, rate = demand_fit_kernel(snr_hz, demand_bps, b_max_hz, grid_hz)
    return float(bw) if rate >= demand_bps else None
