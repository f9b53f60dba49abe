"""60 GHz link budget: directional Friis gain, Shannon rate, SNR-vs-distance.

All quantities are linear and SI internally (meters, hertz, milliwatts for
powers so the usual 60 GHz constants can be used verbatim).  Spectral
densities are quoted in dBm/MHz; `dbm_per_mhz_to_mw_per_hz` is their one
conversion, shared by the default link budget and config parsing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ChannelParams",
    "LinkRealization",
    "InfeasibleRadiusError",
    "default_params",
    "dbm_per_mhz_to_mw_per_hz",
    "compute_gain",
    "compute_rate",
    "snr_at_distance",
    "cell_radius",
    "realize_link",
]

_SIXTEEN_PI_SQ = 16.0 * math.pi**2


class InfeasibleRadiusError(ValueError):
    """No usable cell for the requested cell-edge SNR: out of reach, or overflowing."""


@dataclass(frozen=True)
class ChannelParams:
    """Physical-layer constants of one deployment.

    Attributes
    ----------
    wavelength : float
        Carrier wavelength in meters (5 mm at 60 GHz).
    noise_density : float
        One-sided noise power spectral density in mW/Hz.
    bandwidth : float
        System bandwidth in Hz.
    ref_distance : float
        Far-field reference distance in meters.
    path_loss_exp : float
        Path-loss exponent, restricted to [2, 6].
    tx_power : float
        Per-link transmit power in mW (uniform across links).
    tx_gain, rx_gain : float
        Flat-top transmit/receive antenna gains (linear, dimensionless).
    interference_density : float
        Interference spectral density at the receiver in mW/Hz; 0 for the
        pseudo-wired 60 GHz regime.
    """

    wavelength: float
    noise_density: float
    bandwidth: float
    ref_distance: float = 1.0
    path_loss_exp: float = 2.0
    tx_power: float = 0.1
    tx_gain: float = 1.0
    rx_gain: float = 1.0
    interference_density: float = 0.0

    def __post_init__(self) -> None:
        positive = {
            "wavelength": self.wavelength,
            "noise_density": self.noise_density,
            "bandwidth": self.bandwidth,
            "ref_distance": self.ref_distance,
            "tx_power": self.tx_power,
            "tx_gain": self.tx_gain,
            "rx_gain": self.rx_gain,
        }
        for name, value in positive.items():
            if not value > 0.0:
                raise ValueError(f"{name} must be strictly positive, got {value!r}")
        if self.interference_density < 0.0:
            raise ValueError("interference_density must be >= 0")
        if not 2.0 <= self.path_loss_exp <= 6.0:
            raise ValueError(
                f"path_loss_exp must lie in [2, 6], got {self.path_loss_exp!r}"
            )


@dataclass(frozen=True)
class LinkRealization:
    """One AP-client link draw: geometry, fading, resulting gain and rate."""

    distance: float  # m
    fading: float  # exponential unit-mean draw, dimensionless
    gain: float  # dimensionless power gain
    rate: float  # bit/s

    def __post_init__(self) -> None:
        if not (self.fading > 0.0 and self.gain > 0.0 and self.rate > 0.0):
            raise ValueError("fading, gain and rate must be strictly positive")


def dbm_per_mhz_to_mw_per_hz(dbm_per_mhz: float) -> float:
    return 10.0 ** (dbm_per_mhz / 10.0) / 1e6


def default_params(path_loss_exp: float = 2.0) -> ChannelParams:
    """Standard 60 GHz operating point: 5 mm carrier, -134 dBm/MHz noise,
    1200 MHz bandwidth, 1 m reference distance, 0.1 mW, unit antenna gains;
    every config starts from it."""
    return ChannelParams(
        wavelength=5e-3,
        noise_density=dbm_per_mhz_to_mw_per_hz(-134.0),
        bandwidth=1.2e9,
        ref_distance=1.0,
        path_loss_exp=path_loss_exp,
        tx_power=0.1,
    )


def compute_gain(p: ChannelParams, d: float, fading: float) -> float:
    """Directional Friis power gain with flat-top antennas and a fading draw.

    Returns gTx*gRx*wavelength^2*fading / (16*pi^2*(d/d0)^eta).  No
    near-field clamp: for d < d0 the ratio (d/d0)^eta < 1 is applied as
    written, so the formula is monotone over all d > 0.
    """
    if not d > 0.0:
        raise ValueError(f"distance must be strictly positive, got {d!r}")
    if not fading > 0.0:
        raise ValueError(f"fading must be strictly positive, got {fading!r}")
    ratio = d / p.ref_distance
    return (
        p.tx_gain
        * p.rx_gain
        * p.wavelength**2
        * fading
        / (_SIXTEEN_PI_SQ * ratio**p.path_loss_exp)
    )


def compute_rate(p: ChannelParams, gain: float) -> float:
    """Shannon capacity W*log2(1 + P*gain/((N0+I)*W)) of one link, in bit/s."""
    if not gain > 0.0:
        raise ValueError(f"gain must be strictly positive, got {gain!r}")
    snr = p.tx_power * gain / ((p.noise_density + p.interference_density) * p.bandwidth)
    return p.bandwidth * math.log2(1.0 + snr)


def snr_at_distance(p: ChannelParams, d: float) -> float:
    """Deterministic SINR operating point at distance d (fading excluded).

    Constant P0*gTx*gRx*wavelength^2/(16*pi^2*(N0+I)*W) up to the reference
    distance, decaying with (d/d0)^(-eta) beyond it: the SINR compute_rate
    sees on a unit-fading link.
    """
    if not d > 0.0:
        raise ValueError(f"distance must be strictly positive, got {d!r}")
    snr0 = (
        p.tx_power * p.tx_gain * p.rx_gain * p.wavelength**2
        / (_SIXTEEN_PI_SQ * (p.noise_density + p.interference_density) * p.bandwidth)
    )
    if d <= p.ref_distance:
        return snr0
    return snr0 * (d / p.ref_distance) ** (-p.path_loss_exp)


def cell_radius(p: ChannelParams, target_snr: float) -> float:
    """Unique radius r > d0 where the SNR operating point equals target_snr.

    target_snr is linear (not dB) and must be below the plateau value
    snr_at_distance(d0), otherwise no such radius exists.
    """
    snr0 = snr_at_distance(p, p.ref_distance)
    if not 0.0 < target_snr < snr0:
        raise InfeasibleRadiusError(
            f"target SNR {target_snr!r} not in (0, {snr0!r}); no radius beyond "
            f"the reference distance attains it"
        )
    return p.ref_distance * (snr0 / target_snr) ** (1.0 / p.path_loss_exp)


def realize_link(p: ChannelParams, d: float, fading: float) -> LinkRealization:
    """Evaluate gain and achievable rate for one link draw."""
    gain = compute_gain(p, d, fading)
    return LinkRealization(distance=d, fading=fading, gain=gain, rate=compute_rate(p, gain))
