"""Reduced two-mode model of the coalescing pair and readout sensitivity.

Close to degeneracy the pair behaves as two modes at omega -+ delta,
each of linewidth kappa, coupled by the displacement of the middle
element through a tunneling rate g_m * x.  The module implements the
model's output transmission, its avoided-crossing branches, the
squared-displacement readout coefficient with its near-coalescence
enhancement, and the physical (SI) estimates for a real membrane.

Only here do physical units appear; everything else in the package is
dimensionless (c = 1, L = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import closed_form
from .errors import (
    DivergentSensitivityError,
    InternalConsistencyError,
    InvalidParameterError,
)

__all__ = [
    "HBAR",
    "BOLTZMANN",
    "TwoModeParams",
    "two_mode_transmission",
    "tunneling_rate",
    "branch_frequencies",
    "two_mode_resonant_transmission",
    "quadratic_coupling_base",
    "SensitivityReport",
    "readout_sensitivity",
    "MembranePhysical",
    "PhysicalEnhancement",
    "physical_enhancement",
]

# CODATA exact values
HBAR = 1.054571817e-34      # J s
BOLTZMANN = 1.380649e-23    # J / K


def _finite(name, value):
    v = float(value)
    if not math.isfinite(v):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return v


@dataclass(frozen=True)
class TwoModeParams:
    """Reduced-model parameters: pair center, half-splitting, linewidth,
    tunneling rate per displacement (all in units c/L; g_m per unit L)."""

    omega: float
    delta: float
    kappa: float
    g_m: float

    def __post_init__(self):
        for name in ("omega", "delta", "kappa", "g_m"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        if self.kappa <= 0:
            raise InvalidParameterError(f"kappa must be > 0, got {self.kappa}")
        if self.delta < 0:
            raise InvalidParameterError(f"delta must be >= 0, got {self.delta}")
        if self.g_m < 0:
            raise InvalidParameterError(f"g_m must be >= 0, got {self.g_m}")

    @classmethod
    def from_polarizabilities(cls, zeta, zeta_m, n=1):
        """Reduce a (zeta, zeta_m) cavity to two-mode parameters.

        The center frequency is the midpoint of the pulled pair near
        2*n*pi, so this requires |zeta_m| below the coalescence
        threshold.
        """
        omega = closed_form.pair_center(zeta, zeta_m, n)
        return cls(omega=omega,
                   delta=0.5 * closed_form.mode_splitting(zeta_m),
                   kappa=closed_form.bare_linewidth(zeta),
                   g_m=tunneling_rate(zeta_m, omega))


def two_mode_transmission(params: TwoModeParams, probe):
    """Output transmission of the driven two-mode model at frequency probe.

    T = | kappa/(kappa + i(omega - delta - probe))
        - kappa/(kappa + i(omega + delta - probe)) |^2,

    the interference of the two Lorentzian responses.  ``probe`` may be
    a scalar or an array.
    """
    om, dl, kp = params.omega, params.delta, params.kappa
    p = np.asarray(probe, dtype=float)
    lo = kp / (kp + 1j * (om - dl - p))
    hi = kp / (kp + 1j * (om + dl - p))
    t = np.abs(lo - hi) ** 2
    return float(t) if np.ndim(probe) == 0 else t


def tunneling_rate(zeta_m, omega):
    """Displacement-tunneling rate g_m between the pair members.

    g_m = 2*omega * sqrt((zeta_m/2) * atan2(2*zeta_m, zeta_m^2 - 1)),
    with the same branch as :func:`closed_form.mode_splitting` so the
    radicand equals |zeta_m| * delta >= 0 for every real zeta_m.  Tends
    to 2*omega as |zeta_m| -> inf and to 0 as zeta_m -> 0.
    """
    zm = _finite("zeta_m", zeta_m)
    om = _finite("omega", omega)
    if om <= 0:
        raise InvalidParameterError(f"omega must be > 0, got {om}")
    radicand = 0.5 * zm * math.atan2(2.0 * zm, zm * zm - 1.0)
    if radicand < -1e-15 * (1.0 + zm * zm):
        raise InternalConsistencyError(
            f"negative tunneling radicand {radicand!r}; broken branch")
    return 2.0 * om * math.sqrt(max(radicand, 0.0))


def branch_frequencies(params: TwoModeParams, x) -> Optional[Tuple[float, float]]:
    """Transmission-peak frequencies omega -+ sqrt(delta^2 + (g_m x)^2 - kappa^2).

    Returns ``(lower, upper)`` while the radicand is >= 0 and ``None`` in
    the merged regime (radicand < 0), where the model has a single peak.
    """
    xv = _finite("x", x)
    rad = params.delta ** 2 + (params.g_m * xv) ** 2 - params.kappa ** 2
    if rad < 0.0:
        return None
    shift = math.sqrt(rad)
    return params.omega - shift, params.omega + shift


def two_mode_resonant_transmission(params: TwoModeParams, x):
    """Resonant transmission 1 / (1 + (g_m x / delta)^2) vs displacement."""
    xv = _finite("x", x)
    if params.delta == 0.0:
        if xv != 0.0:
            raise InvalidParameterError(
                "delta = 0 leaves the resonant transmission undefined for x != 0")
        return 1.0
    ratio = params.g_m * xv / params.delta
    return 1.0 / (1.0 + ratio * ratio)


def quadratic_coupling_base(zeta_m, omega):
    """Bare quadratic coupling magnitude 2 * omega^2 * |zeta_m| (c = L = 1).

    This is the x^2 coefficient of the cavity resonance frequency far
    from coalescence; it is linear in |zeta_m| and independent of the
    end mirrors, so it also quantifies the backaction at any zeta.
    """
    zm = _finite("zeta_m", zeta_m)
    om = _finite("omega", omega)
    if om <= 0:
        raise InvalidParameterError(f"omega must be > 0, got {om}")
    return 2.0 * om * om * abs(zm)


@dataclass(frozen=True)
class SensitivityReport:
    """Squared-displacement readout figures for one configuration.

    ``g2`` is the x^2 coefficient of the pulled transmission-peak
    position, ``g2_base`` the bare coupling (and the unchanged
    backaction), ``enhancement`` their ratio, ``x_small_bound`` the
    displacement below which the quadratic expansion holds, and
    ``lamb_dicke_cap`` the enhancement ceiling 2/(eta |zeta_m|) with the
    Lamb-Dicke parameter eta evaluated at that bound (physical caps for
    a real membrane come from :func:`physical_enhancement`).
    """

    g2_base: float
    g2: float
    enhancement: float
    x_small_bound: float
    lamb_dicke_cap: float


def readout_sensitivity(zeta, zeta_m, omega):
    """Readout coefficient G2 and its enhancement over the bare coupling.

    enhancement = 2*zeta^2 / sqrt(zeta_m_star^2 - zeta_m^2), diverging at
    the coalescence threshold; G2 = enhancement * g2_base.  Requires
    |zeta_m| strictly below |zeta_m_star|.
    """
    z = _finite("zeta", zeta)
    zm = _finite("zeta_m", zeta_m)
    star = closed_form.coalescence_threshold(z)
    if zm * zm >= star * star:
        raise DivergentSensitivityError(
            f"|zeta_m| = {abs(zm):g} at or above the coalescence threshold "
            f"|zeta_m_star| = {abs(star):g}: readout sensitivity diverges")
    enhancement = 2.0 * z * z / math.sqrt(star * star - zm * zm)
    base = quadratic_coupling_base(zm, omega)
    delta = 0.5 * closed_form.mode_splitting(zm)
    kappa = closed_form.bare_linewidth(z)
    g_m = tunneling_rate(zm, omega)
    gap2 = delta * delta - kappa * kappa
    x_bound = math.sqrt(max(gap2, 0.0)) / g_m if g_m > 0 else math.inf
    eta_at_bound = float(omega) * x_bound
    cap = 2.0 / (eta_at_bound * abs(zm)) if eta_at_bound > 0 and zm != 0 \
        else math.inf
    return SensitivityReport(g2_base=base,
                             g2=enhancement * base,
                             enhancement=enhancement,
                             x_small_bound=x_bound,
                             lamb_dicke_cap=cap)


@dataclass(frozen=True)
class MembranePhysical:
    """SI parameters of a mechanical membrane used as the middle element."""

    mass: float           # kg
    mech_freq: float      # rad/s
    temperature: float    # K (0 allowed: ground state)
    wavelength: float     # m
    zeta_m: float

    def __post_init__(self):
        for name in ("mass", "mech_freq", "temperature", "wavelength",
                     "zeta_m"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        if self.mass <= 0 or self.mech_freq <= 0 or self.wavelength <= 0:
            raise InvalidParameterError(
                "mass, mech_freq and wavelength must be > 0")
        if self.temperature < 0:
            raise InvalidParameterError(
                f"temperature must be >= 0, got {self.temperature}")


@dataclass(frozen=True)
class PhysicalEnhancement:
    """Displacement scales and enhancement ceiling for a real membrane."""

    x_zpf: float                  # m
    x_rms: float                  # m
    nbar: float
    eta: float
    lamb_dicke_cap: float
    attainable_enhancement: float


def physical_enhancement(membrane: MembranePhysical):
    """Zero-point/thermal displacement scales and the Lamb-Dicke ceiling.

    x_zpf = sqrt(hbar / (2 m omega_mech)); the thermal occupation uses
    the exact Bose factor nbar = 1/(exp(hbar omega/kB T) - 1) (0 at
    T = 0); x_rms = x_zpf sqrt(2 nbar + 1); eta = 2 pi x_rms / lambda;
    and the enhancement ceiling is 2/(eta |zeta_m|).  The conservatively
    quoted attainable enhancement is one tenth of that ceiling.
    """
    x_zpf = math.sqrt(HBAR / (2.0 * membrane.mass * membrane.mech_freq))
    if membrane.temperature == 0.0:
        nbar = 0.0
    else:
        ratio = (HBAR * membrane.mech_freq
                 / (BOLTZMANN * membrane.temperature))
        # exp overflows past ~709; the occupation is already 0 there
        nbar = 1.0 / math.expm1(ratio) if ratio < 700.0 else 0.0
    x_rms = x_zpf * math.sqrt(2.0 * nbar + 1.0)
    eta = 2.0 * math.pi * x_rms / membrane.wavelength
    cap = 2.0 / (eta * abs(membrane.zeta_m)) if membrane.zeta_m != 0 \
        else math.inf
    return PhysicalEnhancement(x_zpf=x_zpf, x_rms=x_rms, nbar=nbar, eta=eta,
                               lamb_dicke_cap=cap,
                               attainable_enhancement=cap / 10.0)
