"""Bulk thermodynamics of the chain in the thermodynamic limit.

With two bands lam_pm(q) = B +- theta(q) the per-site free-energy density
and its first derivatives are single integrals over q in [0, pi]:

    ln Z / N = (1/2pi) int ln[4 cosh(beta lam_+) cosh(beta lam_-)] dq
    u        = -(1/2pi) int [lam_+ tanh(beta lam_+) + lam_- tanh(beta lam_-)] dq
    m        =  (1/2pi) int [tanh(beta lam_+) + tanh(beta lam_-)] dq
    m_s      =  (1/2pi) int b [tanh(beta lam_+) - tanh(beta lam_-)] / theta dq

where u is the energy per site and m, m_s the uniform and staggered
magnetizations (m = (1/beta) d(lnZ/N)/dB, m_s = (1/beta) d(lnZ/N)/db,
u = -d(lnZ/N)/dbeta; these identities are enforced in the test suite).
The tanh layers sit at the band-crossing angles, which are quadrature
breakpoints together with the bands' extremum at pi/2.  At zero
temperature u, m and m_s are the closed forms of :mod:`.ground`.

The integrand factories are module-level so that the finite-ring momentum
sums in :mod:`.oracle` evaluate literally the same functions on a discrete
grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import ground
from .model import ChainParams, Thermal, _in_units, band_crossings, lambda_pm, theta_of_q
from .quadrature import (
    DEFAULT_QUAD,
    QuadResult,
    QuadSpec,
    integrate,
    require_converged,
    thermal_factor,
)

__all__ = [
    "ZeroTemperatureUnsupported",
    "ThermoPoint",
    "ln_z_per_site",
    "internal_energy",
    "magnetization",
    "staggered_magnetization",
    "thermo_point",
]

_LOG4 = 2.0 * math.log(2.0)


class ZeroTemperatureUnsupported(ValueError):
    """The requested quantity has no finite zero-temperature value."""


@dataclass(frozen=True)
class ThermoPoint:
    """All four per-site thermodynamic quantities at one finite-T point."""

    ln_z_per_site: float
    u: float
    m: float
    m_s: float


class _BandIntegrals(NamedTuple):
    """The seven band integrals of one finite-T point as per-site ``QuadResult``s:
    u, m, m_s and the (uniform, staggered) pairs g1 and g2 of separations 1
    and 2, as ``correlations._band_integrals`` computes them on shared nodes.

    Given as ``quad``, a quantity function reads its band integrals from the
    record instead of integrating.  One the record does not hold is a
    ValueError, an unconverged one (a NaN too) a ToleranceNotReached.
    """

    u: QuadResult
    m: QuadResult
    m_s: QuadResult
    g1: tuple
    g2: tuple

    def integral(self, name: str):
        if name not in self._fields:
            raise ValueError(f"the band integrals of one finite-T point hold no {name}")
        got = getattr(self, name)
        pair = isinstance(got, tuple)
        return tuple(map(require_converged, got)) if pair else require_converged(got)


def _spec_for(p: ChainParams, quad: QuadSpec | None) -> QuadSpec:
    """``quad`` with the band crossings and pi/2 as breakpoints."""
    spec = DEFAULT_QUAD if quad is None else quad
    return spec.with_breakpoints((*band_crossings(p), math.pi / 2))


def _sech2(x):
    # 4 e^{-2|x|} / (1 + e^{-2|x|})^2, underflowing cleanly to 0
    t = np.exp(-2.0 * np.abs(x))
    return 4.0 * t / (1.0 + t) ** 2


def occupation_difference_ratio(p: ChainParams, t: Thermal, q):
    """[tanh(beta lam_+) - tanh(beta lam_-)] / theta, with the theta -> 0 limit.

    theta vanishes only at isolated angles and only when b = 0 together
    with J cos q = j sin q = 0; there the ratio tends to 2 beta sech^2(beta B)
    at finite temperature and to 0 at zero temperature for B != 0.  The
    remaining double limit (theta -> 0 at B = 0, T = 0) is always hit with
    a vanishing weight in every correlator, so 0 is used.
    """
    th = theta_of_q(p, q)
    num = thermal_factor(t, p.B + th) - thermal_factor(t, p.B - th)
    if t.is_ground:
        # sign() is exact: the difference is 0 or 2 with no cancellation,
        # only theta = 0 itself needs the (weightless) limit value
        safe = th > 0
        return np.where(safe, num / np.where(safe, th, 1.0), 0.0)
    return _difference_ratio(t.beta, p.B, th, num)


def _difference_ratio(beta, B, th, num):
    """``num`` = tanh(beta lam_+) - tanh(beta lam_-) over theta at finite beta."""
    # The tanh difference loses all significant digits once beta*theta
    # drops toward eps/(2 sech^2); switch to the series limit well above
    # that, where its own (beta*theta)^2 error is ~1e-10 relative.
    safe = beta * th > 1e-5
    return np.where(safe, num / np.where(safe, th, 1.0), 2.0 * beta * _sech2(beta * B))


def _log_cosh(x):
    # overflow-free ln cosh
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def ln_z_integrand(p: ChainParams, t: Thermal):
    beta = t.beta

    def f(q):
        lp, lm = lambda_pm(p, q)
        return _LOG4 + _log_cosh(beta * lp) + _log_cosh(beta * lm)

    return f


def internal_energy_integrand(p: ChainParams, t: Thermal):
    def f(q):
        lp, lm = lambda_pm(p, q)
        return -(lp * thermal_factor(t, lp) + lm * thermal_factor(t, lm))

    return f


def magnetization_integrand(p: ChainParams, t: Thermal):
    def f(q):
        lp, lm = lambda_pm(p, q)
        return thermal_factor(t, lp) + thermal_factor(t, lm)

    return f


def staggered_magnetization_integrand(p: ChainParams, t: Thermal):
    def f(q):
        return p.b * occupation_difference_ratio(p, t, q)

    return f


def _quad_over_band(p, t, name: str, integrand, quad) -> float:
    """Band integral ``name`` from a ``_BandIntegrals`` ``quad``, else by :func:`integrate`."""
    if isinstance(quad, _BandIntegrals):
        return quad.integral(name)
    return require_converged(integrate(integrand(p, t), _spec_for(p, quad))) / (2.0 * math.pi)


def ln_z_per_site(p: ChainParams, t: Thermal, quad: QuadSpec | None = None) -> float:
    """Logarithm of the partition function per site; ln 2 as beta -> 0.

    Diverges linearly in beta at zero temperature (the ground energy takes
    over there), so ``t`` must be finite.
    """
    if t.is_ground:
        raise ZeroTemperatureUnsupported(
            "ln Z per site grows like -beta * energy at T = 0; use ground.energy"
        )
    return _quad_over_band(p, t, "ln_z", ln_z_integrand, quad)


def internal_energy(p: ChainParams, t: Thermal, quad: QuadSpec | None = None) -> float:
    """Energy per site, integrated in the chain's own units (``model._in_units``);
    ``ground.energy`` at T = 0."""
    if isinstance(quad, _BandIntegrals):
        return quad.integral("u")
    if t.is_ground:
        return ground.energy(p, quad)
    k, p = _in_units(p)
    u = _quad_over_band(p, Thermal(math.ldexp(t.beta, k)), "u", internal_energy_integrand, quad)
    return math.ldexp(u, k)


def magnetization(p: ChainParams, t: Thermal, quad: QuadSpec | None = None) -> float:
    """Uniform magnetization per site, in [-1, 1], odd in B; ``ground.magnetization_t0`` at T = 0."""
    if t.is_ground:
        return ground.magnetization_t0(p)
    return _quad_over_band(p, t, "m", magnetization_integrand, quad)


def staggered_magnetization(p: ChainParams, t: Thermal, quad: QuadSpec | None = None) -> float:
    """Staggered magnetization per site, odd in b; exactly 0 at b = 0.

    ``ground.staggered_magnetization_t0`` at T = 0.
    """
    if p.b == 0:
        return 0.0
    if t.is_ground:
        return ground.staggered_magnetization_t0(p, quad)
    return _quad_over_band(p, t, "m_s", staggered_magnetization_integrand, quad)


def thermo_point(p: ChainParams, t: Thermal, quad: QuadSpec | None = None) -> ThermoPoint:
    """All four quantities in one record; finite temperature only."""
    return ThermoPoint(
        ln_z_per_site=ln_z_per_site(p, t, quad),
        u=internal_energy(p, t, quad),
        m=magnetization(p, t, quad),
        m_s=staggered_magnetization(p, t, quad),
    )
