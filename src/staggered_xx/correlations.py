"""Finite-temperature spin correlators in the thermodynamic limit.

The fermionic contraction behind the transverse correlators splits into a
uniform and a staggered part,

    g_{l,R} = gu_R + (-1)^l gs_R,

with site parity entering only through (-1)^l (even l -> +1).  Both parts
are single integrals over q in [0, pi] built from the band occupation
factors tanh(beta lam_pm).  The kernels follow from the two-band Bloch
projectors: at even R the uniform part carries cos(qR)[tf+ + tf-] and the
staggered part carries b cos(qR)[tf+ - tf-]/Theta, so the formal R = 0
case reproduces the on-site <sz> (m and m_s) component by component; at
odd R the weights are J cos q and j sin q with cos(qR)/sin(qR) kernels.
The staggered part is proportional to b at even R and to j at odd R, and
vanishes only with that coupling.  At zero temperature both parts are
read off the filled interval (``ground._contractions``).  Longitudinal
correlators follow from Wick's theorem for the underlying free fermions:

    <sz_l sz_{l+R}> = <sz_l><sz_{l+R}> - (gu_R + (-1)^l gs_R)^2.

For R = 1 the contraction is the whole story,
-<sx sx + sy sy>/2 = g_{l,1}; at larger R the transverse spin correlator
is a string-ordered determinant of contractions (see :mod:`.entanglement`
for the R = 2 case).

Integrand factories are module level so the finite-ring sums in
:mod:`.oracle` reuse them verbatim.  A sweep row takes the seven band
integrals of all its finite-T cells from one batched tanh-sinh run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ground
from .model import ChainParams, Thermal, _in_units, _theta, band_crossings, lambda_pm
from .quadrature import (
    QuadResult, QuadSpec, _integrate_cells, integrate, require_converged, thermal_factor,
)
from .thermo import (
    _BandIntegrals, _difference_ratio, _spec_for, magnetization, occupation_difference_ratio,
    staggered_magnetization,
)

__all__ = [
    "CorrelatorPair",
    "SigmaZ",
    "CorrelationSet",
    "g1",
    "g_even",
    "g_odd",
    "g_site",
    "sigma_z",
    "sigma_z_pair",
    "correlation_set",
    "zz_correlator",
    "xx_plus_yy",
]

_PARITY_SIGN = {"even": 1.0, "odd": -1.0}
_OTHER_PARITY = {"even": "odd", "odd": "even"}


@dataclass(frozen=True)
class CorrelatorPair:
    """Uniform and staggered parts of a sublattice-resolved observable."""

    uniform: float
    staggered: float

    def at(self, parity: str) -> float:
        return self.uniform + parity_sign(parity) * self.staggered


# On-site <sz> split into uniform (m) and staggered (m_s) parts.
SigmaZ = CorrelatorPair


@dataclass(frozen=True)
class CorrelationSet:
    """One-point and transverse two-point data at a parameter point."""

    sigma_z: SigmaZ
    g: dict

    def g_at(self, parity: str, r: int) -> float:
        return self.g[r].at(parity)


def parity_sign(parity: str) -> float:
    try:
        return _PARITY_SIGN[parity]
    except KeyError:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}") from None


def _check_distance(r: int) -> int:
    if not isinstance(r, (int, np.integer)) or isinstance(r, bool) or r < 1:
        raise ValueError(f"site separation must be a positive integer, got {r!r}")
    return int(r)


def transverse_integrands(p: ChainParams, t: Thermal, r: int):
    """(uniform, staggered) integrand pair for the distance-``r`` contraction.

    The formal case r = 0 is accepted: both integrands then reduce to the
    magnetization/staggered-magnetization integrands, a consistency hook
    used by the tests.  At b = 0 (even r) or j = 0 (odd r) the staggered
    integrand is identically zero, so its quadrature returns an exact 0.0.
    """
    if r != 0:
        r = _check_distance(r)
    if r % 2 == 0:

        def uniform(q):
            lp, lm = lambda_pm(p, q)
            return np.cos(q * r) * (thermal_factor(t, lp) + thermal_factor(t, lm))

        def staggered(q):
            return np.cos(q * r) * p.b * occupation_difference_ratio(p, t, q)

        return uniform, staggered

    def uniform(q):
        return -np.cos(q * r) * p.J * np.cos(q) * occupation_difference_ratio(p, t, q)

    def staggered(q):
        return -np.sin(q * r) * p.j * np.sin(q) * occupation_difference_ratio(p, t, q)

    return uniform, staggered


def _transverse_pair(p, t, r, quad) -> CorrelatorPair:
    """Contraction pair at separation ``r`` from a ``_BandIntegrals`` ``quad``, else by
    :func:`integrate`: over [0, pi] at finite T, over F at T = 0."""
    if isinstance(quad, _BandIntegrals):
        return CorrelatorPair(*quad.integral(f"g{r}"))
    if t.is_ground:
        return CorrelatorPair(*ground._contractions(p, r, quad))
    spec = _spec_for(p, quad)
    fu, fs = transverse_integrands(p, t, r)
    gu = require_converged(integrate(fu, spec)) / (2.0 * math.pi)
    gs = require_converged(integrate(fs, spec)) / (2.0 * math.pi)
    return CorrelatorPair(gu, gs)


def _band_integrals(cells) -> list[_BandIntegrals]:
    """The ``_BandIntegrals`` of finite-T cells ``(p, t)`` from one batched tanh-sinh run,
    each cell in its own units (``model._in_units``) and split at its band crossing.

    A record passes as ``quad`` to the quantity functions, which then read it.
    """
    if any(t.is_ground for _, t in cells):
        raise ValueError("the band integrals of a sweep cell need a finite temperature")
    units = [(*_in_units(p), t.beta) for p, t in cells]
    # past 2^1000 in its own units a cell's tanh layers are finer than any node gap
    cols = [(p.J, p.j, p.b, p.B, math.ldexp(bt, k) if math.frexp(bt)[1] + k < 1000 else 2.0**1000)
            for k, p, bt in units]
    J, j, b, B, beta = np.array(cols).reshape(-1, 5, 1).transpose(1, 0, 2)

    def integrands(q, rows):
        Jc, jc, bc, Bc, bt = J[rows], j[rows], b[rows], B[rows], beta[rows]
        c, s, c2 = np.cos(q), np.sin(q), np.cos(2.0 * q)
        th = _theta(Jc, jc, bc, c, s)
        lp, lm = Bc + th, Bc - th
        tp, tm = np.tanh(bt * lp), np.tanh(bt * lm)
        ratio = _difference_ratio(bt, Bc, th, tp - tm)
        return (-(lp * tp + lm * tm), tp + tm, bc * ratio, -c * Jc * c * ratio,
                -s * jc * s * ratio, c2 * (tp + tm), c2 * bc * ratio)

    x = [(band_crossings(p) or (math.pi / 2,))[0] for _, p, _ in units]
    value, err, ok = _integrate_cells(integrands, 7, x)
    value, err = value / (2.0 * math.pi), err / (2.0 * math.pi)
    k = np.array([k for k, _, _ in units], dtype=int)
    value[0], err[0] = np.ldexp(value[0], k), np.ldexp(err[0], k)  # u out of the cell's units
    records = []
    for cell in zip(value.T.tolist(), err.T.tolist(), ok.T.tolist()):
        u, m, m_s, gu1, gs1, gu2, gs2 = (QuadResult(v, e, c, 2) for v, e, c in zip(*cell))
        records.append(_BandIntegrals(u, m, m_s, (gu1, gs1), (gu2, gs2)))
    return records


def g1(p: ChainParams, t: Thermal, quad: QuadSpec | None = None) -> CorrelatorPair:
    """Nearest-neighbour transverse correlator (uniform, staggered)."""
    return _transverse_pair(p, t, 1, quad)


def g_even(p: ChainParams, t: Thermal, r: int, quad: QuadSpec | None = None) -> CorrelatorPair:
    """Transverse contraction at even separation.

    Both sites sit on the same sublattice, so the parity dependence
    enters through the staggered field alone: the staggered part is
    proportional to b and vanishes exactly when b = 0.
    """
    r = _check_distance(r)
    if r % 2:
        raise ValueError(f"g_even needs an even separation, got {r}")
    return _transverse_pair(p, t, r, quad)


def g_odd(p: ChainParams, t: Thermal, r: int, quad: QuadSpec | None = None) -> CorrelatorPair:
    """Transverse correlator at odd separation."""
    r = _check_distance(r)
    if r % 2 == 0:
        raise ValueError(f"g_odd needs an odd separation, got {r}")
    return _transverse_pair(p, t, r, quad)


def g_site(
    p: ChainParams, t: Thermal, parity: str, r: int, quad: QuadSpec | None = None
) -> float:
    """Transverse correlator between site l (of given parity) and l + r."""
    return _transverse_pair(p, t, _check_distance(r), quad).at(parity)


def sigma_z(p: ChainParams, t: Thermal, parity: str, quad: QuadSpec | None = None) -> float:
    """On-site <sz> on the even or odd sublattice."""
    s = parity_sign(parity)
    return magnetization(p, t, quad) + s * staggered_magnetization(p, t, quad)


def zz_correlator(
    p: ChainParams, t: Thermal, parity: str, r: int, quad: QuadSpec | None = None
) -> float:
    """Full longitudinal correlator <sz_l sz_{l+r}>, l of given parity."""
    r = _check_distance(r)
    sz = sigma_z_pair(p, t, quad)
    right_parity = parity if r % 2 == 0 else _OTHER_PARITY[parity]
    g = g_site(p, t, parity, r, quad)
    return sz.at(parity) * sz.at(right_parity) - g * g


def xx_plus_yy(
    p: ChainParams, t: Thermal, parity: str, r: int = 1, quad: QuadSpec | None = None
) -> float:
    """Raw transverse correlator <sx sx + sy sy> at separation ``r``."""
    return -2.0 * g_site(p, t, parity, r, quad)


def sigma_z_pair(p: ChainParams, t: Thermal, quad: QuadSpec | None = None) -> SigmaZ:
    """Uniform and staggered parts of the on-site <sz>."""
    return SigmaZ(
        uniform=magnetization(p, t, quad),
        staggered=staggered_magnetization(p, t, quad),
    )


def correlation_set(
    p: ChainParams, t: Thermal, rs=(1, 2, 3), quad: QuadSpec | None = None
) -> CorrelationSet:
    """Bundle <sz> and the transverse pairs for the requested separations."""
    return CorrelationSet(
        sigma_z=sigma_z_pair(p, t, quad),
        g={int(r): _transverse_pair(p, t, _check_distance(r), quad) for r in rs},
    )
