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
integrals over the filled interval F of :mod:`.ground`.  Longitudinal
correlators follow from Wick's theorem for the underlying free fermions:

    <sz_l sz_{l+R}> = <sz_l><sz_{l+R}> - (gu_R + (-1)^l gs_R)^2.

For R = 1 the contraction is the whole story,
-<sx sx + sy sy>/2 = g_{l,1}; at larger R the transverse spin correlator
is a string-ordered determinant of contractions (see :mod:`.entanglement`
for the R = 2 case).

At both temperatures the parts are rows of a band-integral record of the
point (``thermo._point``): at R = 1 and 2 of the record every quantity
reads, at a larger R of a record of that pair alone, integrated by
``thermo._kernel`` (over F ``ground._kernel``), the only copy of the
integrands.  On the Jordan-Wigner fermions of a ring the contraction is
g_{l,R} = (-1)^R 2 Re <c+_l c_{l+R}>, which is how the free-fermion
oracle of :mod:`.oracle` reads it, without any integrand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChainParams, Thermal
from .quadrature import QuadSpec
from .quadrature import integrate  # noqa: F401  patched by bench/tracer.py (ROADMAP item 2)
from .thermo import _point

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


def _transverse_pair(p, t, r, quad, read=None) -> CorrelatorPair:
    """Contraction pair at separation ``r``: for r <= 2 the record's rows, read by ``read``
    (the point's own reader if None); for larger r those of a record of r alone."""
    if r > 2:
        read = _point(p, t, quad, (r,), False)
    return CorrelatorPair(*(read or _point(p, t, quad))(f"gu{r}", f"gs{r}"))


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
    return sigma_z_pair(p, t, quad).at(parity)


def zz_correlator(
    p: ChainParams, t: Thermal, parity: str, r: int, quad: QuadSpec | None = None
) -> float:
    """Full longitudinal correlator <sz_l sz_{l+r}>, l of given parity."""
    r = _check_distance(r)
    read = _point(p, t, quad)
    sz = SigmaZ(*read("m", "m_s"))
    right_parity = parity if r % 2 == 0 else _OTHER_PARITY[parity]
    g = _transverse_pair(p, t, r, quad, read).at(parity)
    return sz.at(parity) * sz.at(right_parity) - g * g


def xx_plus_yy(
    p: ChainParams, t: Thermal, parity: str, r: int = 1, quad: QuadSpec | None = None
) -> float:
    """Raw transverse correlator <sx sx + sy sy> at separation ``r``."""
    return -2.0 * g_site(p, t, parity, r, quad)


def sigma_z_pair(p: ChainParams, t: Thermal, quad: QuadSpec | None = None) -> SigmaZ:
    """Uniform and staggered parts of the on-site <sz>."""
    return SigmaZ(*_point(p, t, quad)("m", "m_s"))


def correlation_set(
    p: ChainParams, t: Thermal, rs=(1, 2, 3), quad: QuadSpec | None = None
) -> CorrelationSet:
    """Bundle <sz> and the transverse pairs for the requested separations; one
    band-integral record serves <sz> and r <= 2, larger r take ``quad``."""
    read = _point(p, t, quad)
    return CorrelationSet(
        sigma_z=SigmaZ(*read("m", "m_s")),
        g={r: _transverse_pair(p, t, r, quad, read) for r in map(_check_distance, rs)},
    )
