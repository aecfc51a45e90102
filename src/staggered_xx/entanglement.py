"""Pairwise concurrence and the energy-based entanglement witness.

Magnetization conservation gives every two-site reduced density matrix an
X shape, so the Wootters concurrence of a site pair reduces to

    C = 2 max{0, |z| - sqrt(a d)},

with z the transverse coherence and a, d the outer diagonal entries.  In
terms of bulk correlators this yields, for nearest neighbours at site
parity s (G is the parity-resolved transverse correlator, s_l = m + s m_s
and s_r = m - s m_s the <sz> of the two sites),

    C1 = max{0, |G_1| - (1/2) sqrt(R)},
    R  = 16 a d = [(1 + s_l)(1 + s_r) - G_1^2] [(1 - s_l)(1 - s_r) - G_1^2].

For next-nearest neighbours the Wick-factorized coherence
|G_{l,1} G_{l+1,1} - G_{l,2} <sz_{l+1}>| replaces |G_1|.  The witness
compares the exchange energy u + B m + b m_s = J gu_1 + j gs_1 against its
bound over separable states, free of the field terms that cancel in u:

    lhs = 4 |J gu_1 + j gs_1| / (|J - j| + |J + j|),

with entanglement certified whenever lhs > 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ChainParams, Thermal
from .quadrature import QuadSpec
from .correlations import g1, parity_sign
from .thermo import _point

__all__ = [
    "ConcurrencePair",
    "WitnessValue",
    "InvalidState",
    "NegativeRadicand",
    "DegenerateCoupling",
    "wootters",
    "c1",
    "c2",
    "witness",
]


class InvalidState(ValueError):
    """Density matrix violates Hermiticity/positivity/trace preconditions."""


class NegativeRadicand(ValueError):
    """Concurrence radicand below the numerical-noise tolerance."""


class DegenerateCoupling(ValueError):
    """Witness bound is empty when J = j = 0."""


@dataclass(frozen=True)
class ConcurrencePair:
    """Concurrence on the odd and even sublattices."""

    odd: float
    even: float

    def at(self, parity: str) -> float:
        return self.odd if parity_sign(parity) < 0 else self.even


@dataclass(frozen=True)
class WitnessValue:
    """Energy-density witness value; entanglement certified iff lhs > 1."""

    lhs: float
    detected: bool


_STATE_TOL = 1e-10
# sigma_y (x) sigma_y, the spin-flip conjugation kernel
_SY_SY = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)


def wootters(rho) -> float:
    """Concurrence of an arbitrary two-qubit density matrix.

    The lambda_i are the square roots of the eigenvalues of rho rho~ with
    rho~ = (sy x sy) rho* (sy x sy); C = max{0, l1 - l2 - l3 - l4}.
    Computed as the singular values of X = sqrt(rho) (sy x sy) conj(sqrt(rho)):
    X is complex symmetric and X conj(X) is similar to rho rho~, so this
    route carries full Hermitian precision where the plain eigvals of the
    non-Hermitian product lose half the digits.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidState(f"expected a 4x4 density matrix, got shape {rho.shape}")
    if not np.all(np.isfinite(rho.view(float))):
        raise InvalidState("density matrix has non-finite entries")
    if np.max(np.abs(rho - rho.conj().T)) > _STATE_TOL:
        raise InvalidState("density matrix is not Hermitian within 1e-10")
    if abs(np.trace(rho).real - 1.0) > _STATE_TOL or abs(np.trace(rho).imag) > _STATE_TOL:
        raise InvalidState("density matrix trace differs from 1 beyond 1e-10")
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    if w.min() < -_STATE_TOL:
        raise InvalidState("density matrix has a negative eigenvalue beyond 1e-10")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    x = root @ _SY_SY @ root.conj()
    lam = np.linalg.svd(x, compute_uv=False)  # descending
    c = lam[0] - lam[1:].sum()
    return min(max(c, 0.0), 1.0)


def _ramp(x):
    """max(x, 0) of a finite float or column alike, exactly: x + |x| is 2x or 0."""
    return (x + abs(x)) * 0.5


def _concurrence(coherence, sz_l, sz_r, g):
    """max{0, coherence - 2 sqrt(p11 p00)} of an X-shaped pair state (Wootters, PRL 80, 2245),
    and whether its radicand is negative beyond noise; of floats or columns alike.

    16 p11 p00 is taken in factored form, which keeps its digits for a nearly
    polarized pair where (1 + zz)^2 - (sz_l + sz_r)^2 cancels.
    """
    rad = ((1.0 + sz_l) * (1.0 + sz_r) - g * g) * ((1.0 - sz_l) * (1.0 - sz_r) - g * g)
    # quadrature noise may push the radicand slightly negative
    root = np.sqrt(_ramp(rad)) if isinstance(rad, np.ndarray) else math.sqrt(_ramp(rad))
    return _ramp(coherence - 0.5 * root), rad < -1e-9


def _parities(at):
    """(odd, even, either radicand negative) of the concurrence ``at(s)``, s the parity sign."""
    (odd, bad_odd), (even, bad_even) = at(-1.0), at(1.0)
    return odd, even, bad_odd | bad_even


def _c1(m, ms, gu, gs):
    """The recipe of ``c1`` from m, m_s and g1's parts."""
    return _parities(lambda s: _concurrence(abs(gu + s * gs), m + s * ms, m - s * ms, gu + s * gs))


def _c2(m, ms, gu, gs, gu2, gs2):
    """The recipe of ``c2`` from m, m_s and the parts of g1 and g2."""

    def at(s):
        g2_l, sz_l = gu2 + s * gs2, m + s * ms
        coherence = abs((gu + s * gs) * (gu - s * gs) - g2_l * (m - s * ms))
        return _concurrence(coherence, sz_l, sz_l, g2_l)

    return _parities(at)


def _pair(odd, even, bad) -> ConcurrencePair:
    if bad:
        raise NegativeRadicand("concurrence radicand is negative beyond noise tolerance")
    return ConcurrencePair(odd=odd, even=even)


def c1(p: ChainParams, t: Thermal, quad: QuadSpec | None = None) -> ConcurrencePair:
    """Nearest-neighbour concurrence on each sublattice."""
    return _pair(*_c1(*_point(p, t, quad)("m", "m_s", "gu1", "gs1")))


def c2(p: ChainParams, t: Thermal, quad: QuadSpec | None = None) -> ConcurrencePair:
    """Next-nearest-neighbour concurrence; sites l and l+2 share parity.

    The transverse spin correlator at distance 2 is the string-ordered
    2x2 determinant of contractions through the intermediate site l+1 of
    opposite parity: g_{l,1} g_{l+1,1} - g_{l,2} <sz_{l+1}>.  Every
    factor, including the distance-2 contraction, is parity-resolved.
    """
    return _pair(*_c2(*_point(p, t, quad)("m", "m_s", "gu1", "gs1", "gu2", "gs2")))


def _coupling_units(J, j):
    """J and j in units of max(J, |j|), scaled exactly, and where that is 0 (the witness a
    DegenerateCoupling; J reads 1 there, not 0 / 0); of floats or columns."""
    scale = np.maximum(J, np.abs(j))
    k, degenerate = np.frexp(scale)[1], scale == 0
    return np.where(degenerate, 1.0, np.ldexp(J, -k)), np.ldexp(j, -k), degenerate


def _witness_lhs(J, j, gu, gs):
    """The witness from g1's parts, J and j in units of max(J, |j|); floats or columns."""
    return 4.0 * abs(J * gu + j * gs) / (abs(J - j) + abs(J + j))


def witness(p: ChainParams, t: Thermal, quad: QuadSpec | None = None) -> WitnessValue:
    """Thermodynamic entanglement witness from the exchange energy, a scale-free ratio taken
    in units of max(J, |j|), where neither underflows however large |b| is."""
    J, j, degenerate = _coupling_units(p.J, p.j)
    if degenerate:
        raise DegenerateCoupling("witness bound requires J or j nonzero")
    g = g1(p, t, quad)
    lhs = float(_witness_lhs(J, j, g.uniform, g.staggered))
    return WitnessValue(lhs=lhs, detected=lhs > 1.0)
