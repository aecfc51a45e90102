"""Parameters and single-particle structure of the staggered XX chain.

The chain couples neighbouring spins through an alternating XX exchange
and sits in an alternating transverse field,

    H = -sum_l [ (J_l / 2) (sx_l sx_{l+1} + sy_l sy_{l+1}) + B_l sz_l ],

with J_l = J + (-1)^l j and B_l = B + (-1)^l b on a ring of even length
(site index l starting at 1, so odd sites carry J - j and B - b).  After
the fermionic mapping the excitation energies organise into two bands

    lam_pm(q) = B +- theta(q),      theta(q) = sqrt(J^2 cos^2 q + b^2 + j^2 sin^2 q),

with q in [0, pi].  Everything downstream (thermodynamics, correlators,
ground-state closed forms) is an integral of simple functions of these
bands, so this module owns the band geometry: where the lower band is
negative, where it crosses zero, and which field regime a parameter set
belongs to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "ChainParams",
    "Thermal",
    "PhaseRegion",
    "theta_of_q",
    "theta_bounds",
    "critical_fields",
    "xi",
    "region_q",
    "band_crossings",
    "classify_region",
]


@dataclass(frozen=True)
class ChainParams:
    """Couplings and fields of the chain.

    Parameters
    ----------
    J : float
        Uniform exchange, J >= 0.  The energy scale of the problem; all
        published scans fix J = 1.
    j : float
        Alternating exchange.  Bonds leaving even sites carry J + j,
        bonds leaving odd sites carry J - j.
    b : float
        Alternating transverse field (even sites B + b, odd sites B - b).
    B : float
        Uniform transverse field.
    """

    J: float = 1.0
    j: float = 0.0
    b: float = 0.0
    B: float = 0.0

    def __post_init__(self) -> None:
        for name in ("J", "j", "b", "B"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.J < 0:
            raise ValueError(f"J must be non-negative, got {self.J!r}")


@dataclass(frozen=True)
class Thermal:
    """Inverse temperature, with beta = inf marking the ground state.

    Use ``Thermal.finite(beta)`` for a thermal state and ``Thermal.zero()``
    (or ``Thermal.from_temperature(0.0)``) for zero temperature.
    """

    beta: float = math.inf

    def __post_init__(self) -> None:
        if math.isnan(self.beta) or self.beta <= 0:
            raise ValueError(f"beta must be positive (inf = ground state), got {self.beta!r}")

    @classmethod
    def finite(cls, beta: float) -> "Thermal":
        if math.isinf(beta):
            raise ValueError("finite() requires finite beta; use Thermal.zero()")
        return cls(beta)

    @classmethod
    def zero(cls) -> "Thermal":
        return cls(math.inf)

    @classmethod
    def from_temperature(cls, temperature: float) -> "Thermal":
        if math.isnan(temperature) or temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {temperature!r}")
        return cls(math.inf) if temperature == 0 else cls(1.0 / temperature)

    @property
    def is_ground(self) -> bool:
        return math.isinf(self.beta)


class PhaseRegion(Enum):
    """Zero-temperature field regimes, split by the two critical fields.

    COMPENSATED: B below both critical fields, magnetization pinned at 0.
    PARTIAL:     B between the critical fields, magnetization grows from
                 0 to 1 as the lower band empties.
    SATURATED:   B at or above both critical fields, fully polarized.
    """

    COMPENSATED = "compensated"
    PARTIAL = "partial"
    SATURATED = "saturated"


_SAFE_EXPONENT = 500  # couplings within 2^+-500 square without overflow or underflow


def _columns(ps) -> np.ndarray:
    """The (4, K) columns (J, j, b, B) of the chains ``ps``: the form the band geometry reads."""
    return np.array([(p.J, p.j, p.b, p.B) for p in ps], dtype=float).reshape(-1, 4).T


def _in_units(J, j, b, B) -> tuple[np.ndarray, ...]:
    """The one rescale into a chain's units: columns (k, (J, j, b, B) / 2^k), divided exactly,
    k = 0 where max(J, |j|, |b|) lies within 2^+-500, else the k that takes it into [1/2, 1).
    The state at (p, beta) is the one at (p / 2^k, beta 2^k) with energies scaled by 2^k; an
    energy integrated in these units meets its tolerance at the chain's own scale."""
    k = np.frexp(np.maximum(J, np.maximum(np.abs(j), np.abs(b))))[1]
    k[np.abs(k) <= _SAFE_EXPONENT] = 0
    if not k.any():  # the columns themselves, as dividing by 2^0 would give
        return k, J, j, b, B
    if (np.frexp(B)[1] - k > 1024).any():
        raise ValueError("|B| is past the largest float in the units of max(J, |j|, |b|)")
    return (k, *(np.ldexp(v, -k) for v in (J, j, b, B)))


def theta_of_q(p: ChainParams, q):
    """Band half-splitting theta(q) = sqrt(J^2 cos^2 q + b^2 + j^2 sin^2 q).

    Accepts scalar or array q; q must lie in [0, pi].
    """
    q = np.asarray(q, dtype=float)
    if np.any(q < 0) or np.any(q > np.pi):
        raise ValueError("q must lie in [0, pi]")
    k, J, j, b, _ = (v.item() for v in _in_units(*_columns([p])))
    th = _theta(J, j, b, np.cos(q), np.sin(q))
    return np.ldexp(th, k) if k else th


def _theta(J, j, b, c, s):
    """theta from c = cos q, s = sin q and couplings within 2^+-500, unchecked: theta^2
    as min(J, |j|)^2 + b^2 + |J^2 - j^2| (c^2 if J > |j| else s^2), non-negative
    terms that stay constant to the last bit on the flat band J = |j|.  Below 2^-500,
    where they may underflow, the terms are taken in units of 2^-600, scaled exactly."""
    aj = abs(j)
    d = (J - aj) * (J + aj)
    w = np.where(d > 0, c, s)
    m = np.minimum(J, aj)
    th = np.sqrt(m**2 + b**2 + abs(d) * (w * w))
    if th.min(initial=math.inf) < 2.0**-500:  # one reduction on the common path
        with np.errstate(over="ignore"):  # at the other nodes, which keep th
            squares = (np.ldexp(m, 600) ** 2 + np.ldexp(b, 600) ** 2
                       + np.ldexp(abs(d) * np.ldexp(w, 500) ** 2, 200))  # w <= 1, |d| w^2 < 2^-1000
        th = np.where(th < 2.0**-500, np.ldexp(np.sqrt(squares), -600), th)
    return th


def theta_bounds(p: ChainParams) -> tuple[float, float]:
    """(min, max) of theta over q: the two critical fields in increasing order."""
    return tuple(sorted(critical_fields(p)))


def critical_fields(p: ChainParams) -> tuple[float, float]:
    """The two critical fields (sqrt(J^2 + b^2), sqrt(j^2 + b^2)).

    The ground state is singular where |B| equals either value (they
    coincide when |j| = J).  Order follows the couplings, not magnitude.
    """
    return math.hypot(p.J, p.b), math.hypot(p.j, p.b)


def xi(p: ChainParams) -> float:
    """Zero-crossing (Fermi) angle of the lower band, clamped to [0, pi/2].

    Solves theta(xi) = |B| through cos^2 xi = (B^2 - b^2 - j^2)/(J^2 - j^2).
    When the right-hand side falls outside [0, 1] the crossing is absent
    and the angle clamps to the matching endpoint (r > 1 -> 0, r < 0 ->
    pi/2).  Undefined at J = |j| (theta is flat in q).
    """
    return _xi(*_columns([p]))[0]


def _xi(J, j, b, B) -> list[float]:
    """``xi`` of each row of the columns, in the row's own units (xi is scale-free)."""
    out = []
    for J, j, b, B in zip(*(v.tolist() for v in _in_units(J, j, b, B)[1:])):
        den = _squares((J,), (j,))
        if den == 0:
            raise ValueError("xi is undefined at J = |j|; theta(q) is constant there")
        # past 2^500 and twice both edges the exact squares give r > 1 if theta falls, else
        # r < 0: clamp there before squaring, as B^2 may overflow (elsewhere it cannot)
        if abs(B) > 2.0**_SAFE_EXPONENT and abs(B) > 2.0 * max(math.hypot(J, b), math.hypot(j, b)):
            out.append(0.0 if den > 0 else math.pi / 2)
            continue
        r = _squares((B,), (b, j)) / den
        out.append(math.acos(math.sqrt(min(max(r, 0.0), 1.0))))
    return out


def _squares(plus, minus) -> float:
    """sum(x^2 for x in plus) - sum(x^2 for x in minus), rounded once: each x*x enters
    exactly, as its rounding and that rounding's error (Dekker, Veltkamp's halves)."""
    terms = []
    for sign, x in [(1.0, x) for x in plus] + [(-1.0, x) for x in minus]:
        c = 134217729.0 * x  # 2^27 + 1
        hi, sq = c - (c - x), x * x
        lo = x - hi
        terms += (sign * sq, sign * (((hi * hi - sq) + 2.0 * hi * lo) + lo * lo))
    return math.fsum(terms)


_REGIONS = tuple(PhaseRegion)  # the regime codes of ``_filled_interval``


def _filled_interval(J, j, b, level) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns, one row per chain: the regime code (index into ``_REGIONS``) of ``level``
    (|B|, or B for the signed band) and the interval [lo, hi] of [0, pi/2] where theta >
    level: [0, xi] if J > |j|, else [xi, pi/2].  The one place that compares a field with
    the band edges, each row's ``critical_fields`` (math.hypot); each edge belongs to the
    regime above it.  Saturated means zero width, at pi/2 if the band top touches ``level``
    there.  xi (``_xi``) is taken only for the rows strictly inside the band."""
    bs = b.tolist()
    edge_lo, edge_hi = np.sort([np.fromiter(map(math.hypot, v.tolist(), bs), float, len(bs))
                                for v in (J, j)], axis=0)
    below, above = level < edge_lo, (level > edge_hi) | (edge_lo == edge_hi)
    falls = J > np.abs(j)  # theta falls from its top at q = 0 toward pi/2
    # At level == edge_hi the crossing is the band top itself, not a rounded xi.
    x = np.where(falls, 0.0, math.pi / 2)
    inside = ~below & (level < edge_hi)
    if inside.any():
        x[inside] = _xi(J[inside], j[inside], b[inside], level[inside])
    lo, hi = np.where(falls | below | above, 0.0, x), np.where(falls, x, math.pi / 2)
    hi[above], hi[below] = 0.0, math.pi / 2
    region = 2 - (lo < hi)
    region[below] = 0
    return region, lo, hi


def _regime(p: ChainParams, level: float) -> tuple[PhaseRegion, float, float]:
    """``_filled_interval`` of the one chain ``p`` at ``level``."""
    region, lo, hi = _filled_interval(*_columns([p])[:3], np.array([level]))
    return _REGIONS[region[0]], lo.item(), hi.item()


def _crossing(J, j, b, B) -> np.ndarray:
    """Column of the smaller angle where theta = |B| (the first of ``band_crossings``),
    0 where there is none."""
    region, lo, hi = _filled_interval(J, j, b, np.abs(B))
    return np.where(region == 0, 0.0, np.where(J > np.abs(j), hi, lo))


def region_q(p: ChainParams) -> tuple[tuple[float, float], ...]:
    """Open q-intervals where the lower band is negative, lam_minus(q) < 0.

    These are the momenta occupied in the ground state.  Endpoints with
    lam_minus = 0 exactly are excluded; they carry no weight in any
    integral.  Returns () when the band is non-negative everywhere and
    ((0, pi),) when it is negative everywhere.
    """
    region, lo, hi = _regime(p, p.B)
    if region is PhaseRegion.SATURATED:
        return ()
    if region is PhaseRegion.PARTIAL and p.J > abs(p.j):
        # theta decreases toward q = pi/2: negative region hugs the edges
        return ((0.0, hi), (math.pi - hi, math.pi))
    return ((lo, math.pi - lo),)


def band_crossings(p: ChainParams) -> tuple[float, ...]:
    """Interior angles where a band crosses zero, i.e. theta(q) = |B|.

    The interior endpoints of ``region_q`` at |B|, or pi/2 where the band
    top touches |B|; empty when theta is flat (J = |j|).  These are the
    only non-smooth points of zero-temperature integrands and the
    sharp-layer centres at large beta, so the finite-T band integrals
    are split there.
    """
    x = _crossing(*_columns([p])).item()
    if x == 0.0:
        return ()
    return (x,) if x == math.pi - x else (x, math.pi - x)


def classify_region(p: ChainParams) -> PhaseRegion:
    """Field regime of the ground state, judged by |B| (spectrum is even in B).

    Half-open convention: each boundary field belongs to the regime above
    it, so B exactly at the upper critical field classifies SATURATED.
    """
    return _regime(p, abs(p.B))[0]
