"""Zero-temperature closed forms and quantum-critical-point detection.

The ground state fills every mode with B - theta(q) < 0.  theta is
monotone on [0, pi/2] and even about pi/2, so the angles where
theta(q) > |B| form one interval F of the half zone (``model`` decides
it, with the boundary convention shared by every quantity here).  With
w the width of F,

    energy = -(2/pi) int_F theta dq - |B| (1 - 2w/pi),
    m = sign(B) (1 - 2w/pi),    m_s = (2b/pi) int_F dq/theta,

and the compensated, saturated and flat-band closed forms are special
cases.  Where F starts to shrink and where it vanishes, at the critical
fields sqrt(j^2 + b^2) and sqrt(J^2 + b^2), the energy has the kinks
that ``qcp_scan`` picks up in its second derivative.  The residual
integrals of theta and 1/theta are evaluated with :mod:`.quadrature`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    ChainParams,
    PhaseRegion,
    _filled_interval,
    _in_units,
    classify_region,
    critical_fields,
    theta_of_q,
)
from .quadrature import DEFAULT_QUAD, QuadSpec, integrate, require_converged

__all__ = [
    "GroundReport",
    "QcpScan",
    "energy",
    "magnetization_t0",
    "staggered_magnetization_t0",
    "meyer_wallach",
    "ground_report",
    "qcp_scan",
]


@dataclass(frozen=True)
class GroundReport:
    """Ground-state summary at one parameter point."""

    region: PhaseRegion
    energy: float
    m_g: float
    e_mw: float
    qcp_fields: tuple[float, float]


@dataclass(frozen=True)
class QcpScan:
    """Second-difference scan of the ground energy along one parameter."""

    axis: str
    values: np.ndarray
    d2e: np.ndarray
    threshold: float
    peaks: tuple[float, ...]

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.values.tolist(), self.d2e.tolist()))


def _fill(p: ChainParams) -> tuple[float, float, float]:
    """F = [lo, hi] and the share of the half zone outside it, 1 - 2(hi - lo)/pi.

    Summed from the endpoints: for F = [xi, pi/2] the share is 2 xi/pi
    itself, not 1 minus a number close to 1.
    """
    _, lo, hi = _filled_interval(p, abs(p.B))
    return lo, hi, (1.0 - 2.0 * hi / math.pi) + 2.0 * lo / math.pi


def _integral(f, lo: float, hi: float, quad: QuadSpec | None) -> float:
    """Integral of f over [lo, hi]; 0 if empty."""
    if hi <= lo:
        return 0.0
    return require_converged(integrate(f, quad, lo=lo, hi=hi))


def energy(p: ChainParams, quad: QuadSpec | None = None) -> float:
    """Ground-state energy per site, -(2/pi) int_F theta - |B| (1 - 2|F|/pi),
    integrated in the chain's own units (``model._in_units``)."""
    k, p = _in_units(p)
    lo, hi, outside = _fill(p)
    filled = _integral(lambda q: theta_of_q(p, q), lo, hi, quad)
    return math.ldexp(-(2.0 / math.pi) * filled - abs(p.B) * outside, k)


def magnetization_t0(p: ChainParams) -> float:
    """Ground-state uniform magnetization per site, sign(B) (1 - 2|F|/pi)."""
    if p.B == 0:
        return 0.0  # m is odd in B
    return math.copysign(_fill(p)[2], p.B)


def staggered_magnetization_t0(p: ChainParams, quad: QuadSpec | None = None) -> float:
    """Ground-state staggered magnetization, (2/pi) int_F b/theta dq; exactly 0 at b = 0.

    |b|/theta <= 1, so the tolerance holds for m_s where int_F dq/theta diverges.
    """
    if p.b == 0:
        return 0.0
    lo, hi, _ = _fill(p)
    return 2.0 / math.pi * _integral(lambda q: p.b / theta_of_q(p, q), lo, hi, quad)


def meyer_wallach(p: ChainParams, quad: QuadSpec | None = None) -> float:
    """Meyer-Wallach global entanglement of the ground state, 1 - f^2 - m_s^2.

    f = 1 - 2|F|/pi is |m|, except that it stays 1 on the all-zero chain
    (saturated at B = 0), whose measure is 0.
    """
    f = _fill(p)[2]
    ms = staggered_magnetization_t0(p, quad)
    return 1.0 - f * f - ms * ms


def ground_report(p: ChainParams, quad: QuadSpec | None = None) -> GroundReport:
    return GroundReport(
        region=classify_region(p),
        energy=energy(p, quad),
        m_g=magnetization_t0(p),
        e_mw=meyer_wallach(p, quad),
        qcp_fields=critical_fields(p),
    )


_SCAN_AXES = ("B", "b", "j")
# Each grid point costs one ground energy; a larger window is refused
# before its grid is allocated.
_MAX_SCAN_POINTS = 10**6


def qcp_scan(
    p: ChainParams,
    axis: str,
    start: float,
    stop: float,
    step: float,
    quad: QuadSpec | None = None,
) -> QcpScan:
    """Central second differences of the ground energy along one axis.

    Peaks are the local maxima of |d2e| among flagged points, where a point
    is flagged when |d2e| exceeds max(5x the scan median, a numerical-noise
    floor).  The sqrt divergence of the energy curvature at a transition
    reaches only ``~1/sqrt(step)`` on a finite grid, so the multiplier must
    sit between the smooth-background ratio and that peak height; 5x does
    at the step sizes of interest while the floor keeps exactly-linear
    branches (energy = -|B| when saturated) from flagging rounding noise.
    Local maxima rather than one argmax per flagged run: two nearby
    transitions share one contiguous run when their tails overlap, and each
    still has to be reported.  The grid should stay clear of J = |j|
    degeneracies when scanning ``j``.

    The median is taken over the scan window itself, so the window must be
    wide enough that most points sample the smooth background; a scan
    confined to the divergence tails inflates the median and can miss the
    peak.  A width of ten to a hundred times the expected peak spacing
    works well.
    """
    if axis not in _SCAN_AXES:
        raise ValueError(f"scan axis must be one of {_SCAN_AXES}, got {axis!r}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"start/stop must be finite, got {start} and {stop}")
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step}")
    span = (stop - start) / step + 1e-9
    if not span < _MAX_SCAN_POINTS:  # inf too, when stop - start overflows
        raise ValueError(
            f"scan window holds {math.floor(span) + 1 if math.isfinite(span) else span:.6g} "
            f"grid points, more than {_MAX_SCAN_POINTS}"
        )
    n = int(math.floor(span)) + 1
    if n < 3:
        raise ValueError("scan range must contain at least 3 grid points")
    q = DEFAULT_QUAD if quad is None else quad
    grid = start + step * np.arange(n)
    e = np.array([energy(replace(p, **{axis: v}), q) for v in grid])
    d2e = (e[:-2] - 2.0 * e[1:-1] + e[2:]) / step**2
    inner = grid[1:-1]
    # Worst-case second-difference error from independent per-point energy
    # errors delta is 4*delta/step^2; doubled for headroom.
    scale = float(np.max(np.abs(e)))
    delta = q.abs_tol + (q.rel_tol + np.finfo(float).eps) * scale
    floor = 8.0 * delta / step**2
    threshold = max(5.0 * float(np.median(np.abs(d2e))), floor)
    mag = np.abs(d2e)
    peaks = []
    # Only points with both neighbours: a window edge is no local maximum.
    for i in np.flatnonzero(mag[1:-1] > threshold) + 1:
        # >= left, > right: a flat plateau of equal maxima reports once.
        if mag[i] >= mag[i - 1] and mag[i] > mag[i + 1]:
            peaks.append(float(inner[i]))
    return QcpScan(
        axis=axis,
        values=inner,
        d2e=d2e,
        threshold=threshold,
        peaks=tuple(peaks),
    )
