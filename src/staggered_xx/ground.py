"""Zero-temperature closed forms and quantum-critical-point detection.

The ground state fills all negative-energy modes of the lower band
lam_-(q) = B - theta(q).  For B >= 0 the filled set is controlled by the
crossing angle

    XI = arccos sqrt[(B^2 - b^2 - j^2) / (J^2 - j^2)],

clamped to [0, pi/2], which collapses every per-region branch of the
energy, magnetization and Meyer-Wallach measure into one expression per
coupling ordering (J > |j| vs J < |j|).  The two critical fields are
B_c = sqrt(J^2 + b^2) and sqrt(j^2 + b^2); crossing either one changes
which clamp is active, producing the kinks that ``qcp_scan`` picks up in
the second derivative of the energy.

Residual integrals int theta dq and int dq/theta have no elementary
closed form and are evaluated with :mod:`.quadrature`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    ChainParams,
    PhaseRegion,
    classify_region,
    critical_fields,
    region_q,
    theta_of_q,
    xi,
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


def _int_theta(
    p: ChainParams, lo: float, hi: float, quad: QuadSpec | None, inverse: bool = False
) -> float:
    """Integral of theta(q), or of 1/theta(q) if ``inverse``, over [lo, hi]; 0 if empty."""
    if hi <= lo:
        return 0.0
    f = (lambda q: 1.0 / theta_of_q(p, q)) if inverse else (lambda q: theta_of_q(p, q))
    return require_converged(integrate(f, quad, lo=lo, hi=hi))


def energy(p: ChainParams, quad: QuadSpec | None = None) -> float:
    """Ground-state energy per site."""
    babs = abs(p.B)
    c_hi = max(critical_fields(p))
    if babs >= c_hi:
        return -babs
    if p.J == abs(p.j):
        # flat bands: theta = sqrt(J^2 + b^2) independent of q
        return -math.hypot(p.J, p.b)
    x = xi(p)
    if p.J > abs(p.j):
        return (2.0 * x / math.pi - 1.0) * babs - (2.0 / math.pi) * _int_theta(p, 0.0, x, quad)
    return -(2.0 * x / math.pi) * babs - (2.0 / math.pi) * _int_theta(p, x, math.pi / 2.0, quad)


def magnetization_t0(p: ChainParams) -> float:
    """Ground-state uniform magnetization per site (closed form)."""
    if p.B == 0:
        return 0.0  # m is odd in B
    babs = abs(p.B)
    sign = -1.0 if p.B < 0 else 1.0
    if babs >= max(critical_fields(p)):
        return sign * 1.0
    if p.J == abs(p.j):
        return 0.0
    x = xi(p)
    frac = 1.0 - 2.0 * x / math.pi if p.J > abs(p.j) else 2.0 * x / math.pi
    return sign * frac


def staggered_magnetization_t0(p: ChainParams, quad: QuadSpec | None = None) -> float:
    """Ground-state staggered magnetization, (b/pi) int dq/theta over the
    partially/fully occupied angles {q : theta(q) > |B|}; exactly 0 at b = 0."""
    if p.b == 0:
        return 0.0
    total = 0.0
    for lo, hi in region_q(replace(p, B=abs(p.B))):
        total += _int_theta(p, lo, hi, quad, inverse=True)
    return p.b / math.pi * total


def meyer_wallach(p: ChainParams, quad: QuadSpec | None = None) -> float:
    """Meyer-Wallach global entanglement of the ground state.

    Equals 1 - m_g^2 - m_s_g^2 in every region; the per-region closed
    forms (e.g. J^2/(J^2+b^2) on the flat-band line, 0 once saturated)
    follow from the corresponding magnetization branches.
    """
    if abs(p.B) >= max(critical_fields(p)):
        return 0.0
    if p.J == abs(p.j):
        scale = p.J**2 + p.b**2
        return p.J**2 / scale if scale > 0 else 0.0
    m = magnetization_t0(p)
    ms = staggered_magnetization_t0(p, quad)
    return 1.0 - m * m - ms * ms


def ground_report(p: ChainParams, quad: QuadSpec | None = None) -> GroundReport:
    return GroundReport(
        region=classify_region(p),
        energy=energy(p, quad),
        m_g=magnetization_t0(p),
        e_mw=meyer_wallach(p, quad),
        qcp_fields=critical_fields(p),
    )


_SCAN_AXES = ("B", "b", "j")


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
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step}")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
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
