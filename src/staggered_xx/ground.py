"""Zero-temperature closed forms, the ground record and quantum-critical-point detection.

The ground state fills every mode with B - theta(q) < 0.  theta is
monotone on [0, pi/2] and even about pi/2, so the angles where
theta(q) > |B| form one interval F of the half zone (``model`` decides
it, with the boundary convention shared by every quantity here).  With
w the width of F,

    energy = -(2/pi) int_F theta dq - |B| (1 - 2w/pi),
    m = sign(B) (1 - 2w/pi),    m_s = (2/pi) int_F b/theta dq,

and the compensated, saturated and flat-band closed forms are special
cases.  The transverse contractions of :mod:`.correlations` are read off
F too: tf+ + tf- is 2 sign(B) off F and its reflection pi - F, and tf+ - tf-
is 2 on them, so each part is a smooth integral over F, closed for the
uniform part at even r.  Where F starts to shrink and where it vanishes,
at the critical fields sqrt(j^2 + b^2) and sqrt(J^2 + b^2), the energy
has the kinks that ``qcp_scan`` picks up in its second derivative.

Each residual integral is (2/pi) int_F of ``_kernel``, a row of a T = 0
record that is no closed form (``_record_columns``, whose rows every T = 0
quantity reads through ``thermo._record``), for K chains in their own units
in one engine call that runs them in the blocks of ``quadrature.cell_blocks``:
the record every quantity reads, the energy alone (``energy``, the whole
``qcp_scan`` grid) or a contraction at r > 2.  The chains are numpy columns
(J, j, b, B) throughout: ``model._in_units`` takes them into their units and
``model._filled_interval`` decides F, once for all of them, and ``qcp_scan``
passes its grid as the column of its axis, so a scan of many points builds
no ChainParams and holds no Python object per point.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import thermo  # which imports this module: read at call time
from .model import (
    _SAFE_EXPONENT, ChainParams, PhaseRegion, Thermal, _columns, _filled_interval, _in_units,
    _theta, classify_region, critical_fields,
)
from .model import theta_of_q  # noqa: F401  patched by bench/tracer.py (ROADMAP item 2)
from .quadrature import DEFAULT_QUAD, QuadResult, QuadSpec, ToleranceNotReached, _integrate_cells
from .quadrature import integrate  # noqa: F401  patched by bench/tracer.py (ROADMAP item 2)

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


# Columns of K chains in their own units 2^k (``model._in_units``), with F = [lo, hi] and
# the share ``out`` of the half zone outside it, 1 - 2(hi - lo)/pi.
_Units = namedtuple("_Units", "k J j b B lo hi out")


def _units(J, j, b, B) -> _Units:
    """The ``_Units`` of the chains given as (J, j, b, B) columns: F decided in their units.
    The share is summed from the endpoints: for F = [xi, pi/2] it is 2 xi/pi itself, not 1
    minus a number close to 1."""
    k, J, j, b, B = _in_units(J, j, b, B)
    _, lo, hi = _filled_interval(J, j, b, np.abs(B))
    return _Units(k, J, j, b, B, lo, hi, (1.0 - 2.0 * hi / math.pi) + 2.0 * lo / math.pi)


def _fill(p: ChainParams) -> _Units:
    """The ``_Units`` of the one chain ``p``, as floats: F decided as every record read
    decides it."""
    return _Units(*(v.item() for v in _units(*_columns([p]))))


def _kernel(rs, energy):
    """The integrands ``f(q, c, s, th, J, j, b)`` (theta; (cells, 1) columns) over F of the
    T = 0 record rows ``thermo._names(rs, energy)`` that are no closed form, in their
    order: the energy's -theta if ``energy``, then at each r in ``rs`` b cos(qr)/theta at
    even r (m_s's b/theta at r = 0) and -(J cos q cos(qr), j sin q sin(qr))/theta at odd r."""

    def f(q, c, s, th, J, j, b):
        out = [-th] if energy else []
        for r in rs:
            if r == 0:
                out.append(b / th)
            elif r % 2 == 0:
                out.append(b * np.cos(q * r) / th)
            else:  # at r = 1 cos q and sin q themselves, a cos and a sin fewer per node
                cr, sr = (c, s) if r == 1 else (np.cos(q * r), np.sin(q * r))
                out += [-J * cr * c / th, -j * sr * s / th]
        return out

    return f


def _even_uniform(B: float, lo: float, hi: float, r: int) -> float:
    """The uniform contraction at even r, -(2 sign(B)/pi) int_F cos(qr) dq, closed."""
    sin = math.sin(r * lo) - math.sin(r * hi)
    return math.copysign(2.0, B) * sin / (math.pi * r) if B else 0.0


def _m_t0(out, B):
    """The ground-state m, sign(B) times the share ``out`` outside F; columns."""
    return np.where(B != 0, np.copysign(out, B), 0.0)


def _record_columns(chains, quad: QuadSpec | None, rs, energy):
    """The share f outside F and the T = 0 record columns (``thermo._record_columns``) of the
    chains given as (J, j, b, B) columns: one ``quadrature._integrate_cells`` call of
    ``_kernel`` over the non-empty F, 0 exactly over an empty F; m (r = 0) and the uniform
    part at even r > 0 are closed forms, and a u past the largest float is inf."""
    units = _units(*chains)
    # the rows F integrates: u, and the staggered part at every r and the uniform at odd r
    over = np.array([True] * energy + [x for r in rs for x in (r % 2 == 1, True)])
    shape = (len(over), len(units.k))
    value, err, ok = np.zeros(shape), np.zeros(shape), np.ones(shape, bool)
    rows = np.flatnonzero(units.lo < units.hi)
    if rows.size:
        J, j, b = (v[rows, None] for v in (units.J, units.j, units.b))
        kernel, integrated = _kernel(rs, energy), np.ix_(over, rows)

        def integrands(q, cells):
            c, s = np.cos(q), np.sin(q)
            Jc, jc, bc = J[cells], j[cells], b[cells]
            return kernel(q, c, s, _theta(Jc, jc, bc, c, s), Jc, jc, bc)

        edges = np.column_stack([units.lo[rows], units.hi[rows]])
        v, e, ok[integrated] = _integrate_cells(integrands, over.sum(), edges, quad)
        value[integrated], err[integrated] = 2.0 / math.pi * v, 2.0 / math.pi * e
    for i, r in enumerate(rs):
        if r % 2 == 0:
            value[energy + 2 * i] = _m_t0(units.out, units.B) if r == 0 else [
                _even_uniform(B, lo, hi, r)
                for B, lo, hi in zip(units.B.tolist(), units.lo.tolist(), units.hi.tolist())]
    if energy:
        with np.errstate(over="ignore"):
            value[0] = np.ldexp(value[0] - np.abs(units.B) * units.out, units.k)
            err[0] = np.ldexp(err[0], units.k)
    return units.out, value, err, ok


def energy(p: ChainParams, quad: QuadSpec | None = None) -> float:
    """Ground-state energy per site, -(2/pi) int_F theta - |B| (1 - 2|F|/pi), in the chain's
    own units: the T = 0 record of u alone, integrated as ``qcp_scan`` integrates it; past
    the largest float an OverflowError."""
    return thermo._point(p, Thermal.zero(), quad, (), True)("u")[0]


def magnetization_t0(p: ChainParams) -> float:
    """Ground-state uniform magnetization per site, sign(B) (1 - 2|F|/pi), decided from F."""
    units = _fill(p)
    return _m_t0(units.out, units.B).item()  # m is odd in B, taken in the chain's units


def staggered_magnetization_t0(p: ChainParams, quad: QuadSpec | None = None) -> float:
    """Ground-state staggered magnetization, (2/pi) int_F b/theta dq, read from the point's
    T = 0 record; exactly 0 at b = 0.

    |b|/theta <= 1, so the tolerance holds for m_s where int_F dq/theta diverges.
    """
    return thermo.staggered_magnetization(p, Thermal.zero(), quad)


def _meyer_wallach(f, ms):
    """1 - f^2 - m_s^2, of floats or columns."""
    return 1.0 - f * f - ms * ms


def meyer_wallach(p: ChainParams, quad: QuadSpec | None = None) -> float:
    """Meyer-Wallach global entanglement of the ground state, 1 - f^2 - m_s^2, f and m_s read
    from the point's T = 0 record.

    f = 1 - 2|F|/pi is |m|, except that it stays 1 on the all-zero chain
    (saturated at B = 0), whose measure is 0.
    """
    return _meyer_wallach(*thermo._point(p, Thermal.zero(), quad)("f", "m_s"))


def ground_report(p: ChainParams, quad: QuadSpec | None = None) -> GroundReport:
    read = thermo._point(p, Thermal.zero(), quad)  # the point's T = 0 record
    return GroundReport(
        region=classify_region(p),
        energy=read("u")[0],
        m_g=magnetization_t0(p),
        e_mw=_meyer_wallach(*read("f", "m_s")),
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
    # Below unit scale, and past 2^500 where model._in_units rescales, scan in the chain's
    # units 2^k (exactly), so that the energies' tolerance and noise floor follow its scale.
    k = math.frexp(max(p.J, abs(p.j), abs(p.b)))[1]
    k = 0 if 0 <= k <= _SAFE_EXPONENT else k
    k = max(k, math.frexp(max(abs(p.B), abs(start), abs(stop)))[1] - 1024)  # all stay finite
    p = ChainParams(*(math.ldexp(v, -k) for v in (p.J, p.j, p.b, p.B)))
    start, stop, step = (math.ldexp(v, -k) for v in (start, stop, step))
    if not sys.float_info.min <= step * step < math.inf:  # d2e divides by step**2
        units = f" times 2^{k}, the chain's units" if k else ""
        raise ValueError(f"step^2 must be a normal float (step within about 1.5e-154 "
                         f"to 1.3e154{units}), got step {math.ldexp(step, k)!r}")
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
    chains = [np.broadcast_to(v, n) for v in _columns([p])]  # one row, read n times
    chains[("J", "j", "b", "B").index(axis)] = grid
    _, (e,), (err,), (ok,) = _record_columns(chains, q, (), True)
    if not ok.all():
        raise ToleranceNotReached(QuadResult(e[~ok][0], err[~ok][0], False, 1))
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
    # back out of the chain's units: d2e is an energy over step^2, which may leave the doubles
    if (top := math.frexp(max(threshold, float(np.max(mag))))[1] - k) > 1024:
        raise ValueError(f"second differences reach 2^{top - 1} out of the chain's units, "
                         f"past the largest float; scan with a larger step")
    return QcpScan(axis, np.ldexp(inner, k), np.ldexp(d2e, -k), math.ldexp(threshold, -k),
                   tuple(math.ldexp(v, k) for v in peaks))
