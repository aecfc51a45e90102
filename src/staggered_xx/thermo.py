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
Every band integral but ln Z is a row of a record, whose rows, flag codes and
error estimates ``_record`` gives for a block of cells: u if asked for, then
the (uniform, staggered) contraction pair of :mod:`.correlations` at each
separation r asked for, r = 0 being (m, m_s).  At finite temperature one run
of the tanh-sinh nodes of ``_cell_integrals`` gives them, at zero temperature
one over the filled interval of :mod:`.ground`.  The CLI reads the record of
u and r = 0, 1, 2 (``_ROWS``) for a block, a point being a block of one; the
library functions here and in :mod:`.correlations`, :mod:`.entanglement` and
:mod:`.ground` read the named rows of one point through ``_point``, one engine
run per call, of that record, of a contraction at r > 2 alone or of the T = 0
energy alone.  ``_kernel`` and, over F, ``ground._kernel`` are the only copy
of these integrands, ``_ln_z_kernel`` that of ln Z; the finite-ring oracles of
:mod:`.oracle` use none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import ground
from .model import ChainParams, Thermal, _columns, _crossing, _in_units, _theta
from .model import theta_of_q  # noqa: F401  patched by bench/tracer.py (ROADMAP item 2)
from .quadrature import (
    DEFAULT_QUAD, QuadResult, QuadSpec, ToleranceNotReached, _integrate_cells, require_converged,
)
from .quadrature import integrate  # noqa: F401  patched by bench/tracer.py (ROADMAP item 2)

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


def _cell_integrals(chains, beta, n: int, kernel, quad: QuadSpec | None = None):
    """The unit exponents k (``model._in_units``) of K finite-T cells, (J, j, b, B) and beta
    columns, and (n, K) values (1/2pi) int_0^pi, error estimates and flags of the ``n``
    integrands ``kernel(q, c, s, th, J, j, b, B, beta)`` (cos q, sin q, theta, (cells, 1)
    columns) in those units, from one ``quadrature._integrate_cells`` call, each cell split
    at its band crossing."""
    if np.isinf(beta).any():
        raise ValueError("the band integrals of a cell need a finite temperature")
    k, J, j, b, B = _in_units(*chains)
    # past 2^1000 in its own units a cell's tanh layers are finer than any node gap
    fine = np.frexp(beta)[1] + k < 1000
    beta = np.where(fine, np.ldexp(beta, np.where(fine, k, 0)), 2.0**1000)
    # the half zone [0, pi/2] split at the crossing, against half the tolerance of [0, pi]
    x = _crossing(J, j, b, B)
    edges = np.column_stack([np.zeros_like(x), np.where(x == 0.0, math.pi / 2, x),
                             np.full_like(x, math.pi / 2)])
    J, j, b, B, beta = (v[:, None] for v in (J, j, b, B, beta))

    def integrands(q, rows):
        c, s = np.cos(q), np.sin(q)
        Jc, jc, bc = J[rows], j[rows], b[rows]
        return kernel(q, c, s, _theta(Jc, jc, bc, c, s), Jc, jc, bc, B[rows], beta[rows])

    quad = DEFAULT_QUAD if quad is None else quad
    half = replace(quad, abs_tol=quad.abs_tol / 2)
    # beta lam passes the largest float where |B| dwarfs the band: tanh reads its limit
    with np.errstate(over="ignore"):
        value, err, ok = _integrate_cells(integrands, n, edges, half)
    return k, value / math.pi, err / math.pi, ok


def _names(rs, energy) -> tuple:
    """The record rows of ``_kernel(rs, energy)``, in its order."""
    pairs = (("m", "m_s") if r == 0 else (f"gu{r}", f"gs{r}") for r in rs)
    return (("u",) if energy else ()) + sum(pairs, ())


def _kernel(rs, energy):
    """The integrands ``f`` for ``_cell_integrals`` of the record rows ``_names(rs,
    energy)``: u's if ``energy``, then the (uniform, staggered) contraction at each r in
    ``rs`` (:mod:`.correlations`), cos(qr) (tf+ + tf-, b (tf+ - tf-)/theta) at even r and
    -(J cos q cos(qr), j sin q sin(qr)) (tf+ - tf-)/theta at odd r, tf = tanh(beta lam);
    the formal r = 0 gives m and m_s."""

    def f(q, c, s, th, J, j, b, B, beta):
        lp, lm = B + th, B - th
        tp, tm = np.tanh(beta * lp), np.tanh(beta * lm)
        ratio = _difference_ratio(beta, B, th, tp - tm)
        both = tp + tm
        out = [-(lp * tp + lm * tm)] if energy else []
        for r in rs:
            if r == 0:
                out += [both, b * ratio]
            elif r % 2 == 0:
                w = np.cos(q * r)
                out += [w * both, w * b * ratio]
            else:  # at r = 1 cos q and sin q themselves, a cos and a sin fewer per node
                cr, sr = (c, s) if r == 1 else (np.cos(q * r), np.sin(q * r))
                out += [-cr * J * c * ratio, -sr * j * s * ratio]
        return out

    return f


# the rows of the record every CLI quantity reads: u, m, m_s and the parts of g1 and g2
_ROWS = _names((0, 1, 2), True)


def _record_columns(chains, beta, quad: QuadSpec | None = None, rs=(0, 1, 2), energy=True):
    """f (NaN at finite T) and the (n, K) values, error estimates and flags of the n record
    rows ``_names(rs, energy)`` of cells given as (J, j, b, B) and beta columns: one engine
    run of ``_kernel`` over the finite-T cells, one of ``ground._record_columns`` over those
    at T = 0 (beta inf)."""
    hot, n = np.isfinite(beta), len(_names(rs, energy))
    if hot.all():
        k, value, err, ok = _cell_integrals(chains, beta, n, _kernel(rs, energy), quad)
        if energy:  # u out of the cell's units; past the largest float, inf
            with np.errstate(over="ignore"):
                value[0], err[0] = np.ldexp(value[0], k), np.ldexp(err[0], k)
        return np.full(len(beta), math.nan), value, err, ok
    if not hot.any():
        return ground._record_columns(chains, quad, rs, energy)
    shape = (n, len(beta))  # the finite-T cells first, then those at T = 0
    columns = (np.empty(len(beta)), np.empty(shape), np.empty(shape), np.empty(shape, bool))
    for cells, part in ((hot, _record_columns(chains[:, hot], beta[hot], quad, rs, energy)),
                        (~hot, ground._record_columns(chains[:, ~hot], quad, rs, energy))):
        for column, piece in zip(columns, part):
            column[..., cells] = piece
    return columns


def _record(chains, beta, quad: QuadSpec | None = None, rs=(0, 1, 2), energy=True):
    """The record at cells given as (J, j, b, B) and beta columns, from ``_record_columns``:
    a dict of (K,) rows, those of ``_names(rs, energy)``, f and the couplings J and j; and
    by row name of those the flag codes (0 none, 1 tolerance, 2 error: past the largest
    float) and the error estimates.  m_s is 0 at b = 0 and reads nothing."""
    names = _names(rs, energy)
    f, value, err, ok = _record_columns(chains, beta, quad, rs, energy)
    codes = dict(zip(names, np.where(ok, np.where(np.isinf(value), 2, 0), 1)))
    rows = dict(zip(names, value))
    if "m_s" in rows:
        zero = chains[2] == 0
        rows["m_s"][zero], codes["m_s"][zero] = 0.0, 0
    return {**rows, "f": f, "J": chains[0], "j": chains[1]}, codes, dict(zip(names, err))


def _point(p: ChainParams, t: Thermal, quad: QuadSpec | None = None, rs=(0, 1, 2), energy=True):
    """The reader of the one-cell ``_record`` of (p, t): ``read(*names)`` gives the named
    rows as floats, raising at the first that failed, in the order named: a
    ToleranceNotReached with its QuadResult, or an OverflowError."""
    rows, codes, err = _record(_columns([p]), np.array([t.beta]), quad, rs, energy)

    def read(*names):
        for name in filter(codes.__contains__, names):  # f, J and j are never flagged
            if codes[name][0] == 2:
                raise OverflowError(f"{name} is past the largest float")
            if codes[name][0] == 1:
                cell = rows[name].item(), err[name].item()
                raise ToleranceNotReached(QuadResult(*cell, False, 1 if t.is_ground else 2))
        return tuple(rows[name].item() for name in names)

    return read


def _sech2(x):
    # 4 e^{-2|x|} / (1 + e^{-2|x|})^2, underflowing cleanly to 0
    t = np.exp(-2.0 * np.abs(x))
    return 4.0 * t / (1.0 + t) ** 2


def _difference_ratio(beta, B, th, num):
    """``num`` = tanh(beta lam_+) - tanh(beta lam_-) over theta at finite beta; where
    theta -> 0 (b = 0 with J cos q = j sin q = 0) its limit 2 beta sech^2(beta B)."""
    # The tanh difference loses all significant digits once beta*theta
    # drops toward eps/(2 sech^2); switch to the series limit well above
    # that, where its own (beta*theta)^2 error is ~1e-10 relative.
    safe = beta * th > 1e-5
    return np.where(safe, num / np.where(safe, th, 1.0), 2.0 * beta * _sech2(beta * B))


def _log_cosh(x):
    # overflow-free ln cosh
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def _ln_z_kernel(q, c, s, th, J, j, b, B, beta):
    return (_LOG4 + _log_cosh(beta * (B + th)) + _log_cosh(beta * (B - th)),)


def ln_z_per_site(p: ChainParams, t: Thermal, quad: QuadSpec | None = None) -> float:
    """Logarithm of the partition function per site; ln 2 as beta -> 0.

    Diverges linearly in beta at zero temperature (the ground energy takes
    over there), so ``t`` must be finite.
    """
    if t.is_ground:
        raise ZeroTemperatureUnsupported(
            "ln Z per site grows like -beta * energy at T = 0; use ground.energy"
        )
    # past beta 2^999 in its own units ln Z is linear in beta: below the kernel's cap
    e = max(0, math.frexp(t.beta)[1] + _in_units(*_columns([p]))[0].item() - 999)
    run = _cell_integrals(_columns([p]), np.array([math.ldexp(t.beta, -e)]), 1, _ln_z_kernel, quad)
    return math.ldexp(require_converged(QuadResult(*(a.item() for a in run[1:]), 2)), e)


def internal_energy(p: ChainParams, t: Thermal, quad: QuadSpec | None = None) -> float:
    """Energy per site, integrated in the chain's own units (``model._in_units``); at
    T = 0 the ground energy of :mod:`.ground`."""
    return _point(p, t, quad)("u")[0]


def magnetization(p: ChainParams, t: Thermal, quad: QuadSpec | None = None) -> float:
    """Uniform magnetization per site, in [-1, 1], odd in B; closed at T = 0."""
    return _point(p, t, quad)("m")[0]


def staggered_magnetization(p: ChainParams, t: Thermal, quad: QuadSpec | None = None) -> float:
    """Staggered magnetization per site, odd in b; exactly 0 at b = 0."""
    return _point(p, t, quad)("m_s")[0]


def thermo_point(p: ChainParams, t: Thermal, quad: QuadSpec | None = None) -> ThermoPoint:
    """All four quantities in one record; finite temperature only.  ln Z takes ``quad``
    and its own kernel; u, m and m_s read one band-integral record."""
    ln_z = ln_z_per_site(p, t, quad)  # refuses T = 0 before the record is built
    return ThermoPoint(ln_z, *_point(p, t, quad)("u", "m", "m_s"))
