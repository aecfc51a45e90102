"""Tanh-sinh quadrature over momentum space.

Every observable of the chain is a one-dimensional integral over q in
[0, pi] of a smooth function of the two bands.  At large beta the
occupation factors turn sharply where a band crosses zero; those angles
are known in closed form, so the finite-T band integrals are split there
into pieces that end on every sharp feature (``_integrate_cells``).

Each piece [a, b] is mapped by the tanh-sinh (double-exponential)
substitution q = (a + b)/2 + (b - a)/2 tanh((pi/2) sinh t) (Takahasi &
Mori, Publ. RIMS 9 (1974) 721) and summed by the trapezoid rule in t on
[-3.5, 3.5].  The nodes cluster double-exponentially at the ends of each
piece, so a layer or a kink at an end needs no further seeds.  All
pieces share nested levels, h = 1/2 down to 2^-9, and the run stops once
|I_h - I_{h/2}| is within a quarter of max(abs_tol, rel_tol |I|);
exhausting the levels returns the best estimate flagged as unconverged
rather than raising mid-computation.

Integrands must accept ndarray input (each level is one batched call).
``_integrate_pieces`` sums one integrand over K pieces [lo_k, hi_k] at
once, the T = 0 filled intervals of a ``qcp-scan`` grid: each level is
one (pieces x nodes) array, a piece leaves once it has converged, and
its level sum is one dot product, as a single piece is summed.
``integrate`` sums one piece [lo, hi], its K = 1 case.
``_integrate_cells`` runs the finite-T cells of a point or a sweep row
together, as one (cells x nodes) array split at each cell's crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Thermal

__all__ = [
    "QuadSpec",
    "QuadResult",
    "ToleranceNotReached",
    "integrate",
    "require_converged",
    "thermal_factor",
    "DEFAULT_QUAD",
]

_T_MAX = 3.5  # 1 - tanh((pi/2) sinh 3.5) ~ 5e-23: each end is reached to the last bit


def _tanh_sinh_level(h: float, first: bool):
    """The nodes one level of spacing ``h`` adds, on a piece of unit width.

    Returns each node's distance to the nearer end, whether that end is the
    upper one, and the Jacobian dq/dt.  With e = exp(-2|u|), u = (pi/2) sinh t,
    the distance is e / (1 + e) and dq/dt = (pi/2) cosh t 2e / (1 + e)^2,
    neither of which loses digits near the ends.
    """
    t = np.arange(-_T_MAX, _T_MAX + h / 2, h) if first else np.arange(-_T_MAX + h, _T_MAX, 2 * h)
    e = np.exp(-math.pi * np.abs(np.sinh(t)))
    return e / (1.0 + e), t > 0, math.pi * np.cosh(t) * e / (1.0 + e) ** 2


# (h, distance, upper, jacobian) per level; after the first, a level adds the
# odd multiples of its h
_LEVELS = [(0.5**k, *_tanh_sinh_level(0.5**k, k == 1)) for k in range(1, 10)]

@dataclass(frozen=True)
class QuadSpec:
    """Tolerances of :func:`integrate` and ``_integrate_cells``."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (self.abs_tol >= 0 and self.rel_tol >= 0):
            raise ValueError("tolerances must be non-negative")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise ValueError("abs_tol and rel_tol cannot both be zero")


DEFAULT_QUAD = QuadSpec()


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    converged: bool
    n_panels: int


class ToleranceNotReached(RuntimeError):
    """Raised by :func:`require_converged` when refinement was exhausted."""

    def __init__(self, result: QuadResult):
        super().__init__(
            f"quadrature stopped at error estimate {result.error:.3e} "
            f"after {result.n_panels} panels"
        )
        self.result = result


def require_converged(result: QuadResult) -> float:
    if not result.converged:
        raise ToleranceNotReached(result)
    return result.value


def thermal_factor(t: Thermal, lam):
    """Band occupation factor: tanh(beta * lam), degrading to sign(lam) at T = 0."""
    lam = np.asarray(lam, dtype=float)
    if t.is_ground:
        return np.sign(lam)
    return np.tanh(t.beta * lam)


def integrate(f, spec: QuadSpec | None = None, lo: float = 0.0, hi: float = math.pi) -> QuadResult:
    """Integrate a vectorized integrand over the one piece [lo, hi] (default [0, pi]).

    Returns the best estimate together with an error estimate, |I_h - I_{h/2}|
    of the last two levels, and a convergence flag; it never raises on
    tolerance failure.  The nodes crowd toward lo and hi only: a sharp
    feature inside needs the interval split there, one call per piece.
    The one-piece case of ``_integrate_pieces``.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got [{lo!r}, {hi!r}]")
    return _integrate_pieces(lambda q: f(q[0]), lo, hi, spec)[0]


def _integrate_pieces(f, lo, hi, spec: QuadSpec | None = None, cols=()) -> list[QuadResult]:
    """The ``QuadResult`` of one integrand over each of K pieces [lo_k, hi_k], lo_k < hi_k.

    ``f(q, *cols)`` gives the integrand at the nodes ``q`` (pieces, nodes) of the
    pieces still running, as an array of that size; each of ``cols`` is a (K, 1)
    column of per-piece data, handed over in the rows of those pieces.  A
    non-finite value is a ValueError.  Each level is one array over the running
    pieces; a piece's level sum is one dot product, and the piece stops once
    |I_h - I_{h/2}| is within a quarter of max(abs_tol, rel_tol |I|).
    """
    spec = DEFAULT_QUAD if spec is None else spec
    lo = np.asarray(lo, dtype=float).reshape(-1, 1)
    hi = np.asarray(hi, dtype=float).reshape(-1, 1)
    width, rows = hi - lo, list(range(len(lo)))
    out = [None] * len(lo)
    totals, values, errs = [0.0] * len(lo), [math.nan] * len(lo), [math.inf] * len(lo)
    for h, distance, upper, jacobian in _LEVELS:
        dw = distance * width
        fx = np.asarray(f(np.where(upper, hi - dw, lo + dw), *cols), dtype=float)
        sums = np.matmul(fx.reshape(len(dw), 1, -1), (jacobian * width)[:, :, None]).ravel().tolist()
        # inf or NaN times any weight leaves its sum non-finite
        if not all(map(math.isfinite, sums)) and not np.isfinite(fx).all():
            raise ValueError("integrand returned non-finite values")
        keep = []
        for i, s in enumerate(sums):
            totals[i] += s
            coarse, values[i] = values[i], h * totals[i]
            errs[i] = abs(values[i] - coarse)
            if errs[i] <= 0.25 * max(spec.abs_tol, spec.rel_tol * abs(values[i])):
                out[rows[i]] = QuadResult(values[i], errs[i], True, 1)
            else:
                keep.append(i)
        if len(keep) < len(sums):
            if not keep:
                return out
            lo, hi, width, cols = lo[keep], hi[keep], width[keep], [c[keep] for c in cols]
            rows, totals, values, errs = ([x[i] for i in keep] for x in (rows, totals, values, errs))
    for i, row in enumerate(rows):
        out[row] = QuadResult(values[i], errs[i], False, 1)
    return out


def _integrate_cells(f, n: int, x, spec: QuadSpec | None = None):
    """(n, K) values, error estimates and convergence flags of ``n`` integrands
    even about pi/2 over [0, pi], for K cells: cell k doubles its half zone,
    summed as [0, x_k] and [x_k, pi/2].  ``f(q, cells)`` gives, at the nodes
    ``q`` (len(cells), nodes) of the cells indexed by ``cells``, an (n,
    len(cells), nodes) array.  A cell runs the levels and the stopping rule
    of :func:`integrate` until all ``n`` meet it, or one is not finite (NaN).
    """
    spec = DEFAULT_QUAD if spec is None else spec
    x = np.asarray(x, dtype=float).reshape(-1, 1, 1)
    a = np.concatenate([np.zeros_like(x), x], axis=1)  # (K, 2 pieces, 1)
    b = np.concatenate([x, np.full_like(x, math.pi / 2)], axis=1)
    total, err = np.zeros((n, len(x))), np.full((n, len(x)), math.inf)
    value, ok = np.full_like(total, math.nan), np.zeros(total.shape, dtype=bool)
    active = np.arange(len(x))
    for h, distance, upper, jacobian in _LEVELS:
        if not active.size:
            break
        lo, hi = a[active], b[active]
        w = hi - lo
        nodes = np.where(upper, hi - distance * w, lo + distance * w).reshape(len(active), -1)
        fx = np.asarray(f(nodes, active), dtype=float)
        total[:, active] += (fx * (jacobian * w).reshape(len(active), -1)).sum(axis=-1)
        fine = 2.0 * h * total[:, active]
        err[:, active] = np.abs(fine - value[:, active])
        value[:, active] = fine
        tol = 0.25 * np.maximum(spec.abs_tol, spec.rel_tol * np.abs(fine))
        ok[:, active] = err[:, active] <= tol
        finite = np.isfinite(fine).all(axis=0)
        value[:, active[~finite]], ok[:, active[~finite]] = math.nan, False
        active = active[finite & ~ok[:, active].all(axis=0)]
    return value, err, ok
