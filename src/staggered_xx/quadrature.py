"""Tanh-sinh quadrature over momentum space.

Every observable of the chain is a one-dimensional integral over q in
[0, pi] of a smooth function of the two bands.  At large beta the
occupation factors turn sharply where a band crosses zero; those angles
are known in closed form, so the finite-T band integrals are split there
into pieces that end on every sharp feature, and at T = 0 each integral
runs over the filled interval F alone.

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
``_integrate_cells`` is the one engine: it sums n integrands over K cells
of P pieces each, in the blocks of at most ``_BLOCK`` cells that
``cell_blocks`` cuts (the one place that batches cells), as one
(cells x nodes) array per level, and a cell leaves once all n have
converged.  The finite-T cells of a point or a sweep block are the
half zone split at the crossing (P = 2), the T = 0 cells their F (P = 1).
``integrate`` is its one-cell, one-piece case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadSpec",
    "QuadResult",
    "ToleranceNotReached",
    "integrate",
    "require_converged",
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


def integrate(f, spec: QuadSpec | None = None, lo: float = 0.0, hi: float = math.pi) -> QuadResult:
    """Integrate a vectorized integrand over the one piece [lo, hi] (default [0, pi]).

    Returns the best estimate together with an error estimate, |I_h - I_{h/2}|
    of the last two levels, and a convergence flag; it never raises on
    tolerance failure.  The nodes crowd toward lo and hi only: a sharp
    feature inside needs the interval split there, one call per piece.
    The one-cell, one-piece case of ``_integrate_cells``; a non-finite value
    is a ValueError.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got [{lo!r}, {hi!r}]")
    cell = _integrate_cells(lambda q, cells: [[f(q[0])]], 1, [[lo, hi]], spec)
    value, err, ok = (a.item() for a in cell)
    if math.isnan(value):
        raise ValueError("integrand returned non-finite values")
    return QuadResult(value, err, ok, 1)


# cells per engine run: a level's (cells x nodes) arrays stay small for any K
_BLOCK = 64


def cell_blocks(k: int) -> list[slice]:
    """The consecutive slices of at most ``_BLOCK`` of ``k`` cells, one engine run each."""
    return [slice(i, min(i + _BLOCK, k)) for i in range(0, k, _BLOCK)]


def _integrate_cells(f, n: int, edges, spec: QuadSpec | None = None):
    """(n, K) values, error estimates and convergence flags of ``n`` integrands over K
    cells, cell k the sum of its P pieces between consecutive ``edges[k]`` ((K, P + 1)).
    ``f(q, cells)`` gives an (n, len(cells), P x nodes) array at the nodes ``q`` of the
    running ``cells`` (indices into ``edges``).  A cell stops once all ``n`` meet the
    stopping rule of ``integrate``, or one is not finite (NaN, unconverged).  The cells run
    in the blocks of ``cell_blocks``; a cell's sums are its own, so its result does not
    depend on the block it shares.  Level sums are pairwise, ``(fx * w).sum(-1)``.
    """
    spec = DEFAULT_QUAD if spec is None else spec
    edges = np.asarray(edges, dtype=float)
    value, err = np.full((n, len(edges)), math.nan), np.full((n, len(edges)), math.inf)
    ok = np.zeros(value.shape, dtype=bool)
    for cut in cell_blocks(len(edges)):
        block, active = edges[cut], np.arange(cut.start, cut.stop)
        lo, hi = block[:, :-1, None], block[:, 1:, None]  # (cells, P pieces, 1)
        w = hi - lo
        total, fine = np.zeros((n, len(block))), value[:, active]  # of the running cells
        for h, distance, upper, jacobian in _LEVELS:
            if not active.size:
                break
            nodes = np.where(upper, hi - distance * w, lo + distance * w).reshape(len(active), -1)
            fx = np.asarray(f(nodes, active), dtype=float)
            total = total + (fx * (jacobian * w).reshape(len(active), -1)).sum(axis=-1)
            coarse, fine = fine, h * total
            e = np.abs(fine - coarse)
            done = e <= 0.25 * np.maximum(spec.abs_tol, spec.rel_tol * np.abs(fine))
            finite = np.isfinite(fine).all(axis=0)
            value[:, active], err[:, active] = np.where(finite, fine, math.nan), e
            ok[:, active] = done & finite
            keep = finite & ~done.all(axis=0)
            if not keep.all():
                active, lo, hi, w = active[keep], lo[keep], hi[keep], w[keep]
                total, fine = total[:, keep], fine[:, keep]
    return value, err, ok
