"""Tanh-sinh quadrature over momentum space.

Every observable of the chain is a one-dimensional integral over q in
[0, pi] of a smooth function of the two bands.  At large beta the
occupation factors turn sharply where a band crosses zero; those angles
are known in closed form, so callers register them as breakpoints, which
split the interval into pieces.

Each piece [a, b] is mapped by the tanh-sinh (double-exponential)
substitution q = (a + b)/2 + (b - a)/2 tanh((pi/2) sinh t) (Takahasi &
Mori, Publ. RIMS 9 (1974) 721) and summed by the trapezoid rule in t on
[-3.5, 3.5].  The nodes cluster double-exponentially at the ends of each
piece, so a layer or a kink on a breakpoint needs no further seeds.  All
pieces share nested levels, h = 1/2 down to 2^-9, and the run stops once
|I_h - I_{h/2}| is within a quarter of max(abs_tol, rel_tol |I|);
exhausting the levels returns the best estimate flagged as unconverged
rather than raising mid-computation.

Integrands must accept ndarray input (each level is one batched call).
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

_TRAPEZOID_CAP = 2**14  # most nodes ``_periodic_trapezoid`` evaluates per integrand


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances and piece edges for :func:`integrate`.

    ``breakpoints`` are interior points of (0, pi) where the interval is
    split; physics modules add the band-crossing angles and pi/2.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    breakpoints: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not (self.abs_tol >= 0 and self.rel_tol >= 0):
            raise ValueError("tolerances must be non-negative")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise ValueError("abs_tol and rel_tol cannot both be zero")
        for x in self.breakpoints:
            if not (0.0 < x < math.pi):
                raise ValueError(f"breakpoints must lie strictly inside (0, pi), got {x!r}")

    def with_breakpoints(self, points) -> "QuadSpec":
        """Copy of this spec with extra breakpoints merged in."""
        merged = sorted(set(self.breakpoints) | set(float(x) for x in points))
        return QuadSpec(self.abs_tol, self.rel_tol, tuple(merged))


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
    """Integrate a vectorized integrand over [lo, hi] (default [0, pi]).

    Returns the best estimate together with an error estimate, |I_h - I_{h/2}|
    of the last two levels, and a convergence flag; it never raises on
    tolerance failure.  Breakpoints from ``spec`` that fall strictly inside
    (lo, hi) split the interval into pieces; ``n_panels`` counts them.
    """
    spec = DEFAULT_QUAD if spec is None else spec
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got [{lo!r}, {hi!r}]")

    edges = np.array([lo, *(x for x in sorted(spec.breakpoints) if lo < x < hi), hi])
    a, b = edges[:-1, None], edges[1:, None]
    width = b - a
    total, value, err = 0.0, math.nan, math.inf
    for h, distance, upper, jacobian in _LEVELS:
        nodes = np.where(upper, b - distance * width, a + distance * width)
        fx = np.asarray(f(nodes.ravel()), dtype=float)
        if not np.all(np.isfinite(fx)):
            raise ValueError("integrand returned non-finite values")
        total += float(fx @ (jacobian * width).ravel())
        coarse, value = value, h * total
        err = abs(value - coarse)
        if err <= 0.25 * max(spec.abs_tol, spec.rel_tol * abs(value)):
            return QuadResult(value, err, True, width.size)
    return QuadResult(value, err, False, width.size)


def _periodic_trapezoid(fs, sharpness: float, spec: QuadSpec | None = None) -> list[QuadResult]:
    """Integrals over [0, pi] of pi-periodic integrands ``fs`` on shared equispaced nodes.

    For analytic integrands the rule converges geometrically (Trefethen &
    Weideman, SIAM Rev. 56 (2014) 385).  Nodes start under a quarter of the
    layer width 1/sharpness apart (at least 16) and gain midpoints until each
    |I_2n - I_n| is within max(abs_tol, rel_tol |I|), as in :func:`integrate`.
    Past ``_TRAPEZOID_CAP`` nodes all are unconverged; ``n_panels`` counts nodes.
    """
    spec = DEFAULT_QUAD if spec is None else spec
    n = 16
    while n < 4.0 * math.pi * sharpness and n <= _TRAPEZOID_CAP:
        n *= 2
    if 2 * n > _TRAPEZOID_CAP:
        return [QuadResult(math.nan, math.inf, False, 0) for _ in fs]
    q, total, value = np.arange(n) * (math.pi / n), 0.0, None
    while True:
        fx = np.array([f(q) for f in fs], dtype=float)
        if not np.all(np.isfinite(fx)):
            raise ValueError("integrand returned non-finite values")
        total = total + fx.sum(axis=1)
        coarse, value = value, total * (math.pi / n)
        if coarse is not None:
            err = np.abs(value - coarse)
            ok = bool(np.all(err <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(value))))
            if ok or 2 * n > _TRAPEZOID_CAP:
                return [QuadResult(float(v), float(e), ok, n) for v, e in zip(value, err)]
        q, n = (np.arange(n) + 0.5) * (math.pi / n), 2 * n
