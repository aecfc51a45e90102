"""Adaptive panel quadrature over momentum space.

Every observable of the chain is a one-dimensional integral over q in
[0, pi] of a smooth function of the two bands, except at zero temperature
where occupation factors turn into sign functions and the integrand
acquires kinks or jumps at the band-crossing angles.  Those angles are
known in closed form, so callers register them as panel breakpoints and
the integrator bisects adaptively from there.

The rule on each panel is the embedded 7-point Gauss / 15-point Kronrod
pair with the conventional error model: the |K15 - G7| difference is
rescaled against the integral of |f - mean| so that near-converged panels
are not flagged by pure roundoff.  Panels whose error exceeds their
proportional share of the tolerance are bisected, subject to a per-panel
depth limit; exhausting the limit returns the best estimate flagged as
unconverged rather than raising mid-computation.

Integrands must accept ndarray input (they are evaluated 15 nodes per
panel, batched across panels).
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

# 15-point Kronrod nodes on [-1, 1] (ascending) with Kronrod weights, and
# the embedded 7-point Gauss weights living on nodes 1, 3, ..., 13.
_XK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])
_GAUSS_IDX = np.arange(1, 15, 2)

_EPS = np.finfo(float).eps
# Hard stop against runaway refinement; generous compared to the ~10^2
# panels the stiffest physical integrand (beta ~ 1e4 transition layers)
# actually needs.
_PANEL_CAP = 16384
_TRAPEZOID_CAP = 2**14  # most nodes ``_periodic_trapezoid`` evaluates per integrand


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances and refinement limits for :func:`integrate`.

    ``max_subdivisions`` bounds the bisection depth of any single panel
    (an initial panel of width w is never split below w / 2**max_subdivisions).
    ``breakpoints`` are interior points of (0, pi) that seed panel edges;
    physics modules add band-crossing angles automatically.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 60
    breakpoints: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not (self.abs_tol >= 0 and self.rel_tol >= 0):
            raise ValueError("tolerances must be non-negative")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise ValueError("abs_tol and rel_tol cannot both be zero")
        if self.max_subdivisions < 0:
            raise ValueError("max_subdivisions must be >= 0")
        for x in self.breakpoints:
            if not (0.0 < x < math.pi):
                raise ValueError(f"breakpoints must lie strictly inside (0, pi), got {x!r}")

    def with_breakpoints(self, points) -> "QuadSpec":
        """Copy of this spec with extra breakpoints merged in."""
        merged = sorted(set(self.breakpoints) | set(float(x) for x in points))
        return QuadSpec(self.abs_tol, self.rel_tol, self.max_subdivisions, tuple(merged))


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


def _eval_panels(f, a, b):
    """Gauss-Kronrod value and error estimate for each panel [a_i, b_i]."""
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = mid[:, None] + h[:, None] * _XK[None, :]
    fx = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    if not np.all(np.isfinite(fx)):
        raise ValueError("integrand returned non-finite values")
    resk = fx @ _WK
    resg = fx[:, _GAUSS_IDX] @ _WG
    resabs = np.abs(fx) @ _WK
    mean = 0.5 * resk
    resasc = np.abs(fx - mean[:, None]) @ _WK
    value = resk * h
    err = np.abs(resk - resg) * h
    asc = resasc * h
    # Conventional rescaling: trust |K - G| only once it is small relative
    # to the variation of f on the panel.
    nz = (asc != 0) & (err != 0)
    scale = np.ones_like(err)
    scale[nz] = np.minimum(1.0, (200.0 * err[nz] / asc[nz]) ** 1.5)
    err = np.where(nz, asc * scale, err)
    err = np.maximum(err, 50.0 * _EPS * resabs * h)
    return value, err


def integrate(f, spec: QuadSpec | None = None, lo: float = 0.0, hi: float = math.pi) -> QuadResult:
    """Integrate a vectorized integrand over [lo, hi] (default [0, pi]).

    Returns the best estimate together with an error estimate and a
    convergence flag; it never raises on tolerance failure.  Breakpoints
    from ``spec`` that fall strictly inside (lo, hi) become initial panel
    edges.
    """
    spec = DEFAULT_QUAD if spec is None else spec
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got [{lo!r}, {hi!r}]")

    inner = [x for x in sorted(spec.breakpoints) if lo < x < hi]
    edges = np.array([lo, *inner, hi])
    # Collapse breakpoints that would create zero-width panels.
    keep = np.concatenate(([True], np.diff(edges) > 1e-12 * (hi - lo)))
    edges = edges[keep]
    if edges[-1] != hi:
        edges[-1] = hi

    a, b = edges[:-1], edges[1:]
    depth = np.zeros(a.size, dtype=int)
    val, err = _eval_panels(f, a, b)

    while True:
        total = float(val.sum())
        toterr = float(err.sum())
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if toterr <= tol:
            return QuadResult(total, toterr, True, a.size)
        share = tol * (b - a) / (hi - lo)
        bad = err > share
        can_split = bad & (depth < spec.max_subdivisions)
        n_new = int(np.count_nonzero(can_split))
        if n_new == 0 or a.size + n_new > _PANEL_CAP:
            return QuadResult(total, toterr, False, a.size)
        mid = 0.5 * (a[can_split] + b[can_split])
        ka = np.concatenate((a[~can_split], a[can_split], mid))
        kb = np.concatenate((b[~can_split], mid, b[can_split]))
        kd = np.concatenate((depth[~can_split], depth[can_split] + 1, depth[can_split] + 1))
        new_val, new_err = _eval_panels(f, np.concatenate((a[can_split], mid)),
                                        np.concatenate((mid, b[can_split])))
        val = np.concatenate((val[~can_split], new_val))
        err = np.concatenate((err[~can_split], new_err))
        a, b, depth = ka, kb, kd


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
