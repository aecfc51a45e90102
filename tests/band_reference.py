"""Band integrals by scipy's QUADPACK, written out again from the model's definitions.

Nothing here imports staggered_xx: theta, the crossing angles and the
occupation factors are the formulas of the README, evaluated in scalar
Python.  At T = 0 (beta = inf) a mode at zero energy follows the field,
sign(0) -> sign(B), which is the library's convention that a critical field
belongs to the regime above it.
"""

import math
from fractions import Fraction

from scipy import integrate


def band_integrals(J, j, b, B, beta=math.inf, rs=(1, 2)):
    """({name: value}, largest QUADPACK error estimate) for u, m, m_s and,
    for each r in ``rs``, the (uniform, staggered) contraction pair ``g<r>``.

    Every value is (1/2pi) int_0^pi over the whole zone.  Breakpoints are
    the crossings theta(q) = |B|, pi/2 and, at finite beta off the flat band
    J = |j|, a geometric fan of points on both sides of those and of the
    ends, where the thermal layers sit.
    """
    cold = math.isinf(beta)

    def occupation(lam):
        if cold:
            return math.copysign(1.0, lam if lam else B) if (lam or B) else 0.0
        return math.tanh(beta * lam)

    def bands(q):
        c, s = math.cos(q), math.sin(q)
        # theta^2 as a sum of non-negative terms, constant to the last bit on
        # the flat band: beta times a rounding of theta is noise that QUADPACK
        # cannot integrate to 1e-13
        if J * J >= j * j:
            th = math.sqrt(j * j + b * b + (J * J - j * j) * c * c)
        else:
            th = math.sqrt(J * J + b * b + (j * j - J * J) * s * s)
        tp, tm = occupation(B + th), occupation(B - th)
        # the difference over theta; weightless where theta = 0
        return c, s, th, tp + tm, (tp - tm) / th if th > 0 else 0.0

    kernels = {
        "u": lambda q, c, s, th, tsum, tdiff: -(B * tsum + th * th * tdiff),
        "m": lambda q, c, s, th, tsum, tdiff: tsum,
        "m_s": lambda q, c, s, th, tsum, tdiff: b * tdiff,
    }
    for r in rs:
        if r % 2 == 0:
            kernels[f"g{r}u"] = lambda q, c, s, th, tsum, tdiff, r=r: math.cos(r * q) * tsum
            kernels[f"g{r}s"] = lambda q, c, s, th, tsum, tdiff, r=r: math.cos(r * q) * b * tdiff
        else:
            kernels[f"g{r}u"] = lambda q, c, s, th, tsum, tdiff, r=r: -math.cos(r * q) * J * c * tdiff
            kernels[f"g{r}s"] = lambda q, c, s, th, tsum, tdiff, r=r: -math.sin(r * q) * j * s * tdiff

    centres = [math.pi / 2]
    if J * J != j * j:
        # cos^2 of the crossing, exact: in floats it cancels when B lies within
        # rounding of the lower critical field sqrt(j^2 + b^2)
        J_, j_, b_, B_ = map(Fraction, (J, j, b, B))
        x = (B_ * B_ - b_ * b_ - j_ * j_) / (J_ * J_ - j_ * j_)
        if 0.0 < x < 1.0:
            x = math.acos(math.sqrt(x))
            centres += [x, math.pi - x]
    points = set(centres)
    if not cold and J * J != j * j:  # a flat theta puts no thermal layer in q
        for c0 in (0.0, *centres, math.pi):
            for e in range(-9, 0):
                points.update(y for y in (c0 - 10.0**e, c0 + 10.0**e) if 0.0 < y < math.pi)

    values, worst = {}, 0.0
    for name, kernel in kernels.items():
        v, err = integrate.quad(
            lambda q: kernel(q, *bands(q)), 0.0, math.pi, points=sorted(points),
            limit=4000, epsabs=1e-13, epsrel=1e-13,
        )
        values[name], worst = v / (2.0 * math.pi), max(worst, err / (2.0 * math.pi))
    for r in rs:
        values[f"g{r}"] = (values.pop(f"g{r}u"), values.pop(f"g{r}s"))
    return values, worst
