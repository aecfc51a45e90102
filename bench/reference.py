"""Reference values for the staggered XX chain, computed without staggered_xx.

Nothing here imports the package under test.  Every value comes from the
Hamiltonian itself,

    H = -sum_l [ (J_l / 2) (sx_l sx_{l+1} + sy_l sy_{l+1}) + B_l sz_l ],
    J_l = J + (-1)^l j,   B_l = B + (-1)^l b   (1-based site l, periodic),

through its Jordan-Wigner fermions, H = c^+ A c + sum_l B_l with
A_ll = -2 B_l and A_{l,l+1} = A_{l+1,l} = -J_l.  The one-body correlation
matrix C_ab = <c_a^+ c_b> = f(A)_ab (f the Fermi function) fixes every
observable the CLI prints:

* finite T: the ring is invariant under translation by two sites, so the
  2x2 Bloch blocks of A are read off a six-site real-space matrix,
  diagonalized with numpy on M cells and Fermi factors applied.  M doubles
  until two rings agree to 1e-13 (the trapezoid rule on a periodic analytic
  function converges geometrically);
* T = 0: the same Bloch blocks with step occupations, the k-integrals done by
  scipy ``quad_vec`` with breakpoints at the Fermi angles, root-found from
  this module's own theta(k);
* second opinions: ``mp_primitives`` (mpmath at 30 digits, with breakpoints
  at the Fermi angles, their thermal layers and the theta extremum) and
  ``dense_ring_primitives`` (the full real-space matrix of an N-site ring);
* spins: ``spin_ring`` gives the periodic spin ring exactly from the two
  fermion rings its parity sectors map to, and ``kron_ed`` diagonalizes the
  2^N Kronecker-product spin Hamiltonian by brute force.

Run ``python3 bench/reference.py --J 1 --j 0.5 --b 0.3 --B 0.8 --T 0.5`` to
print every reference quantity at one point.  The benchmark caches nothing:
each run recomputes the values it checks.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass

import numpy as np

# Largest Bloch ring (in two-site cells) tried before giving up.
_MAX_CELLS = 1 << 18
_RING_AGREE = 1e-13
# The program promises 1e-10 on every integral-derived quantity.
PROMISE = 1e-10

PRIMITIVES = ("u", "sz_odd", "sz_even", "h1_odd", "h1_even", "h2_odd", "h2_even")


class ReferenceFailed(RuntimeError):
    """A reference computation did not reach its own accuracy target."""


@dataclass(frozen=True)
class Point:
    """Couplings, fields and inverse temperature (beta = inf: ground state)."""

    J: float
    j: float
    b: float
    B: float
    beta: float


# --------------------------------------------------------------------------
# Hamiltonian


def ring_matrix(p: Point, n: int) -> np.ndarray:
    """Real-space one-body matrix A of an n-site periodic ring."""
    l = np.arange(1, n + 1)
    sign = np.where(l % 2 == 0, 1.0, -1.0)
    j_bond = p.J + sign * p.j
    b_site = p.B + sign * p.b
    a = np.diag(-2.0 * b_site)
    for i in range(n):
        k = (i + 1) % n
        a[i, k] += -j_bond[i]
        a[k, i] += -j_bond[i]
    return a


def _cell_blocks(p: Point):
    a = ring_matrix(p, 6)
    return a[0:2, 0:2], a[0:2, 2:4]


def bloch(p: Point, k) -> np.ndarray:
    """h(k) = sum_R A[(0, .), (R, .)] e^{ikR} for cell momenta k (any shape)."""
    t0, t1 = _cell_blocks(p)
    e = np.exp(1j * np.asarray(k, dtype=float))[..., None, None]
    return t0 + t1 * e + t1.T * np.conj(e)


def theta(p: Point, k):
    """Half the eigenvalue splitting of h(k), halved again: bands are -2B -+ 2 theta."""
    h = bloch(p, k)
    half_diff = 0.5 * (h[..., 0, 0] - h[..., 1, 1]).real
    return 0.5 * np.sqrt(half_diff**2 + np.abs(h[..., 0, 1]) ** 2)


def fermi(x):
    """1 / (1 + e^x) without overflow, accurate in both tails."""
    return np.exp(-np.logaddexp(0.0, x))


def fermi_angles(p: Point) -> list[float]:
    """Cell momenta in (0, 2 pi) where a band crosses zero, i.e. theta(k) = |B|."""
    from scipy import optimize

    grid = np.linspace(0.0, 2.0 * math.pi, 8193)
    g = theta(p, grid) - abs(p.B)
    roots = []
    for i in np.flatnonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0):
        roots.append(optimize.brentq(lambda x: float(theta(p, x)) - abs(p.B),
                                     grid[i], grid[i + 1], xtol=1e-16, rtol=1e-15))
    return roots


# --------------------------------------------------------------------------
# Correlation-matrix entries.  Cell c holds sites 2c+1 (odd) and 2c+2 (even).
#   D_o, D_e : C[(0,o),(0,o)], C[(0,e),(0,e)]
#   X0, X1   : C[(0,o),(0,e)], C[(0,e),(1,o)]      nearest neighbours
#   Y_o, Y_e : C[(0,o),(1,o)], C[(0,e),(1,e)]      next-nearest neighbours


def _primitives(d_o, d_e, x0, x1, y_o, y_e, u) -> dict:
    return {
        "u": float(u),
        "sz_odd": float(2.0 * d_o - 1.0),
        "sz_even": float(2.0 * d_e - 1.0),
        "h1_odd": float(x0),
        "h1_even": float(x1),
        "h2_odd": float(y_o),
        "h2_even": float(y_e),
    }


def _ring_sums(p: Point, beta: float, cells: int) -> dict:
    k = 2.0 * math.pi * np.arange(cells) / cells
    w, v = np.linalg.eigh(bloch(p, k))
    f = fermi(beta * w)
    fh = np.einsum("kan,kn,kbn->kab", v, f, v.conj())
    back = np.exp(-1j * k)
    return _primitives(
        fh[:, 0, 0].real.mean(),
        fh[:, 1, 1].real.mean(),
        fh[:, 0, 1].real.mean(),
        (fh[:, 1, 0] * back).real.mean(),
        (fh[:, 0, 0] * back).real.mean(),
        (fh[:, 1, 1] * back).real.mean(),
        float(np.sum(w * f)) / (2 * cells) + p.B,
    )


def ring_primitives(p: Point) -> dict:
    """Finite-T primitives from Bloch rings doubled until two agree to 1e-13."""
    if math.isinf(p.beta):
        raise ValueError("ring_primitives needs a finite beta")
    slope = p.J + abs(p.j) + abs(p.b)
    cells = 64
    while cells < 8.0 * p.beta * slope and cells < _MAX_CELLS // 2:
        cells *= 2
    prev = _ring_sums(p, p.beta, cells)
    while cells < _MAX_CELLS:
        cells *= 2
        cur = _ring_sums(p, p.beta, cells)
        if max(abs(cur[key] - prev[key]) for key in PRIMITIVES) <= _RING_AGREE:
            return cur
        prev = cur
    raise ReferenceFailed(f"Bloch ring not converged at {_MAX_CELLS} cells for {p}")


def _step(w):
    return np.where(w < 0, 1.0, np.where(w > 0, 0.0, 0.5))


def dense_ring_primitives(p: Point, n: int) -> dict:
    """Primitives of the n-site periodic fermion ring from its full real-space matrix."""
    w, v = np.linalg.eigh(ring_matrix(p, n))
    f = _step(w) if math.isinf(p.beta) else fermi(p.beta * w)
    c = (v * f) @ v.T
    idx = np.arange(0, n, 2)  # odd sites (1-based), 0-based even index
    nxt = lambda s: (idx + s) % n
    return _primitives(
        c[idx, idx].mean(),
        c[nxt(1), nxt(1)].mean(),
        c[idx, nxt(1)].mean(),
        c[nxt(1), nxt(2)].mean(),
        c[idx, nxt(2)].mean(),
        c[nxt(1), nxt(3)].mean(),
        float(np.sum(w * f)) / n + p.B,
    )


def _ground_density(p: Point):
    def fn(k):
        w, v = np.linalg.eigh(bloch(p, k))
        f = _step(w)
        fh = (v * f) @ v.conj().T
        back = np.exp(-1j * k)
        return np.array([
            fh[0, 0].real,
            fh[1, 1].real,
            fh[0, 1].real,
            (fh[1, 0] * back).real,
            (fh[0, 0] * back).real,
            (fh[1, 1] * back).real,
            float(np.sum(w * f)) / 2.0,
        ])

    return fn


def ground_primitives(p: Point) -> dict:
    """T = 0 primitives by scipy quad_vec with breakpoints at the Fermi angles."""
    from scipy import integrate

    points = sorted(set(fermi_angles(p)) | {math.pi})
    val, err = integrate.quad_vec(
        _ground_density(p), 0.0, 2.0 * math.pi,
        epsabs=1e-14, epsrel=0.0, norm="max", points=points, limit=20000,
    )
    if not err <= 1e-12:
        raise ReferenceFailed(f"quad_vec error {err:.2e} at {p}")
    val = val / (2.0 * math.pi)
    return _primitives(*val[:6], val[6] + p.B)


def primitives(p: Point) -> dict:
    """Primary reference: Bloch rings at finite T, scipy quadrature at T = 0."""
    return ground_primitives(p) if math.isinf(p.beta) else ring_primitives(p)


def mp_primitives(p: Point, dps: int = 30) -> dict:
    """Second opinion: mpmath quadrature of the same entries at ``dps`` digits.

    The 2x2 matrix function is taken in closed form through its spectral
    projectors.  Breakpoints sit at the Fermi angles, at the edges of their
    thermal layers (finite T) and at k = pi, where theta has its narrow
    minimum when the gap is small.
    """
    import mpmath

    old = mpmath.mp.dps
    mpmath.mp.dps = dps
    try:
        t0, t1 = (mpmath.matrix(t.tolist()) for t in _cell_blocks(p))
        beta = None if math.isinf(p.beta) else mpmath.mpf(p.beta)

        def occ(e):
            if beta is None:
                return mpmath.mpf(1) if e < 0 else (mpmath.mpf(0) if e > 0 else mpmath.mpf(0.5))
            x = beta * e
            return 1 / (1 + mpmath.exp(x)) if x < 0 else mpmath.exp(-x) / (1 + mpmath.exp(-x))

        cache = {}

        def entries(k):
            if k in cache:
                return cache[k]
            e = mpmath.expj(k)
            a = t0[0, 0] + 2 * t1[0, 0] * mpmath.cos(k)
            d = t0[1, 1] + 2 * t1[1, 1] * mpmath.cos(k)
            z = t0[0, 1] + t1[0, 1] * e + t1[1, 0] * mpmath.conj(e)
            mu, delta = (a + d) / 2, (a - d) / 2
            r = mpmath.sqrt(delta**2 + abs(z) ** 2)
            fp, fm = occ(mu + r), occ(mu - r)
            s, q = (fp + fm) / 2, (fp - fm) / (2 * r)
            f00, f11, f01 = s + q * delta, s - q * delta, q * z
            back = mpmath.expj(-k)
            out = (
                f00, f11, mpmath.re(f01), mpmath.re(mpmath.conj(f01) * back),
                mpmath.re(f00 * back), mpmath.re(f11 * back),
                ((mu + r) * fp + (mu - r) * fm) / 2,
            )
            cache[k] = out
            return out

        pts = {0.0, math.pi, 2.0 * math.pi}
        for x in fermi_angles(p):
            pts.add(x)
            if beta is not None:
                slope = abs(float(np.gradient(theta(p, [x - 1e-6, x, x + 1e-6]), 1e-6)[1]))
                width = 1.0 / (p.beta * max(2.0 * slope, 1e-3))
                for s in range(8):
                    for y in (x - width * 4**s, x + width * 4**s):
                        if 0.0 < y < 2.0 * math.pi:
                            pts.add(y)
        pts = [mpmath.mpf(x) for x in sorted(pts)]
        vals = [mpmath.quad(lambda k, i=i: entries(k)[i], pts) / (2 * mpmath.pi)
                for i in range(7)]
        vals[6] = vals[6] + p.B
        return _primitives(*(float(v) for v in vals))
    finally:
        mpmath.mp.dps = old


# --------------------------------------------------------------------------
# Quantities from primitives.  Written once for floats and for intervals, so
# the tolerance of every derived quantity is the interval width obtained by
# widening each primitive by the program's 1e-10 promise.


class Interval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        self.lo, self.hi = float(lo), float(lo if hi is None else hi)

    @staticmethod
    def _of(x):
        return x if isinstance(x, Interval) else Interval(x)

    def __add__(self, o):
        o = Interval._of(o)
        return Interval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, o):
        return self + (-Interval._of(o))

    def __rsub__(self, o):
        return Interval._of(o) - self

    def __mul__(self, o):
        o = Interval._of(o)
        c = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(min(c), max(c))

    __rmul__ = __mul__

    def __truediv__(self, o):
        return self * (1.0 / o)

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(0.0, max(-self.lo, self.hi))

    def sqrt(self):
        return Interval(math.sqrt(max(self.lo, 0.0)), math.sqrt(max(self.hi, 0.0)))

    def pos(self):
        return Interval(max(self.lo, 0.0), max(self.hi, 0.0))

    @property
    def half_width(self) -> float:
        return 0.5 * (self.hi - self.lo)


def _sqrt(x):
    return x.sqrt() if isinstance(x, Interval) else math.sqrt(max(x, 0.0))


def _pos(x):
    return x.pos() if isinstance(x, Interval) else max(x, 0.0)


_OTHER = {"odd": "even", "even": "odd"}


def _pair(occ_a, occ_c, coh, p11):
    """Concurrence and <sz sz> of the X-shaped two-site state.

    occ_a, occ_c are the up-spin probabilities, p11 that of both up and coh
    the coherence <up down|rho|down up>.
    """
    p00 = 1.0 - occ_a - occ_c + p11
    conc = 2.0 * _pos(abs(coh) - _sqrt(p11 * p00))
    zz = 4.0 * p11 - 2.0 * occ_a - 2.0 * occ_c + 1.0
    return conc, zz


def _witness(p: Point, u, m, m_s):
    return 4.0 * abs(u + p.B * m + p.b * m_s) / (abs(p.J - p.j) + abs(p.J + p.j))


def quantities(p: Point, prim: dict) -> dict:
    """Every CLI and oracle quantity from the primitives (floats or intervals)."""
    sz = {"odd": prim["sz_odd"], "even": prim["sz_even"]}
    occ = {par: (1.0 + sz[par]) / 2.0 for par in sz}
    m = (sz["odd"] + sz["even"]) / 2.0
    m_s = (sz["even"] - sz["odd"]) / 2.0
    out = {"u": prim["u"], "m": m, "m_s": m_s}
    for par in ("odd", "even"):
        other = _OTHER[par]
        h1 = prim["h1_" + par]
        out["g1_" + par] = -2.0 * h1
        # Wick: <n_a n_c> = <n_a><n_c> - <c_a^+ c_c>^2
        out["c1_" + par], out["zz1_" + par] = _pair(
            occ[par], occ[other], h1, occ[par] * occ[other] - h1 * h1
        )
        # string through the middle site: <c_a^+ (1 - 2 n_b) c_c> by Wick
        h2 = prim["h2_" + par]
        coh2 = h2 * (1.0 - 2.0 * occ[other]) + 2.0 * h1 * prim["h1_" + other]
        out["c2_" + par], _ = _pair(occ[par], occ[par], coh2, occ[par] * occ[par] - h2 * h2)
    out["witness_lhs"] = _witness(p, prim["u"], m, m_s)
    out["energy_t0"] = prim["u"]
    out["m_t0"] = m
    out["e_mw"] = 1.0 - (sz["odd"] * sz["odd"] + sz["even"] * sz["even"]) / 2.0
    return out


def tolerances(p: Point, prim: dict) -> dict:
    """Allowed |program - reference| per quantity: the 1e-10 promise, propagated.

    The promise holds for u, m, m_s and each part of a contraction, so a
    sublattice <sz> = m -+ m_s may be off by 2e-10 and a contraction
    <c_a^+ c_b> = -(uniform -+ staggered) / 2 by 1e-10.
    """
    widen = {key: (2.0 if key.startswith("sz_") else 1.0) * PROMISE for key in prim}
    box = {key: Interval(v - widen[key], v + widen[key]) for key, v in prim.items()}
    return {key: iv.half_width for key, iv in quantities(p, box).items()}


def reference(p: Point) -> tuple[dict, dict, dict]:
    """(primitives, quantities, tolerances) from the primary reference."""
    prim = primitives(p)
    return prim, quantities(p, prim), tolerances(p, prim)


# --------------------------------------------------------------------------
# Spin ring by brute force

_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Y = np.array([[0.0, -1j], [1j, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def _site_op(op, l, n):
    return np.kron(np.kron(np.eye(1 << l), op), np.eye(1 << (n - l - 1)))


def kron_ed(p: Point, n: int = 8) -> dict:
    """Thermal expectations on the n-site periodic spin ring, 2^n states."""
    if math.isinf(p.beta):
        raise ValueError("kron_ed is used at finite temperature only")
    xs = [_site_op(_X, l, n) for l in range(n)]
    ys = [_site_op(_Y, l, n) for l in range(n)]
    zs = [_site_op(_Z, l, n) for l in range(n)]
    sign = [1.0 if (l + 1) % 2 == 0 else -1.0 for l in range(n)]
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for l in range(n):
        c = (l + 1) % n
        h -= 0.5 * (p.J + sign[l] * p.j) * (xs[l] @ xs[c] + ys[l] @ ys[c])
        h -= (p.B + sign[l] * p.b) * zs[l]
    w, v = np.linalg.eigh(h)
    wt = np.exp(-p.beta * (w - w.min()))
    rho = (v * (wt / wt.sum())) @ v.conj().T
    ev = lambda op: float(np.real(np.trace(rho @ op)))
    sz = [ev(z) for z in zs]
    m = sum(sz) / n
    m_s = sum(s * x for s, x in zip(sign, sz)) / n
    u = ev(h) / n
    out = {"u": u, "m": m, "m_s": m_s}
    full = rho.reshape((2,) * (2 * n))
    for par in ("odd", "even"):
        l = 0 if par == "odd" else 1
        c = l + 1
        keep = [l, c]
        rest = [i for i in range(n) if i not in keep]
        # partial trace down to sites (l, c)
        letters = "abcdefghijklmnopqrstuvwxyz"
        row = list(letters[:n])
        col = list(letters[n:2 * n])
        for i in rest:
            col[i] = row[i]
        spec = "".join(row) + "".join(col) + "->" + row[l] + row[c] + col[l] + col[c]
        r2 = np.einsum(spec, full).reshape(4, 4)
        off = r2.copy()
        for i, k in ((0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1), (0, 3), (3, 0)):
            off[i, k] = 0.0
        if np.max(np.abs(off)) > 1e-12:
            raise ReferenceFailed("two-site reduced state is not X-shaped")
        xxyy = np.kron(_X, _X) + np.kron(_Y, _Y)
        out["g1_" + par] = -0.5 * float(np.real(np.trace(r2 @ xxyy)))
        out["zz1_" + par] = float(np.real(np.trace(r2 @ np.kron(_Z, _Z))))
        d = np.real(np.diag(r2))
        out["c1_" + par] = 2.0 * max(
            0.0,
            abs(r2[1, 2]) - math.sqrt(max(d[0] * d[3], 0.0)),
            abs(r2[0, 3]) - math.sqrt(max(d[1] * d[2], 0.0)),
        )
    out["witness_lhs"] = _witness(p, u, m, m_s)
    return out


def spin_ring(p: Point, n: int) -> dict:
    """Thermal expectations on the n-site periodic spin ring, exact, in O(n^3).

    Jordan-Wigner maps the spin ring to fermions whose boundary condition
    follows the fermion parity: antiperiodic with an even number of up spins,
    periodic with an odd number.  With P = (-1)^F,

        Tr_even X = (Tr X + Tr P X) / 2,   Tr_odd X = (Tr X - Tr P X) / 2,

    and each of the four traces is Gaussian (mode weights e^{-beta e_k n_k},
    times (-1)^{n_k} under P), so Wick's theorem gives every one- and
    two-site expectation of each; the spin ring mixes them with signed
    weights.  ``kron_ed`` confirms this at n = 8.
    """
    if math.isinf(p.beta):
        raise ValueError("spin_ring is used at finite temperature only")
    periodic = ring_matrix(p, n)
    anti = periodic.copy()
    anti[n - 1, 0] = anti[0, n - 1] = -periodic[0, n - 1]
    terms = []  # (weight, mode energies, occupations, eigenvectors)
    for a, parity in ((anti, 1.0), (periodic, -1.0)):
        w, v = np.linalg.eigh(a)
        boltz = np.exp(-p.beta * w)
        for s in (1.0, -1.0):
            factors = 1.0 + s * boltz
            if np.any(np.abs(factors) < 1e-12):
                raise ReferenceFailed("zero mode in a parity-projected trace")
            coef = 0.5 if s > 0 else 0.5 * parity
            terms.append((coef * float(np.prod(factors)), w, s * boltz / factors, v))
    z = sum(t[0] for t in terms)
    sz = np.zeros(2)
    u = 0.0
    pair = {par: np.zeros(2) for par in ("odd", "even")}  # (p11, coherence)
    for weight, w, occ, v in terms:
        c = (v * occ) @ v.T
        wt = weight / z
        u += wt * float(np.sum(w * occ))
        sz += wt * (2.0 * np.diag(c)[:2] - 1.0)
        for par, a in (("odd", 0), ("even", 1)):
            pair[par] += wt * np.array([c[a, a] * c[a + 1, a + 1] - c[a, a + 1] ** 2, c[a, a + 1]])
    u = u / n + p.B
    m = (sz[0] + sz[1]) / 2.0
    m_s = (sz[1] - sz[0]) / 2.0
    out = {"u": u, "m": m, "m_s": m_s}
    occ = {"odd": (1.0 + sz[0]) / 2.0, "even": (1.0 + sz[1]) / 2.0}
    for par in ("odd", "even"):
        p11, coh = pair[par]
        out["g1_" + par] = -2.0 * coh
        out["c1_" + par], out["zz1_" + par] = _pair(occ[par], occ[_OTHER[par]], coh, p11)
    out["witness_lhs"] = _witness(p, u, m, m_s)
    return out


# --------------------------------------------------------------------------
# Transitions


def critical_fields(p: Point) -> tuple[float, float]:
    """Fields where the ground energy is singular: hypot(J, b) and hypot(j, b)."""
    return math.hypot(p.J, p.b), math.hypot(p.j, p.b)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Print reference values at one point.")
    ap.add_argument("--J", type=float, default=1.0)
    ap.add_argument("--j", type=float, default=0.0)
    ap.add_argument("--b", type=float, default=0.0)
    ap.add_argument("--B", type=float, default=0.0)
    ap.add_argument("--T", type=float, default=0.0, help="temperature; 0 = ground state")
    ap.add_argument("--mp", action="store_true", help="use the mpmath second opinion")
    args = ap.parse_args(argv)
    beta = math.inf if args.T == 0 else 1.0 / args.T
    p = Point(args.J, args.j, args.b, args.B, beta)
    prim = mp_primitives(p) if args.mp else primitives(p)
    vals = quantities(p, prim)
    tols = tolerances(p, prim)
    for key in sorted(vals):
        print(f"{key:12s} {vals[key]: .16g}  +- {tols[key]:.2g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
