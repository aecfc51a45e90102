"""Independent finite-chain ground truth for the bulk formulas.

Two oracles at desk scale:

* ``dense_ed``: exact diagonalization of the periodic spin ring in the
  spin basis.  Total magnetization and T2, the translation by two sites
  (the unit cell), commute with H, so H is diagonalized in blocks of
  fixed magnetization and T2 momentum k (about 160 states at N = 12
  against 924 for the largest magnetization sector).  H is real, so the
  blocks k and L - k (L = N/2) are complex conjugates and only
  k = 0 .. L/2 are diagonalized, the others counted twice.  The spin
  chain keeps the boundary term that the bulk fermion solution drops, so
  agreement with the analytic module is O(1/N) convergence data, never
  exact equality.

* ``finite_free_fermion``: the translation-invariant fermion solution on
  a finite ring, where each momentum pair contributes a 2x2 block whose
  eigenvalues are 2B +- 2 theta(q_k).  Bulk integrals (1/2pi) int dq
  become (1/N) sum_k over q_k = 2 pi k / N, evaluated with literally the
  same integrand closures as :mod:`.thermo` / :mod:`.correlations`; the
  gap to the integral is pure quadrature-of-a-sum discretization error.

Reduced two-site density matrices are assembled blockwise: every
eigenvector lives in one magnetization sector, which forbids coherence
between pair states of different pair magnetization (the environment
overlap vanishes), so the X-shaped assembly below is the exact partial
trace, not an approximation.  The bulk averages over the sites of one
parity commute with T2, so they are read from each block's density
matrix without rebuilding eigenvectors in the spin basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ChainParams, Thermal
from .correlations import CorrelatorPair, transverse_integrands
from .entanglement import wootters
from .thermo import (
    internal_energy_integrand,
    ln_z_integrand,
    magnetization_integrand,
    staggered_magnetization_integrand,
)

__all__ = [
    "DimensionTooLarge",
    "FiniteChainSpec",
    "EDResult",
    "FreeFermionResult",
    "dense_ed",
    "finite_free_fermion",
    "fermion_block",
    "block_eigenvalues",
]

_DENSE_CAP = 12
# Levels within this share of max(1, |E0|) of the lowest count as ground states.
_DEGENERACY_TOL = 1e-10
_FERMION_CAP = 2**20


class DimensionTooLarge(ValueError):
    """Requested ring exceeds the oracle's exact-arithmetic budget."""


@dataclass(frozen=True)
class FiniteChainSpec:
    """A periodic ring of n_sites spins at the given couplings/temperature."""

    n_sites: int
    params: ChainParams
    thermal: Thermal

    def __post_init__(self) -> None:
        n = self.n_sites
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise ValueError(f"n_sites must be an integer, got {n!r}")
        if n < 4 or n % 2:
            raise ValueError(f"n_sites must be even and >= 4, got {n}")


@dataclass(frozen=True)
class EDResult:
    """Bulk-averaged observables of one exact-diagonalization run.

    Dictionary keys are the site parity ("odd"/"even", 1-based site
    index) and, for pair quantities, (parity, separation).
    """

    n_sites: int
    energy_per_site: float
    magnetization: float
    staggered_magnetization: float
    sigma_z: dict
    g: dict
    zz: dict
    rho2: dict
    concurrence: dict
    e_mw: float | None
    witness_lhs: float
    ground_degeneracy: int


@dataclass(frozen=True)
class FreeFermionResult:
    """Finite-ring momentum sums of the bulk integrands."""

    n_sites: int
    ln_z: float | None
    u: float
    m: float
    m_s: float
    g: dict


def _site_signs(n: int) -> np.ndarray:
    # (-1)^l for 1-based site l at 0-based index l-1
    return np.where(np.arange(n) % 2 == 1, 1.0, -1.0)


# The bulk-averaged pairs: (parity of the first site, separation).
_PAIR_KEYS = tuple((par, r) for r in (1, 2) for par in ("odd", "even"))


class _Block(NamedTuple):
    """One (total magnetization, T2 momentum k) block of H.

    ``mult`` is 2 when block L - k, the complex conjugate of this one, is
    counted through it.  Row i of ``diagonal`` holds, on basis vector i,
    the sublattice means of sz (odd, even) and, per pair key, the pair
    populations p11, p10, p01, p00.  ``coherence`` is (col, row, key,
    value): the nonzeros of each key's sublattice-mean flip operator.
    """

    mult: int
    evals: np.ndarray
    evecs: np.ndarray
    diagonal: np.ndarray
    coherence: tuple


def _flips(states: np.ndarray, sites: np.ndarray, both: bool):
    """Nonzeros of a sum of two-spin flips, column by column.

    The flip on the site pair (a, c) = sites[m] turns over both spins of a
    state whose spins a, c are antiparallel (``both``), or whose spin a is
    up and spin c down (not ``both``).  Returns (col, target, m): the index
    into ``states`` of the state flipped, the state it becomes and the pair.
    """
    a, c = sites[:, 0], sites[:, 1]
    ua, uc = (states[:, None] >> a) & 1, (states[:, None] >> c) & 1
    col, m = np.nonzero(ua != uc if both else (ua == 1) & (uc == 0))
    return col, states[col] ^ ((1 << a[m]) | (1 << c[m])), m


def _block_eigensystems(n: int, p: ChainParams) -> list:
    """Diagonalize H in every (total magnetization, T2 momentum) block.

    T2 translates by two sites, rotating the basis bitmask by two bits (bit
    i = 1 means sz = +1 at site i+1).  With L = n/2, a representative r
    (the smallest mask of its orbit) has a period p_r dividing L, and the
    block vector
    |r, k> = p_r^(-1/2) sum_{t < p_r} e^(-2 pi i k t / L) T2^t |r>
    exists when k p_r = 0 mod L.  A nonzero h_{s r} with s = T2^l r'
    enters block k at (r', r) as h_{s r} e^(2 pi i k l / L) sqrt(p_r / p_r').
    H is real, so block L - k is the conjugate of block k: only
    k = 0 .. L/2 are built, and blocks k = 0 and k = L/2 are real.
    """
    half = n // 2
    every = np.arange(1 << n, dtype=np.int64)
    steps = 2 * np.arange(half)
    rots = ((every[:, None] << steps) | (every[:, None] >> (n - steps))) & ((1 << n) - 1)
    rep = rots.min(axis=1)
    shift = -rots.argmin(axis=1)  # s = T2^shift[s] rep[s]
    again = rots[:, 1:] == every[:, None]
    period = np.where(again.any(axis=1), again.argmax(axis=1) + 1, half)

    signs = _site_signs(n)
    j_bond = p.J + signs * p.j
    bits = (every[:, None] >> np.arange(n)) & 1
    energy = -((2.0 * bits - 1.0) @ (p.B + signs * p.b))
    bonds = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    # per key, the L pairs whose first site has its parity: their mean is
    # T2-invariant and equals the bulk average of the ring
    pairs = np.array(
        [(l, (l + r) % n) for par, r in _PAIR_KEYS for l in range(par == "even", n, 2)]
    )
    up = bits.astype(bool)
    columns = [(2.0 * bits[:, par::2] - 1.0).mean(axis=1) for par in (0, 1)]
    for key_pairs in pairs.reshape(len(_PAIR_KEYS), half, 2):
        ua, uc = up[:, key_pairs[:, 0]], up[:, key_pairs[:, 1]]
        for x, y in ((ua, uc), (ua, ~uc), (~ua, uc), (~ua, ~uc)):
            columns.append((x & y).mean(axis=1))
    diagonal = np.stack(columns, axis=1)

    where = np.full(1 << n, -1)  # position of each representative in the current block

    def scatter(k, reps, col, target, m):
        # the flips that land in block k, with their phase and norm factor
        row = where[rep[target]]
        keep = row >= 0
        col, row, target, m = col[keep], row[keep], target[keep], m[keep]
        factor = np.exp(2j * np.pi * ((k * shift[target]) % half) / half)
        return col, row, m, factor * np.sqrt(period[reps[col]] / period[rep[target]])

    pop = bits.sum(axis=1)
    blocks = []
    for n_up in range(n + 1):
        sector = every[(pop == n_up) & (rep == every)]
        for k in range(half // 2 + 1):
            reps = sector[(k * period[sector]) % half == 0]
            d = len(reps)
            if not d:
                continue
            where[reps] = np.arange(d)
            real = (2 * k) % half == 0  # k = 0 or L/2
            col, row, m, factor = scatter(k, reps, *_flips(reps, bonds, both=True))
            flat = np.concatenate([row * d + col, np.arange(d) * (d + 1)])
            val = np.concatenate([-j_bond[m] * factor, energy[reps]])
            h = np.bincount(flat, val.real, d * d)
            if not real:
                h = h + 1j * np.bincount(flat, val.imag, d * d)
            evals, evecs = np.linalg.eigh(h.reshape(d, d))
            col, row, m, factor = scatter(k, reps, *_flips(reps, pairs, both=False))
            coherence = (col, row, m // half, factor / half)
            blocks.append(_Block(1 if real else 2, evals, evecs, diagonal[reps], coherence))
            where[reps] = -1
    return blocks


def dense_ed(chain: FiniteChainSpec) -> EDResult:
    """Exact thermal/ground expectations on the periodic spin ring."""
    n = chain.n_sites
    if n > _DENSE_CAP:
        raise DimensionTooLarge(f"dense diagonalization is capped at {_DENSE_CAP} sites")
    p, t = chain.params, chain.thermal

    blocks = _block_eigensystems(n, p)
    e0 = min(b.evals[0] for b in blocks)
    cut = e0 + _DEGENERACY_TOL * max(1.0, abs(e0))
    degeneracy = sum(b.mult * int((b.evals <= cut).sum()) for b in blocks)
    if t.is_ground:
        raw = [(b.evals <= cut).astype(float) for b in blocks]
    else:
        raw = [np.exp(-t.beta * (b.evals - e0)) for b in blocks]
    z = sum(b.mult * w.sum() for b, w in zip(blocks, raw))

    energy = 0.0
    diagonal = np.zeros(blocks[0].diagonal.shape[1])
    coherence = np.zeros(len(_PAIR_KEYS))
    for b, w in zip(blocks, raw):
        if not w.any():
            continue
        w = w / z
        energy += b.mult * float(w @ b.evals)
        rho = (b.evecs * w) @ b.evecs.conj().T
        diagonal += b.mult * (rho.diagonal().real @ b.diagonal)
        col, row, key, val = b.coherence
        coherence += b.mult * np.bincount(key, (rho[col, row] * val).real, len(_PAIR_KEYS))

    sz_odd, sz_even = (float(v) for v in diagonal[:2])
    m = 0.5 * (sz_odd + sz_even)
    m_s = 0.5 * (sz_even - sz_odd)
    rho2, g, zz, conc = {}, {}, {}, {}
    for key, (p11, p10, p01, p00), coh in zip(_PAIR_KEYS, diagonal[2:].reshape(-1, 4), coherence):
        rho = np.array(
            [
                [p11, 0.0, 0.0, 0.0],
                [0.0, p10, coh, 0.0],
                [0.0, coh, p01, 0.0],
                [0.0, 0.0, 0.0, p00],
            ]
        )
        rho2[key] = rho
        g[key] = -2.0 * float(coh)
        zz[key] = float(p11 - p10 - p01 + p00)
        conc[key] = wootters(rho)

    u = energy / n
    den = abs(p.J - p.j) + abs(p.J + p.j)
    witness_lhs = 4.0 * abs(u + p.B * m + p.b * m_s) / den if den > 0 else math.nan
    e_mw = 1.0 - 0.5 * (sz_odd**2 + sz_even**2) if t.is_ground else None

    return EDResult(
        n_sites=n,
        energy_per_site=u,
        magnetization=m,
        staggered_magnetization=m_s,
        sigma_z={"odd": sz_odd, "even": sz_even},
        g=g,
        zz=zz,
        rho2=rho2,
        concurrence=conc,
        e_mw=e_mw,
        witness_lhs=witness_lhs,
        ground_degeneracy=degeneracy,
    )


def _momentum_blocks(p: ChainParams, k: np.ndarray, n: int):
    """2x2 momentum blocks at q_k = 2 pi k / n and their closed-form eigenvalues.

    Returns (q, blocks, lam) with blocks[i] the block at q[i] and lam[i] =
    (2B - 2 theta(q_i), 2B + 2 theta(q_i)).
    """
    q = 2.0 * math.pi * k / n
    blocks = np.empty((len(k), 2, 2), dtype=complex)
    blocks[:, 0, 0] = 2.0 * p.B - 2.0 * p.J * np.cos(q)
    blocks[:, 1, 1] = 2.0 * p.B + 2.0 * p.J * np.cos(q)
    blocks[:, 0, 1] = 2.0 * p.b + 2.0j * p.j * np.sin(q)
    blocks[:, 1, 0] = np.conj(blocks[:, 0, 1])
    # theta of couplings divided by an exact power of two, so no square overflows
    k = math.frexp(max(p.J, abs(p.j), abs(p.b)))[1]
    J, j, b = (math.ldexp(v, -k) for v in (p.J, p.j, p.b))
    th = np.ldexp(np.sqrt((J * np.cos(q)) ** 2 + b**2 + (j * np.sin(q)) ** 2), k)
    lam = np.stack([2.0 * p.B - 2.0 * th, 2.0 * p.B + 2.0 * th], axis=1)
    return q, blocks, lam


def _one_momentum(k: int, n: int) -> np.ndarray:
    if not 1 <= k <= n // 2:
        raise ValueError(f"momentum index must satisfy 1 <= k <= n/2, got k={k}, n={n}")
    return np.array([k])


def fermion_block(p: ChainParams, k: int, n: int) -> np.ndarray:
    """2x2 momentum block of the quadratic fermion form at q = 2 pi k / n."""
    return _momentum_blocks(p, _one_momentum(k, n), n)[1][0]


def block_eigenvalues(p: ChainParams, k: int, n: int) -> tuple[float, float]:
    """Closed-form eigenvalues 2B -+ 2 theta(q_k) of the momentum block."""
    lo, hi = _momentum_blocks(p, _one_momentum(k, n), n)[2][0]
    return float(lo), float(hi)


def finite_free_fermion(chain: FiniteChainSpec, rs: tuple = (1, 2, 3)) -> FreeFermionResult:
    """Finite-ring momentum sums of the bulk thermodynamic integrands.

    Verifies the block-spectrum identity at every momentum before
    summing, then replaces (1/2pi) int_0^pi dq -> (1/N) sum_k.
    """
    n = chain.n_sites
    if n > _FERMION_CAP:
        raise DimensionTooLarge(f"free-fermion sums are capped at {_FERMION_CAP} sites")
    p, t = chain.params, chain.thermal

    q, blocks, lam = _momentum_blocks(p, np.arange(1, n // 2 + 1), n)
    dev = float(np.max(np.abs(np.linalg.eigvalsh(blocks) - lam)))
    scale = max(1.0, float(np.max(np.abs(lam))))
    if dev > 1e-12 * scale:
        raise ArithmeticError(f"block spectrum deviates from closed form by {dev:.3e}")

    # (1/2pi) int_0^pi dq  ->  (1/N) sum over the N/2 momenta in (0, pi]
    mean = lambda f: float(np.sum(f(q))) / n
    g = {}
    for r in rs:
        fu, fs = transverse_integrands(p, t, r)
        g[int(r)] = CorrelatorPair(mean(fu), mean(fs))
    return FreeFermionResult(
        n_sites=n,
        ln_z=None if t.is_ground else mean(ln_z_integrand(p, t)),
        u=mean(internal_energy_integrand(p, t)),
        m=mean(magnetization_integrand(p, t)),
        m_s=mean(staggered_magnetization_integrand(p, t)),
        g=g,
    )
