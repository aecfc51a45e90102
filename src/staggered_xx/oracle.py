"""Independent finite-chain ground truth for the bulk formulas.

Two oracles at desk scale:

* ``dense_ed``: exact diagonalization of the periodic spin ring.  Total
  magnetization commutes with H, so the Hamiltonian is diagonalized
  sector by sector (largest block C(12,6) = 924 at N = 12).  The spin
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
trace, not an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
_FERMION_CAP = 2**20


class DimensionTooLarge(ValueError):
    """Requested ring exceeds the oracle's exact-arithmetic budget."""


@dataclass(frozen=True)
class FiniteChainSpec:
    """A periodic ring of n_sites spins at the given couplings/temperature."""

    n_sites: int
    params: ChainParams
    thermal: Thermal
    degeneracy_tol: float = 1e-10

    def __post_init__(self) -> None:
        n = self.n_sites
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise ValueError(f"n_sites must be an integer, got {n!r}")
        if n < 4 or n % 2:
            raise ValueError(f"n_sites must be even and >= 4, got {n}")
        if not (self.degeneracy_tol > 0):
            raise ValueError("degeneracy_tol must be positive")


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


def _parity_name(i: int) -> str:
    return "even" if (i + 1) % 2 == 0 else "odd"


def _sector_eigensystems(n: int, p: ChainParams):
    """Diagonalize H in every total-magnetization sector.

    Yields (states, eigenvalues, eigenvectors) with ``states`` the sorted
    basis bitmasks of the sector (bit i = 1 means sz = +1 at site i+1).
    """
    signs = _site_signs(n)
    j_bond = p.J + signs * p.j
    b_site = p.B + signs * p.b
    every = np.arange(1 << n, dtype=np.int64)
    bits = (every[:, None] >> np.arange(n)) & 1
    pop = bits.sum(axis=1)
    out = []
    for n_up in range(n + 1):
        states = every[pop == n_up]
        d = len(states)
        sz = 2.0 * bits[states] - 1.0
        h = np.zeros((d, d))
        h[np.arange(d), np.arange(d)] = -(sz @ b_site)
        for i in range(n):
            a, c = i, (i + 1) % n
            mask = bits[states, a] != bits[states, c]
            if not mask.any():
                continue
            flipped = states[mask] ^ ((1 << a) | (1 << c))
            rows = np.searchsorted(states, flipped)
            h[rows, np.nonzero(mask)[0]] += -j_bond[i]
        evals, evecs = np.linalg.eigh(h)
        out.append((states, sz, evals, evecs))
    return out


def _thermal_weights(sectors, t: Thermal, tol: float):
    e0 = min(ev.min() for _, _, ev, _ in sectors)
    if t.is_ground:
        cut = e0 + tol * max(1.0, abs(e0))
        raw = [(ev <= cut).astype(float) for _, _, ev, _ in sectors]
    else:
        raw = [np.exp(-t.beta * (ev - e0)) for _, _, ev, _ in sectors]
    z = sum(w.sum() for w in raw)
    return [w / z for w in raw], e0


def dense_ed(chain: FiniteChainSpec) -> EDResult:
    """Exact thermal/ground expectations on the periodic spin ring."""
    n = chain.n_sites
    if n > _DENSE_CAP:
        raise DimensionTooLarge(f"dense diagonalization is capped at {_DENSE_CAP} sites")
    p, t = chain.params, chain.thermal

    sectors = _sector_eigensystems(n, p)
    weights, e0 = _thermal_weights(sectors, t, chain.degeneracy_tol)
    degeneracy = sum(
        int((ev <= e0 + chain.degeneracy_tol * max(1.0, abs(e0))).sum())
        for _, _, ev, _ in sectors
    )

    energy = sum(float(w @ ev) for (_, _, ev, _), w in zip(sectors, weights))
    sz_site = np.zeros(n)
    pairs = [(l, r) for r in (1, 2) for l in range(n)]
    acc = {pair: np.zeros(5) for pair in pairs}  # p11, p10, p01, p00, coherence

    for (states, sz, _, vecs), w in zip(sectors, weights):
        if not w.any():
            continue
        prob = (vecs * vecs) @ w  # basis-state occupation
        sz_site += sz.T @ prob
        up = (sz > 0)
        for l, r in pairs:
            a, c = l, (l + r) % n
            ua, uc = up[:, a], up[:, c]
            rec = acc[(l, r)]
            rec[0] += prob[ua & uc].sum()
            rec[1] += prob[ua & ~uc].sum()
            rec[2] += prob[~ua & uc].sum()
            rec[3] += prob[~ua & ~uc].sum()
            sel = np.nonzero(ua & ~uc)[0]
            if len(sel):
                flipped = states[sel] ^ ((1 << a) | (1 << c))
                rows = np.searchsorted(states, flipped)
                rec[4] += np.einsum("ij,ij,j->", vecs[rows], vecs[sel], w)

    m = float(sz_site.mean())
    m_s = float((_site_signs(n) * sz_site).mean())
    sigma_z = {
        par: float(np.mean([sz_site[i] for i in range(n) if _parity_name(i) == par]))
        for par in ("odd", "even")
    }

    rho2, g, zz, conc = {}, {}, {}, {}
    half = n // 2
    for r in (1, 2):
        for par in ("odd", "even"):
            rec = sum(acc[(l, r)] for l in range(n) if _parity_name(l) == par) / half
            p11, p10, p01, p00, coh = rec
            rho = np.array(
                [
                    [p11, 0.0, 0.0, 0.0],
                    [0.0, p10, coh, 0.0],
                    [0.0, coh, p01, 0.0],
                    [0.0, 0.0, 0.0, p00],
                ]
            )
            key = (par, r)
            rho2[key] = rho
            g[key] = -2.0 * coh
            zz[key] = p11 - p10 - p01 + p00
            conc[key] = wootters(rho)

    u = energy / n
    den = abs(p.J - p.j) + abs(p.J + p.j)
    witness_lhs = 4.0 * abs(u + p.B * m + p.b * m_s) / den if den > 0 else math.nan
    e_mw = float(1.0 - np.mean(sz_site**2)) if t.is_ground else None

    return EDResult(
        n_sites=n,
        energy_per_site=u,
        magnetization=m,
        staggered_magnetization=m_s,
        sigma_z=sigma_z,
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
    th = np.sqrt((p.J * np.cos(q)) ** 2 + p.b**2 + (p.j * np.sin(q)) ** 2)
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
