"""Independent finite-chain ground truth for the bulk formulas.

Three oracles at desk scale:

* ``dense_ed``: exact diagonalization of the periodic spin ring, up to 12
  sites, in blocks of fixed magnetization and T2 momentum k (T2, the
  translation by two sites, is the unit cell).  H is real, so blocks k and
  L - k (L = N/2) are conjugates and only k = 0 .. L/2 are kept.  The
  blocks depend on no coupling and are built once per ring size and
  process.

* ``spin_ring``: the same ring at every temperature, exactly, up to 128
  sites in O(N^3): by Jordan-Wigner, two fermion rings, antiperiodic and
  periodic, each projected onto one fermion parity (Lieb, Schultz &
  Mattis, Ann. Phys. 16 (1961) 407), summed from positive terms only; T = 0
  is the beta -> inf limit of the same sums.  ``dense_ed`` is its
  brute-force check, level by level.  Both spin rings keep the
  boundary term that the bulk solution drops, so their agreement with the
  analytic module is O(1/N) convergence data, never exact equality.

* ``finite_free_fermion``: the unprojected fermions of the periodic ring,
  diagonalized in 2x2 Bloch blocks of their real-space hoppings, every
  quantity read from the mode energies and the one-body correlation
  matrix.  No band integrand and no closed-form spectrum enters; the gap
  to the bulk integrals is the finite-size error of the fermion ring.

Every eigenstate has a fixed magnetization, which forbids coherence
between pair states of different pair magnetization, so the X-shaped
two-site density matrices below are the exact partial traces.  The bulk
averages over the sites of one parity commute with T2: ``dense_ed`` reads
them from each block's density matrix without rebuilding eigenvectors in
the spin basis, ``spin_ring`` off the first sites.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ChainParams, Thermal
from .correlations import CorrelatorPair

__all__ = [
    "DimensionTooLarge",
    "FiniteChainSpec",
    "EDResult",
    "FreeFermionResult",
    "dense_ed",
    "spin_ring",
    "finite_free_fermion",
]

_DENSE_CAP = 12
_RING_CAP = 128
# Levels within this share of |E0| of the lowest count as ground states.  For
# N >= 4, |E0| >= max(J, |j|, |b|, |B|): the cut follows the chain's own scale.
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
    """Bulk averages of the free fermions on a periodic ring of ``n_sites``."""

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


class _Sector(NamedTuple):
    """The coupling-free part of one (total magnetization, T2 momentum k) block of H.

    ``reps`` are the block's representatives.  The hoppings enter H at the
    flat indices ``flat[:len(bond)]`` as -(J + (-1)^l j) on bond ``bond``
    times ``factor``, their phase and norm factor; the diagonal follows at
    ``flat[len(bond):]``.  The ``real`` blocks are k = 0 and L/2; any
    other block also counts block L - k, its complex conjugate.  Row i of
    ``diagonal`` holds, on basis vector i, the sublattice means of sz (odd,
    even) and, per pair key, the pair populations p11, p10, p01, p00.
    ``coherence`` is (col, row, key, value): the nonzeros of each key's
    sublattice-mean flip operator.
    """

    real: bool
    reps: np.ndarray
    flat: np.ndarray
    bond: np.ndarray
    factor: np.ndarray
    diagonal: np.ndarray
    coherence: tuple


class _RingBasis(NamedTuple):
    """The coupling-free part of H on one ring: ``spins`` (2 bits - 1, one row
    per basis state) and the blocks, in the order they are diagonalized."""

    spins: np.ndarray
    sectors: tuple


class _Block(NamedTuple):
    """One diagonalized block.  ``mult`` is 2 when block L - k, the complex
    conjugate of this one, is counted through it; ``diagonal`` and
    ``coherence`` are those of its ``_Sector``."""

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


def _frozen(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.cache
def _ring_basis(n: int) -> _RingBasis:
    """The (total magnetization, T2 momentum) blocks of the n-site ring.

    T2 translates by two sites, rotating the basis bitmask by two bits (bit
    i = 1 means sz = +1 at site i+1).  With L = n/2, a representative r
    (the smallest mask of its orbit) has a period p_r dividing L, and the
    block vector
    |r, k> = p_r^(-1/2) sum_{t < p_r} e^(-2 pi i k t / L) T2^t |r>
    exists when k p_r = 0 mod L.  A nonzero h_{s r} with s = T2^l r'
    enters block k at (r', r) as h_{s r} e^(2 pi i k l / L) sqrt(p_r / p_r').
    H is real, so block L - k is the conjugate of block k: only
    k = 0 .. L/2 are built, and blocks k = 0 and k = L/2 are real.

    Everything here is independent of the couplings, built once per n and
    read-only.
    """
    half = n // 2
    every = np.arange(1 << n, dtype=np.int64)
    steps = 2 * np.arange(half)
    rots = ((every[:, None] << steps) | (every[:, None] >> (n - steps))) & ((1 << n) - 1)
    rep = rots.min(axis=1)
    shift = -rots.argmin(axis=1)  # s = T2^shift[s] rep[s]
    again = rots[:, 1:] == every[:, None]
    period = np.where(again.any(axis=1), again.argmax(axis=1) + 1, half)
    bits = (every[:, None] >> np.arange(n)) & 1

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
    sectors = []
    for n_up in range(n + 1):
        sector = every[(pop == n_up) & (rep == every)]
        for k in range(half // 2 + 1):
            reps = sector[(k * period[sector]) % half == 0]
            d = len(reps)
            if not d:
                continue
            where[reps] = np.arange(d)
            real = (2 * k) % half == 0  # k = 0 or L/2
            col, row, bond, factor = scatter(k, reps, *_flips(reps, bonds, both=True))
            flat = np.concatenate([row * d + col, np.arange(d) * (d + 1)])
            col, row, m, value = scatter(k, reps, *_flips(reps, pairs, both=False))
            coherence = _frozen(col, row, m // half, value / half)
            sectors.append(_Sector(real, *_frozen(reps, flat, bond, factor, diagonal[reps]),
                                   coherence))
            where[reps] = -1
    (spins,) = _frozen(2.0 * bits - 1.0)
    return _RingBasis(spins, tuple(sectors))


def _hamiltonian(s: _Sector, j_bond: np.ndarray, energy: np.ndarray) -> np.ndarray:
    """The block of H on sector ``s``: bond couplings ``j_bond``, diagonal ``energy``."""
    d = len(s.reps)
    val = np.concatenate([-j_bond[s.bond] * s.factor, energy[s.reps]])
    h = np.bincount(s.flat, val.real, d * d)
    if not s.real:
        h = h + 1j * np.bincount(s.flat, val.imag, d * d)
    return h.reshape(d, d)


def _block_eigensystems(n: int, p: ChainParams) -> list:
    """Diagonalize H in every (total magnetization, T2 momentum) block of
    :func:`_ring_basis`."""
    basis = _ring_basis(n)
    signs = _site_signs(n)
    j_bond = p.J + signs * p.j
    energy = -(basis.spins @ (p.B + signs * p.b))
    return [_Block(1 if s.real else 2, *np.linalg.eigh(_hamiltonian(s, j_bond, energy)),
                   s.diagonal, s.coherence) for s in basis.sectors]


def dense_ed(chain: FiniteChainSpec) -> EDResult:
    """Exact thermal/ground expectations on the periodic spin ring."""
    n = chain.n_sites
    if n > _DENSE_CAP:
        raise DimensionTooLarge(f"dense diagonalization is capped at {_DENSE_CAP} sites")
    p, t = chain.params, chain.thermal

    blocks = _block_eigensystems(n, p)
    e0 = min(b.evals[0] for b in blocks)
    cut = e0 + _DEGENERACY_TOL * abs(e0)
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

    return _ed_result(chain, energy / n, diagonal[:2], diagonal[2:].reshape(-1, 4), coherence,
                      degeneracy)


def _ed_result(chain, u, sz, populations, coherence, degeneracy) -> EDResult:
    """The ``EDResult`` of energy per site ``u``, the site-parity means ``sz`` (odd, even)
    of sz and, per pair key, the populations (p11, p10, p01, p00) and the coherence."""
    p, t = chain.params, chain.thermal
    sz_odd, sz_even = (float(v) for v in sz)
    m = 0.5 * (sz_odd + sz_even)
    m_s = 0.5 * (sz_even - sz_odd)
    rho2, g, zz, conc = {}, {}, {}, {}
    for key, (p11, p10, p01, p00), coh in zip(_PAIR_KEYS, populations, coherence):
        rho2[key] = rho = np.diag([p11, p10, p01, p00])
        rho[1, 2] = rho[2, 1] = coh
        g[key] = -2.0 * float(coh)
        zz[key] = float(p11 - p10 - p01 + p00)
        # the X state's concurrence (Wootters, PRL 80, 2245), clipped as ``wootters`` clips it
        conc[key] = min(max(2.0 * float(abs(coh) - math.sqrt(p11 * p00)), 0.0), 1.0)

    den = abs(p.J - p.j) + abs(p.J + p.j)
    witness_lhs = 4.0 * abs(u + p.B * m + p.b * m_s) / den if den > 0 else math.nan
    e_mw = 1.0 - 0.5 * (sz_odd**2 + sz_even**2) if t.is_ground else None

    return EDResult(
        n_sites=chain.n_sites,
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


def spin_ring(chain: FiniteChainSpec) -> EDResult:
    """Exact thermal/ground expectations on the periodic spin ring, from its two fermion rings.

    Sector s = 0 (even fermion number: the antiperiodic ring) and s = 1 (odd: periodic)
    are diagonalized in the Bloch blocks of :func:`_bloch_blocks` at k = pi q / L, q odd
    or even, so k and -k are degenerate to the bit.  A state of a sector is its ground
    filling with a set F of modes flipped, at weight prod_F y, y = e^(-beta |eps|), the
    parity of |F| fixed.  ``sums`` holds those weights summed over even and odd F among
    the modes other than a and b (row and column n: none left out), the odd sums over the
    largest y, built by (S0, S1) <- (S0 + y S1, S1 + y S0) from positive terms, so a rare
    parity keeps its relative precision; a mode left out (y = 0) is the identity.  Joint
    occupations of mode pairs are ratios of these sums, and p11 and p00 are (1/2) sum_ab
    |K_ab|^2 times one, K_ab = v_ia v_kb - v_ib v_ka the amplitude of c_k c_i.  At T = 0
    every level within ``dense_ed``'s cut of the lowest weighs alike: y over the largest
    y is 1 for a mode that close to the cheapest and 0 past it, and so on for the largest
    y itself and the ratio of the sectors.
    """
    n, p, t = chain.n_sites, chain.params, chain.thermal
    if n > _RING_CAP:
        raise DimensionTooLarge(f"the parity-projected ring is capped at {_RING_CAP} sites")
    half = n // 2  # q odd (s = 0) or even (s = 1), with q and -q modulo 2 L in each row
    q = 2 * np.arange(half) + 1 - half + (half + np.arange(2)[:, None]) % 2
    phase = np.exp(1j * np.pi * q / half)
    e, h = _bloch_blocks(p, n, phase)
    # h = D real D^+, D = diag(1, gauge): real is the same matrix at k and -k, and eigh(real)
    # keeps |amplitude|^2 on a site exact
    real, mod = h.real.copy(), np.abs(h[..., 0, 1])
    real[..., 0, 1] = real[..., 1, 0] = mod
    # h10 / mod takes 1 / mod, past the largest float below about 2^-1024: below 2^-500 both
    # are divided at 2^600 times, exactly, so that a quotient that was finite keeps its bits
    num, den = (np.where(mod < 2.0**-500, x * 2.0**600, x)
                for x in (h[..., 1, 0], np.where(mod > 0, mod, 1.0)))
    gauge = np.where(mod > 0, num / den, 1.0)
    eps, u = np.linalg.eigh(real)  # mode b of momentum m: eps[s, m, b], amplitudes u[s, m, :, b]
    eps = eps.reshape(2, n)
    # amplitudes on sites 1 .. 4 (cells 0 and 1): v[s, site, 2 m + b]
    site = np.stack([np.ones_like(phase), gauge, phase, phase * gauge], -1) / math.sqrt(half)
    v = (u[:, :, [0, 1, 0, 1]] * site[..., None]).transpose(0, 2, 1, 3).reshape(2, 4, n)
    density = (u**2).transpose(0, 2, 1, 3).reshape(2, 2, n)  # L |v|^2 on sites 1 and 2, exact

    filled = np.append(eps < 0, np.zeros((2, 1), bool), axis=1).astype(int)  # mode n: none
    tau, mag = (filled.sum(1) + [0, 1]) % 2, np.abs(eps)  # tau: the parity of |F|
    least = mag.min(1)
    low = np.minimum(eps, 0.0).sum(1) + tau * least + math.ldexp(p.B, -e) * n  # lowest levels
    cut = _DEGENERACY_TOL * abs(low.min())  # dense_ed's: levels this close are degenerate
    with np.errstate(over="ignore"):  # past 2^1000 a weight is 0 all the same
        # beta x for d, floor = -ln(largest y) and big; at T = 0, 0 within the cut, else +-2^1000
        d, floor, big = (np.where(abs(x) <= cut, 0.0, np.copysign(2.0**1000, x)) if t.is_ground
                         else np.clip(np.ldexp(t.beta * x, e), -2.0**1000, 2.0**1000)
                         for x in (mag - least[:, None], least[:, None], low[1] - low[0]))
    sums = np.zeros((2, 2, n + 1, n + 1))  # [parity, sector, a, b]
    sums[0] = 1.0
    factor = np.exp([-d - 2.0 * floor, -d])  # y times, and over, the largest y
    for c in range(n):
        step = sums + factor[:, :, c, None, None] * sums[::-1]
        step[..., c, :], step[..., c] = sums[..., c, :], sums[..., c]
        sums = step
    total = sums[tau, [0, 1], n, n]
    diff = big + np.log(total[0] / total[1])  # ln Z_0 - ln Z_1
    with np.errstate(over="ignore"):
        w = 1.0 / (1.0 + np.exp([-diff, diff]))
    d, off = np.append(d, np.zeros((2, 1)), axis=1), np.where(np.eye(n + 1), -np.inf, 0.0)

    def joint(x, z):
        """P(n_a = x, n_b = z) over mode pairs a != b per sector, and P(n_a = x)."""
        fa, fb = (filled ^ x)[:, :, None], (filled ^ z)[:, None, :]  # flipped or not
        parity = tau[:, None, None] ^ fa ^ fb  # of the flips among the other modes
        rare = fa + fb + parity - tau[:, None, None]  # 0 or 2: powers of the largest y
        lnw = off - fa * d[:, :, None] - fb * d[:, None, :] - rare * floor[:, :, None]
        out = np.exp(lnw) * np.where(parity, sums[1], sums[0]) / total[:, None, None]
        return out[:, :n, :n], out[:, :n, n]

    (both, _), (none, emp), (first, occ) = (joint(x, z) for x, z in ((1, 1), (0, 0), (1, 0)))

    def amp(i, f):
        return v[:, i, :, None] * v[:, f, None, :] - v[:, f, :, None] * v[:, i, None, :]

    def mean(values):  # summed over the modes, averaged over the sectors
        return float(w @ np.real(values).reshape(2, -1).sum(1))

    populations, coherence = [], []
    for par, r in _PAIR_KEYS:
        i = int(par == "even")
        f, k2 = i + r, abs(amp(i, i + r)) ** 2
        pair = (v[:, i, :, None] * v[:, f, None, :]).conj() * amp(i, f)
        populations.append([mean(k2 * both) / 2, mean(pair * first),
                            mean(pair.transpose(0, 2, 1) * first), mean(k2 * none) / 2])
        hop = mean(v[:, i].conj() * v[:, f] * occ)  # <c+_i c_f>
        if r == 2:  # c+_i (1 - 2 n_j) c_f = c+_i c_f - 2 c+_i c+_j c_j c_f
            hop -= mean(amp(i + 1, i).conj() * amp(i + 1, f) * both)
        coherence.append(hop)
    sz = [mean(density[:, a] * (occ - emp)) / half for a in (0, 1)]
    energy = math.ldexp(mean(eps * occ) / n + math.ldexp(p.B, -e), e)
    # dense_ed's ground states: the lowest levels within its cut, each with the ways to flip
    # the modes that close to zero (in the right parity) or else one of the cheapest
    zero, cheapest = (mag <= cut).sum(1), (mag <= least[:, None] + cut).sum(1)
    count = np.where(zero > 0, 2.0 ** (zero - 1), np.where(tau, cheapest, 1))
    return _ed_result(chain, energy, sz, populations, coherence,
                      int(count[low <= low.min() + cut].sum()))


def _bloch_blocks(p: ChainParams, n: int, phase=None) -> tuple[int, np.ndarray]:
    """(e, h): the 2x2 Bloch blocks h(k) of one two-site cell at the phases e^(ik) of
    ``phase``, by default the n/2 cell momenta k = 4 pi m / n of the periodic ring, for
    the couplings divided by 2^e, so that no entry overflows.

    H = c^+ A c + N B on the Jordan-Wigner fermions, with A_ll = -2 B_l and
    A_{l,l+1} = A_{l+1,l} = -J_l on the periodic ring.  A cell holds sites 1
    (odd) and 2; t0 is the block of A within a cell and t1 that from a cell to
    the next, so h(k) = t0 + t1 e^(ik) + t1^T e^(-ik).
    """
    e = math.frexp(max(p.J, abs(p.j), abs(p.b), abs(p.B)))[1]
    J, j, b, B = (math.ldexp(v, -e) for v in (p.J, p.j, p.b, p.B))
    t0 = np.array([[-2.0 * (B - b), -(J - j)], [-(J - j), -2.0 * (B + b)]])
    t1 = np.array([[0.0, 0.0], [-(J + j), 0.0]])
    if phase is None:
        phase = np.exp(2j * np.pi * np.arange(n // 2) / (n // 2))
    hop = phase[..., None, None]
    return e, t0 + t1 * hop + t1.T * hop.conj()


def finite_free_fermion(chain: FiniteChainSpec) -> FreeFermionResult:
    """Thermal/ground expectations of the free fermions on the periodic ring.

    One ``eigh`` of the stacked Bloch blocks gives the mode energies eps and
    tau = tanh(beta eps / 2), at T = 0 the sign, 0 for a mode at zero energy
    to within ``_DEGENERACY_TOL`` of the chain's scale: a mode's Fermi factor
    is (1 - tau) / 2.  ln Z / N, u and m are means over the modes of
    ln(2 cosh(beta eps / 2)), -eps tau / 2 and -tau.  With the one-body
    correlation matrix C_{l,m} = <c^+_l c_m> and gamma = 1 - 2C,
    <sz_l> = -gamma_ll and, in the library's sign, the contraction at r = 1, 2, 3
    is g_{l,r} = (-1)^(r+1) Re gamma_{l,l+r}.
    """
    n = chain.n_sites
    if n > _FERMION_CAP:
        raise DimensionTooLarge(f"free-fermion sums are capped at {_FERMION_CAP} sites")
    p, t = chain.params, chain.thermal

    e, h = _bloch_blocks(p, n)
    eps, vec = np.linalg.eigh(h)  # in units of 2^e; mode i of block k is vec[k, :, i]
    if t.is_ground:
        level = _DEGENERACY_TOL * math.ldexp(max(p.J, abs(p.j), abs(p.b), abs(p.B)), -e)
        tau, ln_z = np.where(np.abs(eps) > level, np.sign(eps), 0.0), None
    else:
        with np.errstate(over="ignore"):  # x = inf reads tanh(x) = 1 and ln(1 + e^-2x) = 0
            x = np.abs(np.ldexp(0.5 * t.beta * eps, e))
            tail = np.log1p(np.exp(-2.0 * x))
        tau = np.sign(eps) * np.tanh(x)
        # ln Z sums beta |eps| / 2 at beta 2^-over, below 2^1000 in the chain's units, and
        # scales the mean back by 2^over, so that no sum overflows before it is divided by n
        over = max(0, math.frexp(t.beta)[1] + e - 1000)
        y = np.abs(np.ldexp(0.5 * math.ldexp(t.beta, -over) * eps, e))
        ln_z = float(np.ldexp(np.sum(y + np.ldexp(tail, -over)) / n, over))
    # gamma[d, a, b]: between site a of one cell and site b of the cell d along
    gamma = np.fft.ifft(np.einsum("kai,kbi,ki->kab", vec.conj(), vec, tau), axis=0)
    sz_odd, sz_even = -gamma[0].diagonal().real
    g = {}
    for r in (1, 2, 3):
        odd, even = ((-1) ** (r + 1) * gamma[(a + r) // 2 % (n // 2), a, (a + r) % 2].real
                     for a in (0, 1))
        g[r] = CorrelatorPair(0.5 * (even + odd), 0.5 * (even - odd))
    return FreeFermionResult(
        n_sites=n,
        ln_z=ln_z,
        u=math.ldexp(-float(np.sum(eps * tau)) / (2 * n), e),
        m=-float(np.sum(tau)) / n,
        m_s=float(0.5 * (sz_even - sz_odd)),
        g=g,
    )
