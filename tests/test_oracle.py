"""Exact-diagonalization and finite-ring fermion oracles.

The dense route is cross-checked here against a third, fully independent
construction: explicit Pauli kron products.  That keeps the oracle honest
before it is trusted to referee the analytic modules.
"""

import math
from functools import reduce

import numpy as np
import pytest

from staggered_xx import (
    ChainParams,
    DimensionTooLarge,
    EDResult,
    FiniteChainSpec,
    FreeFermionResult,
    QuadSpec,
    Thermal,
    dense_ed,
    finite_free_fermion,
    g1,
    g_even,
    internal_energy,
    ln_z_per_site,
    magnetization,
    spin_ring,
    staggered_magnetization,
    theta_of_q,
    wootters,
)
from staggered_xx.oracle import _RING_CAP, _bloch_blocks

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
ID = np.eye(2)


def site_op(op, site, n):
    ops = [ID] * n
    ops[site] = op
    return reduce(np.kron, ops)


def kron_hamiltonian(n, p):
    """Independent dense H: 1-based site l, odd l carries J - j and B - b."""
    h = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):  # i = l - 1
        sign = -1.0 if (i + 1) % 2 else 1.0
        jl = p.J + sign * p.j
        bl = p.B + sign * p.b
        nxt = (i + 1) % n
        h -= 0.5 * jl * (
            site_op(SX, i, n) @ site_op(SX, nxt, n)
            + site_op(SY, i, n) @ site_op(SY, nxt, n)
        )
        h -= bl * site_op(SZ, i, n)
    return h


def _edge_chains(rng):
    chains = [ChainParams(J=float(rng.uniform(0.2, 1.5)), j=float(rng.uniform(-1.5, 1.5)),
                          b=float(rng.uniform(-1.5, 1.5)), B=float(rng.uniform(-2, 2)))
              for _ in range(3)]
    chains += [
        ChainParams(J=1.0, j=0.45, b=0.3, B=0.0),    # B = 0
        ChainParams(J=1.0, j=-0.6, b=0.0, B=0.7),    # b = 0
        ChainParams(J=1.0, j=1.0, b=0.35, B=-0.4),   # j = J
        ChainParams(J=0.8, j=-0.8, b=0.2, B=0.9),    # j = -J
        ChainParams(J=0.0),                          # all-zero chain
    ]
    return chains + [ChainParams(*(s * v for v in (chains[0].J, chains[0].j, chains[0].b,
                                                   chains[0].B))) for s in (2.0**560, 2.0**-560)]


def test_sector_spectrum_matches_kron_route():
    # every block is diagonalized directly: its levels, with their conjugate blocks, are
    # the whole kron spectrum, to 1e-10 of the chain's scale
    from staggered_xx.oracle import _block_eigensystems

    rng = np.random.default_rng(17)
    for n in (4, 6, 8):
        for p in [ChainParams(J=1.0, j=0.45, b=0.3, B=0.6), *_edge_chains(rng)]:
            scale = max(p.J, abs(p.j), abs(p.b), abs(p.B)) or 1.0
            h = kron_hamiltonian(n, p)
            assert np.max(np.abs(h - h.conj().T)) < 1e-12 * scale
            total_sz = sum(site_op(SZ, i, n) for i in range(n))
            assert np.max(np.abs(h @ total_sz - total_sz @ h)) < 1e-12 * scale
            want = np.sort(np.linalg.eigvalsh(h))
            blocks = _block_eigensystems(n, p)
            got = np.sort(np.concatenate([np.tile(b.evals, b.mult) for b in blocks]))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * scale, err_msg=f"{n} {p}")


def partial_trace(rho, a, c, n):
    """4x4 state of sites a, c (basis up-up, up-down, down-up, down-down)."""
    letters = "abcdefghijklmnopqrstuvwx"
    rows, cols = list(letters[:n]), list(letters[n : 2 * n])
    for i in range(n):
        if i not in (a, c):
            cols[i] = rows[i]
    spec = "".join(rows + cols) + "->" + rows[a] + rows[c] + cols[a] + cols[c]
    return np.einsum(spec, rho.reshape([2] * (2 * n))).reshape(4, 4)


def kron_ed(n, p, t, tol=1e-10):
    """Every EDResult field from the full 2^n kron Hamiltonian."""
    evals, evecs = np.linalg.eigh(kron_hamiltonian(n, p))
    e0 = evals.min()
    ground = evals <= e0 + tol * abs(e0)
    w = ground.astype(float) if t.is_ground else np.exp(-t.beta * (evals - e0))
    w /= w.sum()
    rho = (evecs * w) @ evecs.conj().T
    sz = np.array([np.einsum("ij,ji->", rho, site_op(SZ, i, n)).real for i in range(n)])
    xxyy = np.kron(SX, SX) + np.kron(SY, SY)
    rho2, g, zz, conc = {}, {}, {}, {}
    for r in (1, 2):
        for par, first in (("odd", 0), ("even", 1)):
            key = (par, r)
            states = [partial_trace(rho, l, (l + r) % n, n) for l in range(first, n, 2)]
            rho2[key] = np.mean(states, axis=0)
            g[key] = -0.5 * np.trace(rho2[key] @ xxyy).real
            zz[key] = np.trace(rho2[key] @ np.kron(SZ, SZ)).real
            conc[key] = wootters(rho2[key])
    u = float(w @ evals) / n
    m, m_s = sz.mean(), (sz[1::2].mean() - sz[0::2].mean()) / 2
    den = abs(p.J - p.j) + abs(p.J + p.j)
    return dict(
        energy_per_site=u,
        magnetization=m,
        staggered_magnetization=m_s,
        sigma_z={"odd": sz[0::2].mean(), "even": sz[1::2].mean()},
        g=g,
        zz=zz,
        rho2=rho2,
        concurrence=conc,
        e_mw=1.0 - np.mean(sz**2) if t.is_ground else None,
        witness_lhs=4.0 * abs(u + p.B * m + p.b * m_s) / den if den > 0 else math.nan,
        ground_degeneracy=int(ground.sum()),
    )


def test_dense_ed_thermal_averages_match_kron_route():
    # N = 6 has conjugate momentum pairs; N = 8 adds a real k = L/2 block.
    # All-up (saturated) and Neel (J = j = 0, B = 0) ground states have
    # T2 orbits of period 1; the uncoupled rings are degenerate.
    points = [
        (ChainParams(J=1.0, j=0.45, b=0.3, B=0.6), (1.3, math.inf)),
        (ChainParams(J=0.8, j=-0.35, b=-0.5, B=0.2), (0.7, math.inf)),
        (ChainParams(J=1.0, j=0.2, b=0.1, B=3.0), (math.inf,)),
        (ChainParams(J=0.0, j=0.0, b=1.0, B=0.0), (2.0, math.inf)),
        (ChainParams(J=1.0, j=0.0, b=0.0, B=0.0), (math.inf,)),
        (ChainParams(J=0.0, j=0.0, b=0.5, B=0.5), (math.inf,)),
        (ChainParams(J=0.0), (math.inf,)),
    ]
    for n in (4, 6, 8):
        for p, betas in points:
            for beta in betas:
                t = Thermal.zero() if math.isinf(beta) else Thermal.finite(beta)
                res = dense_ed(FiniteChainSpec(n, p, t))
                want = kron_ed(n, p, t)
                where = f"n={n} {p} beta={beta}"
                assert res.ground_degeneracy == want.pop("ground_degeneracy"), where
                for name, value in want.items():
                    got = getattr(res, name)
                    if isinstance(value, dict):
                        assert got.keys() == value.keys(), (where, name)
                        for key in value:
                            np.testing.assert_allclose(
                                got[key], value[key], rtol=0, atol=1e-10,
                                err_msg=f"{where} {name} {key}",
                            )
                    elif value is None:
                        assert got is None, (where, name)
                    else:
                        np.testing.assert_allclose(
                            got, value, rtol=0, atol=1e-10, err_msg=f"{where} {name}"
                        )


def test_dense_ed_dimer_is_exact():
    p = ChainParams(J=1.0, j=1.0, b=0.0, B=0.0)
    res = dense_ed(FiniteChainSpec(8, p, Thermal.zero()))
    assert isinstance(res, EDResult)
    assert math.isclose(res.energy_per_site, -1.0, abs_tol=1e-12)
    assert res.ground_degeneracy == 1
    assert math.isclose(res.concurrence[("even", 1)], 1.0, abs_tol=1e-10)
    assert abs(res.concurrence[("odd", 1)]) < 1e-10
    assert abs(res.concurrence[("even", 2)]) < 1e-10
    assert abs(res.concurrence[("odd", 2)]) < 1e-10
    assert res.e_mw is not None and math.isclose(res.e_mw, 1.0, abs_tol=1e-12)
    assert abs(res.magnetization) < 1e-12


def test_dense_ed_infinite_temperature_limit():
    p = ChainParams(J=1.0, j=0.5, b=0.4, B=0.7)
    res = dense_ed(FiniteChainSpec(6, p, Thermal.finite(1e-9)))
    assert abs(res.magnetization) < 1e-7
    assert abs(res.g[("odd", 1)]) < 1e-7
    assert res.concurrence[("even", 1)] == 0.0
    assert res.witness_lhs < 1e-7
    assert res.e_mw is None


def test_dense_ed_two_site_states_are_physical():
    # both rings, at T > 0 and T = 0: the X-state closed form of the concurrence is the
    # general Wootters concurrence of the pair state
    p = ChainParams(J=1.0, j=0.6, b=0.35, B=0.8)
    for oracle in (dense_ed, spin_ring):
        for t in (Thermal.finite(2.0), Thermal.zero()):
            res = oracle(FiniteChainSpec(8, p, t))
            for key, rho in res.rho2.items():
                assert rho.shape == (4, 4)
                assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
                assert abs(np.trace(rho).real - 1.0) < 1e-10
                assert np.linalg.eigvalsh(rho).min() > -1e-10
                # magnetization conservation forbids these coherences
                for a, b in ((0, 1), (0, 2), (1, 3), (2, 3), (0, 3)):
                    assert abs(rho[a, b]) < 1e-10
                assert math.isclose(res.concurrence[key], wootters(rho), abs_tol=1e-12)
            assert res.concurrence[("even", 1)] > 0.1, (oracle, t)  # the check is not vacuous


def test_dense_ed_ground_degeneracy_counting():
    # engineered degeneracy: no coupling, staggered field that vanishes on
    # odd sites -> those 4 spins are free, 2^4 ground states
    free = ChainParams(J=0.0, j=0.0, b=0.5, B=0.5)
    res = dense_ed(FiniteChainSpec(8, free, Thermal.zero()))
    assert res.ground_degeneracy == 16
    # generic point: count agrees with the independent kron spectrum
    p = ChainParams(J=1.0, j=0.0, b=0.0, B=0.0)
    res = dense_ed(FiniteChainSpec(6, p, Thermal.zero()))
    evals = np.linalg.eigvalsh(kron_hamiltonian(6, p))
    e0 = evals.min()
    want = int((evals <= e0 + 1e-10 * abs(e0)).sum())
    assert res.ground_degeneracy == want
    assert abs(res.magnetization) < 1e-12
    assert math.isclose(res.g[("odd", 1)], res.g[("even", 1)], abs_tol=1e-12)


def test_dense_ed_size_cap():
    p = ChainParams(J=1.0)
    with pytest.raises(DimensionTooLarge):
        dense_ed(FiniteChainSpec(14, p, Thermal.zero()))
    with pytest.raises(ValueError):
        FiniteChainSpec(7, p, Thermal.zero())
    with pytest.raises(ValueError):
        FiniteChainSpec(2, p, Thermal.zero())


def _ed_fields(res, s=1.0):
    """Every EDResult field by name, energies divided by the scale s."""
    out = {"ground_degeneracy": res.ground_degeneracy, "e_mw": res.e_mw,
           "energy_per_site": res.energy_per_site / s}
    for name in ("magnetization", "staggered_magnetization", "witness_lhs"):
        out[name] = getattr(res, name)
    for name in ("sigma_z", "g", "zz", "rho2", "concurrence"):
        for key, value in getattr(res, name).items():
            out[name, key] = np.asarray(value).tolist()
    return out


def test_dense_ed_ground_states_follow_the_chain_scale():
    # a cut in absolute units took distinct levels of a chain far below unit
    # scale for ground states: at 1e-9 it found 2 of them, m = 0.125, C1 = 0
    unit = ChainParams(J=1.0, j=0.4, b=0.2, B=0.5)
    for n, beta in ((8, math.inf), (8, 2.0), (10, math.inf), (6, 0.7)):
        t = Thermal.zero() if math.isinf(beta) else Thermal.finite(beta)
        want = _ed_fields(dense_ed(FiniteChainSpec(n, unit, t)))
        for s in (2.0**-30, 2.0**-40):
            scaled = ChainParams(*(s * v for v in (unit.J, unit.j, unit.b, unit.B)))
            ts = Thermal.zero() if math.isinf(beta) else Thermal.finite(beta / s)
            assert _ed_fields(dense_ed(FiniteChainSpec(n, scaled, ts)), s) == want, (n, beta, s)
    res = dense_ed(FiniteChainSpec(8, ChainParams(J=1e-9, j=4e-10, b=2e-10, B=5e-10), Thermal.zero()))
    assert res.ground_degeneracy == 1
    assert math.isclose(res.magnetization, 0.25, abs_tol=1e-12)
    assert math.isclose(res.concurrence[("odd", 1)], 0.0971, abs_tol=1e-4)
    # the all-zero chain keeps every state
    zero = dense_ed(FiniteChainSpec(6, ChainParams(J=0.0), Thermal.zero()))
    assert zero.ground_degeneracy == 2**6


def test_ring_basis_is_read_only():
    from staggered_xx.oracle import _ring_basis

    for n in (4, 6, 8):
        basis = _ring_basis(n)
        arrays = [basis.spins]
        for s in basis.sectors:
            arrays += [s.reps, s.flat, s.bond, s.factor, s.diagonal, *s.coherence]
        for a in arrays:
            assert isinstance(a, np.ndarray) and not a.flags.writeable
        with pytest.raises(ValueError):
            basis.spins[0, 0] = 0.0


def test_dense_ed_does_not_depend_on_what_ran_before():
    from staggered_xx.oracle import _ring_basis

    p1, p2 = ChainParams(J=1.0, j=-0.3, b=0.6, B=1.1), ChainParams(J=1.0, j=0.4, b=0.2, B=0.5)
    for t in (Thermal.finite(2.0), Thermal.zero()):
        specs = [FiniteChainSpec(n, p2, t) for n in (8, 10, 12)]
        for n in (8, 10, 12):
            dense_ed(FiniteChainSpec(n, p1, t))
        after = [_ed_fields(dense_ed(spec)) for spec in specs]
        _ring_basis.cache_clear()
        assert [_ed_fields(dense_ed(spec)) for spec in specs] == after


def bloch_mode_energies(p, n, m):
    """Numerical eigenvalues of the oracle's Bloch block m of the n-ring, at cell
    momentum 2 pi m / (n/2), and the closed form -(2B -+ 2 theta(q)), q = 2 pi m / n."""
    e, h = _bloch_blocks(p, n)
    blk = h[m]
    assert np.max(np.abs(blk - blk.conj().T)) < 1e-14
    th = float(theta_of_q(p, 2.0 * math.pi * m / n))
    return np.ldexp(np.linalg.eigvalsh(blk), e), (-2.0 * p.B - 2.0 * th, -2.0 * p.B + 2.0 * th)


def test_bloch_block_closed_form_eigenvalues():
    rng = np.random.default_rng(71)
    for _ in range(300):
        p = ChainParams(
            J=float(rng.uniform(0, 2)),
            j=float(rng.uniform(-2, 2)),
            b=float(rng.uniform(-2, 2)),
            B=float(rng.uniform(-2, 2)),
        )
        n = 2 * int(rng.integers(2, 40))
        got, want = bloch_mode_energies(p, n, int(rng.integers(0, n // 2)))
        assert np.max(np.abs(got - want)) < 1e-12


def test_bloch_block_eigenvalues_at_a_large_field():
    # squaring b = 1e200 unscaled overflows
    p = ChainParams(J=1.0, b=1e200)
    assert np.all(np.isfinite(_bloch_blocks(p, 4)[1]))
    got, want = bloch_mode_energies(p, 4, 1)
    assert want == (-2e200, 2e200)
    assert np.max(np.abs(got - want)) <= 1e-12 * 2e200


def test_bloch_blocks_hold_the_spectrum_of_the_real_space_ring():
    # one block per cell momentum: together they hold every mode of the n x n ring
    rng = np.random.default_rng(72)
    for n in (4, 8, 10, 64):
        p = ChainParams(J=float(rng.uniform(0, 2)), j=float(rng.uniform(-2, 2)),
                        b=float(rng.uniform(-2, 2)), B=float(rng.uniform(-2, 2)))
        e, h = _bloch_blocks(p, n)
        assert h.shape == (n // 2, 2, 2)
        got = np.sort(np.ldexp(np.linalg.eigvalsh(h), e).ravel())
        assert np.max(np.abs(got - np.linalg.eigvalsh(ring_matrix(n, p)))) < 1e-12


def test_finite_free_fermion_approaches_integrals():
    # bulk point of the published finite-size check
    p = ChainParams(J=1.0, j=0.5, b=0.5, B=0.6)
    t = Thermal.finite(2.0)
    res = finite_free_fermion(FiniteChainSpec(1024, p, t))
    assert isinstance(res, FreeFermionResult)
    tight = QuadSpec(abs_tol=1e-13, rel_tol=1e-13)
    assert abs(res.u - internal_energy(p, t, tight)) < 1e-4
    assert abs(res.m - magnetization(p, t, tight)) < 1e-4
    assert abs(res.m_s - staggered_magnetization(p, t, tight)) < 1e-4
    assert abs(res.ln_z - ln_z_per_site(p, t, tight)) < 1e-6
    pair = g1(p, t, tight)
    assert abs(res.g[1].uniform - pair.uniform) < 1e-4
    assert abs(res.g[1].staggered - pair.staggered) < 1e-4
    pair2 = g_even(p, t, 2, tight)
    assert abs(res.g[2].uniform - pair2.uniform) < 1e-4
    assert abs(res.g[2].staggered - pair2.staggered) < 1e-4


def test_finite_free_fermion_zero_temperature():
    p = ChainParams(J=1.0, j=0.5, b=0.5, B=0.6)
    res = finite_free_fermion(FiniteChainSpec(4096, p, Thermal.zero()))
    assert res.ln_z is None
    from staggered_xx import energy, magnetization_t0

    assert abs(res.u - energy(p)) < 1e-5
    assert abs(res.m - magnetization_t0(p)) < 1e-4


def test_finite_free_fermion_size_cap():
    p = ChainParams(J=1.0)
    with pytest.raises(DimensionTooLarge):
        finite_free_fermion(FiniteChainSpec(2**21, p, Thermal.zero()))


def _parity_signs(n):
    return np.where(np.arange(1, n + 1) % 2 == 0, 1.0, -1.0)  # (-1)^l, 1-based l


def ring_matrix(n, p):
    """The whole n x n one-body matrix A of the fermions on the periodic n-ring,
    A_ll = -2 B_l and A_{l,l+1} = -J_l, so that H = c^+ A c + n B."""
    sign = _parity_signs(n)
    a = np.diag(-2.0 * (p.B + sign * p.b))
    here, right = np.arange(n), (np.arange(n) + 1) % n
    a[here, right] = a[right, here] = -(p.J + sign * p.j)
    return a


def real_space_ring(n, p, t, rs=(1, 2, 3)):
    """(ln Z, u, m, m_s, {r: (gu, gs)}) of the free fermions on the periodic n-ring, from
    their whole one-body matrix.  A mode within 1e-9 of zero energy at T = 0 is half
    filled."""
    sign, here = _parity_signs(n), np.arange(n)
    eps, v = np.linalg.eigh(ring_matrix(n, p))
    scale = max(p.J, abs(p.j), abs(p.b), abs(p.B))
    if t.is_ground:
        occ, ln_z = np.where(np.abs(eps) < 1e-9 * scale, 0.5, (eps < 0).astype(float)), None
    else:
        occ = 1.0 / (1.0 + np.exp(t.beta * eps))
        ln_z = float(np.sum(np.logaddexp(0.0, -t.beta * eps))) / n - t.beta * p.B
    c = (v * occ) @ v.T  # <c+_l c_m>, real
    sz = 2.0 * c.diagonal() - 1.0
    g = {}
    for r in rs:
        g_l = (-1) ** r * 2.0 * c[here, (here + r) % n]
        g[r] = (g_l.mean(), (sign * g_l).mean())
    return ln_z, (eps @ occ) / n + p.B, sz.mean(), (sign * sz).mean(), g


RING_CHAINS = [
    ChainParams(J=1.0, j=0.4, b=0.2, B=0.5),
    ChainParams(J=1.0, j=0.4, b=0.3, B=0.5),  # a mode at zero energy on the 8-ring
    ChainParams(J=1.0, j=0.4, b=0.3, B=0.5 + 1e-7),  # and one 2e-7 below zero
    ChainParams(J=1.0, j=1.4, b=-0.2, B=1.1),
    ChainParams(J=1.0, j=-1.0, b=0.0, B=0.5),
    ChainParams(J=0.0, j=0.0, b=0.5, B=-0.2),
    ChainParams(J=2.5, j=0.7, b=-1.3, B=0.9),
]


@pytest.mark.parametrize("p", RING_CHAINS, ids=str)
def test_finite_free_fermion_matches_the_real_space_ring(p):
    scale = max(p.J, abs(p.j), abs(p.b), abs(p.B))
    for n in (4, 8, 12, 64):
        for t in (Thermal.zero(), Thermal.finite(0.5), Thermal.finite(2.0), Thermal.finite(50.0)):
            res = finite_free_fermion(FiniteChainSpec(n, p, t))
            ln_z, u, m, m_s, g = real_space_ring(n, p, t)
            assert (res.ln_z is None) == t.is_ground
            if ln_z is not None:
                assert abs(res.ln_z - ln_z) < 1e-12, (n, t)
            assert abs(res.u - u) / scale < 1e-12, (n, t)
            assert abs(res.m - m) < 1e-12 and abs(res.m_s - m_s) < 1e-12, (n, t)
            for r, (gu, gs) in g.items():
                assert abs(res.g[r].uniform - gu) < 1e-12, (n, t, r)
                assert abs(res.g[r].staggered - gs) < 1e-12, (n, t, r)


def test_finite_free_fermion_half_fills_a_mode_at_zero_energy():
    # theta(pi/2) = sqrt(b^2 + j^2) = B: the 8-ring has a mode at zero energy, which a
    # plain eigh puts a rounding error off zero
    p = ChainParams(J=1.0, j=0.4, b=0.3, B=0.5)
    spec = FiniteChainSpec(8, p, Thermal.zero())
    assert abs(finite_free_fermion(spec).m - 0.125) < 1e-15
    assert abs(real_space_ring(8, p, Thermal.zero())[2] - 0.125) < 1e-12


def test_finite_free_fermion_stays_finite_at_a_huge_field():
    p = ChainParams(J=1.0, j=0.4, b=1e200, B=0.5)
    for t in (Thermal.zero(), Thermal.finite(2.0)):
        res = finite_free_fermion(FiniteChainSpec(8, p, t))
        pairs = [(pair.uniform, pair.staggered) for pair in res.g.values()]
        values = [res.u, res.m, res.m_s, *(v for pair in pairs for v in pair)]
        assert all(math.isfinite(v) for v in values)
        assert t.is_ground or math.isfinite(res.ln_z)
        assert abs(res.u / 1e200 + 1.0) < 1e-12 and abs(res.m_s - 1.0) < 1e-12


def test_finite_free_fermion_stays_finite_at_the_largest_beta():
    # beta |eps| / 2 of the top mode passes the largest double at beta = 1.7e308,
    # though ln Z / N ~ 0.76 beta does not: no intermediate overflows, ln Z / (N beta)
    # is that of beta = 1e300, and every mode's tanh already reads its sign there
    import warnings

    p = ChainParams(J=1.0, j=0.4, b=0.2, B=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge, big = (finite_free_fermion(FiniteChainSpec(4, p, Thermal.finite(beta)))
                     for beta in (1.7e308, 1e300))
    assert huge.ln_z / 1.7e308 == pytest.approx(big.ln_z / 1e300, rel=1e-14, abs=0)
    assert (huge.u, huge.m, huge.m_s, huge.g) == (big.u, big.m, big.m_s, big.g)
    # a mode far below the chain's scale still reads tanh(beta |eps| / 2) at the full
    # beta: at J = b = 0 the k = 0 modes sit at -2B, so m = tanh(beta B) / 2, as on the
    # same ring at a scale that needs no rescaling of beta
    tiny, twin = (finite_free_fermion(FiniteChainSpec(4, ChainParams(0.0, j, 0.0, 1e-5),
                                                      Thermal.finite(10.0)))
                  for j in (1e300, 1e200))
    assert tiny.m == pytest.approx(math.tanh(1e-4) / 2, rel=1e-12)
    assert tiny.m_s == twin.m_s == 0.0
    for r in tiny.g:
        assert tiny.g[r] == pytest.approx(twin.g[r], rel=1e-12, abs=1e-300)
    assert tiny.g[2].uniform == pytest.approx(tiny.m, rel=1e-12)
    # the all-zero chain keeps ln 2 per site at any beta
    zero = finite_free_fermion(FiniteChainSpec(4, ChainParams(0.0, 0.0, 0.0, 0.0),
                                               Thermal.finite(1.7e308)))
    assert zero.ln_z == math.log(2.0)


# (chain, ring sizes): the zero-mode ring only where N/4 puts a mode at zero energy
SPIN_RING_CHAINS = [
    (ChainParams(J=1.0, j=0.4, b=0.2, B=0.5), (4, 6, 8, 10, 12)),
    (ChainParams(J=1.0), (4, 8, 12)),  # uniform XX ring: a zero mode at k = pi/2
    (ChainParams(J=0.7, j=-0.7, b=0.3, B=-0.9), (4, 6, 8, 10, 12)),  # dimers, j = -J
    (ChainParams(J=1.0, j=0.4, b=1e200, B=0.5), (4, 6, 8, 10, 12)),
    (ChainParams(J=1.0, j=1.4, b=-0.2, B=1.1), (4, 6, 8, 10, 12)),  # J < |j|, +-k pairs
    (ChainParams(J=0.8, j=-0.3, b=0.6, B=2.5), (4, 6, 8, 10, 12)),  # polarized by B
    (ChainParams(J=0.0, j=0.0, b=0.5, B=0.5), (4, 6, 8, 10, 12)),  # N/2 free spins
    (ChainParams(J=1.0, j=0.4, b=0.2, B=1.5), (4, 8, 12)),  # gapped
    (ChainParams(J=0.0), (4, 8, 12)),  # all zero: 2^N ground states
    # |h01| of a Bloch block below 2^-1024 in the chain's units: 1 / |h01| overflows
    (ChainParams(J=1.0, B=1e300), (4, 8, 12)),
    (ChainParams(1.0, 0.4, 0.2, 1e300), (4, 8, 12)),
]


def _ring_fields(res, p):
    """``_ed_fields`` with energies in units of the chain's scale s, and the witness, whose
    numerator is an energy over den = |J - j| + |J + j|, in units of s / den."""
    s = max(p.J, abs(p.j), abs(p.b), abs(p.B)) or 1.0
    out = _ed_fields(res, s)
    out["witness_lhs"] *= (abs(p.J - p.j) + abs(p.J + p.j)) / s
    return out


def _assert_rings_agree(p, n, t):
    spec = FiniteChainSpec(n, p, t)
    want, got = _ring_fields(dense_ed(spec), p), _ring_fields(spin_ring(spec), p)
    assert got.keys() == want.keys()
    assert got.pop("ground_degeneracy") == want.pop("ground_degeneracy"), (p, n, t)
    if not t.is_ground:
        assert got.pop("e_mw") is want.pop("e_mw") is None
    for key, value in want.items():  # a nan witness (J = j = 0) is nan in both
        np.testing.assert_allclose(got[key], value, rtol=0, atol=1e-13,
                                   err_msg=f"{p} {n} {t} {key}")


@pytest.mark.parametrize("p, sizes", SPIN_RING_CHAINS, ids=str)
def test_spin_ring_matches_dense_ed_field_by_field(p, sizes):
    s = max(p.J, abs(p.j), abs(p.b), abs(p.B)) or 1.0
    for n in sizes:
        for beta in (1e-3, 0.5, 3.0, 30.0, 1e3, 1e6):  # in units of the chain's scale
            _assert_rings_agree(p, n, Thermal.finite(beta / s))
        _assert_rings_agree(p, n, Thermal.zero())


def test_spin_ring_matches_dense_ed_at_zero_temperature_over_the_domain():
    # seeded chains at scales 2^+-400 with zeros, the all-zero chain, J = j = 0, the flat
    # bands J = +-j and fields of either sign; energies at the chain's scale
    rng = np.random.default_rng(26)
    for i in range(100):
        J, j, b, B = rng.uniform(-2.0, 2.0, 4) * (rng.random(4) > 0.2)
        if i % 6 == 0:
            j = rng.choice([-1.0, 1.0]) * J  # flat band
        elif i % 6 == 1:
            J = j = 0.0
        elif i % 12 == 2:
            J = j = b = B = 0.0
        scale = 2.0 ** int(rng.integers(-400, 401))
        p = ChainParams(*(scale * float(v) for v in (abs(J), j, b, B)))
        _assert_rings_agree(p, int(rng.choice([4, 6, 8, 10, 12])), Thermal.zero())


def test_spin_ring_follows_the_chain_scale():
    for unit in (ChainParams(J=1.0, j=0.4, b=0.2, B=0.5), ChainParams(J=0.3, j=-1.1, b=0.0, B=0.8)):
        for n, beta in ((4, 0.7), (8, 2.0), (10, 40.0), (64, 3.0)):
            want = _ed_fields(spin_ring(FiniteChainSpec(n, unit, Thermal.finite(beta))))
            for s in (2.0**500, 2.0**-500):
                scaled = ChainParams(*(s * v for v in (unit.J, unit.j, unit.b, unit.B)))
                res = spin_ring(FiniteChainSpec(n, scaled, Thermal.finite(beta / s)))
                assert _ed_fields(res, s) == want, (unit, n, beta, s)


@pytest.mark.parametrize("J, j, b", [(1.0, 0.4, 0.2), (0.6, -1.1, 0.3), (1.0, 1.0, 0.25)])
def test_spin_ring_counts_ground_states_at_level_crossings(J, j, b):
    # B puts a mode of momentum k at zero energy up to rounding: levels that differ by
    # rounding are ground states alike, in both rings, only by the degeneracy cut
    for n in (4, 6, 8, 10):
        for k in 2 * np.pi * np.arange(n) / n:
            B = math.sqrt(4 * b * b + abs(J - j + (J + j) * np.exp(1j * k)) ** 2) / 2
            _assert_rings_agree(ChainParams(J, j, b, B), n, Thermal.zero())


def test_spin_ring_needs_no_band_integral(monkeypatch):
    from staggered_xx import ground, quadrature, thermo

    def banned(*args, **kwargs):
        raise AssertionError("the ring must not integrate over the band")

    monkeypatch.setattr(thermo, "_record_columns", banned)
    monkeypatch.setattr(ground, "_record_columns", banned)
    monkeypatch.setattr(quadrature, "_integrate_cells", banned)
    p = ChainParams(J=1.0, j=0.3, b=0.2, B=0.4)
    for t in (Thermal.finite(2.0), Thermal.zero()):
        res = spin_ring(FiniteChainSpec(16, p, t))
        assert 0.0 < res.magnetization < 1.0


def test_spin_ring_size_cap_and_temperature():
    p = ChainParams(J=1.0, j=0.4, b=0.2, B=0.5)
    assert spin_ring(FiniteChainSpec(_RING_CAP, p, Thermal.finite(1.0))).n_sites == _RING_CAP
    with pytest.raises(DimensionTooLarge):
        spin_ring(FiniteChainSpec(_RING_CAP + 2, p, Thermal.finite(1.0)))
    # the ring takes T = 0 as its beta -> inf limit, up to its cap
    ground = spin_ring(FiniteChainSpec(_RING_CAP, p, Thermal.zero()))
    assert ground.ground_degeneracy == 1 and 0.0 < ground.e_mw < 1.0
    # the all-zero chain: every mode at zero energy, every state a ground state
    for t in (Thermal.finite(1.0), Thermal.zero()):
        zero = spin_ring(FiniteChainSpec(_RING_CAP, ChainParams(J=0.0), t))
        assert zero.ground_degeneracy == 2**_RING_CAP and zero.energy_per_site == 0.0
