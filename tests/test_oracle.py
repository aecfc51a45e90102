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
    block_eigenvalues,
    dense_ed,
    fermion_block,
    finite_free_fermion,
    g1,
    g_even,
    internal_energy,
    ln_z_per_site,
    magnetization,
    staggered_magnetization,
    wootters,
)

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


def test_sector_spectrum_matches_kron_route():
    p = ChainParams(J=1.0, j=0.45, b=0.3, B=0.6)
    for n in (4, 6):
        h = kron_hamiltonian(n, p)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        total_sz = sum(site_op(SZ, i, n) for i in range(n))
        assert np.max(np.abs(h @ total_sz - total_sz @ h)) < 1e-12
        want = np.sort(np.linalg.eigvalsh(h))
        from staggered_xx.oracle import _block_eigensystems

        blocks = _block_eigensystems(n, p)
        got = np.sort(np.concatenate([np.tile(b.evals, b.mult) for b in blocks]))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


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
    ground = evals <= e0 + tol * max(1.0, abs(e0))
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
    p = ChainParams(J=1.0, j=0.6, b=0.35, B=0.8)
    res = dense_ed(FiniteChainSpec(8, p, Thermal.finite(2.0)))
    for key, rho in res.rho2.items():
        assert rho.shape == (4, 4)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-10
        # magnetization conservation forbids these coherences
        for a, b in ((0, 1), (0, 2), (1, 3), (2, 3), (0, 3)):
            assert abs(rho[a, b]) < 1e-10
        assert math.isclose(res.concurrence[key], wootters(rho), abs_tol=1e-12)


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
    want = int((evals <= e0 + 1e-10 * max(1.0, abs(e0))).sum())
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


def test_fermion_block_closed_form_eigenvalues():
    rng = np.random.default_rng(71)
    for _ in range(300):
        p = ChainParams(
            J=float(rng.uniform(0, 2)),
            j=float(rng.uniform(-2, 2)),
            b=float(rng.uniform(-2, 2)),
            B=float(rng.uniform(-2, 2)),
        )
        n = 2 * int(rng.integers(2, 40))
        k = int(rng.integers(1, n // 2 + 1))
        blk = fermion_block(p, k, n)
        assert np.max(np.abs(blk - blk.conj().T)) < 1e-14
        lo, hi = np.linalg.eigvalsh(blk)
        want_lo, want_hi = block_eigenvalues(p, k, n)
        assert abs(lo - want_lo) < 1e-12 and abs(hi - want_hi) < 1e-12


def test_fermion_block_eigenvalues_at_a_large_field():
    # squaring b = 1e200 unscaled overflows
    p = ChainParams(J=1.0, b=1e200)
    assert block_eigenvalues(p, 1, 4) == (-2e200, 2e200)
    assert np.all(np.isfinite(fermion_block(p, 1, 4)))


def test_fermion_block_argument_validation():
    p = ChainParams(J=1.0)
    with pytest.raises(ValueError):
        fermion_block(p, 0, 8)
    with pytest.raises(ValueError):
        fermion_block(p, 5, 8)


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
