"""Transverse and longitudinal correlators: frozen values and identities."""

import math

import numpy as np
import pytest

from staggered_xx import (
    ChainParams,
    CorrelationSet,
    CorrelatorPair,
    QuadSpec,
    SigmaZ,
    Thermal,
    correlation_set,
    g1,
    g_even,
    g_odd,
    g_site,
    integrate,
    internal_energy,
    magnetization,
    require_converged,
    sigma_z,
    sigma_z_pair,
    staggered_magnetization,
    theta_of_q,
    xx_plus_yy,
    zz_correlator,
)
from staggered_xx.correlations import _check_distance, parity_sign
from staggered_xx.entanglement import ConcurrencePair
from staggered_xx.thermo import _cell_integrals, _difference_ratio, _kernel

T0 = Thermal.zero()
XX = ChainParams(J=1.0, j=0.0, b=0.0, B=0.0)


def random_point(rng):
    p = ChainParams(
        J=1.0,
        j=float(rng.uniform(0, 2)),
        b=float(rng.uniform(0, 2)),
        B=float(rng.uniform(0, 2)),
    )
    return p, Thermal.finite(float(rng.uniform(0.3, 6.0)))


def test_parity_plumbing():
    assert parity_sign("even") == 1.0 and parity_sign("odd") == -1.0
    with pytest.raises(ValueError):
        parity_sign("both")
    for bad in (0, -1, 1.5, True):
        with pytest.raises(ValueError):
            _check_distance(bad)
    pair = CorrelatorPair(uniform=0.3, staggered=0.1)
    assert pair.at("even") == 0.4 and math.isclose(pair.at("odd"), 0.2)
    conc = ConcurrencePair(odd=0.1, even=0.2)
    assert conc.at("odd") == 0.1 and conc.at("even") == 0.2
    for bad in ("both", "Even"):
        with pytest.raises(ValueError):
            conc.at(bad)


def test_uniform_chain_frozen_values():
    # free-fermion half-filled chain: nearest neighbour -2/pi, distance 3
    # +2/(3pi), on-site <sz> zero
    pair = g1(XX, T0)
    assert math.isclose(pair.uniform, -2.0 / math.pi, abs_tol=1e-12)
    assert pair.staggered == 0.0
    pair3 = g_odd(XX, T0, 3)
    assert math.isclose(pair3.uniform, 2.0 / (3.0 * math.pi), abs_tol=1e-12)
    for parity in ("even", "odd"):
        assert abs(sigma_z(XX, T0, parity)) < 1e-12
        assert math.isclose(
            zz_correlator(XX, T0, parity, 1), -4.0 / math.pi**2, abs_tol=1e-12
        )
        assert math.isclose(
            xx_plus_yy(XX, T0, parity), 4.0 / math.pi, abs_tol=1e-12
        )


def test_distance_zero_integrands_reduce_to_magnetizations():
    rng = np.random.default_rng(41)
    for _ in range(5):
        p, t = random_point(rng)
        chain = np.array([[p.J], [p.j], [p.b], [p.B]])
        _, value, _, ok = _cell_integrals(chain, np.array([t.beta]), 2, _kernel((0,), False))
        assert ok.all()
        val_u, val_s = value[:, 0]
        assert math.isclose(val_u, magnetization(p, t), abs_tol=1e-10)
        assert math.isclose(val_s, staggered_magnetization(p, t), abs_tol=1e-10)


def _occupation_ratio(p, t, q):
    """[tanh(beta lam_+) - tanh(beta lam_-)] / theta at finite T, as the kernels take it."""
    th = theta_of_q(p, q)
    tanh_diff = np.tanh(t.beta * (p.B + th)) - np.tanh(t.beta * (p.B - th))
    return _difference_ratio(t.beta, p.B, th, tanh_diff)


def test_even_distance_sin_kernel_integrates_to_zero():
    # the sin(q r) weighting of the occupation difference is
    # reflection-odd around pi/2 at even r, so that candidate staggered
    # kernel vanishes identically; the surviving part carries cos(q r)
    rng = np.random.default_rng(42)
    for r in (2, 4, 6):
        p, t = random_point(rng)
        f = lambda q: p.b * np.sin(q * r) * _occupation_ratio(p, t, q)
        val = require_converged(integrate(f, QuadSpec(abs_tol=1e-12, rel_tol=1e-12)))
        assert abs(val) / (2.0 * math.pi) < 1e-10


def test_contractions_match_real_space_bulk():
    # independent route: diagonalize the open-chain single-particle
    # Hamiltonian, build <a+_l a_{l+r}> in the bulk, and compare the
    # parity-resolved contraction -2 C[l, l+r] against the integrals
    p = ChainParams(J=1.0, j=0.3, b=0.4, B=0.9)
    t = Thermal.finite(4.0)
    n = 2000
    idx = np.arange(n)
    sign = np.where((idx + 1) % 2 == 1, -1.0, 1.0)  # (-1)^l at 1-based l
    h = np.zeros((n, n))
    h[idx, idx] = 2.0 * (p.B + sign * p.b)
    off = -(p.J + sign[:-1] * p.j)
    h[idx[:-1], idx[1:]] = off
    h[idx[1:], idx[:-1]] = off
    eps, vec = np.linalg.eigh(h)
    occ = 1.0 / (1.0 + np.exp(t.beta * eps))
    corr = (vec * occ) @ vec.T
    mid = n // 2
    for i0 in (mid, mid + 1):
        parity = "odd" if (i0 + 1) % 2 else "even"
        assert math.isclose(1.0 - 2.0 * corr[i0, i0], sigma_z(p, t, parity), abs_tol=1e-8)
        for r in (1, 2, 3, 4):
            assert math.isclose(
                -2.0 * corr[i0, i0 + r], g_site(p, t, parity, r), abs_tol=1e-8
            )


def test_distance_parity_validation():
    p, t = ChainParams(J=1.0, j=0.5), Thermal.finite(1.0)
    with pytest.raises(ValueError):
        g_even(p, t, 3)
    with pytest.raises(ValueError):
        g_odd(p, t, 2)


def test_bond_energy_identity():
    # u + B m + b m_s = J g0 + j gs at distance 1: the energy density is
    # built from exactly these pieces
    rng = np.random.default_rng(43)
    for _ in range(10):
        p, t = random_point(rng)
        pair = g1(p, t)
        lhs = (
            internal_energy(p, t)
            + p.B * magnetization(p, t)
            + p.b * staggered_magnetization(p, t)
        )
        rhs = p.J * pair.uniform + p.j * pair.staggered
        assert math.isclose(lhs, rhs, rel_tol=0, abs_tol=1e-9)


def test_dimer_limit():
    # J = j: every even bond carries coupling 2, odd bonds vanish; the
    # b = B = 0 ground state is a product of strong-bond singlets
    p = ChainParams(J=1.0, j=1.0, b=0.0, B=0.0)
    pair = g1(p, T0)
    assert math.isclose(pair.uniform, -0.5, abs_tol=1e-12)
    assert math.isclose(pair.staggered, -0.5, abs_tol=1e-12)
    assert math.isclose(pair.at("even"), -1.0, abs_tol=1e-12)
    assert abs(pair.at("odd")) < 1e-12
    assert math.isclose(zz_correlator(p, T0, "even", 1), -1.0, abs_tol=1e-12)
    assert abs(zz_correlator(p, T0, "odd", 1)) < 1e-12


def test_correlator_bounds():
    rng = np.random.default_rng(44)
    for _ in range(15):
        p, t = random_point(rng)
        for parity in ("even", "odd"):
            for r in (1, 2, 3):
                assert abs(g_site(p, t, parity, r)) <= 1.0 + 1e-12
                assert abs(zz_correlator(p, t, parity, r)) <= 1.0 + 1e-12


def test_sigma_z_pair_and_correlation_set():
    p = ChainParams(J=1.0, j=0.4, b=0.6, B=0.8)
    t = Thermal.finite(2.0)
    sz = sigma_z_pair(p, t)
    assert isinstance(sz, SigmaZ)
    assert math.isclose(sz.uniform, magnetization(p, t))
    assert math.isclose(sz.staggered, staggered_magnetization(p, t))
    assert math.isclose(sz.at("odd"), sigma_z(p, t, "odd"))
    cs = correlation_set(p, t)
    assert isinstance(cs, CorrelationSet)
    assert sorted(cs.g) == [1, 2, 3]
    assert math.isclose(cs.g_at("even", 1), g1(p, t).at("even"))
    assert math.isclose(cs.g_at("odd", 3), g_odd(p, t, 3).at("odd"))
    assert math.isclose(cs.g[2].staggered, g_even(p, t, 2).staggered)


def test_even_distance_parity_split_follows_staggered_field():
    # both sites of an even-distance pair share a sublattice, so the
    # parity split is driven by b alone: exact 0.0 at b = 0, nonzero
    # otherwise
    t = Thermal.finite(2.0)
    blind = ChainParams(J=1.0, j=0.4, b=0.0, B=0.8)
    pair0 = g_even(blind, t, 2)
    assert pair0.staggered == 0.0
    assert pair0.at("even") == pair0.at("odd")
    split = g_even(ChainParams(J=1.0, j=0.4, b=0.5, B=0.8), t, 2)
    assert abs(split.staggered) > 1e-3


def test_staggered_part_needs_alternating_coupling():
    # j = 0 removes the sublattice distinction at odd distances (the
    # kernel is proportional to j), b = 0 removes it at even distances
    p = ChainParams(J=1.0, j=0.0, b=0.5, B=0.7)
    t = Thermal.finite(1.5)
    assert g1(p, t).staggered == 0.0
    assert g_odd(p, t, 3).staggered == 0.0
    assert g_even(ChainParams(J=1.0, j=0.5, b=0.0, B=0.7), t, 2).staggered == 0.0


@pytest.mark.parametrize(
    "p",
    [
        ChainParams(1.0, 0.5, 0.4, 0.9),     # between the critical fields
        ChainParams(1.0, 1.7, -0.3, -1.2),   # j > J, B < 0
        ChainParams(1.0, 0.5, 0.0, 0.5),     # at the lower critical field
        ChainParams(1.0, 0.0, 0.5, 0.5),     # at the lower critical field, b != 0
        ChainParams(1.0, 0.2, 0.0, 1.0),     # at the upper critical field
        ChainParams(1.0, 1.0, 0.5, 1.118033988749895),  # flat band at its level
        ChainParams(1.0, -1.0, 0.3, 0.7),    # flat band below its level
        ChainParams(1.0, 0.0, 0.0, 0.0),     # theta vanishes at pi/2 on F's end
        ChainParams(0.0, 0.8, 0.0, 0.0),     # theta vanishes at 0 on F's end
        ChainParams(1.0, 0.3, 0.2, 0.0),     # compensated, B = 0
    ],
    ids=str,
)
@pytest.mark.parametrize("beta", [0.5, 5.0, 50.0, math.inf])
def test_contractions_match_an_independent_reference(p, beta):
    # the contractions at T = 0 are integrals over the filled interval F and at
    # finite T over the split half zone, r > 2 each in a record of its own;
    # QUADPACK integrates the tanh or sign-function integrands over the whole zone
    from band_reference import band_integrals

    rs = (1, 2, 3, 4, 5)
    want, err = band_integrals(p.J, p.j, p.b, p.B, beta, rs)
    assert err < 1e-12
    t = Thermal(beta)
    for r in rs:
        pair = (g_even if r % 2 == 0 else g_odd)(p, t, r)
        got = (pair.uniform, pair.staggered)
        assert np.max(np.abs(np.subtract(got, want[f"g{r}"]))) < 1e-10, (r, got, want[f"g{r}"])
