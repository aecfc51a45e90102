"""Pairwise concurrence, Wootters formula, and the thermodynamic witness."""

import math
from dataclasses import replace

import numpy as np
import pytest

from staggered_xx import (
    ChainParams,
    ConcurrencePair,
    DegenerateCoupling,
    InvalidState,
    Thermal,
    WitnessValue,
    c1,
    c2,
    internal_energy,
    magnetization,
    staggered_magnetization,
    witness,
    wootters,
)

T0 = Thermal.zero()
XX = ChainParams(J=1.0, j=0.0, b=0.0, B=0.0)

SINGLET = np.zeros((4, 4))
SINGLET[1:3, 1:3] = np.array([[0.5, -0.5], [-0.5, 0.5]])


def werner(p):
    return p * SINGLET + (1.0 - p) * np.eye(4) / 4.0


def test_wootters_werner_family():
    # concurrence max{0, (3p-1)/2}: separable until p = 1/3
    assert math.isclose(wootters(werner(0.9)), 0.85, abs_tol=1e-12)
    assert math.isclose(wootters(werner(0.5)), 0.25, abs_tol=1e-12)
    assert abs(wootters(werner(1.0 / 3.0))) < 1e-12
    assert wootters(werner(0.2)) == 0.0
    assert math.isclose(wootters(SINGLET), 1.0, abs_tol=1e-12)
    assert wootters(np.eye(4) / 4.0) == 0.0


def test_wootters_rejects_invalid_states():
    with pytest.raises(InvalidState):
        wootters(np.eye(3) / 3.0)  # wrong shape
    with pytest.raises(InvalidState):
        wootters(np.eye(4))  # trace 4
    bad = np.eye(4) / 4.0
    bad = bad.astype(complex)
    bad[0, 1] = 0.3  # not Hermitian
    with pytest.raises(InvalidState):
        wootters(bad)
    neg = np.diag([0.7, 0.5, -0.1, -0.1])  # negative eigenvalues
    with pytest.raises(InvalidState):
        wootters(neg)
    with pytest.raises(InvalidState):
        wootters(np.full((4, 4), np.nan))


def test_wootters_matches_pure_state_tangle():
    # for pure states C = 2|ad - bc| in the computational basis
    rng = np.random.default_rng(61)
    for _ in range(20):
        amp = rng.normal(size=4) + 1j * rng.normal(size=4)
        amp /= np.linalg.norm(amp)
        rho = np.outer(amp, amp.conj())
        want = 2.0 * abs(amp[0] * amp[3] - amp[1] * amp[2])
        assert math.isclose(wootters(rho), want, abs_tol=1e-10)


def test_nearest_neighbour_concurrence_uniform_chain():
    # frozen: from G1 = -2/pi and zz = -4/pi^2 at half filling,
    # C = 2/pi - (1 - 4/pi^2)/2 = 0.33926213965225693
    pair = c1(XX, T0)
    assert isinstance(pair, ConcurrencePair)
    want = 2.0 / math.pi - 0.5 * (1.0 - 4.0 / math.pi**2)
    assert math.isclose(pair.odd, want, abs_tol=1e-10)
    assert math.isclose(pair.even, want, abs_tol=1e-10)
    assert math.isclose(pair.odd, 0.33926213965225693, abs_tol=1e-10)


def test_dimer_concurrence():
    # strong-bond singlets: even pairs maximally entangled, odd pairs and
    # next-nearest pairs carry nothing
    p = ChainParams(J=1.0, j=1.0, b=0.0, B=0.0)
    pair1 = c1(p, T0)
    assert math.isclose(pair1.even, 1.0, abs_tol=1e-10)
    assert pair1.odd == 0.0
    pair2 = c2(p, T0)
    assert pair2.even == 0.0 and pair2.odd == 0.0


def test_concurrence_parity_symmetric_without_staggering():
    p = ChainParams(J=1.0, j=0.0, b=0.0, B=0.4)
    t = Thermal.finite(2.5)
    pair1, pair2 = c1(p, t), c2(p, t)
    assert math.isclose(pair1.odd, pair1.even, abs_tol=1e-12)
    assert math.isclose(pair2.odd, pair2.even, abs_tol=1e-12)


def test_concurrence_range_and_melting():
    rng = np.random.default_rng(62)
    for _ in range(10):
        p = ChainParams(
            J=1.0,
            j=float(rng.uniform(0, 2)),
            b=float(rng.uniform(0, 2)),
            B=float(rng.uniform(0, 2)),
        )
        for t in (T0, Thermal.finite(2.0), Thermal.finite(0.05)):
            pair = c1(p, t)
            assert 0.0 <= pair.odd <= 1.0 and 0.0 <= pair.even <= 1.0
    # infinite temperature: maximally mixed pair, no entanglement
    hot = Thermal.finite(1e-6)
    pair = c1(ChainParams(J=1.0, j=0.5, b=0.3, B=0.7), hot)
    assert pair.odd == 0.0 and pair.even == 0.0


def test_concurrence_of_a_nearly_polarized_pair():
    # both sublattice <sz> lie within 2e-7 of 1, so 16 p11 p00 is tiny; as
    # (1 + zz)^2 - (2 m)^2 it cancelled to 4.770e-8.  The reference value is
    # the 40-digit evaluation on the same m, m_s and g1.
    p = ChainParams(J=1.0, j=0.4204283106403763, b=0.19303162758160242, B=-1.3920277055771206)
    pair = c1(p, Thermal.finite(19.563212806787725))
    assert abs(pair.even - 5.6177748800513e-08) <= 1e-13


def test_witness_uniform_chain_value():
    w = witness(XX, T0)
    assert isinstance(w, WitnessValue)
    assert math.isclose(w.lhs, 4.0 / math.pi, abs_tol=1e-10)
    assert w.detected


def test_witness_matches_energy_density():
    rng = np.random.default_rng(63)
    for _ in range(8):
        p = ChainParams(
            J=1.0,
            j=float(rng.uniform(0, 2)),
            b=float(rng.uniform(0, 2)),
            B=float(rng.uniform(0, 2)),
        )
        t = Thermal.finite(float(rng.uniform(0.2, 4.0)))
        w = witness(p, t)
        num = 4.0 * abs(
            internal_energy(p, t)
            + p.B * magnetization(p, t)
            + p.b * staggered_magnetization(p, t)
        )
        den = abs(p.J - p.j) + abs(p.J + p.j)
        assert math.isclose(w.lhs, num / den, abs_tol=1e-11)
        assert w.detected == (w.lhs > 1.0)


@pytest.mark.parametrize("t", [T0, Thermal.finite(2.0), Thermal.finite(141.8)], ids=str)
def test_witness_where_the_couplings_underflow_in_the_fields_units(t):
    # |b| is 5.5e396 times max(J, |j|): in units of the chain's largest coupling J
    # and j flush to 0, but the bound is decided on J and j themselves, and the
    # exchange energy is 0 far within 1e-10
    from staggered_xx.cli import run_point

    record, flags = run_point(ChainParams(2e-142, -2e-142, 1.1e255, 141.8), t, ["witness_lhs"])
    assert flags == [] and 0.0 <= record["witness_lhs"] <= 1e-10
    with pytest.raises(DegenerateCoupling):
        witness(ChainParams(0.0, 0.0, 1.1e255, 141.8), t)


@pytest.mark.parametrize(
    "J, j, b, B, beta",
    [
        (1.0, 0.5, 1e6, 0.3, 2.0),
        (1.0, 0.5, 1e8, 0.3, 2.0),
        (1.0, 0.5, 0.3, 1e8, 2.0),
        (1.0, 0.5, 1e8, 1e8, 2.0),
        (1.0, -0.5, -1e8, 1e8, 0.5),
        (1.0, 0.5, 1e6, -1e6, 0.5),
        (1.0, 1.5, 1e7, 3e7, 1.0),
        (1.0, 0.5, 1e6, 0.3, math.inf),
        (1.0, 0.5, 1e8, 0.3, math.inf),
        (1.0, 0.5, 0.3, -1e8, math.inf),
    ],
)
def test_witness_at_fields_far_above_the_exchange(J, j, b, B, beta):
    # u + B m + b m_s cancels to the exchange energy J gu1 + j gs1, which is
    # taken 40 digits deep in its cancellation-free form
    #   -(1/2pi) int (J^2 cos^2 q + j^2 sin^2 q)/theta [f(lam_+) - f(lam_-)] dq,
    # f = tanh(beta lam), or sign(lam) at T = 0.  Where B and theta are both
    # near 1e8, lam_- = B - theta carries their rounding, about 1e-16 of the
    # witness in absolute terms.
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 40
    Jm, jm, bm, Bm = map(mp.mpf, (J, j, b, B))

    def occupation(lam):
        return mp.sign(lam) if math.isinf(beta) else mp.tanh(mp.mpf(beta) * lam)

    def f(q):
        c2, s2 = mp.cos(q) ** 2, mp.sin(q) ** 2
        th = mp.sqrt(Jm**2 * c2 + bm**2 + jm**2 * s2)
        return (Jm**2 * c2 + jm**2 * s2) / th * (occupation(Bm + th) - occupation(Bm - th))

    exchange = -mp.quad(f, [0, mp.pi / 2]) / mp.pi  # the integrand is even about pi/2
    want = float(4 * abs(exchange) / (abs(Jm - jm) + abs(Jm + jm)))
    got = witness(ChainParams(J, j, b, B), Thermal(beta)).lhs
    assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-16), (got, want)


def test_witness_limits(monkeypatch):
    # beta -> 0: all correlations melt, lhs -> 0
    w = witness(ChainParams(J=1.0, j=0.5, b=0.3, B=0.7), Thermal.finite(1e-8))
    assert w.lhs < 1e-6 and not w.detected
    # fully polarized ground state: u = -B m exactly, lhs = 0
    w = witness(ChainParams(J=1.0, j=0.3, b=0.0, B=5.0), T0)
    assert w.lhs < 1e-10 and not w.detected
    # both couplings zero: the bound degenerates, before anything is integrated
    from staggered_xx import thermo

    def no_integral(*args, **kwargs):
        raise AssertionError("band integral taken for an empty witness bound")

    monkeypatch.setattr(thermo, "_cell_integrals", no_integral)
    with pytest.raises(DegenerateCoupling):
        witness(ChainParams(J=0.0, j=0.0, b=0.3, B=0.7), Thermal.finite(1.0))
