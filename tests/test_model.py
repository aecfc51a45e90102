"""Dispersion, parameter containers, and ground-state phase regions."""

import math

import numpy as np
import pytest

from staggered_xx import (
    ChainParams,
    PhaseRegion,
    Thermal,
    band_crossings,
    classify_region,
    critical_fields,
    lambda_pm,
    region_q,
    theta_bounds,
    theta_of_q,
    xi,
)
from staggered_xx.model import _theta


def random_params(rng, lo=0.0, hi=2.0):
    return ChainParams(
        J=1.0,
        j=float(rng.uniform(lo, hi)),
        b=float(rng.uniform(lo, hi)),
        B=float(rng.uniform(lo, hi)),
    )


def test_chain_params_defaults_and_validation():
    p = ChainParams()
    assert (p.J, p.j, p.b, p.B) == (1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ChainParams(J=-0.5)
    with pytest.raises(ValueError):
        ChainParams(b=math.nan)
    with pytest.raises(ValueError):
        ChainParams(B=math.inf)


def test_thermal_constructors():
    t = Thermal.finite(2.5)
    assert t.beta == 2.5 and not t.is_ground
    assert Thermal.zero().is_ground
    assert Thermal.from_temperature(0.5).beta == 2.0
    assert Thermal.from_temperature(0.0).is_ground
    with pytest.raises(ValueError):
        Thermal.finite(0.0)
    with pytest.raises(ValueError):
        Thermal.finite(-1.0)
    with pytest.raises(ValueError):
        Thermal.from_temperature(-0.1)


def test_theta_matches_definition():
    rng = np.random.default_rng(11)
    q = np.linspace(0.0, math.pi, 41)
    for _ in range(50):
        p = random_params(rng)
        want = np.sqrt(
            p.J**2 * np.cos(q) ** 2 + p.b**2 + p.j**2 * np.sin(q) ** 2
        )
        np.testing.assert_allclose(theta_of_q(p, q), want, rtol=0, atol=1e-14)


def test_theta_and_xi_scale_exactly_at_extreme_couplings():
    # theta is homogeneous of degree 1 and xi of degree 0; couplings of
    # 2^+-560 would overflow or underflow when squared unscaled
    rng = np.random.default_rng(15)
    q = np.linspace(0.0, math.pi, 29)
    for _ in range(20):
        p = random_params(rng, -2.0, 2.0)
        c, s = np.cos(q), np.sin(q)
        # ordinary chains keep every bit of the unscaled kernel
        assert np.array_equal(theta_of_q(p, q), _theta(p.J, p.j, p.b, c, s))
        for e in (560, -560):
            big = ChainParams(*(math.ldexp(v, e) for v in (p.J, p.j, p.b, p.B)))
            assert np.array_equal(theta_of_q(big, q), np.ldexp(theta_of_q(p, q), e))
            assert xi(big) == xi(p)
    flat = ChainParams(J=1e-170, j=1e-170)
    assert theta_of_q(flat, 0.3) == 1e-170


def test_theta_rejects_momenta_outside_half_zone():
    p = ChainParams(J=1.0, j=0.5)
    with pytest.raises(ValueError):
        theta_of_q(p, -0.1)
    with pytest.raises(ValueError):
        theta_of_q(p, math.pi + 0.1)


def test_theta_reflection_symmetry_and_bounds():
    rng = np.random.default_rng(12)
    q = np.linspace(0.0, math.pi, 37)
    for _ in range(50):
        p = random_params(rng)
        th = theta_of_q(p, q)
        np.testing.assert_allclose(th, th[::-1], rtol=0, atol=1e-14)
        lo, hi = theta_bounds(p)
        assert lo - 1e-12 <= th.min() and th.max() <= hi + 1e-12
        # extremes sit at the zone edge and centre
        edge = theta_of_q(p, 0.0)
        mid = theta_of_q(p, math.pi / 2)
        assert math.isclose(min(edge, mid), lo, rel_tol=0, abs_tol=1e-12)
        assert math.isclose(max(edge, mid), hi, rel_tol=0, abs_tol=1e-12)


def test_band_split_symmetric_about_field():
    rng = np.random.default_rng(13)
    q = np.linspace(0.0, math.pi, 23)
    for _ in range(50):
        p = random_params(rng)
        up, dn = lambda_pm(p, q)
        np.testing.assert_allclose(up, p.B + theta_of_q(p, q), atol=1e-14)
        np.testing.assert_allclose(dn, p.B - theta_of_q(p, q), atol=1e-14)
        assert np.all(up >= dn)


def test_critical_fields_follow_couplings():
    p = ChainParams(J=1.0, j=0.5, b=0.4)
    assert critical_fields(p) == (math.hypot(1.0, 0.4), math.hypot(0.5, 0.4))
    # order tracks (J, j) even when j > J
    p2 = ChainParams(J=1.0, j=2.0, b=0.0)
    assert critical_fields(p2) == (1.0, 2.0)


def test_crossing_angle_examples_and_clamps():
    assert math.isclose(xi(ChainParams(J=1.0, B=0.5)), math.pi / 3, abs_tol=1e-15)
    assert xi(ChainParams(J=1.0, B=2.0)) == 0.0
    assert xi(ChainParams(J=1.0, B=0.0)) == math.pi / 2
    with pytest.raises(ValueError):
        xi(ChainParams(J=1.0, j=1.0, B=0.5))


def test_theta_is_constant_on_the_flat_band():
    # beta up to 1e8 multiplies any rounding of theta into the occupations
    q = np.linspace(0.0, math.pi, 1001)
    for j in (1.0, -1.0):
        th = theta_of_q(ChainParams(J=1.0, j=j, b=0.6125503138373345), q)
        assert np.all(th == math.sqrt(1.0 + 0.6125503138373345**2))


def test_crossing_angle_without_cancellation_at_the_lower_critical_field():
    # |B| within rounding of sqrt(j^2 + b^2): B^2 - b^2 - j^2 cancels to a
    # few ulps, which sqrt and 1 - 2 xi/pi amplify into m_t0
    import mpmath

    from staggered_xx import ground

    p = ChainParams(J=1.0, j=0.9563893233164342, b=-0.4543361001980004, B=1.0588209620595894)
    mp = mpmath.mp.clone()
    mp.dps = 40
    J, j, b, B = (mp.mpf(v) for v in (p.J, p.j, p.b, p.B))
    x = mp.acos(mp.sqrt((B**2 - b**2 - j**2) / (J**2 - j**2)))
    assert abs(xi(p) - x) <= 2 * math.ulp(float(x))
    # F = [0, xi]: m_t0 = 1 - 2 xi/pi = 1.81898859616e-08, where the rounded
    # ratio gave 2.29647215688e-08
    assert abs(ground.magnetization_t0(p) - (1 - 2 * x / mp.pi)) < 1e-15
    theta = lambda q: mp.sqrt((J * mp.cos(q)) ** 2 + b**2 + (j * mp.sin(q)) ** 2)
    m_s = 2 / mp.pi * mp.quad(lambda q: b / theta(q), [0, x])
    assert abs(ground.staggered_magnetization_t0(p) - m_s) < 1e-13


def test_crossing_angle_solves_band_zero():
    rng = np.random.default_rng(14)
    count = 0
    for _ in range(200):
        p = random_params(rng)
        if abs(p.J - abs(p.j)) < 1e-6:
            continue
        x = xi(p)
        if 0.0 < x < math.pi / 2:
            assert math.isclose(theta_of_q(p, x), abs(p.B), rel_tol=1e-12)
            count += 1
    assert count > 20  # interior crossings actually exercised


def test_region_q_shapes():
    # field below the band: whole zone occupied
    assert region_q(ChainParams(J=1.0, j=0.5, b=0.2, B=0.1)) == ((0.0, math.pi),)
    # field above the band: nothing occupied
    assert region_q(ChainParams(J=1.0, j=0.5, b=0.2, B=3.0)) == ()
    # J > |j|: crossing hugs the zone edges
    intervals = region_q(ChainParams(J=1.0, j=0.2, b=0.1, B=0.7))
    assert len(intervals) == 2
    (a0, a1), (b0, b1) = intervals
    assert a0 == 0.0 and b1 == math.pi
    assert math.isclose(a1, math.pi - b0, abs_tol=1e-15)
    # |j| > J: single central interval
    intervals = region_q(ChainParams(J=1.0, j=1.8, b=0.1, B=1.4))
    assert len(intervals) == 1
    (c0, c1) = intervals[0]
    assert 0.0 < c0 < c1 < math.pi
    # flat band (j = J): all or nothing at the single critical field
    flat = ChainParams(J=1.0, j=1.0, b=0.3)
    from dataclasses import replace

    assert region_q(replace(flat, B=1.0)) == ((0.0, math.pi),)
    assert region_q(replace(flat, B=1.1)) == ()


def test_region_q_marks_negative_band():
    rng = np.random.default_rng(15)
    for _ in range(100):
        p = random_params(rng)
        intervals = region_q(p)
        for lo, hi in intervals:
            mids = np.linspace(lo, hi, 9)[1:-1]
            _, dn = lambda_pm(p, mids)
            assert np.all(dn < 1e-12)
        # complement carries a non-negative lower band
        edges = [0.0] + [v for iv in intervals for v in iv] + [math.pi]
        for lo, hi in zip(edges[::2], edges[1::2]):
            if hi - lo < 1e-9:
                continue
            mids = np.linspace(lo, hi, 9)[1:-1]
            _, dn = lambda_pm(p, mids)
            assert np.all(dn > -1e-12)


def test_band_crossings_match_dispersion():
    rng = np.random.default_rng(16)
    hits = 0
    for _ in range(200):
        p = random_params(rng)
        for x in band_crossings(p):
            assert 0.0 < x < math.pi
            assert math.isclose(theta_of_q(p, x), abs(p.B), rel_tol=1e-12)
            hits += 1
    assert hits > 50
    # flat band never crosses; outside the sweep never crosses
    assert band_crossings(ChainParams(J=1.0, j=1.0, B=0.5)) == ()
    assert band_crossings(ChainParams(J=1.0, j=0.5, B=3.0)) == ()
    # theta(pi/2) = |B| exactly (dyadic values): single crossing at the centre
    single = band_crossings(ChainParams(J=1.0, j=0.0, b=0.75, B=0.75))
    assert single == (math.pi / 2,)


def test_classify_region_examples():
    # B between the two critical fields
    assert classify_region(ChainParams(J=1.0, j=0.5, B=0.5)) is PhaseRegion.PARTIAL
    # j > J: below both critical fields even though B = j/4
    assert classify_region(ChainParams(J=1.0, j=2.0, B=0.5)) is PhaseRegion.COMPENSATED
    # boundary field belongs to the regime above it (half-open convention)
    assert classify_region(ChainParams(J=1.0, j=0.0, B=1.0)) is PhaseRegion.SATURATED
    # spectrum is even in B
    assert classify_region(ChainParams(J=1.0, j=0.5, B=-0.5)) is PhaseRegion.PARTIAL


def test_classify_region_matches_occupation():
    rng = np.random.default_rng(17)
    for _ in range(200):
        p = random_params(rng)
        reg = classify_region(p)
        occ = region_q(p)
        if reg is PhaseRegion.SATURATED:
            assert occ == ()
        elif reg is PhaseRegion.COMPENSATED:
            assert occ == ((0.0, math.pi),)
        else:
            assert occ and occ != ((0.0, math.pi),)
