"""Dispersion, parameter containers, and ground-state phase regions."""

import math
import random

import numpy as np
import pytest

from staggered_xx import (
    ChainParams,
    PhaseRegion,
    Thermal,
    band_crossings,
    classify_region,
    critical_fields,
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


def test_theta_keeps_its_digits_where_its_squares_underflow():
    # (J, j, b) = (0, -3.9e-145, -2.2e-262): near q = 0, b^2 and (j sin q)^2 fall below
    # the smallest float although theta >= |b| is a normal float; below 2^-500 theta takes
    # its terms in units of 2^-600, and matches 40-digit arithmetic
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 40
    J, j, b = 0.0, -3.9e-145, -2.2e-262
    q = np.array([0.0, 1e-118, 1e-30, 5e-23, 1e-10, 0.5, math.pi / 2])
    got = _theta(J, j, b, np.cos(q), np.sin(q))
    for g, x in zip(got.tolist(), q.tolist()):
        want = mp.sqrt(mp.mpf(b) ** 2 + (mp.mpf(j) * mp.sin(mp.mpf(x))) ** 2)
        assert abs(g - want) <= 1e-15 * want, (x, g, want)
    # on a unit chain with b = 1e-200, (sin q)^2 is itself below the smallest normal
    # float at q = 1e-160: sin q is scaled before it is squared
    for x in (1e-160, 1e-170, 1e-300):
        got = _theta(0.0, 1.0, 1e-200, np.cos([x]), np.sin([x])).item()
        want = mp.sqrt(mp.mpf(1e-200) ** 2 + mp.sin(mp.mpf(x)) ** 2)
        assert abs(got - want) <= 1e-15 * want, (x, got, want)
        assert abs(theta_of_q(ChainParams(0.0, 1.0, 1e-200, 0.0), x) - want) <= 1e-15 * want
    # where the squares stay normal the units change no bit: theta of a chain scaled
    # by 2^-505 (below 2^-500 at every node) is that of the unit chain, scaled exactly
    q = np.linspace(0.0, math.pi, 29)
    c, s = np.cos(q), np.sin(q)
    for J, j, b in ((1.0, 0.5, 0.3), (1.0, 1.4, 0.2), (1.0, -0.7, 0.0), (0.0, 1.0, 0.25),
                    (1.0, 0.0, 0.0), (1.0, 1.0, 0.3), (0.0, 0.0, 0.0)):
        small = (math.ldexp(v, -505) for v in (J, j, b))
        assert np.array_equal(_theta(*small, c, s), np.ldexp(_theta(J, j, b, c, s), -505))


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


def test_crossing_angle_clamps_where_the_field_squared_overflows():
    # in the chain's units B = 1e200 squares past the largest float: the crossing is
    # absent, at 0 where theta falls from q = 0 and at pi/2 where it rises.  The copies at
    # 2^-560 are rescaled into the same units; at 2^560 a field 1e200 times J is no
    # double, so the copy at 2^560 is of the chain at 1e-200
    for s in (1.0, 2.0**-560, 2.0**560 * 1e-200):
        for J, j, b, want in ((1.0, 0.0, 0.0, 0.0), (1.0, 0.5, -0.3, 0.0),
                              (0.0, 1.0, 0.0, math.pi / 2), (0.5, -1.0, 0.3, math.pi / 2)):
            for B in (1e200, -1e200):
                assert xi(ChainParams(J=s * J, j=s * j, b=s * b, B=s * B)) == want, (s, J, j, b, B)


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
            dn = p.B - theta_of_q(p, mids)
            assert np.all(dn < 1e-12)
        # complement carries a non-negative lower band
        edges = [0.0] + [v for iv in intervals for v in iv] + [math.pi]
        for lo, hi in zip(edges[::2], edges[1::2]):
            if hi - lo < 1e-9:
                continue
            mids = np.linspace(lo, hi, 9)[1:-1]
            dn = p.B - theta_of_q(p, mids)
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


# The scalar band geometry the column form replaced, kept as its reference: edges by
# math.hypot, one chain at a time, xi from exact squares in the chain's own units.
def _reference_in_units(J, j, b, B):
    k = math.frexp(max(J, abs(j), abs(b)))[1]
    if abs(k) <= 500:
        return 0, (J, j, b, B)
    return k, tuple(math.ldexp(v, -k) for v in (J, j, b, B))


def _reference_squares(plus, minus):
    terms = []
    for sign, x in [(1.0, x) for x in plus] + [(-1.0, x) for x in minus]:
        c = 134217729.0 * x
        hi, sq = c - (c - x), x * x
        lo = x - hi
        terms += (sign * sq, sign * (((hi * hi - sq) + 2.0 * hi * lo) + lo * lo))
    return math.fsum(terms)


def _reference_xi(J, j, b, B):
    J, j, b, B = _reference_in_units(J, j, b, B)[1]
    den = _reference_squares((J,), (j,))
    if den == 0:
        raise ValueError("xi is undefined at J = |j|")
    r = _reference_squares((B,), (b, j)) / den
    return math.acos(math.sqrt(min(max(r, 0.0), 1.0)))


def _reference_filled_interval(J, j, b, level):
    edge_lo, edge_hi = sorted((math.hypot(J, b), math.hypot(j, b)))
    if level < edge_lo:
        return PhaseRegion.COMPENSATED, 0.0, math.pi / 2
    if level > edge_hi or edge_lo == edge_hi:
        return PhaseRegion.SATURATED, 0.0, 0.0
    falls = J > abs(j)
    x = _reference_xi(J, j, b, level) if level < edge_hi else (0.0 if falls else math.pi / 2)
    lo, hi = (0.0, x) if falls else (x, math.pi / 2)
    return (PhaseRegion.PARTIAL if lo < hi else PhaseRegion.SATURATED), lo, hi


def _band_geometry_rows():
    """Seeded (J, j, b, level) rows: chains at unit scale, 2^+-560, 1e+-300 and with each
    coupling at its own scale in 1e+-300, zeros, the flat band J = |j| and the all-zero
    chain; levels at both critical fields, an ulp either side, inside, beyond and negated
    (region_q's signed band), and at math.hypot edges that np.hypot rounds differently."""
    rng = random.Random("band-geometry")
    rows = []
    for scale in (1.0, 2.0**560, 2.0**-560, 1e300, 1e-300, None):
        for _ in range(150):
            J, j, b = (scale * rng.uniform(-2.0, 2.0) if scale else
                       rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)
                       for _ in range(3))
            J = abs(J)
            if rng.random() < 0.15:
                j = rng.choice((-1.0, 1.0)) * J
            J, j, b = (0.0 if rng.random() < 0.1 else v for v in (J, j, b))
            edges = (math.hypot(J, b), math.hypot(j, b))
            levels = [v for c in edges
                      for v in (math.nextafter(c, 0.0), c, math.nextafter(c, 3.0 * c))]
            levels.append(rng.uniform(0.0, 1.2) * max(edges))
            rows += [(J, j, b, v) for v in levels + [-v for v in levels]]
    rows += [(0.0, 0.0, 0.0, v) for v in (0.0, -0.0, 1.0, -1.0, 5e-324)]
    rng = np.random.default_rng(5)
    J, b = rng.uniform(0.0, 2.0, 20000), rng.uniform(-2.0, 2.0, 20000)
    odd = np.flatnonzero(np.hypot(J, b) != [math.hypot(x, y) for x, y in zip(J, b)])
    assert odd.size > 5
    rows += [(x, 0.25 * x, y, math.hypot(x, y)) for x, y in zip(J[odd].tolist(), b[odd].tolist())]
    return rows


def test_column_band_geometry_equals_the_scalar_reference_row_by_row():
    from staggered_xx.model import _REGIONS, _filled_interval, _in_units

    rows = _band_geometry_rows()
    J, j, b, level = (np.array(c) for c in zip(*rows))
    region, lo, hi = _filled_interval(J, j, b, level)
    k, *units = _in_units(J, j, b, level)
    for i, row in enumerate(rows):
        want = _reference_filled_interval(*row)
        got = (_REGIONS[region[i]], lo[i].item(), hi[i].item())
        assert got[0] is want[0] and list(map(repr, got[1:])) == list(map(repr, want[1:])), row
        want_k, want_units = _reference_in_units(*row)
        assert k[i] == want_k and [repr(c[i].item()) for c in units] == list(map(repr, want_units))
    # the one-row public calls read the same decision
    for J, j, b, B in rows[::5]:
        p = ChainParams(J, j, b, B)
        assert classify_region(p) is _reference_filled_interval(J, j, b, abs(B))[0], p
        want = _outcome(lambda p: _reference_xi(p.J, p.j, p.b, p.B), p)
        assert repr(_outcome(xi, p)) == repr(want), p


def _outcome(f, p):
    try:
        return f(p)
    except ValueError:
        return ValueError
