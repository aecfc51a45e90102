"""Tanh-sinh integration against scipy.integrate.quad as oracle."""

import math
import random

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from staggered_xx import quadrature
from staggered_xx import (
    ChainParams,
    QuadResult,
    QuadSpec,
    Thermal,
    ToleranceNotReached,
    integrate,
    require_converged,
    theta_of_q,
    thermal_factor,
)


def scalar(f):
    # scipy.integrate.quad feeds scalars; our integrands take arrays
    return lambda x: float(f(np.asarray([x]))[0])


def test_quad_spec_validation():
    with pytest.raises(ValueError):
        QuadSpec(abs_tol=-1e-10)
    with pytest.raises(ValueError):
        QuadSpec(abs_tol=0.0, rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadSpec(breakpoints=(3.5,))
    spec = QuadSpec(breakpoints=(2.0, 1.0))
    merged = spec.with_breakpoints([1.0, 0.5])
    assert merged.breakpoints == (0.5, 1.0, 2.0)


def test_smooth_integrands_match_scipy():
    integrands = [
        lambda q: np.sin(q),
        lambda q: np.cos(3.0 * q) ** 2 * np.exp(-q),
        lambda q: 1.0 / (1.0 + 25.0 * (q - 1.0) ** 2),
        lambda q: np.sqrt(1.0 + 0.3 * np.sin(q) ** 2),
    ]
    for f in integrands:
        res = integrate(f, QuadSpec(abs_tol=1e-12, rel_tol=1e-12))
        ref, _ = sp_integrate.quad(scalar(f), 0.0, math.pi, epsabs=1e-13, epsrel=1e-13)
        assert res.converged
        assert abs(res.value - ref) < 1e-11


def test_closed_forms():
    res = integrate(np.sin)
    assert res.converged and math.isclose(res.value, 2.0, rel_tol=1e-12)
    res = integrate(lambda q: np.cos(q) ** 2)
    assert math.isclose(res.value, math.pi / 2, rel_tol=1e-12)
    # custom bounds, as used for the band-energy integrals
    res = integrate(np.sin, lo=0.3, hi=1.2)
    assert math.isclose(res.value, math.cos(0.3) - math.cos(1.2), rel_tol=1e-12)


def test_sharp_thermal_layer_with_breakpoints():
    # The layers are 1e-4 wide; with pieces ending at their centres the
    # tanh-sinh nodes crowd into them, so the crossings are the only seeds
    # (as the physics modules give them).  scipy needs the layer edges too.
    p = ChainParams(J=1.0, j=0.4, b=0.2, B=0.7)
    beta = 1e4
    t = Thermal.finite(beta)
    f = lambda q: thermal_factor(t, p.B - theta_of_q(p, q))
    r = (p.B**2 - p.b**2 - p.j**2) / (p.J**2 - p.j**2)
    x = math.acos(math.sqrt(r))
    w = 18.4 / beta
    points = [x - w, x, x + w, math.pi - x - w, math.pi - x, math.pi - x + w]
    res = integrate(f, QuadSpec(breakpoints=(x, math.pi - x)))
    ref, _ = sp_integrate.quad(
        scalar(f), 0.0, math.pi, points=points, limit=400,
        epsabs=1e-13, epsrel=1e-13,
    )
    assert res.converged
    assert abs(res.value - ref) < 1e-10


def test_layer_clipped_by_boundary_needs_only_its_centre():
    # With the layer centred on a breakpoint its two tails cancel, but a
    # layer clipped by the integration boundary loses that cancellation,
    # and a rule whose nodes step over the layer reports a wrong value as
    # converged.  The tanh-sinh nodes crowd into the layer from both piece
    # ends, so its centre is seed enough.
    beta, x0 = 1e4, 1e-3
    f = lambda q: np.tanh(beta * (q - x0))
    w = 18.4 / beta
    ref, _ = sp_integrate.quad(
        scalar(f), 0.0, math.pi, points=[x0, x0 + w], limit=400,
        epsabs=1e-13, epsrel=1e-13,
    )
    centre_only = integrate(f, QuadSpec(breakpoints=(x0,)))
    seeded = integrate(f, QuadSpec(breakpoints=(x0, x0 + w)))
    for res in (centre_only, seeded):
        assert res.converged
        assert abs(res.value - ref) < 1e-10


def _levels(monkeypatch, n: int) -> None:
    """Leave :func:`integrate` only its first ``n`` levels (h = 1/2 .. 2^-n)."""
    monkeypatch.setattr(quadrature, "_LEVELS", quadrature._LEVELS[:n])


def test_breakpoint_restores_convergence_on_kink(monkeypatch):
    x0 = 1.0
    f = lambda q: np.sqrt(np.abs(q - x0))
    exact = (2.0 / 3.0) * ((math.pi - x0) ** 1.5 + x0**1.5)
    tight = dict(abs_tol=1e-13, rel_tol=1e-13)
    # equal refinement budget: the seeded grid is far more accurate
    with monkeypatch.context() as m:
        _levels(m, 4)
        blind = integrate(f, QuadSpec(**tight))
        seeded = integrate(f, QuadSpec(breakpoints=(x0,), **tight))
    assert abs(seeded.value - exact) < abs(blind.value - exact) / 50.0
    # all levels converge outright
    full = integrate(f, QuadSpec(breakpoints=(x0,), **tight))
    assert full.converged
    assert abs(full.value - exact) < 1e-13
    assert full.n_panels >= 2


def test_halving_tolerances_consistent_within_error_estimates():
    integrands = [
        lambda q: np.sin(5.0 * q) * np.exp(np.cos(q)),
        lambda q: np.sqrt(np.abs(q - 0.8)),
        lambda q: np.tanh(50.0 * (q - 2.0)),
    ]
    for f in integrands:
        for tol in (1e-6, 1e-8, 1e-10):
            a = integrate(f, QuadSpec(abs_tol=tol, rel_tol=tol))
            b = integrate(f, QuadSpec(abs_tol=tol / 2, rel_tol=tol / 2))
            assert abs(a.value - b.value) <= a.error + b.error + 1e-15


def test_exhaustion_flags_instead_of_raising(monkeypatch):
    t = Thermal.finite(1e6)
    f = lambda q: thermal_factor(t, 0.6 - q)  # step at q = 0.6, no seed
    with monkeypatch.context() as m:
        _levels(m, 3)
        res = integrate(f, QuadSpec(abs_tol=1e-14, rel_tol=1e-14))
    assert isinstance(res, QuadResult)
    assert not res.converged
    with pytest.raises(ToleranceNotReached) as exc:
        require_converged(res)
    assert exc.value.result is res
    # generous budget converges and passes through require_converged
    ok = integrate(f, QuadSpec(breakpoints=(0.6,)))
    assert require_converged(ok) == ok.value


def test_thermal_factor_limits():
    lam = np.array([-2.0, -1e-3, 0.0, 1e-3, 2.0])
    t = Thermal.finite(3.0)
    np.testing.assert_allclose(thermal_factor(t, lam), np.tanh(3.0 * lam), atol=1e-15)
    g = thermal_factor(Thermal.zero(), lam)
    np.testing.assert_array_equal(g, np.sign(lam))
    # scalar input stays scalar-shaped
    assert thermal_factor(t, 0.5).shape == ()


def test_error_estimate_is_honest():
    rng = np.random.default_rng(21)
    for _ in range(25):
        a, c = rng.uniform(1.0, 6.0), rng.uniform(0.5, 2.5)
        f = lambda q: np.sin(a * q + 0.3) * np.exp(-c * q)
        res = integrate(f, QuadSpec(abs_tol=1e-9, rel_tol=1e-9))
        ref, _ = sp_integrate.quad(scalar(f), 0.0, math.pi, epsabs=1e-13, epsrel=1e-13)
        assert res.converged
        assert abs(res.value - ref) <= max(res.error, 1e-13)


# Structural points for the periodic trapezoid rule: generic, both critical
# fields (and -B), J < |j| with B at its upper critical field, the flat band
# J = |j|, b = j = 0 (theta vanishes at pi/2) and J = j = 0 (theta = |b|).
_J, _j, _b = 1.0, 0.6, 0.3
TRAPEZOID_POINTS = [
    ChainParams(_J, _j, _b, 0.8),
    ChainParams(_J, _j, _b, math.hypot(_J, _b)),
    ChainParams(_J, _j, _b, math.hypot(_j, _b)),
    ChainParams(_J, _j, _b, -math.hypot(_j, _b)),
    ChainParams(1.0, 1.4, 0.2, 1.1),
    ChainParams(1.0, 1.4, 0.2, math.hypot(1.4, 0.2)),
    ChainParams(1.0, 1.0, 0.3, 0.7),
    ChainParams(1.0, -1.0, 0.0, 0.5),
    ChainParams(1.0, 0.0, 0.0, 0.4),
    ChainParams(1.0, 0.0, 0.0, 0.0),
    ChainParams(0.0, 0.0, 0.5, 0.2),
]


def _band_integrands(p, t):
    from staggered_xx.correlations import transverse_integrands
    from staggered_xx.thermo import (
        internal_energy_integrand,
        magnetization_integrand,
        staggered_magnetization_integrand,
    )

    return (
        internal_energy_integrand(p, t),
        magnetization_integrand(p, t),
        staggered_magnetization_integrand(p, t),
        *transverse_integrands(p, t, 1),
        *transverse_integrands(p, t, 2),
    )


def _cap_limit_beta(p):
    # the largest beta whose starting node count still leaves room to double
    from staggered_xx.quadrature import _TRAPEZOID_CAP

    return 0.99 * _TRAPEZOID_CAP / (8.0 * math.pi * max(p.J, abs(p.j), 1e-3))


@pytest.mark.parametrize("p", TRAPEZOID_POINTS, ids=str)
def test_periodic_trapezoid_matches_adaptive_band_integrals(p):
    from staggered_xx import g1, g_even, internal_energy, magnetization, staggered_magnetization
    from staggered_xx.correlations import _band_integrals

    for beta in (1e-3, 0.1, 1.0, 10.0, 100.0, _cap_limit_beta(p)):
        t = Thermal.finite(beta)
        u, m, m_s, g1_pair, g2_pair = _band_integrals(p, t)
        got = (u, m, m_s, g1_pair.uniform, g1_pair.staggered, g2_pair.uniform, g2_pair.staggered)
        want = (
            internal_energy(p, t), magnetization(p, t), staggered_magnetization(p, t),
            g1(p, t).uniform, g1(p, t).staggered, g_even(p, t, 2).uniform,
            g_even(p, t, 2).staggered,
        )
        for k, (a, b) in enumerate(zip(got, want)):
            assert abs(a - b) < 1e-10, (beta, k, a, b)


def _pair_concurrence(coherence, sz_l, sz_r, g):
    # C = max{0, coherence - 2 sqrt(p00 p11)} with 16 p00 p11 in factored form
    rad = ((1.0 + sz_l) * (1.0 + sz_r) - g * g) * ((1.0 - sz_l) * (1.0 - sz_r) - g * g)
    return max(0.0, coherence - 0.5 * math.sqrt(max(rad, 0.0)))


@pytest.mark.parametrize(
    "p, beta",
    [
        (ChainParams(1.0, 0.5, 0.3, 0.8), 5.0),
        (ChainParams(1.0, -0.6, 0.2, 0.1), 20.0),
        (ChainParams(1.0, 0.0, 0.2, 0.95), 20.0),  # c2 > 0 on both sublattices
        (ChainParams(1.0, 0.3, 0.0, 0.4), 2.0),
    ],
    ids=str,
)
def test_quantity_functions_read_band_integrals_record(p, beta, monkeypatch):
    from staggered_xx import (
        ConcurrencePair, c1, c2, correlation_set, g1, g_even, g_site, internal_energy,
        ln_z_per_site, magnetization, staggered_magnetization, witness,
    )
    from staggered_xx import correlations, ground, thermo
    from staggered_xx.correlations import _band_integrals

    t = Thermal.finite(beta)
    rec = _band_integrals(p, t)

    def no_adaptive(*args, **kwargs):
        raise AssertionError("adaptive quadrature called although the record was given")

    for module in (thermo, correlations, ground):
        monkeypatch.setattr(module, "integrate", no_adaptive)
    assert internal_energy(p, t, rec) == rec.u
    assert magnetization(p, t, rec) == rec.m
    assert staggered_magnetization(p, t, rec) == rec.m_s
    assert g1(p, t, rec) == rec.g1
    assert g_even(p, t, 2, rec) == rec.g2
    m, ms, g, g2 = rec.m, rec.m_s, rec.g1, rec.g2
    want1, want2 = {}, {}
    for parity, s in (("odd", -1.0), ("even", 1.0)):
        gp, g_mid, g2_l = g.uniform + s * g.staggered, g.uniform - s * g.staggered, g2.at(parity)
        want1[parity] = _pair_concurrence(abs(gp), m + s * ms, m - s * ms, gp)
        coherence = abs(gp * g_mid - g2_l * (m - s * ms))
        want2[parity] = _pair_concurrence(coherence, m + s * ms, m + s * ms, g2_l)
    assert c1(p, t, rec) == ConcurrencePair(**want1)
    assert c2(p, t, rec) == ConcurrencePair(**want2)
    lhs = 4.0 * abs(rec.u + p.B * m + p.b * ms) / (abs(p.J - p.j) + abs(p.J + p.j))
    assert witness(p, t, rec).lhs == lhs
    # ln Z and separations other than 1 and 2 are not in the record
    with pytest.raises(ValueError, match="ln_z"):
        ln_z_per_site(p, t, rec)
    with pytest.raises(ValueError, match="g3"):
        g_site(p, t, "odd", 3, rec)
    with pytest.raises(ValueError, match="g3"):
        correlation_set(p, t, quad=rec)


def test_periodic_trapezoid_error_estimate_is_honest():
    from scipy.special import i0

    from staggered_xx.quadrature import _periodic_trapezoid

    # pi-periodic analytic integrands with closed-form integrals over [0, pi]
    exact = [
        (lambda q: 1.0 / (1.0 + 60.0 * np.cos(q) ** 2), math.pi / math.sqrt(61.0)),
        (lambda q: np.exp(3.0 * np.cos(2.0 * q)), math.pi * i0(3.0)),
    ]
    for tol in (1e-3, 1e-6, 1e-9, 1e-12):
        results = _periodic_trapezoid([f for f, _ in exact], 0.0, QuadSpec(tol, tol))
        for res, (_, value) in zip(results, exact):
            assert res.converged
            assert abs(res.value - value) <= res.error + 1e-15
    # band integrands against a fine adaptive reference; the start is made
    # coarser than beta max(J, |j|) asks, so the rule stops where its error shows
    p, t = ChainParams(1.0, 0.6, 0.3, 0.9), Thermal.finite(30.0)
    fs = _band_integrands(p, t)
    for tol in (1e-4, 1e-8):
        for f, res in zip(fs, _periodic_trapezoid(fs, 0.05 * t.beta, QuadSpec(tol, tol))):
            ref, _ = sp_integrate.quad(
                scalar(f), 0.0, math.pi, limit=800, epsabs=1e-13, epsrel=1e-13
            )
            assert res.converged
            assert abs(res.value - ref) <= res.error + 1e-14


def test_periodic_trapezoid_cap_and_non_finite_values():
    from staggered_xx.correlations import _band_integrals
    from staggered_xx.quadrature import _TRAPEZOID_CAP, _periodic_trapezoid

    def never(q):
        raise AssertionError("evaluated although the start is beyond the cap")

    # too sharp to start below the cap: unconverged without evaluating
    (res,) = _periodic_trapezoid([never], _TRAPEZOID_CAP)
    assert not res.converged
    # a cusp at pi/2 converges only algebraically: the cap is reached
    (res,) = _periodic_trapezoid([lambda q: np.sqrt(np.abs(np.cos(q)))], 0.0)
    assert not res.converged and res.n_panels == _TRAPEZOID_CAP
    with pytest.raises(ToleranceNotReached):
        _band_integrals(ChainParams(1.0, 0.4, 0.2, 0.7), Thermal.finite(1e5))
    with pytest.raises(ToleranceNotReached):
        _band_integrals(ChainParams(1.0, 0.4, 0.2, 0.7), Thermal.zero())
    with pytest.raises(ValueError, match="non-finite"):
        _periodic_trapezoid([np.cos, lambda q: np.where(q == 0.0, np.nan, 1.0)], 0.0)


def _large_beta_points():
    """60 seeded chains with beta log-uniform in [300, 1e5], in four kinds:
    any field; |B| within 5 T of the band top; within 5 T of the band
    bottom; and the flat band J = |j| with |B| within 5 T of it."""
    rng = random.Random("large-beta")
    points = []
    for k in range(60):
        beta = 10.0 ** rng.uniform(math.log10(300.0), 5.0)
        j = rng.uniform(-2.0, 2.0)
        b = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 1.0)
        edges = sorted((math.hypot(1.0, b), math.hypot(j, b)))
        level = [rng.uniform(0.0, 2.5), edges[1], edges[0], math.hypot(1.0, b)][k % 4]
        if k % 4:
            level += rng.uniform(-5.0, 5.0) / beta
        if k % 4 == 3:
            j = rng.choice((-1.0, 1.0))
        points.append((1.0, j, b, rng.choice((-1.0, 1.0)) * level, beta))
    return points


def test_large_beta_band_integrals_match_an_independent_reference():
    # u, m, m_s and the g1, g2 pairs against QUADPACK on the model's formulas
    # written out again (band_reference.py); the thermal layers are 1e-5 wide
    from band_reference import band_integrals

    from staggered_xx import g1, g_even, internal_energy, magnetization, staggered_magnetization

    misses = []
    for point in _large_beta_points():
        want, err = band_integrals(*point)
        assert err < 1e-12, (point, err)
        p, t = ChainParams(*point[:4]), Thermal.finite(point[4])
        pair1, pair2 = g1(p, t), g_even(p, t, 2)
        got = {
            "u": internal_energy(p, t), "m": magnetization(p, t),
            "m_s": staggered_magnetization(p, t),
            "g1": (pair1.uniform, pair1.staggered), "g2": (pair2.uniform, pair2.staggered),
        }
        for name, value in got.items():
            off = np.max(np.abs(np.subtract(value, want[name])))
            if off > 1e-10:
                misses.append((point, name, off))
    assert not misses
