"""Finite-temperature band integrals: limits, identities, stability."""

import math
from dataclasses import replace

import numpy as np
import pytest

from staggered_xx import (
    ChainParams,
    QuadSpec,
    Thermal,
    ThermoPoint,
    ZeroTemperatureUnsupported,
    internal_energy,
    ln_z_per_site,
    magnetization,
    staggered_magnetization,
    theta_of_q,
    thermo_point,
)
from staggered_xx import ground
from staggered_xx.thermo import _difference_ratio

TIGHT = QuadSpec(abs_tol=1e-13, rel_tol=1e-13)


def test_infinite_temperature_limit_is_ln_two():
    p = ChainParams(J=1.0, j=0.7, b=0.4, B=0.9)
    val = ln_z_per_site(p, Thermal.finite(1e-9))
    assert math.isclose(val, math.log(2.0), rel_tol=0, abs_tol=1e-8)


def test_ln_z_refuses_zero_temperature():
    with pytest.raises(ZeroTemperatureUnsupported):
        ln_z_per_site(ChainParams(), Thermal.zero())


def test_free_energy_derivatives_recover_observables():
    # ln z is the generating function: field derivatives give the two
    # magnetizations, the beta derivative gives -u
    p = ChainParams(J=1.0, j=0.6, b=0.45, B=0.8)
    t = Thermal.finite(2.0)
    h = 1e-4

    def lnz(**kw):
        beta = kw.pop("beta", t.beta)
        return ln_z_per_site(replace(p, **kw), Thermal.finite(beta), TIGHT)

    dB = (lnz(B=p.B + h) - lnz(B=p.B - h)) / (2 * h)
    db = (lnz(b=p.b + h) - lnz(b=p.b - h)) / (2 * h)
    dbeta = (lnz(beta=t.beta + h) - lnz(beta=t.beta - h)) / (2 * h)
    assert math.isclose(dB / t.beta, magnetization(p, t, TIGHT), abs_tol=1e-6)
    assert math.isclose(db / t.beta, staggered_magnetization(p, t, TIGHT), abs_tol=1e-6)
    assert math.isclose(-dbeta, internal_energy(p, t, TIGHT), abs_tol=1e-6)


def test_overflow_regime_stays_finite():
    # beta*Lambda ~ 5000: naive cosh overflows, log-form must not
    p = ChainParams(J=1.0, j=0.3, b=0.2, B=5.0)
    t = Thermal.finite(1e3)
    lz = ln_z_per_site(p, t)
    u = internal_energy(p, t)
    m = magnetization(p, t)
    assert math.isfinite(lz) and lz > 0
    # fully polarized band: energy per site -B, magnetization 1
    assert math.isclose(u, -5.0, rel_tol=0, abs_tol=1e-10)
    assert math.isclose(m, 1.0, rel_tol=0, abs_tol=1e-12)
    # past beta 2^1000 in the chain's units ln Z is -beta times the ground
    # energy, up to the largest double
    for p, beta in ((ChainParams(J=1e308), 2.0), (ChainParams(1.0, 0.3, 0.2, 0.5), 1e305)):
        want = -beta * internal_energy(p, Thermal.zero())
        assert math.isclose(ln_z_per_site(p, Thermal.finite(beta)), want, rel_tol=1e-12)


def test_magnetization_odd_in_field():
    rng = np.random.default_rng(31)
    for _ in range(8):
        p = ChainParams(
            J=1.0,
            j=float(rng.uniform(0, 2)),
            b=float(rng.uniform(0, 2)),
            B=float(rng.uniform(0.1, 2)),
        )
        t = Thermal.finite(float(rng.uniform(0.5, 5)))
        assert math.isclose(
            magnetization(p, t), -magnetization(replace(p, B=-p.B), t), abs_tol=1e-11
        )
        assert abs(magnetization(replace(p, B=0.0), t)) < 1e-11


def test_staggered_magnetization_odd_in_alternating_field():
    rng = np.random.default_rng(32)
    for _ in range(8):
        p = ChainParams(
            J=1.0,
            j=float(rng.uniform(0, 2)),
            b=float(rng.uniform(0.1, 2)),
            B=float(rng.uniform(0, 2)),
        )
        t = Thermal.finite(float(rng.uniform(0.5, 5)))
        assert math.isclose(
            staggered_magnetization(p, t),
            -staggered_magnetization(replace(p, b=-p.b), t),
            abs_tol=1e-11,
        )
    # exactly zero without the alternating field, by symmetry short-circuit
    assert staggered_magnetization(ChainParams(J=1.0, j=0.5, B=0.7), Thermal.finite(2.0)) == 0.0


def _ground_record_cases():
    """(chain, scale): chains with their whole T = 0 record in view, each at its own
    scale 1 and some at 2^+-560, where the reference runs on the unit chain."""
    rng = np.random.default_rng(83)
    chains = [
        ChainParams(J=1.0, j=0.5, b=0.4, B=0.3),   # below both critical fields
        ChainParams(J=1.0, j=0.5, b=0.4, B=0.9),   # between them
        ChainParams(J=1.0, j=0.5, b=0.4, B=1.5),   # above both: F empty
        ChainParams(J=1.0, j=1.7, b=0.3, B=1.2),   # j > J ordering
        ChainParams(J=1.0, j=0.0, b=0.0, B=0.5),   # uniform chain
        ChainParams(J=0.0, j=0.0, b=0.0, B=0.0),   # all-zero chain
        ChainParams(J=1.0, j=1.0, b=0.0, B=-1.0),  # flat band at its level
        # B exactly at a critical field: dyadic couplings whose fields are exact,
        # 0.625 = |(0.375, 0.5)| and 1.0625 = |(0.9375, 0.5)|, and 1.25 = |(1, 0.75)|
        ChainParams(J=1.0, j=-1.0, b=0.75, B=1.25),        # flat band at its level, b != 0
        ChainParams(J=0.9375, j=0.375, b=0.5, B=0.625),    # at the lower field
        ChainParams(J=0.9375, j=0.375, b=0.5, B=-1.0625),  # at the upper one
        ChainParams(J=0.375, j=0.9375, b=0.5, B=1.0625),   # upper field, J < |j|
        ChainParams(J=1.0, j=0.5, b=0.4, B=0.0),   # F the whole half zone
        ChainParams(J=1.0, j=0.7, b=0.0, B=0.8),   # b = 0
        ChainParams(J=1.0, j=0.0, b=0.6, B=0.9),   # j = 0
        # B the rounded lower field of a chain whose field is not a float: a crossing
        # within about 3e-9 of pi/2, and m = 3.22e-9
        ChainParams(J=1.0, j=0.5, b=0.4, B=math.hypot(0.5, 0.4)),
    ]
    for _ in range(6):
        J, j, b, B = rng.uniform(0.0, 1.5), *rng.uniform(-1.5, 1.5, 2), rng.uniform(-2.0, 2.0)
        chains.append(ChainParams(J=float(J), j=float(j), b=float(b), B=float(B)))
    cases = [(p, 1.0) for p in chains]
    for s in (2.0**560, 2.0**-560):
        cases += [(p, s) for p in (chains[1], chains[3], chains[7], chains[12])]
    return cases


def test_zero_temperature_integrals_match_closed_forms():
    # Every field of the T = 0 record (u, m, m_s and both parts of g1 and g2),
    # g3 from a record of its own over F, and the library functions that read
    # them, against QUADPACK on the sign-function band integrals over the whole
    # zone; the chain (J, j, b, B) s against the reference at s = 1, energies in
    # units of s
    for p, s in _ground_record_cases():
        _check_ground_record(p, s)


def _check_ground_record(p, s):
    from band_reference import band_integrals
    from staggered_xx import g_odd
    from staggered_xx.model import _columns
    from staggered_xx.thermo import _record

    t0 = Thermal.zero()
    want, err = band_integrals(p.J, p.j, p.b, p.B, rs=(1, 2, 3))
    assert err < 1e-12
    scaled = ChainParams(*(s * v for v in (p.J, p.j, p.b, p.B)))
    rows, codes, _ = _record(_columns([scaled]), np.array([math.inf]))
    assert not any(code.any() for code in codes.values())
    rec = {name: row.item() for name, row in rows.items()}
    g3 = g_odd(scaled, t0, 3)
    got = {
        "u": (rec["u"] / s, internal_energy(scaled, t0) / s, ground.energy(scaled) / s),
        "m": (rec["m"], magnetization(scaled, t0), ground.magnetization_t0(scaled)),
        "m_s": (rec["m_s"], staggered_magnetization(scaled, t0),
                ground.staggered_magnetization_t0(scaled)),
        "g1": (rec["gu1"], rec["gs1"]),
        "g2": (rec["gu2"], rec["gs2"]),
        "g3": (g3.uniform, g3.staggered),
    }
    for name, values in got.items():
        want_r = want[name] if isinstance(want[name], tuple) else (want[name],) * len(values)
        for value, w in zip(values, want_r):
            assert abs(value - w) < 1e-10, (p, s, name, value, w)
    # the all-zero chain is saturated at B = 0: m = 0, but the measure is 0
    if not (p.J or p.j or p.b or p.B):
        assert ground.meyer_wallach(scaled) == 0.0


def test_large_beta_converges_to_zero_temperature():
    # beta = 1e4 within 1e-6 of the T = 0 value, away from critical fields
    t_hot = Thermal.finite(1e4)
    t0 = Thermal.zero()
    pts = [
        ChainParams(J=1.0, j=0.5, b=0.4, B=0.3),
        ChainParams(J=1.0, j=0.5, b=0.4, B=0.9),
        ChainParams(J=1.0, j=0.3, b=0.7, B=1.4),
        ChainParams(J=1.0, j=1.6, b=0.2, B=0.8),
        ChainParams(J=1.0, j=0.2, b=1.1, B=1.8),
    ]
    for p in pts:
        for f in (internal_energy, magnetization, staggered_magnetization):
            assert abs(f(p, t_hot) - f(p, t0)) < 1e-6


def test_thermo_point_bundles_the_four_quantities():
    p = ChainParams(J=1.0, j=0.4, b=0.3, B=0.6)
    t = Thermal.finite(1.7)
    tp = thermo_point(p, t)
    assert isinstance(tp, ThermoPoint)
    assert tp.ln_z_per_site == ln_z_per_site(p, t)
    assert tp.u == internal_energy(p, t)
    assert tp.m == magnetization(p, t)
    assert tp.m_s == staggered_magnetization(p, t)


def test_composite_calls_integrate_one_record(monkeypatch):
    # a composite call builds the point's band-integral record once and passes
    # it to each quantity it reads; ln Z and r = 3 each take a run of their own.  Each
    # is one run of the one engine, at finite T over the split half zone and at
    # T = 0 over the filled interval
    from staggered_xx import (
        c1, c2, correlation_set, ground, sigma_z, sigma_z_pair, thermo, zz_correlator,
    )

    p = ChainParams(J=1.0, j=0.5, b=0.3, B=0.8)
    expected = {
        c1: 1, c2: 1, sigma_z_pair: 1, thermo_point: 2,
        lambda p, t: sigma_z(p, t, "odd"): 1,
        lambda p, t: zz_correlator(p, t, "even", 2): 1,
        lambda p, t: zz_correlator(p, t, "odd", 3): 2,
        lambda p, t: correlation_set(p, t, rs=(1, 2, 3)): 2,
    }
    runs = []
    for module in (thermo, ground):
        def counted(*args, engine=module._integrate_cells, **kwargs):
            runs.append(1)
            return engine(*args, **kwargs)

        monkeypatch.setattr(module, "_integrate_cells", counted)
    for t in (Thermal.finite(2.0), Thermal.zero()):
        for call, want in expected.items():
            runs.clear()
            if call is thermo_point and t.is_ground:
                # ln Z has no T = 0 value, refused before anything is integrated
                with pytest.raises(ZeroTemperatureUnsupported):
                    call(p, t)
                want = 0
            else:
                call(p, t)
            assert len(runs) == want, (call, t)


def test_occupation_ratio_flat_band_limit():
    # theta -> 0 at q = pi/2 when b = j = 0; the ratio must approach its
    # analytic limit continuously
    p = ChainParams(J=1.0, j=0.0, b=0.0, B=0.4)
    beta = 3.0

    def ratio(q):
        th = theta_of_q(p, np.array([q]))
        tanh_diff = np.tanh(beta * (p.B + th)) - np.tanh(beta * (p.B - th))
        return _difference_ratio(beta, p.B, th, tanh_diff)[0]

    want = 2.0 * beta / math.cosh(beta * p.B) ** 2
    assert math.isclose(ratio(math.pi / 2), want, rel_tol=1e-12)
    assert math.isclose(ratio(math.pi / 2 - 1e-7), want, rel_tol=1e-6)
