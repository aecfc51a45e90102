"""Symmetries, scale covariance, ranges and free-energy derivatives of the bulk quantities.

The seeded hypothesis tests draw chains with J = 1 and beta in [1e-2, 50].
H maps to itself under a global spin flip with (b, B) -> (-b, -B), and
under the exchange of the two sublattices with (j, b) -> (-j, -b); H(s p)
= s H(p), so every quantity at (s p, beta / s) equals that at (p, beta),
with energies scaled by s.  ln Z per site generates m, m_s and u.
"""

import math
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staggered_xx import (
    ChainParams,
    Thermal,
    c1,
    c2,
    critical_fields,
    energy,
    internal_energy,
    ln_z_per_site,
    magnetization,
    meyer_wallach,
    staggered_magnetization,
    witness,
)
from staggered_xx.correlations import _band_integrals

SEEDED = settings(derandomize=True, database=None, max_examples=40, deadline=None)
TOL = 1e-12

couplings = st.floats(-2.0, 2.0)
chains = st.builds(lambda j, b, B: ChainParams(1.0, j, b, B), couplings, couplings, couplings)
betas = st.floats(-2.0, math.log10(50.0)).map(lambda e: Thermal.finite(10.0**e))


def values(p, t, quad=None) -> dict:
    """The finite-T quantities by name; ``quad`` as the library functions take it."""
    pair1, pair2 = c1(p, t, quad), c2(p, t, quad)
    return {
        "u": internal_energy(p, t, quad),
        "m": magnetization(p, t, quad),
        "m_s": staggered_magnetization(p, t, quad),
        "c1_odd": pair1.odd,
        "c1_even": pair1.even,
        "c2_odd": pair2.odd,
        "c2_even": pair2.even,
        "witness_lhs": witness(p, t, quad).lhs,
    }


def assert_close(got: dict, want: dict, tol: float = TOL) -> None:
    bad = {k: (got[k], want[k]) for k in want if not abs(got[k] - want[k]) <= tol}
    assert not bad, bad


@SEEDED
@given(chains, betas)
def test_spin_flip(p, t):
    # (b, B) -> (-b, -B): both magnetizations are odd, the rest even
    flipped = values(ChainParams(p.J, p.j, -p.b, -p.B), t)
    want = values(p, t)
    want["m"], want["m_s"] = -want["m"], -want["m_s"]
    assert_close(flipped, want)


@SEEDED
@given(chains, betas)
def test_sublattice_swap(p, t):
    # (j, b) -> (-j, -b) swaps odd and even sites: m_s is odd, c1/c2 swap
    swapped = values(ChainParams(p.J, -p.j, -p.b, p.B), t)
    want = values(p, t)
    want["m_s"] = -want["m_s"]
    for c in ("c1", "c2"):
        want[f"{c}_odd"], want[f"{c}_even"] = want[f"{c}_even"], want[f"{c}_odd"]
    assert_close(swapped, want)


@SEEDED
@given(chains, betas)
def test_ranges(p, t):
    got = values(p, t)
    assert abs(got["m"]) <= 1.0 and abs(got["m_s"]) <= 1.0
    assert all(0.0 <= got[c] <= 1.0 for c in ("c1_odd", "c1_even", "c2_odd", "c2_even"))
    assert 0.0 <= meyer_wallach(p) <= 1.0


def derivative(f, x: float, h: float) -> float:
    """Five-point central difference, with an error of order h^4."""
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


@SEEDED
@given(chains, betas)
def test_free_energy_derivatives(p, t):
    # m = (1/beta) d(ln Z/N)/dB, m_s = (1/beta) d(ln Z/N)/db, u = -d(ln Z/N)/dbeta.
    # ln Z/N is a function of beta times the band energies, so steps of 1e-2
    # in beta B, in beta b and in beta times the largest |band energy| keep
    # the stencil's error near 1e-8 of the quantity's scale at every beta
    beta, top = t.beta, abs(p.B) + max(critical_fields(p))
    m = derivative(lambda B: ln_z_per_site(replace(p, B=B), t), p.B, 1e-2 / beta) / beta
    m_s = derivative(lambda b: ln_z_per_site(replace(p, b=b), t), p.b, 1e-2 / beta) / beta
    u = -derivative(
        lambda x: ln_z_per_site(p, Thermal.finite(x)), beta, 1e-2 * min(beta, 1.0 / top)
    )
    assert abs(m - magnetization(p, t)) <= 1e-8
    assert abs(m_s - staggered_magnetization(p, t)) <= 1e-8
    assert abs(u - internal_energy(p, t)) <= 1e-8 * top


SCALE_POINTS = [
    (ChainParams(1.0, 0.5, 0.3, 0.8), 2.0),
    (ChainParams(1.0, -1.3, 0.2, 0.9), 10.0),
    (ChainParams(1.0, 0.2, -0.7, -1.4), 0.05),
    (ChainParams(1.0, 1.0, 0.3, 0.5), 3.0),
    (ChainParams(1.0, 0.4, 0.0, 0.2), 40.0),
    (ChainParams(1.0, 0.7, 0.1, 1.5), 50.0),
    # theta dips to 1e-3 at pi/2: the ground energy needs more than one panel
    (ChainParams(1.0, 0.0, 1e-3, 0.0), 1.0),
]


def assert_energy(got: float, want: float, s: float) -> None:
    # within 1e-10 of s want, and within 1e-10 in the chain's own units
    assert abs(got - s * want) <= max(1e-10, 1e-10 * abs(s * want)), (got, s * want)
    assert abs(got / s - want) <= 1e-10 * max(1.0, abs(want)), (got / s, want)


@pytest.mark.parametrize("e", [560, -560])
@pytest.mark.parametrize("p, beta", SCALE_POINTS)
def test_scale_covariance(p, beta, e):
    s = math.ldexp(1.0, e)
    big = ChainParams(*(v * s for v in (p.J, p.j, p.b, p.B)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (Thermal.finite(beta), Thermal.zero()):
            scaled_t = Thermal(t.beta / s)
            want = values(p, t)
            u = want.pop("u")
            # the adaptive engine, and at finite T the batch, on a row that
            # also holds the unscaled cell
            engines = [None]
            if not t.is_ground:
                engines.append(_band_integrals([(p, t), (big, scaled_t)])[1])
            for quad in engines:
                got = values(big, scaled_t, quad)
                assert_energy(got.pop("u"), u, s)
                assert_close(got, want, 1e-10)
        assert_energy(energy(big), energy(p), s)
        assert abs(meyer_wallach(big) - meyer_wallach(p)) <= 1e-10
