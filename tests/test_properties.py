"""Symmetries, scale covariance, ranges and free-energy derivatives of the bulk quantities.

The seeded hypothesis tests draw chains with J = 1 and beta in [1e-2, 50], and one
property draws the whole domain, scales from 1e-300 to 1e300 and beta up to 1e8.
H maps to itself under a global spin flip with (b, B) -> (-b, -B), and
under the exchange of the two sublattices with (j, b) -> (-j, -b); H(s p)
= s H(p), so every quantity at (s p, beta / s) equals that at (p, beta),
with energies scaled by s.  ln Z per site generates m, m_s and u.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from staggered_xx import (
    ChainParams,
    Thermal,
    c1,
    c2,
    critical_fields,
    energy,
    g1,
    internal_energy,
    ln_z_per_site,
    magnetization,
    magnetization_t0,
    meyer_wallach,
    staggered_magnetization,
    witness,
)
from staggered_xx.cli import _quantity_columns
from staggered_xx.model import _columns
from staggered_xx.quadrature import ToleranceNotReached
from point_reference import library_point

SEEDED = settings(derandomize=True, database=None, max_examples=40, deadline=None)
TOL = 1e-12

couplings = st.floats(-2.0, 2.0)
chains = st.builds(lambda j, b, B: ChainParams(1.0, j, b, B), couplings, couplings, couplings)
betas = st.floats(-2.0, math.log10(50.0)).map(lambda e: Thermal.finite(10.0**e))


def values(p, t) -> dict:
    """The finite-T quantities by name, from the library functions."""
    pair1, pair2 = c1(p, t), c2(p, t)
    return {
        "u": internal_energy(p, t),
        "m": magnetization(p, t),
        "m_s": staggered_magnetization(p, t),
        "c1_odd": pair1.odd,
        "c1_even": pair1.even,
        "c2_odd": pair2.odd,
        "c2_even": pair2.even,
        "witness_lhs": witness(p, t).lhs,
    }


def block_values(cells) -> list[dict]:
    """The quantities of ``values`` at each of the cells (p, t) of one block, from the record
    columns the CLI reads (``cli._quantity_columns``), none flagged."""
    names = ("u", "m", "m_s", "c1_odd", "c1_even", "c2_odd", "c2_even", "witness_lhs")
    beta = np.array([t.beta for _, t in cells])
    cols, marks = _quantity_columns(_columns([p for p, _ in cells]), beta, names)
    assert not any(map(any, marks))
    return [dict(zip(names, row)) for row in zip(*cols)]


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


@SEEDED
@given(chains, betas)
def test_witness_reads_the_exchange_energy(p, t):
    # u + B m + b m_s = J gu1 + j gs1: the field terms of the energy are
    # B m + b m_s, so the rest is the exchange energy, at finite T and T = 0
    for state in (t, Thermal.zero()):
        g = g1(p, state)
        field = p.B * magnetization(p, state) + p.b * staggered_magnetization(p, state)
        exchange = p.J * g.uniform + p.j * g.staggered
        assert abs(internal_energy(p, state) + field - exchange) <= TOL
        lhs = 4.0 * abs(exchange) / (abs(p.J - p.j) + abs(p.J + p.j))
        assert witness(p, state).lhs == lhs


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
            # the library's own integration (a one-cell record at finite T),
            # and at finite T the record columns of a block that also holds the unscaled cell
            gots = [values(big, scaled_t)]
            if not t.is_ground:
                gots.append(block_values([(p, t), (big, scaled_t)])[1])
            for got in gots:
                assert_energy(got.pop("u"), u, s)
                assert_close(got, want, 1e-10)
        assert_energy(energy(big), energy(p), s)
        assert abs(meyer_wallach(big) - meyer_wallach(p)) <= 1e-10


@st.composite
def fuzz_points(draw):
    """The whole domain ChainParams and Thermal accept: couplings log-uniform in 1e+-300
    with signs, each 0 one time in ten, J = |j| (the flat band) in 15% of draws, and beta
    log-uniform in 1e-12 .. 1e8 in the chain's units, a quarter of draws at T = 0; with a
    scan axis and its step in decades of the chain's largest field or coupling."""

    def coupling():
        if draw(st.integers(0, 9)) == 0:
            return 0.0
        return draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-300.0, 300.0))

    J, j, b, B = abs(coupling()), coupling(), coupling(), coupling()
    if draw(st.integers(0, 19)) < 3:
        j = math.copysign(J, j)
    scale = max(J, abs(j), abs(b)) or 1.0
    zero = draw(st.integers(0, 3)) == 0
    t = Thermal.zero() if zero else Thermal.finite(10.0 ** draw(st.floats(-12.0, 8.0)) / scale)
    axis, decade = draw(st.sampled_from(("B", "b", "j"))), draw(st.floats(-3.0, 0.0))
    return ChainParams(J, j, b, B), t, axis, decade


# the range of each printed quantity; u and energy_t0 in units of |B| + the band top
RANGES = {
    **dict.fromkeys(("u", "energy_t0", "m", "m_s", "m_t0"), (-1.0, 1.0)),
    **dict.fromkeys(("e_mw", "c1_odd", "c1_even", "c2_odd", "c2_even"), (0.0, 1.0)),
    "witness_lhs": (0.0, 2.0),  # a bond's exchange is at most twice its separable bound
}


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(fuzz_points())
# |B| past the largest float in the chain's units: a typed error
@example((ChainParams(4.8e-239, -2.8e-298, 6.3e-266, -1.1e111), Thermal(2.2e235), "B", -1.0))
# beta lam past the largest float: tanh reads its limit, with no warning
@example((ChainParams(5.0e-88, -7.9e-290, 4.6e-80, 6.0e269), Thermal(1.3e86), "b", -2.0))
# theta's squares underflow at an end of F: taken in units of 2^-600, m_s is a value
@example((ChainParams(0.0, -3.9e-145, -2.2e-262, 0.0), Thermal.zero(), "j", 0.0))
def test_every_point_and_short_scan_of_the_domain_is_in_range_flagged_or_refused(point):
    from staggered_xx.cli import QUANTITIES, T0_ONLY_QUANTITIES, run_point
    from staggered_xx.ground import qcp_scan
    from staggered_xx.quadrature import ToleranceNotReached

    p, t, axis, decade = point
    top = abs(p.B) + max(critical_fields(p))
    names = [q for q in QUANTITIES if t.is_ground or q not in T0_ONLY_QUANTITIES]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            record, flags = run_point(p, t, names)
        except ValueError as exc:
            with pytest.raises(type(exc)):  # the library refuses the point alike
                library_point(p, t, names)
            record, flags = {}, []
        else:  # a one-cell block: the library's values bit for bit, and its flags
            want, want_flags = library_point(p, t, names)
            assert ([*map(float.hex, record.values())], flags) == (
                [*map(float.hex, want.values())], want_flags)
        for name, v in record.items():
            if math.isnan(v):
                assert any(f.startswith(name + ":") for f in flags), (name, flags)
                continue
            lo, hi = RANGES[name]
            if name in ("u", "energy_t0") and top:
                v = v / top  # |u| <= |B| + max theta at any T
            assert lo - 1e-9 <= v <= hi + 1e-9, (name, v)
        step = (max(abs(v) for v in vars(p).values()) or 1.0) * 10.0**decade
        start, stop = getattr(p, axis) - 2.0 * step, getattr(p, axis) + 2.0 * step
        try:
            scan = qcp_scan(p, axis, start, stop, step)
        except (ValueError, ToleranceNotReached):
            return
    assert len(scan.values) == 3 and np.isfinite(scan.d2e).all()
    assert all(start <= v <= stop for v in scan.peaks)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(fuzz_points())
# |B| past the largest float in the chain's units: the record's ValueError
@example((ChainParams(1e-200, 0.0, 0.0, 1e200), Thermal.zero(), "B", 0.0))
# B underflows to -0.0 in the chain's units: m is +0.0
@example((ChainParams(1e-300, 1e300, 1e-310, -3e-300), Thermal.zero(), "B", 0.0))
def test_m_t0_and_e_mw_are_those_of_the_zero_temperature_record(point):
    """``magnetization_t0`` and ``meyer_wallach`` decide F as the T = 0 record does: they
    equal its m and e_mw, as ``point`` prints them, bit for bit wherever it is defined."""
    from staggered_xx.cli import run_point

    p = point[0]
    try:
        record, flags = run_point(p, Thermal.zero(), ["m_t0", "e_mw"])
    except ValueError as exc:
        for f in (magnetization_t0, meyer_wallach):
            with pytest.raises(type(exc)):
                f(p)
        return
    assert magnetization_t0(p).hex() == record["m_t0"].hex()
    if flags:  # m_s did not converge or is past the largest float
        assert flags == ["e_mw:" + flags[0].split(":")[1]], flags
        with pytest.raises((ToleranceNotReached, OverflowError)):
            meyer_wallach(p)
    else:
        assert meyer_wallach(p).hex() == record["e_mw"].hex()
