"""Zero-temperature closed forms, global entanglement, transition scans."""

import math
from dataclasses import replace

import numpy as np
import pytest

import staggered_xx.ground
from staggered_xx import (
    ChainParams,
    GroundReport,
    PhaseRegion,
    QcpScan,
    band_crossings,
    classify_region,
    critical_fields,
    energy,
    ground_report,
    magnetization_t0,
    meyer_wallach,
    qcp_scan,
    region_q,
    staggered_magnetization_t0,
    theta_of_q,
    xi,
)


def test_uniform_chain_anchors():
    p = ChainParams(J=1.0)
    assert math.isclose(energy(p), -2.0 / math.pi, abs_tol=1e-12)
    assert magnetization_t0(p) == 0.0
    assert math.isclose(meyer_wallach(p), 1.0, abs_tol=1e-12)


def test_partial_filling_magnetization_examples():
    # the crossing angle fixes the occupied fraction directly
    assert math.isclose(magnetization_t0(ChainParams(J=1.0, B=0.5)), 1.0 / 3.0, abs_tol=1e-12)
    # j > J at small field: compensated, no net moment
    assert magnetization_t0(ChainParams(J=1.0, j=2.0, B=0.5)) == 0.0
    # flat band below its single critical field: still compensated
    assert magnetization_t0(ChainParams(J=1.0, j=1.0, B=0.9)) == 0.0
    # saturated branch
    assert magnetization_t0(ChainParams(J=1.0, j=0.3, B=2.0)) == 1.0
    assert magnetization_t0(ChainParams(J=1.0, j=0.3, B=-2.0)) == -1.0
    # J < |j|: the share outside the filled interval is 2 xi/pi itself,
    # not 1 minus its width
    p = ChainParams(J=1.0, j=1.8, b=0.1, B=1.4)
    assert magnetization_t0(p) == 2.0 * xi(p) / math.pi


def test_flat_band_energy_closed_form():
    # J = j: bands are flat, energy per site -sqrt(J^2 + b^2) below the
    # critical field (strong-bond pair states)
    p = ChainParams(J=1.0, j=1.0, b=0.5, B=0.0)
    assert math.isclose(energy(p), -math.sqrt(1.25), abs_tol=1e-12)
    assert math.isclose(energy(replace(p, B=0.8)), -math.sqrt(1.25), abs_tol=1e-12)


def test_saturated_branch():
    for B in (2.0, -2.0, 1.5):
        p = ChainParams(J=1.0, j=0.5, b=0.6, B=B)
        if abs(B) >= critical_fields(p)[0]:
            assert energy(p) == -abs(B)
            assert magnetization_t0(p) == math.copysign(1.0, B)
            assert meyer_wallach(p) == 0.0


def test_meyer_wallach_examples_and_range():
    assert math.isclose(meyer_wallach(ChainParams(J=1.0, j=1.0, B=0.5)), 1.0, abs_tol=1e-12)
    assert math.isclose(
        meyer_wallach(ChainParams(J=1.0, j=1.0, b=1.0, B=0.5)), 0.5, abs_tol=1e-12
    )
    assert meyer_wallach(ChainParams(J=1.0, B=2.0)) == 0.0
    rng = np.random.default_rng(51)
    for _ in range(30):
        p = ChainParams(
            J=1.0,
            j=float(rng.uniform(0, 2)),
            b=float(rng.uniform(0, 2)),
            B=float(rng.uniform(0, 2)),
        )
        val = meyer_wallach(p)
        assert -1e-12 <= val <= 1.0 + 1e-12


def test_meyer_wallach_from_sublattice_moments():
    # identical through either route: 1 - (m^2 + m_s^2) or the sublattice
    # average 1 - ((m+m_s)^2 + (m-m_s)^2)/2
    rng = np.random.default_rng(52)
    for _ in range(15):
        p = ChainParams(
            J=1.0,
            j=float(rng.uniform(0, 2)),
            b=float(rng.uniform(0, 2)),
            B=float(rng.uniform(0, 2)),
        )
        if abs(p.J - abs(p.j)) < 1e-3:
            continue
        m = magnetization_t0(p)
        ms = staggered_magnetization_t0(p)
        via_sublattice = 1.0 - 0.5 * ((m + ms) ** 2 + (m - ms) ** 2)
        assert math.isclose(meyer_wallach(p), via_sublattice, abs_tol=1e-10)


def test_staggered_magnetization_t0_at_a_small_staggered_field():
    # XX chain at B = 0: m_s = (2b/pi) K(1/(1+b^2)) / sqrt(1+b^2), which
    # vanishes like b ln(1/b) while int dq/theta grows like ln(1/b)
    from scipy.special import ellipkm1

    for b in (1e-3, 1e-12, 1e-100):
        p = ChainParams(J=1.0, b=b)
        want = 2.0 * b / math.pi * ellipkm1(b * b / (1.0 + b * b)) / math.sqrt(1.0 + b * b)
        assert abs(staggered_magnetization_t0(p) - want) <= 1e-10
        assert abs(meyer_wallach(p) - (1.0 - want**2)) <= 1e-10


def test_energy_continuous_at_critical_fields():
    p = ChainParams(J=1.0, j=0.5, b=0.4)
    hi, lo = critical_fields(p)
    for bc in (hi, lo):
        below = energy(replace(p, B=bc - 1e-8))
        above = energy(replace(p, B=bc + 1e-8))
        assert abs(below - above) < 1e-6


def test_magnetization_odd_and_staggered_odd():
    p = ChainParams(J=1.0, j=0.6, b=0.5, B=0.9)
    assert magnetization_t0(replace(p, B=-p.B)) == -magnetization_t0(p)
    assert math.isclose(
        staggered_magnetization_t0(replace(p, b=-p.b)),
        -staggered_magnetization_t0(p),
        abs_tol=1e-12,
    )
    assert staggered_magnetization_t0(replace(p, b=0.0)) == 0.0


def test_ground_report_bundle():
    p = ChainParams(J=1.0, j=0.5, b=0.4, B=0.9)
    rep = ground_report(p)
    assert isinstance(rep, GroundReport)
    assert rep.region is PhaseRegion.PARTIAL
    assert rep.energy == energy(p)
    assert rep.m_g == magnetization_t0(p)
    assert math.isclose(rep.e_mw, meyer_wallach(p))
    assert rep.qcp_fields == critical_fields(p)


def test_qcp_scan_flags_known_transition():
    # B scan through the upper critical field sqrt(1 + 0.16) = 1.0770...
    p = ChainParams(J=1.0, j=0.5, b=0.4)
    bc = critical_fields(p)[0]
    scan = qcp_scan(p, "B", 0.9, 1.25, 5e-3)
    assert isinstance(scan, QcpScan)
    assert len(scan.peaks) == 1
    assert abs(scan.peaks[0] - bc) <= 5e-3
    assert len(scan.points) == len(scan.values)
    # scan entirely inside the saturated branch: energy linear, no peaks
    flat = qcp_scan(p, "B", 3.0, 3.5, 5e-3)
    assert flat.peaks == ()
    # no transition on this line: the window edge is not a local maximum
    edge = qcp_scan(ChainParams(J=1.0, j=0.22, b=0.2, B=0.11), "b", 0.0, 2.0, 5e-3)
    assert edge.peaks == ()


def test_qcp_scan_validation():
    p = ChainParams(J=1.0, j=0.5, b=0.4)
    with pytest.raises(ValueError):
        qcp_scan(p, "T", 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        qcp_scan(p, "B", 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        qcp_scan(p, "B", 0.0, 0.1, 0.1)


def test_qcp_scan_bounds_its_grid_before_allocating(monkeypatch):
    p = ChainParams(J=1.0, j=0.3, b=0.2)
    with pytest.raises(ValueError, match="1e\\+36 grid points, more than 1000000"):
        qcp_scan(p, "B", 0.0, 1e30, 1e-6)
    # stop - start overflows to inf
    with pytest.raises(ValueError, match="inf grid points"):
        qcp_scan(p, "B", -1e308, 1e308, 1.0)
    monkeypatch.setattr(staggered_xx.ground, "_MAX_SCAN_POINTS", 11)
    with pytest.raises(ValueError, match="12 grid points, more than 11"):
        qcp_scan(p, "B", 0.0, 1.1, 0.1)
    assert len(qcp_scan(p, "B", 0.0, 1.0, 0.1).values) == 9


def test_one_regime_decision_at_the_critical_fields():
    # B exactly at each critical field and one ulp either side: every ground
    # quantity, region_q and band_crossings read the same filled interval.
    rng = np.random.default_rng(61)
    checked = 0
    for _ in range(340):
        base = ChainParams(J=1.0, j=float(rng.uniform(-1.5, 1.5)), b=float(rng.uniform(-1, 1)))
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        for c in critical_fields(base):
            for babs in (math.nextafter(c, 0.0), c, math.nextafter(c, math.inf)):
                p = replace(base, B=sign * babs)
                region = classify_region(p)
                occupied = region_q(replace(p, B=babs))
                m, ms = magnetization_t0(p), staggered_magnetization_t0(p)
                saturated = region is PhaseRegion.SATURATED
                assert saturated == (occupied == ()) == (abs(m) == 1.0) == (ms == 0.0), p
                assert abs(m + ms) <= 1.0 and abs(m - ms) <= 1.0, p
                assert 0.0 <= meyer_wallach(p) <= 1.0, p
                ends = {q for interval in occupied for q in interval} - {0.0, math.pi}
                if saturated and band_crossings(p):
                    # the band top touches |B| at q = pi/2
                    assert band_crossings(p) == (math.pi / 2,) and base.J < abs(base.j), p
                    assert math.isclose(theta_of_q(p, math.pi / 2), babs, rel_tol=1e-15)
                else:
                    assert band_crossings(p) == tuple(sorted(ends)), p
                checked += 1
    assert checked == 2040


def test_saturated_at_the_upper_critical_field():
    # B equals sqrt(j^2 + b^2) to the last bit: saturated, so each sublattice
    # <sz> = m -+ m_s is exactly 1 (it was 1 + 8.7e-9)
    p = ChainParams(J=1.0, j=1.2042823728344505, b=-0.9388200339328929, B=1.526983657290913)
    assert p.B == max(critical_fields(p))
    assert classify_region(p) is PhaseRegion.SATURATED
    assert region_q(p) == ()
    assert magnetization_t0(p) == 1.0
    assert staggered_magnetization_t0(p) == 0.0
    assert meyer_wallach(p) == 0.0
    assert energy(p) == -p.B
