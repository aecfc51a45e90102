"""Zero-temperature closed forms, global entanglement, transition scans."""

import math
from dataclasses import replace

import numpy as np
import pytest

import staggered_xx.ground
from staggered_xx import quadrature
from staggered_xx import (
    ChainParams,
    GroundReport,
    PhaseRegion,
    QcpScan,
    Thermal,
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
from staggered_xx.model import _columns, _in_units


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


def test_f_is_decided_in_the_chains_units():
    # as every record read decides it: |B| past the largest float in the units of
    # max(J, |j|, |b|) is the record's ValueError, not a saturated chain, and at b = 0
    # not an m_s of 0 either, at both temperatures
    from staggered_xx.cli import run_point

    p = ChainParams(1e-200, 0.0, 0.0, 1e200)
    for f in (magnetization_t0, meyer_wallach, staggered_magnetization_t0,
              lambda p: staggered_xx.staggered_magnetization(p, Thermal.finite(1.0)),
              lambda p: staggered_xx.staggered_magnetization(p, Thermal.zero())):
        with pytest.raises(ValueError, match="past the largest float in the units"):
            f(p)
    # B underflows to -0.0 in the chain's units: m is +0.0, as ``point --q m_t0`` prints it
    p = ChainParams(1e-300, 1e300, 1e-310, -3e-300)
    record, flags = run_point(p, Thermal.zero(), ["m_t0"])
    assert magnetization_t0(p).hex() == record["m_t0"].hex() == "0x0.0p+0" and not flags


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


def test_energy_past_the_largest_float_is_an_overflow_error():
    # in the chain's units u is finite; taken out of them it passes the largest float,
    # as the T = 0 record reports it, and no overflow warning is raised on the way
    p = ChainParams(1.7e308, 1.7e308, 1.7e308, 0.0)
    with pytest.raises(OverflowError, match="u is past the largest float"):
        energy(p)
    with pytest.raises(OverflowError, match="u is past the largest float"):
        staggered_xx.internal_energy(p, Thermal.zero())  # the record's u
    with pytest.raises(OverflowError, match="u is past the largest float"):
        staggered_xx.ground_report(p)
    rows, codes, _ = staggered_xx.thermo._record(_columns([p]), np.array([math.inf]))
    assert rows["u"][0] == -math.inf and codes["u"][0] == 2


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


def test_qcp_scan_refuses_a_step_whose_square_is_not_normal(monkeypatch):
    # d2e divides by step**2: past 1.3e154 it overflows, below 1.5e-154 it is
    # subnormal or 0 and every d2e would read nan; both are refused first
    def no_energies(*args):
        raise AssertionError("energy computed before the step was checked")

    monkeypatch.setattr(staggered_xx.ground, "_integrate_cells", no_energies)
    p = ChainParams(J=1.0, j=0.5, b=0.3)
    for stop, step in ((1e200, 1e196), (1e-160, 1e-163), (1e155, 2e154), (1e-150, 1e-154)):
        with pytest.raises(ValueError, match="step\\^2 must be a normal float"):
            qcp_scan(p, "B", 0.0, stop, step)
    monkeypatch.undo()
    assert len(qcp_scan(p, "B", 0.0, 1.6e-152, 1.6e-153).values) == 9


def _energy_one_point(p):
    """ground.energy computed point by point, as the scalar one-piece engine sums it:
    theta_of_q at the nodes of each level, ``(fx * (jacobian * width)).sum()``, default
    tolerances."""
    k, J, j, b, B = (v.item() for v in _in_units(*_columns([p])))
    p = ChainParams(J, j, b, B)
    *_, lo, hi, outside = staggered_xx.ground._fill(p)
    filled = 0.0
    if lo < hi:
        width, total, value = hi - lo, 0.0, math.nan
        for h, distance, upper, jacobian in quadrature._LEVELS:
            nodes = np.where(upper, hi - distance * width, lo + distance * width)
            total += float((theta_of_q(p, nodes) * (jacobian * width)).sum())
            coarse, value = value, h * total
            if abs(value - coarse) <= 0.25 * max(1e-10, 1e-10 * abs(value)):
                break
        else:
            raise AssertionError(f"unconverged at {p}")
        filled = value
    return math.ldexp(-(2.0 / math.pi) * filled - abs(p.B) * outside, k)


_BIG, _SMALL = 2.0**560, 2.0**-560


@pytest.mark.parametrize(
    "p, axis, start, stop, step",
    [
        # critical fields 0.625 and 1.0625 on the grid: compensated, partial
        # (the lower one opens F) and saturated (the upper one closes it)
        (ChainParams(0.9375, 0.375, 0.5), "B", 0.0, 1.5, 0.0625),
        (ChainParams(1.0, 0.5, 0.3), "B", -2.0, 2.0, 0.005),
        (ChainParams(1.0, -1.2, 0.4, 0.9), "B", 0.3, 1.7, 0.01),
        # b through both critical fields, a flat-band line, the all-zero corner
        (ChainParams(1.0, 0.3, 0.0, 0.5), "b", -1.2, 1.2, 0.01),
        (ChainParams(1.0, 1.0, 0.0, 0.7), "b", -1.0, 1.0, 0.125),
        (ChainParams(0.0, 0.0, 0.0, 0.0), "b", -0.5, 0.5, 0.25),
        # j through J = |j| = 1 on the grid, at fields in every regime
        (ChainParams(1.0, 0.0, 0.2, 0.6), "j", -1.5, 1.5, 0.25),
        (ChainParams(1.0, 0.0, 0.0, 1.0), "j", -1.5, 1.5, 0.0625),
        (ChainParams(1.0, 0.0, 0.3, 1.5), "j", -2.0, 2.0, 0.02),
        # chains at 2^+-560, rescaled into their own units cell by cell
        # (a step's square is a normal float, so the windows at 2^560 are narrow)
        (ChainParams(_BIG, 0.5 * _BIG, 0.3 * _BIG), "B", 0.0, 2.0**515, 2.0**510),
        (ChainParams(_BIG, 0.5 * _BIG, 0.3 * _BIG), "B",
         math.hypot(1.0, 0.3) * _BIG - 2.0**519, math.hypot(1.0, 0.3) * _BIG + 2.0**519, 2.0**510),
        (ChainParams(_BIG, 0.5 * _BIG, 0.3 * _BIG, _BIG), "j", 0.5 * _BIG, 0.5 * _BIG + 2.0**516, 2.0**510),
        (ChainParams(_SMALL, 0.5 * _SMALL, 0.3 * _SMALL), "B", 0.0, 1e-150, 1e-151),
        (ChainParams(_SMALL, 0.5 * _SMALL, 0.3 * _SMALL, 1e-150), "b", -1e-150, 1e-150, 2.5e-151),
    ],
)
def test_qcp_scan_second_differences_match_per_point_energies(p, axis, start, stop, step):
    # the batched runs over the grid give every energy the scalar engine gave,
    # bit for bit, so the printed d2e cannot move
    scan = qcp_scan(p, axis, start, stop, step)
    grid = start + step * np.arange(len(scan.values) + 2)
    e = np.array([_energy_one_point(replace(p, **{axis: v})) for v in grid])
    assert np.array_equal(scan.values, grid[1:-1])
    assert np.array_equal(scan.d2e, (e[:-2] - 2.0 * e[1:-1] + e[2:]) / step**2)
    for v in grid[:: max(1, len(grid) // 7)]:
        assert energy(replace(p, **{axis: v})) == _energy_one_point(replace(p, **{axis: v}))


def test_qcp_scan_at_the_chains_own_scale():
    # (1, .5, .3) has its transitions at B = 0.5831 and 1.0440; scanned at scale s
    # the peaks sit at s times those, within two steps, and a chain below unit
    # scale is scanned in its own units, where tolerance and floor follow it
    s = 1e-6
    scan = qcp_scan(ChainParams(s, 0.5 * s, 0.3 * s), "B", 0.0, 2.0 * s, 5e-3 * s)
    assert len(scan.peaks) == 2
    for got, want in zip(scan.peaks, (0.585, 1.04)):
        assert abs(got - want * s) <= 2 * 5e-3 * s
    # exact powers of two: equal peaks and flags at every scale, out to 2^+-560,
    # where the step's square is a normal float only in the chain's units
    ref = qcp_scan(ChainParams(1.0, 0.5, 0.3), "B", 0.0, 2.0, 5e-3)
    for s in (2.0**20, 2.0**-20, 2.0**560, 2.0**-560):
        scan = qcp_scan(ChainParams(s, 0.5 * s, 0.3 * s), "B", 0.0, 2.0 * s, 5e-3 * s)
        assert np.array_equal(scan.values, ref.values * s)
        assert scan.peaks == tuple(v * s for v in ref.peaks)
        assert np.array_equal(np.abs(scan.d2e) > scan.threshold, np.abs(ref.d2e) > ref.threshold)


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


def test_long_qcp_scan_holds_columns_not_objects_per_chain():
    # the whole grid is one engine call, its chains read into numpy columns: about
    # 130 B a point at the peak, where a ChainParams or a tuple per chain passes 300 B
    import tracemalloc

    n = 20001
    tracemalloc.start()
    try:
        scan = qcp_scan(ChainParams(J=1.0, j=0.4, b=0.2, B=0.0), "B", 0.0, 2.0, 2.0 / (n - 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scan.values) == n - 2
    assert peak < 200 * n


def test_qcp_scan_builds_no_chain_per_grid_point(monkeypatch):
    # the grid is the column of its axis: a 10^4-point scan validates one ChainParams,
    # its chain in scan units, whichever axis it runs along
    built = []
    check = ChainParams.__post_init__
    monkeypatch.setattr(ChainParams, "__post_init__", lambda p: built.append(p) or check(p))
    p = ChainParams(J=1.0, j=0.4, b=0.2, B=0.7)
    counts = []
    for axis, start in (("B", 0.0), ("b", -1.0), ("j", -1.0)):
        built.clear()
        scan = qcp_scan(p, axis, start, start + 2.0, 2.0 / 9999)
        assert len(scan.values) == 9998
        counts.append(len(built))
    assert counts == [1, 1, 1]
