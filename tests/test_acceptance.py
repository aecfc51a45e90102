"""Release acceptance suite: ten ordered gates, one PASS line each.

Every gate checks an end-to-end guarantee of the package against an
independent reference: dense diagonalization of small spin rings, finite
free-fermion momentum sums, finite differences of the free energy, or
frozen benchmark constants of the uniform chain.  Tolerances and runtime
budgets are pinned here; run with ``pytest -v`` to get the per-gate
pass/fail lines.
"""

import math
import time
from dataclasses import replace

import numpy as np

from staggered_xx import (
    ChainParams,
    FiniteChainSpec,
    QuadSpec,
    Thermal,
    c1,
    c2,
    critical_fields,
    dense_ed,
    energy,
    finite_free_fermion,
    g1,
    g_even,
    g_odd,
    integrate,
    internal_energy,
    ln_z_per_site,
    magnetization,
    magnetization_t0,
    meyer_wallach,
    qcp_scan,
    sigma_z,
    staggered_magnetization,
    staggered_magnetization_t0,
    theta_of_q,
    witness,
    zz_correlator,
)
from staggered_xx.cli import main
from staggered_xx.oracle import _bloch_blocks
from staggered_xx.thermo import _difference_ratio

TIGHT = QuadSpec(abs_tol=1e-13, rel_tol=1e-13)

# Riemann-sum convergence is probed at these frozen couplings (J = 1):
# (j, b, B, beta), all away from criticality and from J = j.
FROZEN_POINTS = (
    (0.5, 0.5, 0.9, 500.0),
    (0.3, 0.2, 0.7, 400.0),
    (1.5, 0.4, 1.2, 350.0),
    (0.7, 0.3, 0.95, 600.0),
    (0.2, 0.6, 0.85, 450.0),
    (1.7, 0.3, 1.15, 700.0),
    (0.4, 0.45, 0.8, 550.0),
    (0.6, 0.15, 0.75, 350.0),
    (0.15, 0.5, 0.75, 450.0),
    (0.35, 0.55, 0.95, 400.0),
)

# Dense diagonalization is compared at these non-critical thermal points.
ED_POINTS = (
    (0.3, 0.4, 0.9, 2.0),
    (0.5, 0.0, 0.7, 1.5),
    (0.0, 0.5, 0.0, 3.0),
    (0.8, 0.3, 1.2, 1.0),
    (0.2, 0.2, 0.6, 2.5),
)

# Nearest-neighbour concurrence of the uniform chain at zero field and
# temperature: |G1| - (1 - G1^2)/2 with G1 = -2/pi.
UNIFORM_CHAIN_C1 = 2.0 / math.pi - 0.5 * (1.0 - 4.0 / math.pi**2)


def _pass(gate: str, detail: str) -> None:
    print(f"ACCEPT {gate}: PASS ({detail})")


def _random_noncritical(rng) -> ChainParams:
    """Draw couplings with j, b, B in [0, 2], away from the two critical
    fields and from the flat-band line J = j."""
    while True:
        jj, bb, BB = rng.uniform(0.0, 2.0, size=3)
        p = ChainParams(J=1.0, j=float(jj), b=float(bb), B=float(BB))
        outer, inner = critical_fields(p)
        if abs(p.B - outer) < 1e-3 or abs(p.B - inner) < 1e-3:
            continue
        if abs(p.J - p.j) < 1e-3:
            continue
        return p


def test_01_closed_forms_match_zero_temperature_quadrature():
    # Ground-state closed forms against direct quadrature of the T = 0
    # integrands at 200 random non-critical couplings, 1e-8 agreement,
    # under a minute.
    rng = np.random.default_rng(20260814)
    t = Thermal.zero()
    started = time.monotonic()
    worst = 0.0
    for _ in range(200):
        p = _random_noncritical(rng)
        m_int = magnetization(p, t)
        ms_int = staggered_magnetization(p, t)
        worst = max(
            worst,
            abs(energy(p) - internal_energy(p, t)),
            abs(magnetization_t0(p) - m_int),
            abs(staggered_magnetization_t0(p) - ms_int),
            abs(meyer_wallach(p) - (1.0 - m_int * m_int - ms_int * ms_int)),
        )
    elapsed = time.monotonic() - started
    assert worst < 1e-8
    assert elapsed < 60.0
    _pass("01 closed forms vs T=0 quadrature", f"worst {worst:.2e}, {elapsed:.1f}s")


def test_02_momentum_block_spectrum_identity():
    # Numerical eigenvalues of every sampled 2x2 Bloch block of the
    # free-fermion oracle, built from the real-space hoppings, match the
    # closed form -(2B -+ 2 theta(q)) to 1e-12 over 1e4 random (p, k, N),
    # where q = 2 pi k / N is half the cell momentum.
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(10_000):
        p = ChainParams(
            J=float(rng.uniform(0.1, 2.0)),
            j=float(rng.uniform(-2.0, 2.0)),
            b=float(rng.uniform(-2.0, 2.0)),
            B=float(rng.uniform(-2.0, 2.0)),
        )
        n = 2 * int(rng.integers(2, 2048))
        k = int(rng.integers(0, n // 2))
        e, h = _bloch_blocks(p, n)
        lo, hi = np.ldexp(np.linalg.eigvalsh(h[k]), e)
        th = float(theta_of_q(p, 2.0 * math.pi * k / n))
        worst = max(worst, abs(lo - (-2.0 * p.B - 2.0 * th)), abs(hi - (-2.0 * p.B + 2.0 * th)))
    assert worst < 1e-12
    _pass("02 momentum block spectrum", f"worst {worst:.2e} over 1e4 draws")


def test_03_free_energy_derivative_identities():
    # Central differences of ln z per site reproduce the five conjugate
    # observables to 1e-5 on a 5 x 5 x 3 grid, under a minute:
    #   (1/beta) d/dB -> m            (1/beta) d/db -> m_s
    #   -d/dbeta      -> u
    #   -(1/beta) d/dJ -> G1 uniform  -(1/beta) d/dj -> G1 staggered
    h = 1e-4
    started = time.monotonic()
    worst = 0.0
    for jj in np.linspace(0.1, 1.9, 5):
        for BB in np.linspace(0.1, 1.9, 5):
            for beta in (0.7, 2.0, 5.0):
                p = ChainParams(J=1.0, j=float(jj), b=0.45, B=float(BB))
                t = Thermal.finite(beta)

                def lnz(pp, tt=t):
                    return ln_z_per_site(pp, tt, TIGHT)

                d_B = (lnz(replace(p, B=p.B + h)) - lnz(replace(p, B=p.B - h))) / (2 * h)
                d_b = (lnz(replace(p, b=p.b + h)) - lnz(replace(p, b=p.b - h))) / (2 * h)
                d_J = (lnz(replace(p, J=p.J + h)) - lnz(replace(p, J=p.J - h))) / (2 * h)
                d_j = (lnz(replace(p, j=p.j + h)) - lnz(replace(p, j=p.j - h))) / (2 * h)
                d_beta = (
                    ln_z_per_site(p, Thermal.finite(beta + h), TIGHT)
                    - ln_z_per_site(p, Thermal.finite(beta - h), TIGHT)
                ) / (2 * h)
                pair = g1(p, t, TIGHT)
                worst = max(
                    worst,
                    abs(d_B / beta - magnetization(p, t, TIGHT)),
                    abs(d_b / beta - staggered_magnetization(p, t, TIGHT)),
                    abs(-d_beta - internal_energy(p, t, TIGHT)),
                    abs(-d_J / beta - pair.uniform),
                    abs(-d_j / beta - pair.staggered),
                )
    elapsed = time.monotonic() - started
    assert worst < 1e-5
    assert elapsed < 60.0
    _pass("03 free-energy derivatives", f"worst {worst:.2e}, {elapsed:.1f}s")


def test_04_finite_ring_sums_converge_to_integrals():
    # Momentum sums on rings of 2^8, 2^10, 2^12 sites approach the bulk
    # integrals with strictly decreasing error; final error < 1e-4 for
    # u, m, m_s and the first three transverse correlator pairs.
    for jj, bb, BB, beta in FROZEN_POINTS:
        p = ChainParams(J=1.0, j=jj, b=bb, B=BB)
        t = Thermal.finite(beta)
        refs = {
            "u": internal_energy(p, t, TIGHT),
            "m": magnetization(p, t, TIGHT),
            "m_s": staggered_magnetization(p, t, TIGHT),
        }
        pair_refs = {
            1: g1(p, t, TIGHT),
            2: g_even(p, t, 2, TIGHT),
            3: g_odd(p, t, 3, TIGHT),
        }
        errors = {key: [] for key in ("u", "m", "m_s", 1, 2, 3)}
        for n in (2**8, 2**10, 2**12):
            res = finite_free_fermion(FiniteChainSpec(n, p, t))
            errors["u"].append(abs(res.u - refs["u"]))
            errors["m"].append(abs(res.m - refs["m"]))
            errors["m_s"].append(abs(res.m_s - refs["m_s"]))
            for r, ref in pair_refs.items():
                errors[r].append(
                    max(
                        abs(res.g[r].uniform - ref.uniform),
                        abs(res.g[r].staggered - ref.staggered),
                    )
                )
        for key, errs in errors.items():
            assert errs[0] > errs[1] > errs[2], (jj, bb, BB, beta, key, errs)
            assert errs[2] < 1e-4, (jj, bb, BB, beta, key, errs)
    _pass("04 finite-ring convergence", f"{len(FROZEN_POINTS)} points, 6 observables each")


def test_05_dense_diagonalization_convergence_and_dimer():
    # Rings of 8, 10, 12 spins close in on the bulk analytics for the
    # nearest-neighbour concurrence, parity-resolved <sz> and the
    # longitudinal correlators at separations 1 and 2: gaps shrink
    # monotonically (1e-3 slack for even/odd ring alternation) and end
    # below 0.02.  The fully dimerized point is reproduced exactly.
    final_worst = 0.0
    for jj, bb, BB, beta in ED_POINTS:
        p = ChainParams(J=1.0, j=jj, b=bb, B=BB)
        t = Thermal.finite(beta)
        pair = c1(p, t)
        targets = {}
        for par in ("odd", "even"):
            targets[("c1", par)] = getattr(pair, par)
            targets[("sz", par)] = sigma_z(p, t, par)
            targets[("zz1", par)] = zz_correlator(p, t, par, 1)
            targets[("zz2", par)] = zz_correlator(p, t, par, 2)
        gaps = {key: [] for key in targets}
        for n in (8, 10, 12):
            ed = dense_ed(FiniteChainSpec(n, p, t))
            for par in ("odd", "even"):
                gaps[("c1", par)].append(abs(ed.concurrence[(par, 1)] - targets[("c1", par)]))
                gaps[("sz", par)].append(abs(ed.sigma_z[par] - targets[("sz", par)]))
                gaps[("zz1", par)].append(abs(ed.zz[(par, 1)] - targets[("zz1", par)]))
                gaps[("zz2", par)].append(abs(ed.zz[(par, 2)] - targets[("zz2", par)]))
        for key, g in gaps.items():
            assert g[1] <= g[0] + 1e-3, (jj, bb, BB, beta, key, g)
            assert g[2] <= g[1] + 1e-3, (jj, bb, BB, beta, key, g)
            assert g[2] < 0.02, (jj, bb, BB, beta, key, g)
            final_worst = max(final_worst, g[2])

    # J = j, b = B = 0: strong bonds carry isolated singlets, weak bonds
    # nothing, so c1 = (0, 1), c2 = (0, 0) exactly, and an 8-spin ring
    # realizes the same product state.
    dimer = ChainParams(J=1.0, j=1.0, b=0.0, B=0.0)
    t0 = Thermal.zero()
    pair1, pair2 = c1(dimer, t0), c2(dimer, t0)
    assert abs(pair1.odd) < 1e-10 and abs(pair1.even - 1.0) < 1e-10
    assert abs(pair2.odd) < 1e-10 and abs(pair2.even) < 1e-10
    ed = dense_ed(FiniteChainSpec(8, dimer, t0))
    assert abs(ed.concurrence[("odd", 1)]) < 1e-10
    assert abs(ed.concurrence[("even", 1)] - 1.0) < 1e-10
    assert abs(ed.concurrence[("odd", 2)]) < 1e-10
    assert abs(ed.concurrence[("even", 2)]) < 1e-10
    _pass("05 dense-diagonalization convergence", f"final gap worst {final_worst:.3f}, dimer exact")


def test_06_transition_scan_finds_known_critical_fields():
    # Curvature scans flag the closed-form critical staggered fields to
    # within one scan step, and the ground-state magnetization kinks
    # there with a one-sided slope gap well above 0.1.
    step = 5e-3
    scan1 = qcp_scan(ChainParams(J=1.0, j=0.3, b=0.0, B=0.5), "b", 0.2, 0.6, step)
    assert len(scan1.peaks) == 1
    assert abs(scan1.peaks[0] - 0.4) <= step

    # B = 1.5 crosses both boundaries along b: sqrt(B^2 - J^2) and
    # sqrt(B^2 - j^2).
    scan2 = qcp_scan(ChainParams(J=1.0, j=0.5, b=0.0, B=1.5), "b", 0.9, 1.7, step)
    targets = (math.sqrt(1.5**2 - 1.0), math.sqrt(1.5**2 - 0.25))
    assert len(scan2.peaks) == 2
    for peak, target in zip(scan2.peaks, targets):
        assert abs(peak - target) <= step

    base = ChainParams(J=1.0, j=0.5, b=0.4, B=0.0)
    h = 1e-4
    gaps = []
    for bc in critical_fields(base):
        def m_at(B):
            return magnetization_t0(replace(base, B=B))

        left = (m_at(bc - h) - m_at(bc - 2 * h)) / h
        right = (m_at(bc + 2 * h) - m_at(bc + h)) / h
        gaps.append(abs(right - left))
        assert gaps[-1] > 0.1
    _pass(
        "06 transition detection",
        f"peaks {scan1.peaks + scan2.peaks}, slope gaps {gaps[0]:.1f}/{gaps[1]:.1f}",
    )


def test_07_witness_value_and_soundness():
    # Uniform chain at T = 0: witness left-hand side equals 4/pi.  Across
    # the four (B, b) panels on a 21 x 21 (T, j) grid, every point the
    # witness flags carries positive concurrence somewhere in c1/c2, and
    # the infinite-temperature limit kills the witness.
    xx = ChainParams(J=1.0, j=0.0, b=0.0, B=0.0)
    w0 = witness(xx, Thermal.zero())
    assert abs(w0.lhs - 4.0 / math.pi) < 1e-9

    detected = 0
    worst_conc = math.inf
    for B, b in ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)):
        for temp in np.linspace(0.0, 2.0, 21):
            t = Thermal.zero() if temp == 0.0 else Thermal.from_temperature(float(temp))
            for jj in np.linspace(0.0, 2.0, 21):
                p = ChainParams(J=1.0, j=float(jj), b=b, B=B)
                if not witness(p, t).detected:
                    continue
                detected += 1
                pair1, pair2 = c1(p, t), c2(p, t)
                best = max(pair1.odd, pair1.even, pair2.odd, pair2.even)
                worst_conc = min(worst_conc, best)
                assert best > 1e-12, (B, b, float(temp), float(jj), best)

    assert detected > 0
    hot = witness(xx, Thermal.finite(1e-8))
    assert abs(hot.lhs) < 1e-6
    _pass(
        "07 witness value and soundness",
        f"lhs=4/pi exact, {detected} detections, weakest concurrence {worst_conc:.3f}",
    )


def test_08_uniform_chain_concurrence_benchmark():
    # Zero-field uniform chain at T = 0: the nearest-neighbour
    # concurrence equals 2/pi - (1 - 4/pi^2)/2 = 0.339262...
    pair = c1(ChainParams(J=1.0), Thermal.zero())
    assert abs(pair.odd - UNIFORM_CHAIN_C1) < 1e-6
    assert abs(pair.even - UNIFORM_CHAIN_C1) < 1e-6
    _pass("08 uniform-chain concurrence", f"{pair.odd:.12f} vs {UNIFORM_CHAIN_C1:.12f}")


def test_09_symmetry_suite():
    # Structural identities that must hold at any coupling:
    #  - the antisymmetric even-separation kernel integrates to zero,
    #  - m is odd in B, m_s is odd in b,
    #  - c1 is parity-blind once the bond alternation vanishes,
    #  - the global entanglement and all concurrences stay inside [0, 1].
    rng = np.random.default_rng(93)
    for _ in range(3):
        p = ChainParams(
            J=1.0,
            j=float(rng.uniform(0.1, 1.9)),
            b=float(rng.uniform(0.1, 1.9)),
            B=float(rng.uniform(0.1, 1.9)),
        )
        t = Thermal.finite(float(rng.uniform(0.5, 6.0)))

        def ratio(q):
            th = theta_of_q(p, q)
            tanh_diff = np.tanh(t.beta * (p.B + th)) - np.tanh(t.beta * (p.B - th))
            return _difference_ratio(t.beta, p.B, th, tanh_diff)

        for r in (2, 4, 6):
            val = integrate(lambda q: p.b * np.sin(q * r) * ratio(q)).value
            assert abs(val) / (2.0 * math.pi) < 1e-10

        assert math.isclose(
            magnetization(replace(p, B=-p.B), t), -magnetization(p, t), abs_tol=1e-10
        )
        assert math.isclose(
            staggered_magnetization(replace(p, b=-p.b), t),
            -staggered_magnetization(p, t),
            abs_tol=1e-10,
        )

    blind = c1(ChainParams(J=1.0, j=0.0, b=0.6, B=0.4), Thermal.finite(2.0))
    assert blind.odd == blind.even

    for _ in range(20):
        p = _random_noncritical(rng)
        t = Thermal.zero() if rng.uniform() < 0.3 else Thermal.finite(float(rng.uniform(0.5, 50.0)))
        e_mw = meyer_wallach(p) if t.is_ground else None
        if e_mw is not None:
            assert -1e-12 <= e_mw <= 1.0 + 1e-12
        for pair in (c1(p, t), c2(p, t)):
            for val in (pair.odd, pair.even):
                assert -1e-12 <= val <= 1.0 + 1e-12
    _pass("09 symmetry suite", "kernel zero, parity flips, ranges")


def test_10_sweep_is_deterministic(tmp_path):
    # The same 50 x 50 sweep twice produces byte-identical CSV files in
    # under two minutes total.
    args = [
        "sweep",
        "--j", "0.3",
        "--b", "0.2",
        "--x", "B 0 2 50",
        "--y", "T 0.05 2 50",
        "--q", "u,m,c1_odd",
    ]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    started = time.monotonic()
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    elapsed = time.monotonic() - started
    bytes_a = out_a.read_bytes()
    assert bytes_a == out_b.read_bytes()
    assert bytes_a.count(b"\n") == 2501
    assert elapsed < 120.0
    _pass("10 sweep determinism", f"2500 rows byte-identical, {elapsed:.1f}s total")
