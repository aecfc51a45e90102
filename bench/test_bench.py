"""Tests of the benchmark itself: reference, tracer, inputs and runner.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_dimer_limit_matches_hand_derivation():
    # j = -J cuts every even bond: independent dimers with bond 2J on odd
    # bonds.  H_dimer = -(XX + YY) has levels -2, +2 (triplet/singlet with
    # zero magnetization) and 0, 0, so Z = 2 + 2 cosh 2 beta.
    beta = 0.7
    p = ref.Point(1.0, -1.0, 0.0, 0.0, beta)
    z = 2.0 + 2.0 * math.cosh(2 * beta)
    expected = {
        "u": -math.tanh(beta),
        "m": 0.0,
        "m_s": 0.0,
        "g1_odd": -2.0 * math.sinh(2 * beta) / z,
        "g1_even": 0.0,
        "zz1_odd": (2.0 - 2.0 * math.cosh(2 * beta)) / z,
        "c1_odd": 2.0 * (math.sinh(2 * beta) - 1.0) / z,
        "c1_even": 0.0,
    }
    ring = ref.quantities(p, ref.ring_primitives(p))
    spins = ref.kron_ed(p, 8)
    for key, want in expected.items():
        assert ring[key] == pytest.approx(want, abs=1e-14), key
        assert spins[key] == pytest.approx(want, abs=1e-12), key


def test_uniform_chain_ground_state_matches_hand_derivation():
    # J = 1, j = b = B = 0: the half-filled cosine band gives u = -2/pi,
    # <c_l^+ c_{l+1}> = 1/pi and <n> = 1/2, so C1 = 2 (1/pi - (1/4 - 1/pi^2)).
    p = ref.Point(1.0, 0.0, 0.0, 0.0, math.inf)
    got = ref.quantities(p, ref.ground_primitives(p))
    assert got["u"] == pytest.approx(-2.0 / math.pi, abs=1e-13)
    assert got["m"] == pytest.approx(0.0, abs=1e-13)
    assert got["g1_odd"] == pytest.approx(-2.0 / math.pi, abs=1e-13)
    c1 = 2.0 * (1.0 / math.pi - 0.25 + 1.0 / math.pi**2)
    assert got["c1_odd"] == pytest.approx(c1, abs=1e-13)
    assert got["c1_even"] == pytest.approx(c1, abs=1e-13)


def test_bloch_ring_equals_dense_real_space_ring():
    p = ref.Point(1.0, 0.37, -0.21, 0.63, 4.0)
    bloch = ref._ring_sums(p, p.beta, 32)
    dense = ref.dense_ring_primitives(p, 64)
    for key in ref.PRIMITIVES:
        assert bloch[key] == pytest.approx(dense[key], abs=1e-13), key


def test_parity_projected_spin_ring_equals_brute_force():
    p = ref.Point(1.0, -0.7, 0.45, -0.2, 1.6)
    fast, brute = ref.spin_ring(p, 8), ref.kron_ed(p, 8)
    for key, want in brute.items():
        assert fast[key] == pytest.approx(want, abs=1e-13), key


@pytest.mark.parametrize("beta", [2.0, math.inf])
def test_second_reference_agrees_with_primary(beta):
    p = ref.Point(1.0, 0.5, 0.3, 0.8, beta)
    first, second = ref.primitives(p), ref.mp_primitives(p)
    for key in ref.PRIMITIVES:
        assert first[key] == pytest.approx(second[key], abs=1e-13), key


def test_tolerances_propagate_the_promise():
    p = ref.Point(1.0, 0.5, 0.3, 0.8, 2.0)
    tols = ref.tolerances(p, ref.primitives(p))
    assert tols["u"] == pytest.approx(ref.PROMISE)
    assert all(t >= 0 for t in tols.values())
    # the witness carries B and b times the magnetization errors
    assert tols["witness_lhs"] > tols["u"]


def test_tracer_counts_quadrature_calls_of_one_point_by_hand():
    # u, m, m_s: 1 integral each; c1: m, m_s, g1 (2) = 4; c2: m, m_s, g1 (2),
    # g2 (2) = 6; witness: u, m, m_s = 3.  16 calls of 7 distinct integrals.
    from staggered_xx import ChainParams, Thermal, cli, entanglement, thermo

    before = (thermo.integrate, entanglement.g1, thermo.internal_energy)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_request(0)
        record, flags = cli.run_point(
            ChainParams(1.0, 0.5, 0.3, 0.8), Thermal.from_temperature(0.5), workloads.FINITE_T
        )
        tracer.end_request()
    finally:
        tracer.uninstall()
    assert not flags
    assert tracer.calls["quadrature"] == 16
    assert tracer.counts["quadrature.distinct"] == 7
    assert tracer.counts["quadrature.unconverged"] == 0
    assert tracer.calls["entanglement"] == 3  # c1 (shared by both parities), c2, witness
    assert (thermo.integrate, entanglement.g1, thermo.internal_energy) == before


def test_rounds_are_seeded_and_whole():
    for name in workloads.NAMES:
        w = workloads.make(name)
        a, b = w.round(5, 3), w.round(5, 3)
        assert [r["argv"] for r in a] == [r["argv"] for r in b]
        assert [r["argv"] for r in a] != [r["argv"] for r in w.round(6, 3)]
        assert len(a) == len(w.round(5, 4))


def test_no_concurrence_requested_in_polarized_states():
    pts = workloads.Points()
    for r in range(50):
        for req in pts.round(1, r):
            _, j, b, B, beta = req["point"]
            if math.isfinite(beta) and workloads.polarized(j, b, B, beta):
                assert not set(req["names"]) & set(workloads.CONCURRENCES)
    sweep = workloads.SweepThermal()
    for r in range(50):
        for req in sweep.round(1, r):
            for yv in sweep.values(req["y"]):
                for xv in sweep.values(req["x"]):
                    cell = {"j": 0.0, "b": 0.0, "B": 0.0, **req["fixed"]}
                    cell[req["x"]["name"]], cell[req["y"]["name"]] = xv, yv
                    assert not workloads.polarized(cell["j"], cell["b"], cell["B"], 1 / cell["T"])


def test_run_prints_one_checked_result():
    res = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "qcp-scan", "--seed", "3",
         "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 4
    assert set(out["metrics"]) == {"setup_s", "rows_per_s", "request_ms_p50", "peak_rss_mb"}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "points", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert res.returncode != 0
    assert res.stdout.strip() == ""
