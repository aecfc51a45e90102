"""Command-line interface: CSV format, determinism, exit codes, configs."""

import csv
import io
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from staggered_xx import (
    ChainParams,
    Thermal,
    c1,
    energy,
    g_site,
    internal_energy,
    magnetization,
    staggered_magnetization,
    witness,
    zz_correlator,
)
from staggered_xx import cli, quadrature
from staggered_xx.cli import main
from staggered_xx.entanglement import c2


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return header, body


FINITE_T = "u,m,m_s,c1_odd,c1_even,c2_odd,c2_even,witness_lhs"


def fmt12(v):
    # the CLI's cell format: 12 significant digits, bare "0" for zero
    return "0" if v == 0.0 else f"{v:.12g}"


def test_point_matches_library(capsys):
    code, out, _ = run_cli(
        ["point", "--j", "0.5", "--b", "0.3", "--B", "0.7", "--beta", "2", "--q", "u,m"],
        capsys,
    )
    assert code == 0
    header, body = parse_csv(out)
    assert header == ["u", "m", "err_flags"]
    (row,) = body
    p = ChainParams(J=1.0, j=0.5, b=0.3, B=0.7)
    t = Thermal.finite(2.0)
    assert math.isclose(float(row[0]), internal_energy(p, t), rel_tol=1e-10)
    assert math.isclose(float(row[1]), magnetization(p, t), rel_tol=1e-10)
    assert row[2] == ""


def test_point_ground_state_quantities(capsys):
    code, out, _ = run_cli(
        ["point", "--B", "0.5", "--T", "0", "--q", "energy_t0,m_t0,e_mw"], capsys
    )
    assert code == 0
    header, body = parse_csv(out)
    (row,) = body
    assert math.isclose(float(row[0]), energy(ChainParams(J=1.0, B=0.5)), rel_tol=1e-10)
    assert math.isclose(float(row[1]), 1.0 / 3.0, rel_tol=1e-10)


@pytest.mark.parametrize(
    "argv, want",
    [
        # the flat band J = |j| at its level is saturated: m = m_t0 = 1
        (["--j", "1", "--B", "1"], {"m": "1", "m_s": "0", "c1_odd": "0"}),
        (["--j", "1", "--b", "0.5", "--B", "1.118033988749895"], {"m": "1", "m_s": "0"}),
        # B at a critical field
        (["--j", "0.5", "--B", "0.5"], {"m": "0"}),
        (["--b", "0.5", "--B", "0.5"], {"m": "0"}),
        (["--j", "0.2", "--B", "1"], {"m": "1", "m_s": "0"}),
    ],
)
def test_point_at_zero_temperature_reads_the_filled_interval(argv, want, capsys):
    # u, m and m_s at T = 0 are the ground-state closed forms and the
    # contractions integrals over F, so no sign function ties at theta = |B|
    code, out, err = run_cli(["point", *argv, "--T", "0", "--q", ",".join(cli.QUANTITIES)], capsys)
    assert (code, err) == (0, "")
    header, (row,) = parse_csv(out)
    got = dict(zip(header, row))
    assert got["err_flags"] == ""
    assert (got["m"], got["u"]) == (got["m_t0"], got["energy_t0"])
    assert {name: got[name] for name in want} == want


def test_point_rejects_t0_only_quantity_at_finite_temperature(capsys):
    code, _, err = run_cli(["point", "--T", "0.5", "--q", "energy_t0"], capsys)
    assert code == 2
    assert "energy_t0" in err


def test_point_unknown_quantity(capsys):
    code, _, err = run_cli(["point", "--T", "0.5", "--q", "entropy"], capsys)
    assert code == 2
    assert "entropy" in err
    # the error lists the choices in this order
    assert cli.QUANTITIES == (
        "u", "m", "m_s", "e_mw", "c1_odd", "c1_even", "c2_odd", "c2_even",
        "witness_lhs", "energy_t0", "m_t0",
    )
    assert ", ".join(cli.QUANTITIES) in err
    assert cli.T0_ONLY_QUANTITIES == frozenset({"e_mw", "energy_t0", "m_t0"})


def test_sweep_csv_shape_and_format(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = [
        "sweep", "--j", "0.4", "--T", "0.5",
        "--x", "B 0 1 2", "--y", "b 0 1 2", "--q", "u,m", "--out", str(out),
    ]
    assert main(argv) == 0
    data = out.read_bytes()
    lines = data.split(b"\r\n")
    assert lines[-1] == b""  # trailing CRLF
    assert lines[0] == b"x,y,u,m,err_flags"
    assert len(lines) == 6  # header + 4 cells + trailing
    # x varies fastest within each y block
    cells = [ln.split(b",")[:2] for ln in lines[1:5]]
    assert cells == [
        [b"0", b"0"], [b"1", b"0"], [b"0", b"1"], [b"1", b"1"],
    ]
    assert b"." in data.split(b"\r\n")[1].split(b",")[2]  # decimal point, not comma
    # byte-identical on re-run
    out2 = tmp_path / "sweep2.csv"
    argv[-1] = str(out2)
    assert main(argv) == 0
    assert out2.read_bytes() == data


def test_sweep_workers_do_not_change_bytes(tmp_path):
    base = [
        "sweep", "--j", "0.3", "--b", "0.2", "--beta", "1.5",
        "--x", "B 0 1.5 4", "--y", "j 0 1 3", "--q", "u,m,m_s,c1_odd",
    ]
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert main(base + ["--out", str(serial)]) == 0
    assert main(base + ["--out", str(parallel), "--workers", "3"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    # rows that mix T = 0 cells with batched finite-T cells
    mixed = ["sweep", "--j", "0.3", "--b", "0.2", "--x", "T 0 0.003 3", "--y", "B 0.5 1.1 2",
             "--q", FINITE_T]
    assert main(mixed + ["--out", str(serial)]) == 0
    assert main(mixed + ["--out", str(parallel), "--workers", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_mixed_rows_flag_only_their_failing_cells(tmp_path, monkeypatch):
    # J = 0 and b = 2^560: every row holds a J = j = 0 cell (no witness
    # bound), a saturated cell and a partly filled one, each rescaled by its
    # own power of two; the T = 0 row reads the ground closed forms.  Four
    # levels resolve the finite-T cells except the partly filled one, whose
    # thermal layer is beta |theta'| ~ 1e3 sharp in its own units.
    monkeypatch.setattr(quadrature, "_LEVELS", quadrature._LEVELS[:4])
    s = 2.0**560
    argv = ["sweep", "--J", "0", "--b", repr(s), "--B", repr(1.5 * s),
            "--x", f"j 0 {2 * s!r} 3", "--y", f"T 0 {s / 250!r} 2", "--q", FINITE_T]
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert main(argv + ["--out", str(serial)]) == 3
    assert main(argv + ["--out", str(parallel), "--workers", "2"]) == 3
    assert serial.read_bytes() == parallel.read_bytes()
    with open(serial, newline="") as f:
        rows = list(csv.reader(f))[1:]
    unconverged = ";".join(f"{name}:tolerance" for name in FINITE_T.split(","))
    want = [["witness_lhs:error", "", ""], ["witness_lhs:error", "", unconverged]]
    assert [[row[-1] for row in rows[i : i + 3]] for i in (0, 3)] == want
    for row in rows:
        values = dict(zip(FINITE_T.split(","), row[2:-1]))
        if row[-1] != unconverged:
            assert all(v != "nan" for k, v in values.items() if k not in row[-1])


def _sweep_cells(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    return {(row[0], row[1]): row[2:] for row in parse_csv(out)[1]}


def _point_cells(argv, capsys):
    code, out, _ = run_cli(["point", *argv, "--q", FINITE_T], capsys)
    assert code == 0
    return parse_csv(out)[1][0]


def test_sweep_cells_match_point_by_engine(capsys):
    # T = 0 cells go through the ground closed forms, as point does, byte for
    # byte; finite-T cells read the batched band integrals and may differ from
    # point in the last printed digits only, beta = 1e5 included
    for sweep, point_args in (
        (["--j", "0.3", "--b", "0.2", "--x", "T 0 0.003 3", "--y", "B 0.5 1.1 2"],
         lambda x, y: ["--j", "0.3", "--b", "0.2", "--B", y, "--T", x]),
        (["--beta", "1e5", "--b", "0.2", "--x", "B 0.5 0.9 2", "--y", "j 0.2 0.4 2"],
         lambda x, y: ["--b", "0.2", "--B", x, "--j", y, "--beta", "1e5"]),
    ):
        cells = _sweep_cells(["sweep", *sweep, "--q", FINITE_T], capsys)
        for (x, y), row in cells.items():
            point = _point_cells(point_args(x, y), capsys)
            if x == "0":
                assert row == point, (x, y)
            else:
                assert all(abs(float(a) - float(b)) < 1e-10 for a, b in zip(row[:-1], point[:-1]))
                assert row[-1] == point[-1] == ""


def test_finite_temperature_sweep_makes_no_adaptive_call(monkeypatch, capsys):
    from staggered_xx import correlations, ground, thermo

    def no_adaptive(*args, **kwargs):
        raise AssertionError("adaptive quadrature called in a finite-T sweep")

    for module in (thermo, correlations, ground):
        monkeypatch.setattr(module, "integrate", no_adaptive)
    cells = _sweep_cells(
        ["sweep", "--j", "0.4", "--b", "0.2", "--x", "B -1.5 1.5 4", "--y", "T 0.05 2 3",
         "--q", FINITE_T], capsys,
    )
    assert all(row[-1] == "" for row in cells.values())
    # a quantity that fails is flagged like a point's: the witness at J = j = 0
    code, out, _ = run_cli(
        ["sweep", "--J", "0", "--T", "0.5", "--x", "j -1 1 3", "--y", "B 0 1 2", "--q", FINITE_T],
        capsys,
    )
    assert code == 3
    flags = {(row[0], row[1]): row[-1] for row in parse_csv(out)[1]}
    assert flags == {(x, y): "witness_lhs:error" if x == "0" else ""
                     for y in ("0", "1") for x in ("-1", "0", "1")}


def test_sweep_pool_is_limited_to_rows_and_cores(monkeypatch, tmp_path):
    # a fake pool: no process starts, whatever --workers asks for
    import concurrent.futures

    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    base = ["sweep", "--T", "0.5", "--x", "B 0 1 2", "--y", "b 0 1 3", "--q", "u,m"]
    serial = tmp_path / "serial.csv"
    assert main(base + ["--out", str(serial)]) == 0
    cases = (("1000", 8, [3]), ("1000", 2, [2]), ("2", 8, [2]), ("1000", 1, []))
    for workers, cores, pool in cases:
        monkeypatch.setattr(cli.os, "cpu_count", lambda cores=cores: cores)
        started.clear()
        out = tmp_path / f"{workers}-{cores}.csv"
        assert main(base + ["--workers", workers, "--out", str(out)]) == 0
        assert started == pool
        assert out.read_bytes() == serial.read_bytes()


def test_negative_number_with_exponent_after_its_flag(capsys):
    for spaced, attached in (
        (["point", "--b", "-2e-05", "--T", "0.5", "--q", "m_s"],
         ["point", "--b=-2e-05", "--T", "0.5", "--q", "m_s"]),
        (["qcp-scan", "--axis", "B", "--start", "-1E-1", "--stop", "1", "--step", "0.25"],
         ["qcp-scan", "--axis", "B", "--start=-1E-1", "--stop", "1", "--step", "0.25"]),
    ):
        got = run_cli(spaced, capsys)
        assert got[0] == 0
        assert got == run_cli(attached, capsys)


def test_sweep_temperature_axis_conflicts(capsys):
    code, _, err = run_cli(
        ["sweep", "--T", "0.5", "--x", "T 0.1 1 3", "--y", "B 0 1 3", "--q", "u"],
        capsys,
    )
    assert code == 2
    code, _, err = run_cli(
        ["sweep", "--x", "T 0.1 1 3", "--y", "B 0 1 3", "--q", "energy_t0"], capsys
    )
    assert code == 2
    assert "energy_t0" in err
    code, _, err = run_cli(
        ["sweep", "--x", "B 0 1 3", "--y", "B 0 1 3", "--q", "u"], capsys
    )
    assert code == 2


def test_second_neighbour_concurrence_parity_blind_without_staggered_field(tmp_path):
    # at b = 0 every factor of the distance-2 formula is parity-even
    # (the alternating coupling j only enters through the symmetric
    # product of the two bond correlators), so the columns coincide
    out = tmp_path / "c2.csv"
    argv = [
        "sweep", "--j", "0.2",
        "--x", "T 0 0.4 3", "--y", "B 0.5 1 3",
        "--q", "c2_odd,c2_even", "--out", str(out),
    ]
    assert main(argv) == 0
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 9
    for row in rows:
        assert abs(float(row["c2_odd"]) - float(row["c2_even"])) < 1e-9
    assert any(float(r["c2_odd"]) > 1e-3 for r in rows)
    # spot check one cell against the library
    pair = c2(ChainParams(J=1.0, j=0.2, B=0.75), Thermal.from_temperature(0.2))
    mid = [r for r in rows if r["x"] == "0.2" and r["y"] == "0.75"]
    assert mid and math.isclose(float(mid[0]["c2_odd"]), pair.odd, rel_tol=1e-9, abs_tol=1e-12)


def test_exhausted_quadrature_flags_cell_and_exits_3(capsys, monkeypatch):
    # two levels cannot resolve the beta = 200 layers: value nan, flag, exit 3
    monkeypatch.setattr(quadrature, "_LEVELS", quadrature._LEVELS[:2])
    code, out, _ = run_cli(
        ["point", "--j", "0.4", "--b", "0.2", "--B", "0.7", "--beta", "200", "--q", "u"],
        capsys,
    )
    assert code == 3
    header, body = parse_csv(out)
    (row,) = body
    assert row[0] == "nan"
    assert "u:tolerance" in row[1]


@pytest.mark.parametrize(
    "argv, want",
    [
        # theta ~ b: the filled half zone gives -(2/pi)(pi/2) b
        (["--b", "1e200", "--B", "0.5", "--T", "0", "--q", "m_t0,energy_t0"], [0.0, -1e200]),
        # tanh(beta theta) = 1 but on a set of measure 1e-200: u = -(2/pi) |j|
        (["--j", "1e200", "--T", "0.5", "--q", "u,m"], [-2e200 / math.pi, 0.0]),
        # the flat band J = |j|: theta = 1e-170, beta theta = 1
        (["--J", "1e-170", "--j", "1e-170", "--beta", "1e170", "--q", "u"],
         [-math.tanh(1.0) * 1e-170]),
    ],
)
def test_point_at_extreme_scales(argv, want, capsys):
    code, out, err = run_cli(["point", *argv], capsys)
    assert (code, err) == (0, "")
    (row,) = parse_csv(out)[1]
    assert row[-1] == ""
    for cell, value in zip(row, want):
        assert math.isclose(float(cell), value, rel_tol=1e-11, abs_tol=0.0), (cell, value)


def test_sweep_where_beta_overflows_the_chains_units(capsys):
    # beta J = 2e308 lies past the largest double: in its own units a cell is
    # taken at beta = 2^1000, the ground state to within any node spacing
    argv = ["sweep", "--J", "1e308", "--beta", "2", "--x", "B 0 1 2", "--y", "b 0 1 2",
            "--q", "u,m"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    for row in parse_csv(out)[1]:
        assert math.isclose(float(row[2]), -2 / math.pi * 1e308, rel_tol=1e-11), row
        assert abs(float(row[3])) < 1e-300 and row[-1] == "", row


def test_oracle_compare_at_a_large_field(capsys):
    code, out, _ = run_cli(
        ["oracle-compare", "--b", "1e200", "--beta", "2", "--sizes", "4,6", "--q", "m"], capsys
    )
    assert code in (0, 3)
    rows = parse_csv(out)[1]
    assert [row[:5] for row in rows] == [["m", n, "0", "0", "0"] for n in ("4", "6")]


@pytest.mark.parametrize("shift, code", [(0.0, 0), (0.05, 3)])
def test_oracle_compare_judges_energy_gaps_at_the_chains_scale(shift, code, capsys, monkeypatch):
    # each u gap is an ulp or two of 1e200: in units of max(J, |j|, |b|, |B|)
    # they pass, while a u off by 0.05 of that scale still fails the 0.02 tol
    exact = cli.thermo.internal_energy
    monkeypatch.setattr(
        cli.thermo, "internal_energy", lambda p, t, quad=None: exact(p, t, quad) + shift * 1e200
    )
    argv = ["oracle-compare", "--b", "1e200", "--beta", "2", "--sizes", "4,6", "--q", "u,m"]
    got, _, err = run_cli(argv, capsys)
    assert got == code
    assert ("u gaps" in err) == bool(code) and "m gaps" not in err


def test_qcp_scan_cli(tmp_path, capsys):
    # window wide enough that the scan median reflects the smooth
    # background rather than the divergence tails
    out = tmp_path / "scan.csv"
    code = main(
        [
            "qcp-scan", "--j", "0.3", "--B", "0.5", "--axis", "b",
            "--start", "0.2", "--stop", "0.6", "--step", "0.005", "--out", str(out),
        ]
    )
    err = capsys.readouterr().err
    assert code == 0
    assert "1 peak(s) along b at 0.4" in err
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows[0]["x"] == "0.205"
    flagged = [r for r in rows if r["flagged"] == "1"]
    assert any(math.isclose(float(r["x"]), 0.4, abs_tol=0.005) for r in flagged)


def test_oracle_compare_cli(tmp_path):
    out = tmp_path / "oracle.csv"
    code = main(
        [
            "oracle-compare", "--j", "0.3", "--b", "0.2", "--B", "0.4", "--beta", "2",
            "--sizes", "4,6,8", "--q", "m,g1_odd", "--tol", "0.1", "--out", str(out),
        ]
    )
    assert code == 0
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert {r["quantity"] for r in rows} == {"m", "g1_odd"}
    for name in ("m", "g1_odd"):
        gaps = [float(r["abs_gap"]) for r in rows if r["quantity"] == name]
        assert len(gaps) == 3
        assert gaps[-1] <= gaps[0] + 1e-12
        assert gaps[-1] < 0.1

    # Every oracle quantity: the analytic column is the library value.
    p = ChainParams(J=1.0, j=0.3, b=0.2, B=0.4)
    t = Thermal.finite(2.0)
    library = {
        "u": internal_energy(p, t),
        "m": magnetization(p, t),
        "m_s": staggered_magnetization(p, t),
        "g1_odd": g_site(p, t, "odd", 1),
        "g1_even": g_site(p, t, "even", 1),
        "zz1_odd": zz_correlator(p, t, "odd", 1),
        "zz1_even": zz_correlator(p, t, "even", 1),
        "c1_odd": c1(p, t).at("odd"),
        "c1_even": c1(p, t).at("even"),
        "witness_lhs": witness(p, t).lhs,
    }
    code = main(
        [
            "oracle-compare", "--j", "0.3", "--b", "0.2", "--B", "0.4", "--beta", "2",
            "--sizes", "6,8,10", "--q", ",".join(library), "--tol", "0.1", "--out", str(out),
        ]
    )
    assert code == 0
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["quantity"] for r in rows] == [name for name in library for _ in range(3)]
    for r in rows:
        name = r["quantity"]
        assert r["analytic"] == fmt12(library[name]), name
        blank = name.startswith(("zz1_", "c1_")) or name == "witness_lhs"
        assert (r["free_fermion"] == "") == blank, name


@pytest.mark.parametrize(
    "q, message",
    [
        ("m,foo", "unknown quantity 'foo'"),
        ("m,m", "duplicate quantity 'm'"),
        ("", "at least one quantity is required"),
    ],
)
def test_oracle_compare_rejects_bad_quantities_before_work(q, message, tmp_path, monkeypatch, capsys):
    def no_ed(*args, **kwargs):
        raise AssertionError("dense_ed called before --q was checked")

    monkeypatch.setattr(cli, "dense_ed", no_ed)
    out = tmp_path / "oracle.csv"
    out.write_bytes(b"previous result\r\n")
    for dest in ([], ["--out", str(out)]):
        code, stdout, err = run_cli(
            ["oracle-compare", "--beta", "2", "--sizes", "6,8", "--q", q] + dest, capsys
        )
        assert code == 2
        assert message in err
        assert stdout == ""
    assert out.read_bytes() == b"previous result\r\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--sizes", "12,10,8"], "ring sizes must increase strictly, got 12, 10, 8"),
        (["--sizes", "8,8"], "ring sizes must increase strictly"),
        (["--tol", "-1"], "tol must be a positive finite number"),
        (["--tol", "nan"], "tol must be a positive finite number"),
        (["--tol", "0"], "tol must be a positive finite number"),
        (["--sizes", "8,12,14"], "dense diagonalization is capped at 12 sites, got 14"),
    ],
)
def test_oracle_compare_rejects_bad_sizes_and_tol_before_work(argv, message, monkeypatch, capsys):
    # the verdict reads the gaps in ring order, so shrinking sizes would fail correct values
    def no_ed(*args, **kwargs):
        raise AssertionError("dense_ed called before --sizes/--tol were checked")

    monkeypatch.setattr(cli, "dense_ed", no_ed)
    code, stdout, err = run_cli(
        ["oracle-compare", "--j", "0.3", "--b", "0.2", "--B", "0.4", "--beta", "2",
         "--q", "m,c1_odd", *argv], capsys,
    )
    assert code == 2
    assert message in err
    assert stdout == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["qcp-scan", "--axis", "B", "--start", "0", "--stop", "1", "--step", "0"],
         "step must be positive"),
        (["oracle-compare", "--beta", "2", "--sizes", "5,6", "--q", "m"],
         "n_sites must be even"),
        (["qcp-scan", "--axis", "B", "--start", "0", "--stop", "inf", "--step", "0.1"],
         "start/stop must be finite"),
        (["qcp-scan", "--axis", "B", "--start", "nan", "--stop", "1", "--step", "0.1"],
         "start/stop must be finite"),
        (["qcp-scan", "--axis", "B", "--start", "-inf", "--stop", "1", "--step", "0.1"],
         "start/stop must be finite"),
        (["qcp-scan", "--axis", "B", "--start", "-Infinity", "--stop", "1", "--step", "0.1"],
         "start/stop must be finite"),
        (["qcp-scan", "--axis", "B", "--start", "0", "--stop", "-NaN", "--step", "0.1"],
         "start/stop must be finite"),
        (["qcp-scan", "--axis", "B", "--start", "0", "--stop", "1e30", "--step", "1e-6"],
         "grid points, more than 1000000"),
    ],
)
def test_rejected_run_leaves_out_file_untouched(argv, message, tmp_path, capsys):
    out = tmp_path / "result.csv"
    out.write_bytes(b"previous result\r\n")
    code, stdout, err = run_cli(argv + ["--out", str(out)], capsys)
    assert code == 2
    assert message in err
    assert stdout == ""
    assert out.read_bytes() == b"previous result\r\n"


@pytest.mark.parametrize(
    "argv, levels, flag",
    [
        # two levels cannot resolve the beta = 200 layers of the analytic m
        (["--beta", "200", "--B", "0.9", "--j", "0.4", "--b", "0.2", "--q", "m"], 2,
         "m:tolerance"),
        # the witness bound is empty at J = j = 0
        (["--J", "0", "--q", "witness_lhs"], None, "witness_lhs:error"),
    ],
)
def test_oracle_compare_reports_failed_analytic_value_as_nan(
    argv, levels, flag, tmp_path, capsys, monkeypatch
):
    if levels is not None:
        monkeypatch.setattr(quadrature, "_LEVELS", quadrature._LEVELS[:levels])
    out = tmp_path / "oracle.csv"
    code, _, err = run_cli(["oracle-compare", "--sizes", "4,6", *argv, "--out", str(out)], capsys)
    assert code == 3
    assert flag in err
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["n_sites"] for r in rows] == ["4", "6"]
    assert all(r["analytic"] == "nan" and r["abs_gap"] == "nan" for r in rows)


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        "[model]\nJ = 1.0\nj = 0.5\n\n"
        "[thermal]\nbeta = 2.0\n\n"
        "[sweep]\nx = B 0 1 3\ny = b 0 1 2\nquantities = u, m\n"
    )
    code = main(["validate-config", "--config", str(cfg)])
    assert code == 0
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 6


def test_config_errors_name_the_problem(tmp_path, capsys):
    bad_key = tmp_path / "bad_key.ini"
    bad_key.write_text("[model]\nJJ = 1.0\n\n[sweep]\nx = B 0 1 3\ny = b 0 1 2\nquantities = u\n")
    code, _, err = run_cli(["validate-config", "--config", str(bad_key)], capsys)
    assert code == 2
    assert "JJ" in err
    t_conflict = tmp_path / "t_conflict.ini"
    t_conflict.write_text(
        "[thermal]\nT = 0.5\n\n[sweep]\nx = T 0.1 1 3\ny = b 0 1 2\nquantities = u\n"
    )
    code, _, err = run_cli(["validate-config", "--config", str(t_conflict)], capsys)
    assert code == 2
    missing = tmp_path / "missing.ini"
    missing.write_text("[sweep]\nx = B 0 1 3\ny = b 0 1 2\n")
    code, _, err = run_cli(["validate-config", "--config", str(missing)], capsys)
    assert code == 2
    assert "quantities" in err
    code, _, err = run_cli(["validate-config", "--config", str(tmp_path / "nope.ini")], capsys)
    assert code == 2
    quadrature_section = tmp_path / "quadrature.ini"
    quadrature_section.write_text(
        "[sweep]\nx = B 0 1 3\ny = b 0 1 2\nquantities = u\n\n"
        "[quadrature]\nmax_subdivisions = 2.7\n"
    )
    code, _, err = run_cli(["validate-config", "--config", str(quadrature_section)], capsys)
    assert code == 2
    assert "unknown config section [quadrature]" in err
    not_a_number = tmp_path / "not_a_number.ini"
    not_a_number.write_text(
        "[model]\nJ = abc\n\n[sweep]\nx = B 0 1 3\ny = b 0 1 2\nquantities = u\n"
    )
    code, _, err = run_cli(["validate-config", "--config", str(not_a_number)], capsys)
    assert code == 2
    assert "[model] J" in err and "abc" in err
    assert err.count("[model]") == 1


@pytest.mark.parametrize(
    "flags, config",
    [
        (
            ["--j", "0.5", "--beta", "2", "--x", "B 0 1 3", "--y", "b 0 1 2",
             "--q", "u,m,c1_odd"],
            "[model]\nj = 0.5\n\n[thermal]\nbeta = 2\n\n"
            "[sweep]\nx = B 0 1 3\ny = b 0 1 2\nquantities = u, m, c1_odd\n",
        ),
        (
            ["--j", "0.2", "--b", "0.1", "--x", "T 0.05 0.5 3", "--y", "B 0.5 1 3",
             "--q", "c2_odd,c2_even,u"],
            "[model]\nj = 0.2\nb = 0.1\n\n"
            "[sweep]\nx = T 0.05 0.5 3\ny = B 0.5 1 3\nquantities = c2_odd,c2_even,u\n",
        ),
    ],
    ids=["fixed-beta", "T-axis"],
)
def test_flags_and_config_write_the_same_sweep(flags, config, tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(config)
    from_flags, from_config = tmp_path / "flags.csv", tmp_path / "config.csv"
    assert main(["sweep", *flags, "--out", str(from_flags)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(from_config)]) == 0
    assert from_config.read_bytes() == from_flags.read_bytes()
    assert from_flags.read_bytes().count(b"\r\n") > 1  # header and cells


def test_config_excludes_inline_axes(tmp_path, capsys):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text("[sweep]\nx = B 0 1 3\ny = b 0 1 2\nquantities = u\n")
    code, _, err = run_cli(
        ["sweep", "--config", str(cfg), "--x", "B 0 1 3", "--y", "b 0 1 2", "--q", "u"],
        capsys,
    )
    assert code == 2
    # model and temperature flags are not merged into the config either
    code, out, err = run_cli(["sweep", "--config", str(cfg), "--J", "5", "--T", "0.5"], capsys)
    assert code == 2
    assert out == ""
    assert "--J, --T" in err


def test_quadrature_options_are_rejected(tmp_path, capsys, monkeypatch):
    # accuracy is the fixed 1e-10 contract: no flag or config section sets it
    with pytest.raises(SystemExit) as exc:
        main(["point", "--q", "u", "--abs-tol", "1e-9"])
    assert exc.value.code == 2
    assert "--abs-tol" in capsys.readouterr().err

    def no_work(*args, **kwargs):
        raise AssertionError("the sweep ran although its config was rejected")

    monkeypatch.setattr(cli, "run_sweep", no_work)
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        "[sweep]\nx = B 0 1 3\ny = b 0 1 2\nquantities = u\n\n[quadrature]\nabs_tol = 1e-9\n"
    )
    out = tmp_path / "result.csv"
    out.write_bytes(b"previous result\r\n")
    code, stdout, err = run_cli(["sweep", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    assert "[quadrature]" in err
    assert stdout == ""
    assert out.read_bytes() == b"previous result\r\n"


def test_unwritable_out_is_rejected_before_any_work(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the sweep ran before --out was checked")

    monkeypatch.setattr(cli, "run_sweep", no_work)
    sweep = ["sweep", "--x", "B 0 1 2", "--y", "b 0 1 2", "--q", "u", "--T", "0.5"]
    for out in (tmp_path / "nodir" / "x.csv", tmp_path):
        code, stdout, err = run_cli(sweep + ["--out", str(out)], capsys)
        assert code == 2
        assert stdout == "" and f"--out {out}" in err
    assert not (tmp_path / "nodir").exists()
    # a writable path is checked without being created
    fresh = tmp_path / "fresh.csv"
    rejected = ["sweep", "--x", "B 0 1 2", "--y", "b 0 1 2", "--q", "m_t0", "--T", "0.5"]
    code, _, err = run_cli(rejected + ["--out", str(fresh)], capsys)
    assert code == 2 and "m_t0" in err
    assert not fresh.exists()


def test_readme_quantity_lists_match_the_table():
    # each list runs from its label to the first parenthesis
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

    def listed(label):
        start = readme.index(label) + len(label)
        return tuple(re.findall(r"`([^`]+)`", readme[start:readme.index("(", start)]))

    assert listed("\nQuantities:") == cli.QUANTITIES
    assert listed("`oracle-compare` quantities:") == cli._ORACLE_CHOICES


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "staggered_xx", "point", "--B", "0.5", "--T", "0", "--q", "m_t0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "0.333333333333" in proc.stdout


def test_console_script_help():
    # run what the installer's generated wrapper runs, built from the
    # [project.scripts] entry, so the wiring is checked without an install
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["staggered-xx"]
    assert target == "staggered_xx.cli:main"
    module, attr = target.split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: staggered-xx")
    assert "sweep" in proc.stdout


@pytest.mark.skipif(
    shutil.which("staggered-xx") is None,
    reason="staggered-xx is not on PATH (needs `pip install -e .`)",
)
def test_installed_console_script_help():
    proc = subprocess.run(["staggered-xx", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sweep" in proc.stdout
