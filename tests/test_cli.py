"""Command-line interface: CSV format, determinism, exit codes, configs."""

import csv
import io
import math
import os
import random
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
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
from point_reference import library_point


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


def test_zero_temperature_point_and_sweep_row_are_one_engine_run(monkeypatch, capsys):
    # a T = 0 point with every quantity reads one ground record, and a sweep block
    # of up to 64 row-major cells builds the records of its T = 0 cells in one run,
    # as of its finite-T ones
    from staggered_xx import ground, thermo

    runs = []
    for module in (ground, thermo):
        def counted(f, n, edges, spec=None, engine=module._integrate_cells):
            runs.append(len(edges))
            return engine(f, n, edges, spec)

        monkeypatch.setattr(module, "_integrate_cells", counted)
    code, _, _ = run_cli(["point", "--j", "0.5", "--b", "0.3", "--B", "0.8", "--T", "0",
                          "--q", ",".join(cli.QUANTITIES)], capsys)
    assert (code, runs) == (0, [1])
    runs.clear()
    code, _, _ = run_cli(["sweep", "--j", "0.5", "--b", "0.3", "--x", "B 0 1.5 4",
                          "--y", "j 0 1 3", "--q", FINITE_T], capsys)
    # one run for all 12 cells, over those whose F is not empty (B = 1.5 saturates some)
    assert (code, runs) == (0, [9])
    runs.clear()
    code, _, _ = run_cli(["sweep", "--j", "0.5", "--b", "0.3", "--x", "T 0 1 3",
                          "--y", "B 0.2 0.6 2", "--q", FINITE_T], capsys)
    # one finite-T run over the four T > 0 cells, one ground run over the two at T = 0
    assert (code, runs) == (0, [4, 2])
    runs.clear()
    code, _, _ = run_cli(["sweep", "--j", "0.5", "--b", "0.3", "--T", "0.5", "--x", "B 0 1.5 9",
                          "--y", "j 0 1 8", "--q", FINITE_T], capsys)
    # 72 cells: a block of 64 and one of the last 8
    assert (code, runs) == (0, [64, 8])


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


def test_blocks_that_straddle_rows_print_the_one_block_bytes(tmp_path, monkeypatch):
    # blocks of five cells straddle the rows of seven on a 7 x 3 grid, at finite T,
    # at T = 0 and on a T axis from 0: the bytes of one block per grid
    grids = [["--T", "0.5", "--x", "B 0 1.5 7", "--y", "j 0 1 3"],
             ["--T", "0", "--x", "B 0 1.5 7", "--y", "j 0 1 3"],
             ["--x", "T 0 1 7", "--y", "B 0.2 1.2 3"]]
    whole, blocks = tmp_path / "whole.csv", tmp_path / "blocks.csv"
    want = []
    for grid in grids:
        assert main(["sweep", "--j", "0.3", "--b", "0.2", *grid, "--q", FINITE_T,
                     "--out", str(whole)]) == 0
        want.append(whole.read_bytes())
    monkeypatch.setattr(quadrature, "_BLOCK", 5)
    for grid, data in zip(grids, want):
        assert main(["sweep", "--j", "0.3", "--b", "0.2", *grid, "--q", FINITE_T,
                     "--out", str(blocks)]) == 0
        assert blocks.read_bytes() == data


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
    out = tmp_path / "sweep.csv"
    assert main(argv + ["--out", str(out)]) == 3
    with open(out, newline="") as f:
        rows = list(csv.reader(f))[1:]
    unconverged = ";".join(f"{name}:tolerance" for name in FINITE_T.split(","))
    want = [["witness_lhs:error", "", ""], ["witness_lhs:error", "", unconverged]]
    assert [[row[-1] for row in rows[i : i + 3]] for i in (0, 3)] == want
    for row in rows:
        values = dict(zip(FINITE_T.split(","), row[2:-1]))
        if row[-1] != unconverged:
            assert all(v != "nan" for k, v in values.items() if k not in row[-1])


def _sweep_cells(argv, capsys, code=0):
    got, out, _ = run_cli(argv, capsys)
    assert got == code
    return {(row[0], row[1]): row[2:] for row in parse_csv(out)[1]}


def _point_cells(argv, capsys, q=FINITE_T):
    code, out, _ = run_cli(["point", *argv, "--q", q], capsys)
    (row,) = parse_csv(out)[1]
    assert code == (3 if row[-1] else 0)
    return row


ALL_Q = ",".join(cli.QUANTITIES)
ORACLE_Q = ",".join(cli._ORACLE_CHOICES)


def _library_cells(argv, q=FINITE_T):
    """The row ``point`` prints at ``argv``, from the library functions (``point_reference``)."""
    opts = cli._Options(vars(cli._parse(["point", *argv, "--q", q])), str)
    record, flags = library_point(opts.params(), opts.thermal() or Thermal.zero(), q.split(","))
    return [fmt12(v) for v in record.values()] + [";".join(flags)]


_EDGE = ";".join(f"{n}:tolerance" for n in ("m", "c1_odd", "c1_even", "c2_odd", "c2_even",
                                             "witness_lhs"))


@pytest.mark.parametrize(
    "fixed, x, y, q, flagged",
    [
        # T = 0 cells go through the ground closed forms, as the library does
        (["--j", "0.3", "--b", "0.2"], "T 0 0.003 3", "B 0.5 1.1 2", FINITE_T, {}),
        # finite-T cells read the batched record columns of their block, and the
        # library its own one-cell record, beta = 1e5 included
        (["--beta", "1e5", "--b", "0.2"], "B 0.5 0.9 2", "j 0.2 0.4 2", FINITE_T, {}),
        # all eleven at T = 0, b = +-1e200 included (m_t0 and e_mw read the record's F)
        (["--j", "0.3", "--T", "0"], "B 0 1.5 3", "b -1e200 1e200 3", ALL_Q, {}),
        (["--j", "0.4", "--b", "0.2", "--T", "0"], "B -1.5 1.5 5", "j -1 1 5", ALL_Q, {}),
        # a T axis from 0: finite-T and T = 0 cells in one block
        (["--j", "-0.7", "--b", "0.3"], "T 0 2 5", "B -1 1.5 3", FINITE_T, {}),
        # J = j = 0: witness_lhs:error, raised before g1 is read
        (["--J", "0", "--T", "0.5"], "j -1 1 3", "B 0 1 2", FINITE_T,
         {("0", y): "witness_lhs:error" for y in ("0", "1")}),
        (["--J", "0", "--T", "0"], "j -1 1 3", "B 0 1 2", ALL_Q,
         {("0", y): "witness_lhs:error" for y in ("0", "1")}),
        # the band edge at beta 1e308: (0, 1) flags the quantities that read m or g1,
        # but not u or m_s
        (["--beta", "1e308"], "j -1 1 3", "B 0 2 3", FINITE_T, {("0", "1"): _EDGE}),
    ],
)
def test_sweep_cells_match_point_by_engine(fixed, x, y, q, flagged, capsys):
    argv = ["sweep", *fixed, "--x", x, "--y", y, "--q", q]
    cells = _sweep_cells(argv, capsys, 3 if flagged else 0)
    assert {cell: row[-1] for cell, row in cells.items() if row[-1]} == flagged
    names = (x.split()[0], y.split()[0])
    for (xv, yv), row in cells.items():
        point = [*fixed, *(f"--{n}={v}" for n, v in zip(names, (xv, yv)))]
        assert row == _library_cells(point, q), (xv, yv)


# the quantities that read each row of a record, in the order of the rows
_READERS = [
    {"u", "energy_t0"},
    {"m", "m_t0", "c1_odd", "c1_even", "c2_odd", "c2_even"},
    {"m_s", "e_mw", "c1_odd", "c1_even", "c2_odd", "c2_even"},
    *[{"c1_odd", "c1_even", "c2_odd", "c2_even", "witness_lhs"}] * 2,
    *[{"c2_odd", "c2_even"}] * 2,
]


@pytest.mark.parametrize("row", range(7))
@pytest.mark.parametrize("temperature", ["0.5", "0"])
def test_one_unconverged_integral_flags_only_its_readers_in_its_cell(
    row, temperature, monkeypatch, capsys
):
    # the engine leaves one integral of the cell at B = 0.75 unconverged, at finite T
    # or in the T = 0 record: a sweep flags the quantities that read it in that cell
    # and nothing else, byte for byte as the library functions raise under the same patch
    from staggered_xx import ground, thermo

    module, name = (thermo, "_cell_integrals") if temperature != "0" else (ground, "_record_columns")

    def patched(chains, *args, engine=getattr(module, name)):
        *head, ok = engine(chains, *args)
        ok[row, chains[3] == 0.75] = False
        return (*head, ok)

    monkeypatch.setattr(module, name, patched)
    q = ALL_Q if temperature == "0" else FINITE_T
    fixed = ["--j", "0.4", "--b", "0.2", "--T", temperature]
    cells = _sweep_cells(["sweep", *fixed, "--x", "B 0 1.5 3", "--y", "j 0.2 0.6 3", "--q", q],
                         capsys, 3)
    want = ";".join(f"{n}:tolerance" for n in q.split(",") if n in _READERS[row])
    for (x, y), got in cells.items():
        assert got[-1] == (want if x == "0.75" else ""), (x, y)
        assert got == _library_cells([*fixed, "--B", x, "--j", y], q), (x, y)
    # and the oracle-only quantities of a point, as the library flags them
    p, t = ChainParams(1.0, 0.4, 0.2, 0.75), Thermal.from_temperature(float(temperature))
    oracle = cli._ORACLE_CHOICES
    assert cli._one_cell(p, t, oracle)[1] == library_point(p, t, oracle)[1]


def test_witness_error_comes_before_its_reads(monkeypatch, capsys):
    # J = j = 0 with g1 unconverged: the witness is an error, as DegenerateCoupling is
    # raised before g1 is read, and the concurrences are unconverged
    from staggered_xx import thermo

    def patched(chains, *args, engine=thermo._cell_integrals):
        k, value, err, ok = engine(chains, *args)
        ok[3, chains[1] == 0] = False
        return k, value, err, ok

    monkeypatch.setattr(thermo, "_cell_integrals", patched)
    fixed = ["--J", "0", "--b", "0.2", "--T", "0.5"]
    cells = _sweep_cells(["sweep", *fixed, "--x", "j -1 1 3", "--y", "B 0 1 2", "--q", FINITE_T],
                         capsys, 3)
    want = "c1_odd:tolerance;c1_even:tolerance;c2_odd:tolerance;c2_even:tolerance;witness_lhs:error"
    for (x, y), got in cells.items():
        assert got[-1] == (want if x == "0" else ""), (x, y)
        assert got == _library_cells([*fixed, "--j", x, "--B", y]), (x, y)


def test_negative_radicand_flags_both_parities_of_its_cell_only(monkeypatch, capsys):
    # m pushed to 0.95 in one cell leaves its nearest-neighbour radicands below -1e-9:
    # both c1 columns of that cell are errors, in a sweep as in the library
    from staggered_xx import thermo

    def patched(chains, *args, engine=thermo._cell_integrals):
        k, value, err, ok = engine(chains, *args)
        value[1, chains[3] == 0.75] = 0.95
        return k, value, err, ok

    monkeypatch.setattr(thermo, "_cell_integrals", patched)
    fixed = ["--j", "0.4", "--b", "0.2", "--T", "0.5"]
    cells = _sweep_cells(["sweep", *fixed, "--x", "B 0 1.5 3", "--y", "j 0.2 0.6 3",
                          "--q", FINITE_T], capsys, 3)
    for (x, y), got in cells.items():
        assert ("c1_odd:error;c1_even:error" in got[-1]) == (x == "0.75"), (x, y)
        assert got == _library_cells([*fixed, "--B", x, "--j", y]), (x, y)


def test_sweep_builds_no_per_cell_objects(monkeypatch, capsys):
    # every CLI path reads its quantities off record columns, a point and the analytic
    # column of oracle-compare a block of one cell: no one-point reader (thermo._point)
    # or QuadResult per cell, in a sweep at finite T, at T = 0 and on a T axis, a point
    # at both and oracle-compare at both
    from staggered_xx import correlations, entanglement, ground, thermo

    chain = ["--j", "0.3", "--b", "0.2"]
    commands = [["sweep", *chain, *grid] for grid in (
        ["--T", "0.5", "--x", "B 0 1.5 4", "--y", "j -1 1 3", "--q", FINITE_T],
        ["--T", "0", "--x", "B 0 1.5 4", "--y", "j -1 1 3", "--q", ALL_Q],
        ["--x", "T 0 1 4", "--y", "B -1 1 3", "--q", FINITE_T],
    )] + [
        ["point", *chain, "--B", "0.5", "--T", "0.5", "--q", FINITE_T],
        ["point", *chain, "--B", "0.5", "--T", "0", "--q", ALL_Q],
        ["oracle-compare", *chain, "--B", "0.4", "--beta", "2", "--q", ORACLE_Q],
        ["oracle-compare", *chain, "--B", "0.4", "--T", "0", "--sizes", "4,6,8", "--q", ORACLE_Q],
    ]
    want = [run_cli(argv, capsys) for argv in commands]
    # T = 0 rings of up to 8 sites are far from the chain: gaps above tol
    assert [code for code, _, _ in want] == [0] * 6 + [3]

    def refused(*args, **kwargs):
        raise AssertionError("per-cell object built")

    # the reader is patched in every module that binds it by name
    for owner, name in ((thermo, "_point"), (correlations, "_point"), (entanglement, "_point"),
                        (ground, "QuadResult"), (thermo, "QuadResult"),
                        (quadrature, "QuadResult")):
        monkeypatch.setattr(owner, name, refused)
    for argv, got in zip(commands, want):
        assert run_cli(argv, capsys) == got, argv


@pytest.mark.parametrize("beta", [2.0, math.inf], ids=["finite-T", "T=0"])
def test_oracle_correlator_columns_are_the_library_values_bit_for_bit(beta):
    # the g1_* and zz1_* columns take the operations of CorrelatorPair.at and
    # zz_correlator in their order, so a block gives their floats at each of its
    # cells (b = 0 and a saturated chain included); a reordered product of the
    # two <sz> differs in about one value in seven
    rng = random.Random(7)
    chains = [ChainParams(1.0, 0.3, 0.0, 0.4), ChainParams(1.0, 0.2, 0.1, 3.0)] + [
        ChainParams(1.0, rng.uniform(-1.5, 1.5), rng.uniform(-1, 1), rng.uniform(-2, 2))
        for _ in range(30)
    ]
    names = [f"{q}_{s}" for q in ("g1", "zz1") for s in ("odd", "even")]
    cols, marks = cli._quantity_columns(cli._columns(chains), np.full(len(chains), beta), names)
    assert not any(map(any, marks))
    t = Thermal(beta)
    want = [[f(p, t, s, 1) for p in chains] for f in (g_site, zz_correlator) for s in ("odd", "even")]
    assert [[v.hex() for v in col] for col in cols] == [[w.hex() for w in col] for col in want]


def _no_cells(monkeypatch):
    """Make any engine run fail the test: no cell may be computed."""
    from staggered_xx import ground, thermo

    for module in (ground, thermo):
        monkeypatch.setattr(module, "_integrate_cells", lambda *a: pytest.fail("cell computed"))


@pytest.mark.parametrize("axis, step", [("B -1e308 1e308 3", "inf"), ("j 1e308 -1e308 3", "-inf")])
def test_grid_values_are_checked_before_any_cell(axis, step, tmp_path, monkeypatch, capsys):
    # the step overflows: the grid's values are NaN and inf
    _no_cells(monkeypatch)
    out = tmp_path / "sweep.csv"
    out.write_text("kept")
    code, stdout, err = run_cli(["sweep", "--T", "0.5", "--x", axis, "--y", "b 0 1 2", "--q", "u",
                                 "--out", str(out)], capsys)
    message = f"error: axis {axis[0]}: values pass the largest float, got {step}\n"
    assert (code, stdout, err) == (2, "", message)
    assert out.read_text() == "kept"
    cfg = tmp_path / "grid.ini"
    cfg.write_text(f"[sweep]\nx = {axis}\ny = b 0 1 2\nquantities = u\n")
    assert run_cli(["validate-config", "--config", str(cfg)], capsys)[:2] == (2, "")


def test_axis_ends_at_its_stop(capsys):
    # start + h (steps - 1) rounds below a stop of 0 here; the axis ends at 0 itself
    code, out, _ = run_cli(["sweep", "--x", "T 1.9186349853227627 0 42", "--y", "B 0 1 2",
                            "--q", "m"], capsys)
    cells = parse_csv(out)[1]
    assert code == 0 and len(cells) == 84
    assert [row[0] for row in cells[41::42]] == ["0", "0"]
    assert cli.AxisSpec("T", 1.9186349853227627, 0.0, 42).values()[-1] == 0.0


@pytest.mark.parametrize("axis", ["T 7.4e-323 0 10", "B 0 7.4e-323 10"])
def test_axis_values_do_not_pass_the_stop(axis, capsys):
    # a step below the smallest normal float rounds up (15 ulp / 9 to 2 ulp), so
    # start + h i would pass the stop before the last value: a T below 0
    code, out, _ = run_cli(["sweep", "--x", axis, "--y", "b 0 1 2", "--q", "m"], capsys)
    start, stop = (float(v) for v in axis.split()[1:3])
    xs = [float(row[0]) for row in parse_csv(out)[1][:10]]
    assert code == 0 and xs[0] == start and xs[-1] == stop
    assert xs == sorted(xs, reverse=start > stop)
    assert min(start, stop) <= min(xs) and max(xs) <= max(start, stop)


def test_grid_up_to_the_largest_float_is_valid(capsys):
    code, out, _ = run_cli(["sweep", "--x", "j 1e308 1.7976931348623157e308 3", "--y", "b 0 1 2",
                            "--q", "m"], capsys)
    assert code == 0 and parse_csv(out)[1][-1][:2] == ["1.79769313486e+308", "1"]


def test_finite_temperature_never_reaches_integrate(monkeypatch, capsys):
    # every band integral runs on the batched cell engine, at finite T on the
    # split nodes of the half zone (point, oracle-compare, a sweep and the
    # library's ln Z and g3, which no record holds) and at T = 0 over the
    # filled interval (the same commands, a scan, and g3 over F); integrate is
    # the engine's one-piece case for callers outside the package
    from staggered_xx import (
        correlations, g_odd, ground, ln_z_per_site, thermo, thermo_point,
    )

    def no_integrate(*args, **kwargs):
        raise AssertionError("integrate called")

    for module in (quadrature, thermo, correlations, ground):
        monkeypatch.setattr(module, "integrate", no_integrate)
    # the guard is live
    with pytest.raises(AssertionError, match="integrate called"):
        quadrature.integrate(lambda q: q)
    p, t0 = ChainParams(1.0, 0.4, 0.2, 0.7), Thermal.zero()
    assert math.isfinite(energy(p)) and math.isfinite(g_odd(p, t0, 3).staggered)
    code, out, _ = run_cli(["point", "--j", "0.4", "--b", "0.2", "--B", "0.7", "--T", "0",
                            "--q", ",".join(cli.QUANTITIES)], capsys)
    assert code == 0 and parse_csv(out)[1][0][-1] == ""
    code, _, _ = run_cli(["qcp-scan", "--j", "0.4", "--axis", "B", "--start", "0", "--stop", "1.5",
                          "--step", "0.1"], capsys)
    assert code == 0
    p, t = ChainParams(1.0, 0.4, 0.2, 0.7), Thermal.finite(3.0)
    assert math.isfinite(ln_z_per_site(p, t)) and math.isfinite(thermo_point(p, t).u)
    assert all(map(math.isfinite, (g_odd(p, t, 3).uniform, g_odd(p, t, 3).staggered)))
    assert _point_cells(["--j", "0.4", "--b", "0.2", "--B", "0.7", "--T", "0.5"], capsys)[-1] == ""
    code, _, _ = run_cli(
        ["oracle-compare", "--j", "0.4", "--b", "0.2", "--B", "0.7", "--T", "0.5",
         "--sizes", "4,6", "--tol", "1"], capsys,
    )
    assert code == 0
    cells = _sweep_cells(
        ["sweep", "--j", "0.4", "--b", "0.2", "--x", "B -1.5 1.5 4", "--y", "T 0 2 3",
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


@pytest.mark.parametrize("temperature", ["0", "1"])
def test_energy_past_the_largest_float_is_an_error(temperature, capsys):
    # u = -(2/pi) int theta reaches about -2.4e308: u (and energy_t0) flagged as
    # errors, the other quantities printed, no warning and no traceback
    q = "u,m,energy_t0,m_t0" if temperature == "0" else "u,m"
    chain = ["--J", "1.7e308", "--j", "1.7e308", "--b", "1.7e308"]
    flags = "u:error;energy_t0:error" if temperature == "0" else "u:error"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["point", *chain, "--T", temperature, "--q", q], capsys)
        assert (code, err) == (3, "")
        assert parse_csv(out)[1][0][-1] == flags
        cells = _sweep_cells(["sweep", *chain[:4], "--T", temperature, "--x", "b 1e308 1.7e308 2",
                              "--y", "B 0 1 2", "--q", q], capsys, 3)
    assert {row[-1] for row in cells.values()} == {flags}


def test_zero_temperature_point_decides_its_filled_interval_once(monkeypatch, capsys):
    # m_t0 and e_mw read F off the point's one T = 0 record
    from staggered_xx import ground

    calls = []

    def counted(*args, decide=ground._filled_interval):
        calls.append(len(args[0]))
        return decide(*args)

    monkeypatch.setattr(ground, "_filled_interval", counted)
    assert _point_cells(["--j", "0.5", "--b", "0.3", "--B", "0.8", "--T", "0"], capsys,
                        ALL_Q)[-1] == ""
    assert calls == [1]


def test_sweep_where_beta_overflows_the_chains_units(capsys):
    # beta J = 2e308 lies past the largest double: in its own units a cell is
    # taken at beta = 2^1000, the ground state to within any node spacing;
    # point prints each cell's bytes
    argv = ["sweep", "--J", "1e308", "--beta", "2", "--x", "B 0 1 2", "--y", "b 0 1 2",
            "--q", "u,m,c1_odd"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    for row in parse_csv(out)[1]:
        assert math.isclose(float(row[2]), -2 / math.pi * 1e308, rel_tol=1e-11), row
        assert abs(float(row[3])) < 1e-300 and row[-1] == "", row
        point = ["point", "--J", "1e308", "--beta", "2", "--B", row[0], "--b", row[1],
                 "--q", "u,m,c1_odd"]
        assert run_cli(point, capsys) == (0, f"u,m,c1_odd,err_flags\r\n{','.join(row[2:])}\r\n", "")


def test_m_s_where_theta_squares_underflow_at_an_end_of_f_matches_the_ring(capsys):
    # b^2 and (j sin q)^2 underflow near q = 0, an end of F, although theta = |b| is a
    # normal float there: the point prints m_s and e_mw, unflagged, within 1e-10 of the
    # 128-site ring
    from staggered_xx import FiniteChainSpec, spin_ring

    argv = ["point", "--J=0", "--j=-3.9e-145", "--b=-2.2e-262", "--B=0", "--T=0",
            "--q", "m_s,e_mw"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    header, (row,) = parse_csv(out)
    got = dict(zip(header, row))
    assert got["err_flags"] == ""
    p = ChainParams(0.0, -3.9e-145, -2.2e-262, 0.0)
    ring = spin_ring(FiniteChainSpec(128, p, Thermal.zero()))
    assert abs(float(got["m_s"]) - ring.staggered_magnetization) <= 1e-10
    assert abs(float(got["e_mw"]) - ring.e_mw) <= 1e-10


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
    def shifted(chains, *args, engine=cli.thermo._record_columns):
        f, value, err, ok = engine(chains, *args)
        value[0] += shift * 1e200  # the record's u
        return f, value, err, ok

    monkeypatch.setattr(cli.thermo, "_record_columns", shifted)
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


def test_qcp_scan_step_out_of_range_exits_2_without_traceback():
    # step**2 overflows past 1.3e154 and is subnormal below 1.5e-154, where
    # every d2e would read nan or inf: both are refused as invalid input
    for stop, step in (("1e200", "1e196"), ("1e-160", "1e-163")):
        proc = subprocess.run(
            [sys.executable, "-m", "staggered_xx", "qcp-scan", "--j=0.5", "--b=0.3",
             "--axis", "B", "--start=0", f"--stop={stop}", f"--step={step}"],
            capture_output=True, text=True, env=SRC_ENV,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: step^2 must be a normal float")
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "chain, window",
    [
        # J is the smallest subnormal: in its units the d2e pass 2^1024 once scaled back
        (["--J=5e-324", "--j=0", "--b=0"], ["--start=0", "--stop=1e-323", "--step=5e-324"]),
        # a subnormal chain: the d2e near its two peaks pass the largest float
        (["--J=1e-310", "--j=5e-311", "--b=3e-311"],
         ["--start=0", "--stop=2e-310", "--step=5e-313"]),
    ],
)
def test_qcp_scan_whose_second_differences_leave_the_doubles_exits_2(chain, window, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["qcp-scan", *chain, "--axis", "B", *window], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: second differences reach 2^")


def test_unconverged_ground_energy_exits_qcp_scan_3(monkeypatch, capsys):
    # two levels resolve no filled interval of the grid: exit 3, nothing printed
    monkeypatch.setattr(quadrature, "_LEVELS", quadrature._LEVELS[:2])
    code, out, err = run_cli(
        ["qcp-scan", "--j=0.5", "--b=0.3", "--axis", "B", "--start=0", "--stop=2", "--step=0.005"],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert err == "qcp-scan: ground-energy quadrature did not reach tolerance\n"


def test_oracle_compare_rings_past_the_dense_cap_at_every_temperature(monkeypatch, capsys):
    # the dense_ed column is the parity-projected ring at T > 0 and T = 0; dense ED never runs
    monkeypatch.setattr(cli, "dense_ed", lambda spec: pytest.fail("dense_ed ran"))
    code, out, err = run_cli(
        ["oracle-compare", "--j", "0.3", "--b", "0.2", "--B", "0.4", "--beta", "2",
         "--sizes", "8,16,32,64"], capsys,
    )
    assert (code, err) == (0, "")
    rows = parse_csv(out)[1]
    assert [r[1] for r in rows] == ["8", "16", "32", "64"] * 5
    for name in ("m", "g1_odd", "g1_even", "c1_even"):
        gaps = [float(r[4]) for r in rows if r[0] == name]
        # the finite-size gaps fall geometrically, down to rounding at N = 64
        assert gaps[0] > 1e-4 and gaps[-1] < 1e-14, (name, gaps)
        assert all(b < a / 50 for a, b in zip(gaps, gaps[1:])), (name, gaps)
    # the gapped ground state, polarized by B: every ring equals the bulk up to rounding
    code, out, err = run_cli(
        ["oracle-compare", "--j", "0.4", "--b", "0.2", "--B", "1.5", "--T", "0",
         "--sizes", "8,16,32,64,128", "--q", ORACLE_Q], capsys,
    )
    assert (code, err) == (0, "")
    rows = parse_csv(out)[1]
    assert [r[1] for r in rows] == ["8", "16", "32", "64", "128"] * 10
    assert all(float(r[4]) < 1e-14 for r in rows), rows


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
        raise AssertionError("a finite ring was computed before --q was checked")

    # the CLI's oracles: neither may run
    monkeypatch.setattr(cli, "spin_ring", no_ed)
    monkeypatch.setattr(cli, "finite_free_fermion", no_ed)
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
        (["--T", "0", "--sizes", "8,64,130"],
         "the parity-projected ring is capped at 128 sites, got 130"),
        (["--sizes", "8,64,130"], "the parity-projected ring is capped at 128 sites, got 130"),
    ],
)
def test_oracle_compare_rejects_bad_sizes_and_tol_before_work(argv, message, monkeypatch, capsys):
    # the verdict reads the gaps in ring order, so shrinking sizes would fail correct values
    def no_ed(*args, **kwargs):
        raise AssertionError("a finite ring was computed before --sizes/--tol were checked")

    monkeypatch.setattr(cli, "spin_ring", no_ed)
    monkeypatch.setattr(cli, "finite_free_fermion", no_ed)
    temperature = [] if "--T" in argv else ["--beta", "2"]
    code, stdout, err = run_cli(
        ["oracle-compare", "--j", "0.3", "--b", "0.2", "--B", "0.4", *temperature,
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
        (["qcp-scan", "--axis", "B", "--start", "0", "--stop", "1e200", "--step", "1e196"],
         "step^2 must be a normal float"),
        (["qcp-scan", "--axis", "B", "--start", "0", "--stop", "1e-160", "--step", "1e-163"],
         "step^2 must be a normal float"),
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


SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "staggered_xx", "point", "--B", "0.5", "--T", "0", "--q", "m_t0"],
        capture_output=True,
        text=True,
        env=SRC_ENV,
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
        [sys.executable, "-c", wrapper, "--help"], capture_output=True, text=True, env=SRC_ENV
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


def test_sweep_grid_is_bounded_before_it_is_built(tmp_path, capsys, monkeypatch):
    # a grid past 10^6 cells exits 2 from the flags and from a config file, and no
    # axis builds its values on the way
    monkeypatch.setattr(cli.AxisSpec, "values", lambda self: pytest.fail("grid built"))
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--x", "B 0 1 1000000000", "--y", "b 0 1 2", "--q", "m", "--out", str(out)]
    code, stdout, err = run_cli(argv, capsys)
    assert code == 2 and stdout == ""
    assert "sweep grid holds 2000000000 cells, more than 1000000" in err
    assert not out.exists()
    cfg = tmp_path / "big.ini"
    cfg.write_text("[sweep]\nx = B 0 1 1001\ny = b 0 1 1000\nquantities = m\n")
    for command in (["validate-config"], ["sweep", "--out", str(out)]):
        code, _, err = run_cli([*command, "--config", str(cfg)], capsys)
        assert code == 2
        assert "sweep grid holds 1001000 cells" in err
    # the bound itself is a valid grid
    cfg.write_text("[sweep]\nx = B 0 1 1000\ny = b 0 1 1000\nquantities = m\n")
    assert run_cli(["validate-config", "--config", str(cfg)], capsys)[0] == 0


def test_sweep_workers_accepts_only_1(tmp_path, capsys, monkeypatch):
    # sweeps run in one process: --workers 1 parses, any other count is a usage error
    # before any cell is computed or --out is written
    argv = ["sweep", "--T", "0.5", "--x", "B 0 1 2", "--y", "b 0 1 2", "--q", "m"]
    assert run_cli(argv + ["--workers", "1"], capsys)[0] == 0
    _no_cells(monkeypatch)
    out = tmp_path / "sweep.csv"
    out.write_text("kept")
    for workers in ("0", "-3", "2"):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--workers", workers, "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert (exc.value.code, stdout) == (2, "")
        assert "argument --workers: invalid choice" in err and workers in err
        assert out.read_text() == "kept"


@pytest.mark.parametrize(
    "argv, option",
    [
        # argparse 3.10/3.11 takes the '--' of '--opt=--' for the end of options and
        # leaves the option an empty list of values
        (["point", "--q=--"], "--q"),
        (["point", "--q", "m", "--J=--"], "--J"),
        (["sweep", "--x=--", "--y", "B 0 1 2", "--q", "m"], "--x"),
        (["sweep", "--config=--"], "--config"),
        (["oracle-compare", "--beta", "2", "--q=--"], "--q"),
        (["qcp-scan", "--axis", "B", "--start", "0", "--stop", "1", "--step=--"], "--step"),
        (["oracle-compare", "--sizes", "8.5"], "--sizes"),
    ],
)
def test_option_without_a_usable_value_is_a_usage_error(argv, option, tmp_path, capsys,
                                                        monkeypatch):
    _no_cells(monkeypatch)
    out = tmp_path / "result.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ([] if argv[0] == "point" else ["--out", str(out)]))
    stdout, err = capsys.readouterr()
    assert (exc.value.code, stdout) == (2, "")
    assert f"error: argument {option}: " in err
    assert not out.exists()
