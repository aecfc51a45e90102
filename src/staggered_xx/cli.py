"""Command-line surface: points, 2-D sweeps, QCP scans, oracle reports.

Output is RFC-4180-style CSV (CRLF rows, '.' decimal, 12 significant
digits).  Sweep rows are emitted row-major with the x axis varying
fastest, and the bytes are identical for any worker count: the grid is
fixed up front and each point is a pure function of its parameters.  A
row's finite-T cells share one batched run of the engine ``point`` uses.

Flags and config files set the same options through the same converters;
``--out`` is opened only after a command has run, on exit 0 or 3.

Exit codes: 0 success, 2 invalid input/config, 3 numerical-tolerance
failure (some rows flagged, or an oracle convergence assertion failed).
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import math
import os
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace

from . import correlations, entanglement, ground, thermo
from .model import ChainParams, Thermal
from .oracle import _DENSE_CAP, FiniteChainSpec, dense_ed, finite_free_fermion
from .quadrature import ToleranceNotReached

__all__ = [
    "ConfigError",
    "AxisSpec",
    "SweepSpec",
    "QUANTITIES",
    "T0_ONLY_QUANTITIES",
    "run_point",
    "run_sweep",
    "run_qcp_scan",
    "run_oracle_compare",
    "load_config",
    "main",
]


@dataclass(frozen=True)
class _Quantity:
    """How the CLI computes one named quantity.

    ``value(p, t, quad, memo)`` evaluates it at one point; ``memo`` is shared
    by the quantities of that point.  ``quad`` is None, or at a finite-T sweep
    cell the record of ``correlations._band_integrals``, which the library
    functions read instead of integrating.  ``ed``/``fermion`` read it
    from a ``dense_ed``/``finite_free_fermion`` result: no ``ed`` keeps it out
    of oracle-compare, no ``fermion`` leaves its free_fermion column blank.
    Library functions are looked up through their modules at call time.
    """

    value: Callable
    t0_only: bool = False  # a function of ChainParams only: needs T = 0
    point: bool = True  # accepted by point and sweep
    ed: Callable | None = None
    fermion: Callable | None = None
    energy: bool = False  # oracle-compare judges its gaps in units of max(J, |j|, |b|, |B|)


def _sublattice(pair: str, parity: str) -> Callable:
    """Value of ``entanglement.<pair>`` at ``parity``; one call serves both parities."""

    def value(p, t, quad, memo):
        if pair not in memo:
            memo[pair] = getattr(entanglement, pair)(p, t, quad)
        return memo[pair].at(parity)

    return value


_PARITIES = ("odd", "even")
_TABLE = {
    "u": _Quantity(
        lambda p, t, quad, memo: thermo.internal_energy(p, t, quad),
        ed=lambda ed: ed.energy_per_site, fermion=lambda ff: ff.u, energy=True,
    ),
    "m": _Quantity(
        lambda p, t, quad, memo: thermo.magnetization(p, t, quad),
        ed=lambda ed: ed.magnetization, fermion=lambda ff: ff.m,
    ),
    "m_s": _Quantity(
        lambda p, t, quad, memo: thermo.staggered_magnetization(p, t, quad),
        ed=lambda ed: ed.staggered_magnetization, fermion=lambda ff: ff.m_s,
    ),
    "e_mw": _Quantity(lambda p, t, quad, memo: ground.meyer_wallach(p, quad), t0_only=True),
    **{
        f"g1_{s}": _Quantity(
            lambda p, t, quad, memo, s=s: correlations.g_site(p, t, s, 1, quad), point=False,
            ed=lambda ed, s=s: ed.g[(s, 1)], fermion=lambda ff, s=s: ff.g[1].at(s),
        )
        for s in _PARITIES
    },
    **{
        f"zz1_{s}": _Quantity(
            lambda p, t, quad, memo, s=s: correlations.zz_correlator(p, t, s, 1, quad),
            point=False, ed=lambda ed, s=s: ed.zz[(s, 1)],
        )
        for s in _PARITIES
    },
    **{
        f"c1_{s}": _Quantity(_sublattice("c1", s), ed=lambda ed, s=s: ed.concurrence[(s, 1)])
        for s in _PARITIES
    },
    **{f"c2_{s}": _Quantity(_sublattice("c2", s)) for s in _PARITIES},
    "witness_lhs": _Quantity(
        lambda p, t, quad, memo: entanglement.witness(p, t, quad).lhs,
        ed=lambda ed: ed.witness_lhs,
    ),
    "energy_t0": _Quantity(lambda p, t, quad, memo: ground.energy(p, quad), t0_only=True),
    "m_t0": _Quantity(lambda p, t, quad, memo: ground.magnetization_t0(p), t0_only=True),
}

QUANTITIES = tuple(name for name, q in _TABLE.items() if q.point)
T0_ONLY_QUANTITIES = frozenset(name for name, q in _TABLE.items() if q.t0_only)
_ORACLE_CHOICES = tuple(name for name, q in _TABLE.items() if q.ed is not None)

_AXIS_NAMES = ("B", "b", "j", "T")
_NEGATIVE = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|-(inf|infinity|nan)", re.IGNORECASE)


class ConfigError(ValueError):
    """Invalid sweep specification or config file."""


def _validate_quantities(quantities, thermal: Thermal | None, choices=QUANTITIES) -> None:
    """Reject unknown/duplicate names and ground-state-only quantities away from T = 0.

    ``thermal`` is None when temperature is swept, which counts as finite.
    """
    if not quantities:
        raise ConfigError("at least one quantity is required")
    seen = set()
    for qn in quantities:
        if qn not in choices:
            raise ConfigError(f"unknown quantity {qn!r}; choose from {', '.join(choices)}")
        if qn in seen:
            raise ConfigError(f"duplicate quantity {qn!r}")
        seen.add(qn)
    if thermal is None or not thermal.is_ground:
        banned = sorted(seen & T0_ONLY_QUANTITIES)
        if banned:
            raise ConfigError(
                f"ground-state-only quantities need T = 0, not a finite or swept temperature: "
                f"{', '.join(banned)}"
            )


@dataclass(frozen=True)
class AxisSpec:
    name: str
    start: float
    stop: float
    steps: int

    def values(self) -> list[float]:
        h = (self.stop - self.start) / (self.steps - 1)
        return [self.start + h * i for i in range(self.steps)]


@dataclass(frozen=True)
class SweepSpec:
    """A 2-D sweep.  ``thermal`` is the fixed temperature: it must be None
    when T is a sweep axis, and None means T = 0 when it is not."""

    x: AxisSpec
    y: AxisSpec
    params: ChainParams
    thermal: Thermal | None
    quantities: tuple

    def __post_init__(self) -> None:
        for ax in (self.x, self.y):
            if ax.name not in _AXIS_NAMES:
                raise ConfigError(f"axis parameter must be one of {_AXIS_NAMES}, got {ax.name!r}")
            if not (math.isfinite(ax.start) and math.isfinite(ax.stop)):
                raise ConfigError(f"axis {ax.name}: start/stop must be finite")
            if ax.steps < 2:
                raise ConfigError(f"axis {ax.name}: steps must be >= 2, got {ax.steps}")
            if ax.name == "T" and (ax.start < 0 or ax.stop < 0):
                raise ConfigError("temperature axis values must be >= 0")
        if self.x.name == self.y.name:
            raise ConfigError(f"sweep axes must name distinct parameters, both are {self.x.name!r}")
        if "T" in (self.x.name, self.y.name):
            if self.thermal is not None:
                raise ConfigError("a fixed T or beta must be omitted when T is a sweep axis")
        elif self.thermal is None:
            object.__setattr__(self, "thermal", Thermal.zero())
        _validate_quantities(self.quantities, self.thermal)


def _evaluate(params: ChainParams, thermal: Thermal, quantities, quad) -> tuple[dict, list]:
    """Values of already validated quantities (``quad`` as in ``_Quantity``);
    a failed one is NaN and flagged."""
    record, flags, memo = {}, [], {}
    for name in quantities:
        try:
            record[name] = _TABLE[name].value(params, thermal, quad, memo)
        except ToleranceNotReached:
            record[name] = math.nan
            flags.append(f"{name}:tolerance")
        except (ArithmeticError, ValueError):
            record[name] = math.nan
            flags.append(f"{name}:error")
    return record, flags


def run_point(params: ChainParams, thermal: Thermal, quantities) -> tuple[dict, list]:
    """Evaluate quantities at one point; returns (record, flags).

    Unknown or duplicate quantity names and ground-state-only quantities
    at finite temperature raise :class:`ConfigError` before any
    evaluation.  Failed entries are NaN in the record and appear in
    ``flags`` as ``name:tolerance`` (quadrature did not converge) or
    ``name:error``.
    """
    quantities = tuple(quantities)
    _validate_quantities(quantities, thermal)
    return _evaluate(params, thermal, quantities, None)


def _fmt(v: float) -> str:
    if math.isnan(v):
        return "nan"
    if v == 0.0:
        return "0"
    return f"{v:.12g}"


def _sweep_row_block(task) -> list:
    """All cells for one y value (one task so rows stay contiguous); its finite-T
    cells share one batched integration, T = 0 cells read the ground closed forms."""
    spec, yv = task
    cells = []
    for xv in spec.x.values():
        p, t = spec.params, spec.thermal
        for ax, v in ((spec.x, xv), (spec.y, yv)):
            if ax.name == "T":
                t = Thermal.from_temperature(v)
            else:
                p = replace(p, **{ax.name: v})
        cells.append((xv, p, t))
    records = iter(correlations._band_integrals([(p, t) for _, p, t in cells if not t.is_ground]))
    rows = []
    for xv, p, t in cells:
        record, flags = _evaluate(p, t, spec.quantities, None if t.is_ground else next(records))
        rows.append(
            [_fmt(xv), _fmt(yv)]
            + [_fmt(record[qn]) for qn in spec.quantities]
            + [";".join(flags)]
        )
    return rows


def run_sweep(spec: SweepSpec, workers: int = 1) -> tuple[int, list]:
    """Exit code (0 ok, 3 if rows flagged) and the CSV rows, header first."""
    tasks = [(spec, yv) for yv in spec.y.values()]
    # fork starts every worker up front, so start no more than can be busy
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_sweep_row_block, tasks))
    else:
        blocks = [_sweep_row_block(task) for task in tasks]
    rows = [["x", "y", *spec.quantities, "err_flags"]]
    for block in blocks:
        rows += block
    return (3 if any(row[-1] for row in rows[1:]) else 0), rows


def run_qcp_scan(
    params: ChainParams, axis: str, start: float, stop: float, step: float
) -> tuple[int, list]:
    """Exit code and the second-difference scan rows; peak summary goes to stderr."""
    try:
        scan = ground.qcp_scan(params, axis, start, stop, step)
    except ToleranceNotReached:
        print("qcp-scan: ground-energy quadrature did not reach tolerance", file=sys.stderr)
        return 3, []
    rows = [["x", "d2e", "flagged"]] + [
        [_fmt(v), _fmt(d2), "1" if abs(d2) > scan.threshold else "0"] for v, d2 in scan.points
    ]
    if scan.peaks:
        print(
            f"qcp-scan: {len(scan.peaks)} peak(s) along {axis} at "
            + ", ".join(_fmt(v) for v in scan.peaks),
            file=sys.stderr,
        )
    else:
        print(f"qcp-scan: no peaks flagged along {axis}", file=sys.stderr)
    return 0, rows


def run_oracle_compare(
    params: ChainParams, thermal: Thermal, sizes, quantities, tol: float = 0.02
) -> tuple[int, list]:
    """Analytic vs finite-ring values per N; exit code 0 iff gaps shrink below tol.

    The free-fermion column shares the analytic formulas (it differs only
    by sum-vs-integral), so convergence is asserted on the dense-ED gaps,
    which carry the genuine boundary-term discrepancy; an energy's gaps are
    judged in units of the chain's scale max(J, |j|, |b|, |B|).  A failed analytic
    value is NaN, so its gaps fail.  Sizes that do not increase strictly or
    exceed the dense cap, or a tol that is not positive and finite, raise
    :class:`ConfigError` before any diagonalization.
    """
    quantities = tuple(quantities)
    _validate_quantities(quantities, thermal, _ORACLE_CHOICES)
    # the verdict reads the gaps in order of growing rings
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigError(f"ring sizes must increase strictly, got {', '.join(map(str, sizes))}")
    if max(sizes) > _DENSE_CAP:
        raise ConfigError(
            f"dense diagonalization is capped at {_DENSE_CAP} sites, got {max(sizes)}"
        )
    if not (tol > 0 and math.isfinite(tol)):
        raise ConfigError(f"tol must be a positive finite number, got {tol}")
    specs = [FiniteChainSpec(n, params, thermal) for n in sizes]
    eds = [dense_ed(spec) for spec in specs]
    ffs = [finite_free_fermion(spec) for spec in specs]
    record, flags = _evaluate(params, thermal, quantities, None)
    if flags:
        print(f"oracle-compare: analytic values failed: {';'.join(flags)}", file=sys.stderr)
    rows = [["quantity", "n_sites", "analytic", "dense_ed", "abs_gap", "free_fermion"]]
    scale = max(params.J, abs(params.j), abs(params.b), abs(params.B)) or 1.0
    ok = True
    for name in quantities:
        entry, exact = _TABLE[name], record[name]
        gaps = []
        for ed, ff in zip(eds, ffs):
            approx = entry.ed(ed)
            gap = abs(approx - exact)
            gaps.append(gap / scale if entry.energy else gap)
            fermion = "" if entry.fermion is None else _fmt(entry.fermion(ff))
            rows.append([name, str(ed.n_sites), _fmt(exact), _fmt(approx), _fmt(gap), fermion])
        shrinking = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        if not (shrinking and gaps[-1] < tol):
            ok = False
            print(
                f"oracle-compare: {name} gaps {[f'{g:.3e}' for g in gaps]}"
                + (f" in units of {scale:.6g}" if entry.energy else "")
                + f" fail convergence (tol {tol})",
                file=sys.stderr,
            )
    return (0 if ok else 3), rows


def _parse_axis(text: str, where: str) -> AxisSpec:
    tokens = text.split()
    if len(tokens) != 4:
        raise ConfigError(
            f"{where}: expected 'name start stop steps' (4 fields), got {text!r}"
        )
    name, start, stop, steps = tokens
    try:
        return AxisSpec(name=name, start=float(start), stop=float(stop), steps=int(steps))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _split_csv_list(text: str) -> tuple:
    return tuple(text.replace(",", " ").split())


@dataclass(frozen=True)
class _Options:
    """Option values as text by option name (None: not given), from flags or a config file.

    ``label`` names an option in error messages.  What is not given takes
    its default from ChainParams or, for the temperature, the caller.
    """

    values: dict
    label: Callable[[str], str]

    def _given(self, names) -> dict:
        given = {name: self.values[name] for name in names if self.values.get(name) is not None}
        for name, text in given.items():
            try:
                given[name] = float(text)
            except ValueError:
                raise ConfigError(f"{self.label(name)}: not a number: {text!r}") from None
        return given

    def params(self) -> ChainParams:
        return ChainParams(**self._given(("J", "j", "b", "B")))

    def thermal(self) -> Thermal | None:
        """The fixed temperature; None when neither T nor beta is given."""
        given = self._given(("T", "beta"))
        if len(given) == 2:
            raise ConfigError(f"give {self.label('T')} or {self.label('beta')}, not both")
        if "beta" in given:
            return Thermal.finite(given["beta"])
        return Thermal.from_temperature(given["T"]) if "T" in given else None

    def sweep(self) -> SweepSpec:
        for name in ("x", "y", "q"):
            if self.values.get(name) is None:
                raise ConfigError(f"missing {self.label(name)}")
        return SweepSpec(
            x=_parse_axis(self.values["x"], self.label("x")),
            y=_parse_axis(self.values["y"], self.label("y")),
            params=self.params(),
            thermal=self.thermal(),
            quantities=_split_csv_list(self.values["q"]),
        )


# config [section] key -> the option it sets
_CONFIG_KEYS = {
    ("model", "J"): "J", ("model", "j"): "j", ("model", "b"): "b", ("model", "B"): "B",
    ("thermal", "T"): "T", ("thermal", "beta"): "beta",
    ("sweep", "x"): "x", ("sweep", "y"): "y", ("sweep", "quantities"): "q",
}
_CONFIG_SECTIONS = {section for section, _ in _CONFIG_KEYS}
_CONFIG_LABEL = {name: f"[{section}] {key}" for (section, key), name in _CONFIG_KEYS.items()}


def load_config(path) -> SweepSpec:
    """Parse a [model]/[thermal]/[sweep] config into a SweepSpec."""
    cp = configparser.ConfigParser(interpolation=None)
    # configparser lower-cases keys by default; J vs j must survive
    cp.optionxform = str
    try:
        with open(path, encoding="utf-8") as f:
            cp.read_file(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None

    values = {}
    for section in cp.sections():
        if section not in _CONFIG_SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in cp[section].items():
            if (section, key) not in _CONFIG_KEYS:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[_CONFIG_KEYS[section, key]] = value
    return _Options(values, _CONFIG_LABEL.__getitem__).sweep()


def _check_writable(path: str) -> None:
    """Reject an --out path that cannot be written, without creating or truncating it."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ConfigError(f"--out {path}: no directory {folder}")
    if os.path.isdir(path) or not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise ConfigError(f"--out {path}: not a writable file")


def _add_options(sub, thermal: bool = True) -> None:
    """The model and temperature flags; values stay text for _Options."""
    sub.add_argument("--J", help="uniform coupling (default 1)")
    sub.add_argument("--j", help="staggered coupling")
    sub.add_argument("--b", help="staggered field")
    sub.add_argument("--B", help="uniform field")
    if thermal:
        group = sub.add_mutually_exclusive_group()
        group.add_argument("--T", help="temperature (0 = ground state)")
        group.add_argument("--beta", help="inverse temperature")


def _attach_negative_numbers(argv) -> list:
    """``--b -2e-05`` as ``--b=-2e-05``: argparse reads '-2e-05' as an option.

    The same holds for '-inf' and '-nan', which ``float`` accepts in any case.
    """
    out = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE.fullmatch(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="staggered-xx",
        description="Analytic staggered XX chain: thermodynamics, correlations, entanglement.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("point", help="evaluate quantities at a single parameter point")
    _add_options(sp)
    sp.add_argument("--q", required=True, help="comma-separated quantities")

    sw = subs.add_parser("sweep", help="2-D parameter sweep to CSV")
    _add_options(sw)
    sw.add_argument("--config", default=None, help="config file (excludes inline sweep flags)")
    sw.add_argument("--x", default=None, help="x axis: 'name start stop steps'")
    sw.add_argument("--y", default=None, help="y axis: 'name start stop steps'")
    sw.add_argument("--q", default=None, help="comma-separated quantities")
    sw.add_argument("--out", default="-", help="output CSV path (default stdout)")
    sw.add_argument("--workers", type=int, default=1, help="parallel worker processes")

    qc = subs.add_parser("qcp-scan", help="second derivative of the ground energy")
    _add_options(qc, thermal=False)
    qc.add_argument("--axis", required=True, choices=("B", "b", "j"))
    qc.add_argument("--start", type=float, required=True)
    qc.add_argument("--stop", type=float, required=True)
    qc.add_argument("--step", type=float, required=True)
    qc.add_argument("--out", default="-")

    oc = subs.add_parser("oracle-compare", help="analytic vs exact-diagonalization report")
    _add_options(oc)
    oc.add_argument("--sizes", default="8,10,12", help="ring sizes, e.g. 8,10,12")
    oc.add_argument("--q", default="m,g1_odd,g1_even,c1_odd,c1_even", help="quantities")
    oc.add_argument("--tol", type=float, default=0.02, help="final-gap tolerance")
    oc.add_argument("--out", default="-")

    vc = subs.add_parser("validate-config", help="check a sweep config file")
    vc.add_argument("--config", required=True)

    args = parser.parse_args(_attach_negative_numbers(sys.argv[1:] if argv is None else argv))
    opts = _Options(vars(args), lambda name: "--" + name)

    # Each command validates and computes; --out is opened only once it has rows.
    out_path = getattr(args, "out", "-")
    try:
        if out_path != "-":
            _check_writable(out_path)
        if args.command == "validate-config":
            spec = load_config(args.config)
            t = spec.thermal
            t_desc = "swept" if t is None else ("T=0" if t.is_ground else f"beta={t.beta:g}")
            print(
                f"config ok: x={spec.x.name} [{spec.x.start:g}, {spec.x.stop:g}] "
                f"x{spec.x.steps}, y={spec.y.name} [{spec.y.start:g}, {spec.y.stop:g}] "
                f"x{spec.y.steps}, {t_desc}, quantities: {', '.join(spec.quantities)}"
            )
            return 0

        if args.command == "point":
            record, flags = run_point(
                opts.params(), opts.thermal() or Thermal.zero(), _split_csv_list(args.q)
            )
            code = 3 if flags else 0
            rows = [list(record) + ["err_flags"]]
            rows.append([_fmt(v) for v in record.values()] + [";".join(flags)])
        elif args.command == "sweep":
            if args.config is not None:
                inline = [opts.label(n) for n in _CONFIG_LABEL if opts.values.get(n) is not None]
                if inline:
                    raise ConfigError(f"--config excludes inline flags: {', '.join(inline)}")
                spec = load_config(args.config)
            else:
                spec = opts.sweep()
            code, rows = run_sweep(spec, workers=args.workers)
        elif args.command == "qcp-scan":
            code, rows = run_qcp_scan(opts.params(), args.axis, args.start, args.stop, args.step)
        else:
            sizes = tuple(int(s) for s in _split_csv_list(args.sizes))
            if not sizes:
                raise ConfigError("--sizes must list at least one ring size")
            code, rows = run_oracle_compare(
                opts.params(), opts.thermal() or Thermal.zero(), sizes,
                _split_csv_list(args.q), tol=args.tol,
            )
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with (
        contextlib.nullcontext(sys.stdout) if out_path == "-"
        else open(out_path, "w", encoding="utf-8", newline="")
    ) as out:
        csv.writer(out, lineterminator="\r\n").writerows(rows)
    return code


if __name__ == "__main__":
    sys.exit(main())
