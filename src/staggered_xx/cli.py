"""Command-line surface: points, 2-D sweeps, QCP scans, oracle reports.

Output is RFC-4180-style CSV (CRLF rows, '.' decimal, 12 significant
digits).  Sweep rows are emitted row-major with the x axis varying
fastest, and the bytes are identical for any worker count: the grid is
fixed up front and each point is a pure function of its parameters.

Exit codes: 0 success, 2 invalid input/config, 3 numerical-tolerance
failure (some rows flagged, or an oracle convergence assertion failed).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from . import correlations, entanglement, ground, thermo
from .model import ChainParams, Thermal
from .oracle import FiniteChainSpec, dense_ed, finite_free_fermion
from .quadrature import DEFAULT_QUAD, QuadSpec, ToleranceNotReached

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
    by the quantities of that point.  ``ed``/``fermion`` read it from a
    ``dense_ed``/``finite_free_fermion`` result: no ``ed`` keeps it out of
    oracle-compare, no ``fermion`` leaves its free_fermion column blank.
    Library functions are looked up through their modules at call time.
    """

    value: Callable
    t0_only: bool = False  # a function of ChainParams only: needs T = 0
    point: bool = True  # accepted by point and sweep
    ed: Callable | None = None
    fermion: Callable | None = None


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
        ed=lambda ed: ed.energy_per_site, fermion=lambda ff: ff.u,
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


class ConfigError(ValueError):
    """Invalid sweep specification or config file."""


def _validate_quantities(quantities, thermal: Thermal | None, choices=QUANTITIES) -> None:
    """Reject unknown/duplicate names and ground-state-only quantities at T > 0.

    ``thermal`` is None when temperature is swept; the axis-specific bans
    live in :class:`SweepSpec`.
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
    if thermal is not None and not thermal.is_ground:
        banned = sorted(seen & T0_ONLY_QUANTITIES)
        if banned:
            raise ConfigError(
                f"ground-state-only quantities need T = 0, not a finite temperature: "
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
    x: AxisSpec
    y: AxisSpec
    params: ChainParams
    thermal: Thermal | None
    quantities: tuple
    quad: QuadSpec

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
        _validate_quantities(self.quantities, self.thermal)
        has_t_axis = "T" in (self.x.name, self.y.name)
        if has_t_axis:
            banned = set(self.quantities) & T0_ONLY_QUANTITIES
            if banned:
                raise ConfigError(
                    f"temperature axis cannot be combined with zero-temperature-only "
                    f"quantities: {', '.join(sorted(banned))}"
                )
            if self.thermal is not None:
                raise ConfigError("fixed temperature must be omitted when T is a sweep axis")
        elif self.thermal is None:
            raise ConfigError("a fixed temperature is required when T is not a sweep axis")


def run_point(
    params: ChainParams,
    thermal: Thermal,
    quantities,
    quad: QuadSpec | None = None,
) -> tuple[dict, list]:
    """Evaluate quantities at one point; returns (record, flags).

    Unknown or duplicate quantity names and ground-state-only quantities
    at finite temperature raise :class:`ConfigError` before any
    evaluation.  Failed entries are NaN in the record and appear in
    ``flags`` as ``name:tolerance`` (quadrature did not converge) or
    ``name:error``.
    """
    quantities = tuple(quantities)
    _validate_quantities(quantities, thermal)
    quad = DEFAULT_QUAD if quad is None else quad
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


def _fmt(v: float) -> str:
    if math.isnan(v):
        return "nan"
    if v == 0.0:
        return "0"
    return f"{v:.12g}"


def _point_for(spec: SweepSpec, xv: float, yv: float) -> tuple[ChainParams, Thermal]:
    p, t = spec.params, spec.thermal
    for ax, v in ((spec.x, xv), (spec.y, yv)):
        if ax.name == "T":
            t = Thermal.from_temperature(v)
        else:
            p = replace(p, **{ax.name: v})
    return p, t


def _sweep_row_block(task) -> tuple[bool, list]:
    """All cells for one y value (one task so rows stay contiguous)."""
    spec, yv = task
    rows, flagged = [], False
    for xv in spec.x.values():
        p, t = _point_for(spec, xv, yv)
        record, flags = run_point(p, t, spec.quantities, spec.quad)
        flagged = flagged or bool(flags)
        rows.append(
            [_fmt(xv), _fmt(yv)]
            + [_fmt(record[qn]) for qn in spec.quantities]
            + [";".join(flags)]
        )
    return flagged, rows


def run_sweep(spec: SweepSpec, out, workers: int = 1) -> int:
    """Write the sweep CSV to the ``out`` stream; 0 ok, 3 if rows flagged."""
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(["x", "y"] + list(spec.quantities) + ["err_flags"])
    tasks = [(spec, yv) for yv in spec.y.values()]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_sweep_row_block, tasks))
    else:
        blocks = [_sweep_row_block(task) for task in tasks]
    any_flagged = False
    for flagged, rows in blocks:
        any_flagged = any_flagged or flagged
        writer.writerows(rows)
    return 3 if any_flagged else 0


def run_qcp_scan(
    params: ChainParams,
    axis: str,
    start: float,
    stop: float,
    step: float,
    out,
    quad: QuadSpec | None = None,
) -> int:
    """Write the second-difference scan CSV; peak summary goes to stderr."""
    try:
        scan = ground.qcp_scan(params, axis, start, stop, step, quad)
    except ToleranceNotReached:
        print("qcp-scan: ground-energy quadrature did not reach tolerance", file=sys.stderr)
        return 3
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(["x", "d2e", "flagged"])
    for v, d2 in scan.points:
        writer.writerow([_fmt(v), _fmt(d2), "1" if abs(d2) > scan.threshold else "0"])
    if scan.peaks:
        print(
            f"qcp-scan: {len(scan.peaks)} peak(s) along {axis} at "
            + ", ".join(_fmt(v) for v in scan.peaks),
            file=sys.stderr,
        )
    else:
        print(f"qcp-scan: no peaks flagged along {axis}", file=sys.stderr)
    return 0


def run_oracle_compare(
    params: ChainParams,
    thermal: Thermal,
    sizes,
    quantities,
    out,
    tol: float = 0.02,
    quad: QuadSpec | None = None,
) -> int:
    """Analytic vs finite-ring values per N; 0 iff gaps shrink below tol.

    The free-fermion column shares the analytic formulas (it differs only
    by sum-vs-integral), so convergence is asserted on the dense-ED gaps,
    which carry the genuine boundary-term discrepancy.
    """
    quantities = tuple(quantities)
    _validate_quantities(quantities, thermal, _ORACLE_CHOICES)
    eds = [dense_ed(FiniteChainSpec(n, params, thermal)) for n in sizes]
    ffs = [finite_free_fermion(FiniteChainSpec(n, params, thermal)) for n in sizes]
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(["quantity", "n_sites", "analytic", "dense_ed", "abs_gap", "free_fermion"])
    ok, memo = True, {}
    for name in quantities:
        entry = _TABLE[name]
        exact = entry.value(params, thermal, quad, memo)
        gaps = []
        for ed, ff in zip(eds, ffs):
            approx = entry.ed(ed)
            gap = abs(approx - exact)
            gaps.append(gap)
            fermion = "" if entry.fermion is None else _fmt(entry.fermion(ff))
            writer.writerow(
                [name, str(ed.n_sites), _fmt(exact), _fmt(approx), _fmt(gap), fermion]
            )
        shrinking = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        if not (shrinking and gaps[-1] < tol):
            ok = False
            print(
                f"oracle-compare: {name} gaps {[f'{g:.3e}' for g in gaps]} "
                f"fail convergence (tol {tol})",
                file=sys.stderr,
            )
    return 0 if ok else 3


_CONFIG_SECTIONS = {
    "model": {"J", "j", "b", "B"},
    "thermal": {"T", "beta"},
    "sweep": {"x", "y", "quantities"},
    "quadrature": {"abs_tol", "rel_tol", "max_subdivisions"},
}


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


def load_config(path) -> SweepSpec:
    """Parse a [model]/[thermal]/[sweep]/[quadrature] config into a SweepSpec."""
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

    for section in cp.sections():
        if section not in _CONFIG_SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _CONFIG_SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    def _float(section, key, default):
        if not cp.has_option(section, key):
            return default
        try:
            return float(cp[section][key])
        except ValueError:
            raise ConfigError(f"[{section}] {key}: not a number: {cp[section][key]!r}") from None

    try:
        params = ChainParams(
            J=_float("model", "J", 1.0),
            j=_float("model", "j", 0.0),
            b=_float("model", "b", 0.0),
            B=_float("model", "B", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"[model]: {exc}") from None

    if not cp.has_section("sweep"):
        raise ConfigError("missing required section [sweep]")
    for key in ("x", "y", "quantities"):
        if not cp.has_option("sweep", key):
            raise ConfigError(f"[sweep] is missing required key {key!r}")
    x = _parse_axis(cp["sweep"]["x"], "[sweep] x")
    y = _parse_axis(cp["sweep"]["y"], "[sweep] y")
    quantities = tuple(cp["sweep"]["quantities"].replace(",", " ").split())

    thermal = None
    if cp.has_section("thermal") and cp["thermal"]:
        if cp.has_option("thermal", "T") and cp.has_option("thermal", "beta"):
            raise ConfigError("[thermal]: give T or beta, not both")
        if cp.has_option("thermal", "T"):
            try:
                thermal = Thermal.from_temperature(_float("thermal", "T", 0.0))
            except ValueError as exc:
                raise ConfigError(f"[thermal] T: {exc}") from None
        else:
            try:
                thermal = Thermal.finite(_float("thermal", "beta", 1.0))
            except ValueError as exc:
                raise ConfigError(f"[thermal] beta: {exc}") from None
    elif "T" not in (x.name, y.name):
        thermal = Thermal.zero()

    try:
        quad = QuadSpec(
            abs_tol=_float("quadrature", "abs_tol", DEFAULT_QUAD.abs_tol),
            rel_tol=_float("quadrature", "rel_tol", DEFAULT_QUAD.rel_tol),
            max_subdivisions=int(_float("quadrature", "max_subdivisions", DEFAULT_QUAD.max_subdivisions)),
        )
    except ValueError as exc:
        raise ConfigError(f"[quadrature]: {exc}") from None

    return SweepSpec(x=x, y=y, params=params, thermal=thermal, quantities=quantities, quad=quad)


def _add_model_args(sub) -> None:
    sub.add_argument("--J", type=float, default=1.0, help="uniform coupling (default 1)")
    sub.add_argument("--j", type=float, default=0.0, help="staggered coupling")
    sub.add_argument("--b", type=float, default=0.0, help="staggered field")
    sub.add_argument("--B", type=float, default=0.0, help="uniform field")


def _add_thermal_args(sub) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--T", type=float, default=None, help="temperature (0 = ground state)")
    group.add_argument("--beta", type=float, default=None, help="inverse temperature")


def _add_quad_args(sub) -> None:
    sub.add_argument("--abs-tol", type=float, default=DEFAULT_QUAD.abs_tol)
    sub.add_argument("--rel-tol", type=float, default=DEFAULT_QUAD.rel_tol)
    sub.add_argument("--max-subdivisions", type=int, default=DEFAULT_QUAD.max_subdivisions)


def _params_from(args) -> ChainParams:
    return ChainParams(J=args.J, j=args.j, b=args.b, B=args.B)


def _thermal_from(args) -> Thermal:
    if args.beta is not None:
        return Thermal.finite(args.beta)
    return Thermal.from_temperature(args.T if args.T is not None else 0.0)


def _quad_from(args) -> QuadSpec:
    return QuadSpec(
        abs_tol=args.abs_tol,
        rel_tol=args.rel_tol,
        max_subdivisions=args.max_subdivisions,
    )


def _split_csv_list(text: str) -> tuple:
    return tuple(tok for tok in text.replace(",", " ").split() if tok)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="staggered-xx",
        description="Analytic staggered XX chain: thermodynamics, correlations, entanglement.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("point", help="evaluate quantities at a single parameter point")
    _add_model_args(sp)
    _add_thermal_args(sp)
    _add_quad_args(sp)
    sp.add_argument("--q", required=True, help="comma-separated quantities")

    sw = subs.add_parser("sweep", help="2-D parameter sweep to CSV")
    _add_model_args(sw)
    _add_thermal_args(sw)
    _add_quad_args(sw)
    sw.add_argument("--config", default=None, help="config file (excludes inline sweep flags)")
    sw.add_argument("--x", default=None, help="x axis: 'name start stop steps'")
    sw.add_argument("--y", default=None, help="y axis: 'name start stop steps'")
    sw.add_argument("--q", default=None, help="comma-separated quantities")
    sw.add_argument("--out", default="-", help="output CSV path (default stdout)")
    sw.add_argument("--workers", type=int, default=1, help="parallel worker processes")

    qc = subs.add_parser("qcp-scan", help="second derivative of the ground energy")
    _add_model_args(qc)
    _add_quad_args(qc)
    qc.add_argument("--axis", required=True, choices=("B", "b", "j"))
    qc.add_argument("--start", type=float, required=True)
    qc.add_argument("--stop", type=float, required=True)
    qc.add_argument("--step", type=float, required=True)
    qc.add_argument("--out", default="-")

    oc = subs.add_parser("oracle-compare", help="analytic vs exact-diagonalization report")
    _add_model_args(oc)
    _add_thermal_args(oc)
    _add_quad_args(oc)
    oc.add_argument("--sizes", default="8,10,12", help="ring sizes, e.g. 8,10,12")
    oc.add_argument("--q", default="m,g1_odd,g1_even,c1_odd,c1_even", help="quantities")
    oc.add_argument("--tol", type=float, default=0.02, help="final-gap tolerance")
    oc.add_argument("--out", default="-")

    vc = subs.add_parser("validate-config", help="check a sweep config file")
    vc.add_argument("--config", required=True)

    args = parser.parse_args(argv)

    try:
        if args.command == "point":
            record, flags = run_point(
                _params_from(args), _thermal_from(args), _split_csv_list(args.q), _quad_from(args)
            )
            writer = csv.writer(sys.stdout, lineterminator="\r\n")
            writer.writerow(list(record) + ["err_flags"])
            writer.writerow([_fmt(v) for v in record.values()] + [";".join(flags)])
            return 3 if flags else 0

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

        if args.command == "sweep":
            if args.config is not None:
                if args.x or args.y or args.q:
                    raise ConfigError("--config excludes inline --x/--y/--q flags")
                spec = load_config(args.config)
            else:
                if not (args.x and args.y and args.q):
                    raise ConfigError("sweep needs --config or all of --x, --y, --q")
                x, y = _parse_axis(args.x, "--x"), _parse_axis(args.y, "--y")
                thermal = None
                if "T" not in (x.name, y.name):
                    thermal = _thermal_from(args)
                elif args.T is not None or args.beta is not None:
                    raise ConfigError("fixed --T/--beta must be omitted when T is a sweep axis")
                spec = SweepSpec(
                    x=x,
                    y=y,
                    params=_params_from(args),
                    thermal=thermal,
                    quantities=_split_csv_list(args.q),
                    quad=_quad_from(args),
                )
            run = lambda out: run_sweep(spec, out, workers=max(1, args.workers))
        elif args.command == "qcp-scan":
            run = lambda out: run_qcp_scan(
                _params_from(args), args.axis, args.start, args.stop, args.step,
                out, _quad_from(args),
            )
        else:
            sizes = tuple(int(s) for s in _split_csv_list(args.sizes))
            if not sizes:
                raise ConfigError("--sizes must list at least one ring size")
            run = lambda out: run_oracle_compare(
                _params_from(args), _thermal_from(args), sizes,
                _split_csv_list(args.q), out, tol=args.tol, quad=_quad_from(args),
            )
        if args.out == "-":
            return run(sys.stdout)
        with open(args.out, "w", encoding="utf-8", newline="") as out:
            return run(out)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
