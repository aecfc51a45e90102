"""Seeded inputs and output checks for the four benchmark workloads.

A workload is a list of rounds.  Round ``r`` of seed ``s`` is drawn from
``random.Random(f"{name}:{s}:{r}")`` and every round holds the same number
and kinds of requests, so a run attempts whole rounds of the same
operations.  A request is the argv of one ``staggered_xx.cli.main`` call.

This module imports neither numpy nor the package under test, so that the
set-up time the benchmark reports is spent importing ``staggered_xx.cli``.
The checks import :mod:`reference` when they run, after the timed loop.
"""

from __future__ import annotations

import csv
import io
import math
import random

FINITE_T = ("u", "m", "m_s", "c1_odd", "c1_even", "c2_odd", "c2_even", "witness_lhs")
GROUND_ONLY = ("e_mw", "energy_t0", "m_t0")
ORACLE_Q = ("u", "m", "m_s", "g1_odd", "g1_even", "zz1_odd", "zz1_even",
            "c1_odd", "c1_even", "witness_lhs")
ORACLE_SIZES = (8, 10, 12)
# 12 significant digits in the CSV: rounding is below 5e-12 of the value
PRINT_REL = 6e-12
CONCURRENCES = ("c1_odd", "c1_even", "c2_odd", "c2_even")
# beta times the height of |B| above the top of the band sweep beyond which
# the workloads treat the thermal state as polarized (see polarized())
POLARIZED = 5.0
# points draw beta log-uniform in [1e-2, 10**BETA_MAX_DECADE]; above about
# 300 the CLI misses its 1e-10 promise on some points (see CHANGES.md)
BETA_MAX_DECADE = math.log10(200.0)


def num(x: float) -> str:
    return repr(float(x))


def opt(name: str, x: float) -> str:
    # --name=value: argparse takes "--b -2e-05" for two options and exits 2
    return f"--{name}={num(x)}"


def signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def polarized(j: float, b: float, B: float, beta: float) -> bool:
    """Whether |B| lies more than 5 T above the top of the band sweep (J = 1).

    The thermal state is then close to fully polarized, and the CLI's
    concurrences lose up to 1.5e-8 to cancellation in their radicand (see
    CHANGES.md), so the workloads do not ask for them there.
    """
    return beta * (abs(B) - math.hypot(max(1.0, abs(j)), b)) > POLARIZED


def data_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


class Checker:
    """Accumulates problems and the largest |program - reference| seen."""

    def __init__(self):
        self.problems: list[str] = []
        self.max_abs_dev = 0.0
        self.values = 0

    def fail(self, what: str) -> None:
        self.problems.append(what)

    def compare(self, where: str, printed: str, ref: float, tol: float) -> None:
        self.values += 1
        try:
            got = float(printed)
        except ValueError:
            self.fail(f"{where}: not a number: {printed!r}")
            return
        dev = abs(got - ref)
        if math.isnan(dev):
            self.fail(f"{where}: printed {printed}, reference {ref!r}")
            return
        self.max_abs_dev = max(self.max_abs_dev, dev)
        if dev > tol + PRINT_REL * abs(ref) + 1e-15:
            self.fail(f"{where}: printed {printed}, reference {ref:.15g}, "
                      f"|dev| {dev:.3e} > tol {tol:.3e}")


def _compare_point(chk: Checker, where, p, names, printed):
    """Compare printed quantities at one point, with a second reference on mismatch."""
    import reference as ref

    prim, vals, tols = ref.reference(p)
    first = Checker()
    for name, text in zip(names, printed):
        first.compare(f"{where} {name}", text, vals[name], tols[name])
    if first.problems:
        # Confirm with an independent second reference before blaming the program.
        second = ref.mp_primitives(p)
        vals = ref.quantities(p, second)
        tols = ref.tolerances(p, second)
    for name, text in zip(names, printed):
        chk.compare(f"{where} {name}", text, vals[name], tols[name])


# --------------------------------------------------------------------------


class Workload:
    """Rounds of requests (``round``) and the check of one output (``check``)."""

    check_rounds = 1  # rounds whose outputs are checked against the reference

    def warmup(self, seed: int) -> list[str]:
        """The set-up's warm-up request, from a round no run sends."""
        return self.round(seed, -1)[0]["argv"]


class Points(Workload):
    """Single ``point`` requests: the latency path."""

    name = "points"
    per_round = 24
    ground_per_round = 6
    check_rounds = 2

    def round(self, seed: int, r: int) -> list[dict]:
        rng = random.Random(f"{self.name}:{seed}:{r}")
        kinds = [True] * self.ground_per_round + [False] * (self.per_round - self.ground_per_round)
        rng.shuffle(kinds)
        out = []
        for ground in kinds:
            j, b, B = signed(rng, 0.0, 1.6), signed(rng, 0.0, 1.0), signed(rng, 0.0, 2.0)
            argv = ["point", "--J=1.0", opt("j", j), opt("b", b), opt("B", B)]
            if ground:
                names = rng.sample(FINITE_T + GROUND_ONLY, rng.randint(1, 11))
                if not set(names) & set(GROUND_ONLY):
                    names.append(rng.choice(GROUND_ONLY))
                argv += ["--T", "0"]
                beta = math.inf
            else:
                beta = 10.0 ** rng.uniform(-2.0, BETA_MAX_DECADE)
                pool = FINITE_T
                if polarized(j, b, B, beta):
                    pool = tuple(q for q in FINITE_T if q not in CONCURRENCES)
                names = rng.sample(pool, rng.randint(1, len(pool)))
                argv.append(opt("beta", beta))
            argv += ["--q", ",".join(names)]
            out.append({"argv": argv, "point": (1.0, j, b, B, beta), "names": names})
        return out

    def check(self, chk: Checker, req: dict, out: str, err: str) -> None:
        import reference as ref

        rows = data_rows(out)
        names = req["names"]
        if len(rows) != 2 or rows[0] != names + ["err_flags"] or rows[1][-1] != "":
            chk.fail(f"point {req['argv']}: unexpected output {out!r}")
            return
        _compare_point(chk, "point", ref.Point(*req["point"]), names, rows[1][:-1])


class SweepThermal(Workload):
    """Finite-T 2-D ``sweep`` requests over (B,T), (b,T) and (j,B): the batch path."""

    name = "sweep-thermal"
    steps = 6
    t_lo, t_hi = 0.02, 2.0

    def __init__(self, workers: int = 1):
        self.workers = workers

    def _axis(self, name, lo, hi):
        return {"name": name, "start": lo, "stop": hi, "steps": self.steps}

    def round(self, seed: int, r: int) -> list[dict]:
        rng = random.Random(f"{self.name}:{seed}:{r}")
        t_fixed = math.exp(rng.uniform(math.log(self.t_lo), math.log(self.t_hi)))
        # |B| <= 1 + POLARIZED * T_min keeps every cell short of polarized(),
        # since the band sweep reaches at least J = 1
        b_axis = 1.0 + POLARIZED * self.t_lo
        b_fixed = 1.0 + POLARIZED * t_fixed
        b_lo = rng.uniform(-1.0, 0.0)
        grids = [
            # (x axis, y axis, fixed parameters)
            (self._axis("B", rng.uniform(-0.5, 0.5), rng.uniform(0.8, b_axis)),
             self._axis("T", self.t_lo, self.t_hi),
             {"j": signed(rng, 0.0, 1.5), "b": signed(rng, 0.0, 1.0)}),
            (self._axis("b", b_lo, b_lo + rng.uniform(0.5, 1.5)),
             self._axis("T", self.t_lo, self.t_hi),
             {"j": signed(rng, 0.0, 1.5), "B": signed(rng, 0.0, b_axis)}),
            (self._axis("j", rng.uniform(-1.5, -0.5), rng.uniform(0.5, 1.5)),
             self._axis("B", -rng.uniform(0.5, b_fixed), rng.uniform(0.5, b_fixed)),
             {"b": signed(rng, 0.0, 1.0), "T": t_fixed}),
        ]
        out = []
        for x, y, fixed in grids:
            argv = ["sweep", "--J=1.0"]
            argv += [opt(key, fixed[key]) for key in ("j", "b", "B", "T") if key in fixed]
            argv += ["--x", f"{x['name']} {num(x['start'])} {num(x['stop'])} {x['steps']}",
                     "--y", f"{y['name']} {num(y['start'])} {num(y['stop'])} {y['steps']}",
                     "--q", ",".join(FINITE_T), "--workers", str(self.workers)]
            out.append({"argv": argv, "x": x, "y": y, "fixed": fixed})
        return out

    @staticmethod
    def values(axis) -> list[float]:
        # the grid the CLI documents: steps equally spaced values, ends included
        h = (axis["stop"] - axis["start"]) / (axis["steps"] - 1)
        return [axis["start"] + h * i for i in range(axis["steps"])]

    def check(self, chk: Checker, req: dict, out: str, err: str) -> None:
        import reference as ref

        rows = data_rows(out)
        header = ["x", "y", *FINITE_T, "err_flags"]
        cells = [(xv, yv) for yv in self.values(req["y"]) for xv in self.values(req["x"])]
        if not rows or rows[0] != header or len(rows) != 1 + len(cells):
            chk.fail(f"sweep {req['argv']}: unexpected shape")
            return
        for row, (xv, yv) in zip(rows[1:], cells):
            params = {"J": 1.0, "j": 0.0, "b": 0.0, "B": 0.0, **req["fixed"]}
            params[req["x"]["name"]] = xv
            params[req["y"]["name"]] = yv
            for printed, v in ((row[0], xv), (row[1], yv)):
                if abs(float(printed) - v) > 1e-11 * max(1.0, abs(v)):
                    chk.fail(f"sweep cell {row[:2]}: axis value differs from {v!r}")
            if row[-1]:
                chk.fail(f"sweep cell {row[:2]}: flagged {row[-1]}")
                continue
            T = params.pop("T")
            p = ref.Point(params["J"], params["j"], params["b"], params["B"], 1.0 / T)
            _compare_point(chk, f"sweep cell {row[:2]}", p, FINITE_T, row[2:-1])


class QcpScan(Workload):
    """``qcp-scan --axis B`` over [0, 2]: ground-state closed forms and CSV output."""

    name = "qcp-scan"
    per_round = 4
    start, stop, step = 0.0, 2.0, 0.005
    sampled_rows = 4

    def round(self, seed: int, r: int) -> list[dict]:
        rng = random.Random(f"{self.name}:{seed}:{r}")
        out = []
        for _ in range(self.per_round):
            j, b = signed(rng, 0.1, 0.8), signed(rng, 0.1, 0.8)
            argv = ["qcp-scan", "--J=1.0", opt("j", j), opt("b", b), "--axis", "B",
                    opt("start", self.start), opt("stop", self.stop), opt("step", self.step)]
            out.append({"argv": argv, "j": j, "b": b,
                        "rows": rng.sample(range(1, 398), self.sampled_rows)})
        return out

    def check(self, chk: Checker, req: dict, out: str, err: str) -> None:
        import reference as ref

        n = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        grid = [self.start + self.step * i for i in range(n)]
        rows = data_rows(out)
        if not rows or rows[0] != ["x", "d2e", "flagged"] or len(rows) != n - 1:
            chk.fail(f"qcp-scan {req['argv']}: unexpected shape")
            return
        peaks = []
        line = err.strip().splitlines()[-1] if err.strip() else ""
        if " at " in line:
            peaks = [float(v) for v in line.split(" at ", 1)[1].split(",")]
        elif "no peaks" not in line:
            chk.fail(f"qcp-scan {req['argv']}: no peak summary on stderr: {err!r}")
            return
        p0 = ref.Point(1.0, req["j"], req["b"], 0.0, math.inf)
        expected = [c for c in ref.critical_fields(p0) if self.start < c < self.stop]
        for c in expected:
            if not any(abs(v - c) <= 2 * self.step for v in peaks):
                chk.fail(f"qcp-scan j={req['j']!r} b={req['b']!r}: transition at {c:.6f} "
                         f"not reported (peaks {peaks})")
        for v in peaks:
            if not any(abs(v - c) <= 2 * self.step for c in expected):
                chk.fail(f"qcp-scan j={req['j']!r} b={req['b']!r}: spurious peak at {v} "
                         f"(transitions {expected})")
        # second differences of the reference ground energy on sampled rows
        energy = {}

        def e(i):
            if i not in energy:
                p = ref.Point(1.0, req["j"], req["b"], grid[i], math.inf)
                energy[i] = ref.ground_primitives(p)["u"]
            return energy[i]

        tol = 4.0 * ref.PROMISE / self.step**2
        for i in req["rows"]:
            d2 = (e(i - 1) - 2.0 * e(i) + e(i + 1)) / self.step**2
            chk.compare(f"qcp-scan j={req['j']!r} b={req['b']!r} row {i}", rows[i][1], d2, tol)


class OracleCompare(Workload):
    """``oracle-compare --sizes 8,10,12``: dense exact diagonalization."""

    name = "oracle-compare"
    per_round = 2
    tol = 0.02  # the CLI's default --tol

    def converges(self, p) -> bool:
        """Whether the CLI's verdict is 0 by a margin: every gap shrinks, the last < tol.

        Finite-size gaps need not shrink with N (they oscillate, or sit at
        rounding level), and the CLI then exits 3 with every value right;
        such points are drawn again (see CHANGES.md).
        """
        import reference as ref

        exact = ref.quantities(p, ref.ring_primitives(p))
        rings = [ref.spin_ring(p, n) for n in ORACLE_SIZES]
        for name in ORACLE_Q:
            gaps = [abs(ring[name] - exact[name]) for ring in rings]
            if gaps[-1] > self.tol - 1e-6 or any(b > a - 1e-9 for a, b in zip(gaps, gaps[1:])):
                return False
        return True

    def round(self, seed: int, r: int) -> list[dict]:
        import reference as ref

        rng = random.Random(f"{self.name}:{seed}:{r}")
        out = []
        while len(out) < self.per_round:
            j, b, B = signed(rng, 0.0, 0.8), signed(rng, 0.0, 0.8), signed(rng, 0.0, 1.5)
            beta = rng.uniform(0.5, 3.0)
            if not self.converges(ref.Point(1.0, j, b, B, beta)):
                continue
            argv = ["oracle-compare", "--J=1.0", opt("j", j), opt("b", b), opt("B", B),
                    opt("beta", beta), "--sizes", ",".join(map(str, ORACLE_SIZES)),
                    "--q", ",".join(ORACLE_Q)]
            out.append({"argv": argv, "point": (1.0, j, b, B, beta)})
        return out

    def check(self, chk: Checker, req: dict, out: str, err: str) -> None:
        import reference as ref

        rows = data_rows(out)
        header = ["quantity", "n_sites", "analytic", "dense_ed", "abs_gap", "free_fermion"]
        if not rows or rows[0] != header or len(rows) != 1 + len(ORACLE_Q) * len(ORACLE_SIZES):
            chk.fail(f"oracle-compare {req['argv']}: unexpected shape")
            return
        p = ref.Point(*req["point"])
        prim, vals, tols = ref.reference(p)
        spins = {n: ref.spin_ring(p, n) for n in ORACLE_SIZES}
        kron8 = ref.kron_ed(p, 8)
        fermions = {n: ref.quantities(p, ref.dense_ring_primitives(p, n)) for n in ORACLE_SIZES}
        where = f"oracle-compare {req['point']}"
        it = iter(rows[1:])
        for name in ORACLE_Q:
            for n in ORACLE_SIZES:
                row = next(it)
                if row[:2] != [name, str(n)]:
                    chk.fail(f"{where}: row {row[:2]} out of order")
                    return
                chk.compare(f"{where} {name} analytic", row[2], vals[name], tols[name])
                chk.compare(f"{where} {name} dense_ed N={n}", row[3], spins[n][name], ref.PROMISE)
                if n == 8:
                    chk.compare(f"{where} {name} dense_ed N=8 (Kronecker)", row[3], kron8[name],
                                ref.PROMISE)
                chk.compare(f"{where} {name} abs_gap N={n}", row[4],
                            abs(spins[n][name] - vals[name]), tols[name] + ref.PROMISE)
                if row[5]:
                    chk.compare(f"{where} {name} free_fermion N={n}", row[5],
                                fermions[n][name], ref.PROMISE)


def make(name: str, workers: int = 1):
    if name == "sweep-thermal":
        return SweepThermal(workers)
    for cls in (Points, QcpScan, OracleCompare):
        if cls.name == name:
            return cls()
    raise KeyError(name)


NAMES = ("sweep-thermal", "points", "qcp-scan", "oracle-compare")
