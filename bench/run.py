"""Benchmark of the staggered-xx CLI: one workload per process, closed loop.

    python3 bench/run.py --workload points --seed 1 --seconds 25 --trace 0

One client sends one request at a time through ``staggered_xx.cli.main(argv)``
in this process and waits for it.  The run attempts whole rounds of seeded
requests for ``--seconds``, then checks the outputs of the first rounds
against ``reference.py``, which does not use the package.  The last line of
stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass over the same round and reports the per-layer
metrics of the traced passes, averaged per request, plus the tracing
overhead; the spans go to ``bench/out/``.

BLAS and OpenMP are held to one thread, so a run keeps one core busy, and
the string hash seed is fixed.
"""

from __future__ import annotations

import os
import sys

# Dict and set layouts follow the string hash seed and move request times by
# several percent from one interpreter to the next; one fixed seed keeps runs
# comparable.  The interpreter reads it at start-up, so the run starts over
# in place (same process) with it set.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import time
import traceback
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# set-ups per run: this process plus SETUP_CHILDREN fresh interpreters
SETUP_CHILDREN = 2
# timed passes over the same rounds (see end_to_end)
PASSES = 3


def call(main, argv) -> tuple[int, str, str]:
    """One request; an exit or an exception becomes a non-zero code, as in a shell."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the run goes on and counts the request as failed
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def rows_in(out: str) -> int:
    # CSV data rows: every CRLF-terminated line after the header
    return max(out.count("\r\n") - 1, 0)


def set_up(workload, seed: int):
    """Cold import of the CLI, the first round's inputs and one warm-up request."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from staggered_xx import cli

    first = workload.round(seed, 0)
    rc, _, err = call(cli.main, workload.warmup(seed))
    if rc != 0:
        raise RuntimeError(f"warm-up request failed with exit code {rc}: {err.strip()}")
    return cli, first, time.perf_counter() - t0


def child_setups(args) -> list[float]:
    times = []
    for _ in range(SETUP_CHILDREN):
        res = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--workers", str(args.workers), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if res.returncode != 0:
            raise RuntimeError(f"set-up child failed: {res.stderr.strip()}")
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return times


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "staggered_xx").glob("*.py")))


def perturbed(req: dict, k: int) -> dict:
    """The request with j, b, B, beta and T scaled by 1 + 1e-9 k.

    Repeated passes send these instead of the original, so that no cache of
    earlier results can answer them; the work they need is the same.
    """
    argv = []
    for tok in req["argv"]:
        name, eq, value = tok.partition("=")
        if eq and name in ("--j", "--b", "--B", "--beta", "--T"):
            tok = f"{name}={float(value) * (1.0 + 1e-9 * k)!r}"
        argv.append(tok)
    return {**req, "argv": argv}


class Run:
    """Closed loop over whole rounds; keeps the outputs of the checked rounds."""

    def __init__(self, workload, seed, main, first):
        self.workload, self.seed, self.main, self.first = workload, seed, main, first
        self.attempted = self.failed = 0
        self.kept: list[tuple] = []  # (request, rc, out, err) of checked rounds
        self.errors: list[str] = []

    def inputs(self, r: int):
        return self.first if r == 0 else self.workload.round(self.seed, r)

    def one_round(self, r: int, requests, keep: bool = True):
        """Send every request of round r; returns each one's wall time and output."""
        done = []
        for req in requests:
            t = time.perf_counter()
            rc, out, err = call(self.main, req["argv"])
            done.append((time.perf_counter() - t, out))
            self.attempted += 1
            if rc != 0:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"exit {rc}: {req['argv']} {err.strip()[:300]}")
            elif keep and r < self.workload.check_rounds:
                self.kept.append((req, rc, out, err))
        return done


def check(run: Run) -> workloads.Checker:
    chk = workloads.Checker()
    for req, _, out, err in run.kept:
        run.workload.check(chk, req, out, err)
    return chk


def end_to_end(args, workload) -> dict:
    """PASSES passes over the same rounds; each request counts its median pass.

    The first pass draws fresh rounds for a PASSES-th of the run; the later
    passes send them again, perturbed.  The median of a request's passes
    drops the spells in which other tenants of the host slow it down or
    leave it a whole core, while a request that is slow on its own stays
    slow in every pass.
    """
    main_cli, first, setup0 = set_up(workload, args.seed)
    run = Run(workload, args.seed, main_cli.main, first)
    rounds, times, rows = [], [], []
    start = time.perf_counter()
    while True:
        rounds.append(run.inputs(len(rounds)))
        for dt, out in run.one_round(len(rounds) - 1, rounds[-1]):
            times.append([dt])
            rows.append(rows_in(out))
        if (time.perf_counter() - start >= args.seconds / PASSES
                and len(rounds) >= workload.check_rounds):
            break
    for k in range(1, PASSES):
        i = 0
        for r, requests in enumerate(rounds):
            again = [perturbed(req, k) for req in requests]
            for dt, _ in run.one_round(r, again, keep=False):
                times[i].append(dt)
                i += 1
    typical = [statistics.median(t) for t in times]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup0] + child_setups(args)
    chk = check(run)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "rows_per_s": (sum(rows) / sum(typical), "rows/s"),
        "request_ms_p50": (1000.0 * statistics.median(typical), "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    print(f"{workload.name} seed {args.seed}: {PASSES} passes over {len(rounds)} rounds, "
          f"{run.attempted} requests, {sum(rows)} rows a pass, "
          f"set-ups {[round(s, 3) for s in setups]}", file=sys.stderr)
    return result(run, chk, metrics)


def traced(args, workload) -> dict:
    from tracer import Tracer

    main_cli, first, _ = set_up(workload, args.seed)
    tracer = Tracer()
    traced_main = tracer.wrap("cli", main_cli.main)
    run = Run(workload, args.seed, main_cli.main, first)
    plain_s = traced_s = 0.0
    rows_traced = requests = 0
    outputs_differ = 0
    r = 0
    start = time.perf_counter()
    while True:
        requests_r = run.inputs(r)
        plain = run.one_round(r, requests_r)
        plain_s += sum(dt for dt, _ in plain)
        tracer.install()
        try:
            for req, (_, plain_out) in zip(requests_r, plain):
                tracer.begin_request(requests)
                t = time.perf_counter()
                rc, out, err = call(traced_main, req["argv"])
                traced_s += time.perf_counter() - t
                tracer.end_request()
                requests += 1
                run.attempted += 1
                rows_traced += rows_in(out)
                if rc != 0:
                    run.failed += 1
                elif out != plain_out:
                    outputs_differ += 1
        finally:
            tracer.uninstall()
        r += 1
        if time.perf_counter() - start >= args.seconds and r >= workload.check_rounds:
            break
    chk = check(run)
    if outputs_differ:
        chk.fail(f"{outputs_differ} traced outputs differ from the untraced ones")

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    n_spans = tracer.write_spans(out_dir / f"spans-{workload.name}-seed{args.seed}.csv")

    per = 1.0 / requests
    s, c, k = tracer.self_s, tracer.calls, tracer.counts
    q_calls = c["quadrature"]
    metrics = {
        "cli.self_s": (s["cli"] * per, "s/req"),
        "cli.rows": (rows_traced * per, "rows/req"),
        "quadrature.calls": (q_calls * per, "count/req"),
        "quadrature.nodes": (k["quadrature.nodes"] * per, "count/req"),
        "quadrature.panels": (k["quadrature.panels"] * per, "count/req"),
        "quadrature.rounds": (k["quadrature.rounds"] * per, "count/req"),
        "quadrature.self_s": (s["quadrature"] * per, "s/req"),
        "quadrature.unconverged": (k["quadrature.unconverged"] * per, "count/req"),
        "quadrature.distinct_share": (k["quadrature.distinct"] / q_calls if q_calls else 1.0,
                                      "ratio"),
        "thermo.calls": (c["thermo"] * per, "count/req"),
        "thermo.integrand_s": (tracer.total_s["thermo.integrand"] * per, "s/req"),
        "correlations.calls": (c["correlations"] * per, "count/req"),
        "correlations.integrand_s": (tracer.total_s["correlations.integrand"] * per, "s/req"),
        "entanglement.calls": (c["entanglement"] * per, "count/req"),
        "entanglement.self_s": (s["entanglement"] * per, "s/req"),
        "ground.energy_calls": (k["ground.energy_calls"] * per, "count/req"),
        "ground.self_s": (s["ground"] * per, "s/req"),
        "ground.integrand_s": (tracer.total_s["ground.integrand"] * per, "s/req"),
        "model.theta_calls": (c["model.theta"] * per, "count/req"),
        "model.theta_s": (tracer.total_s["model.theta"] * per, "s/req"),
        "oracle.dense_ed_calls": (c["oracle.dense_ed"] * per, "count/req"),
        "oracle.dense_ed_s": (tracer.total_s["oracle.dense_ed"] * per, "s/req"),
        "oracle.free_fermion_s": (tracer.total_s["oracle.free_fermion"] * per, "s/req"),
        "src.lines": (src_lines(), "lines"),
        "check.max_abs_dev": (chk.max_abs_dev, "abs"),
        "trace.overhead_pct": (100.0 * (traced_s / plain_s - 1.0), "%"),
    }
    print(f"{workload.name} seed {args.seed}: {r} traced rounds, {requests} traced requests, "
          f"{n_spans} spans, {chk.values} values checked", file=sys.stderr)
    return result(run, chk, metrics)


def result(run: Run, chk: workloads.Checker, metrics: dict) -> dict:
    for line in run.errors + chk.problems[:20]:
        print(line, file=sys.stderr)
    return {
        "correct": not chk.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=1,
                    help="--workers of the sweep requests (sweep-thermal only)")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print it and exit")
    args = ap.parse_args()

    if not (SRC / "staggered_xx" / "cli.py").is_file():
        print(f"error: no staggered_xx sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.workers)
    if args.setup_only:
        print(set_up(workload, args.seed)[2])
        return 0
    res = traced(args, workload) if args.trace else end_to_end(args, workload)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
