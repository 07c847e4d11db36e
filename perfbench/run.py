#!/usr/bin/env python3
"""robustgmm benchmark: closed-loop sweep passes through the public CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ./src.
--trace 0 times the workload with tracing off and reports the end-to-end
metrics; --trace 1 runs a few passes both untraced and traced, checks that
both write byte-identical CSVs, and reports per-layer metrics.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark runs one process and no extra workers, and
# a second BLAS thread on a small shared host only adds contention noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import ctypes
import glob
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
CARD_CSV = "data/card_standin.csv"
ROBUST, IV = "iterated-gmm-sever", "classical-iv"
SETUP_REPS = 5
# Passes whose seeds are fixed by --seed alone: robust_err.mean and the
# ordering check use the first ACCURACY_PASSES of a timed run, and a traced
# run times the first TRACE_PASSES twice (untraced and traced).
ACCURACY_PASSES = 14
TRACE_PASSES = 4


@dataclass(frozen=True)
class Workload:
    kind: str  # "synthetic" or "semi"
    argv: tuple  # CLI arguments without --seed, --out, --jobs
    cells: int  # (eps, rep) cells per pass
    warmup: tuple  # tiny arguments overlaid for the warm-up call
    tiny: tuple  # arguments overlaid by --tiny (smoke test)


_SYNTH_WARMUP = ("--set", "n=200", "--set", "d=3", "--set", "eps_grid=0.1", "--set", "reps=1")
_SYNTH_TINY = ("--set", "n=1000", "--set", "d=4", "--set", "eps_grid=0.1", "--set", "reps=1")
_SEMI_SMALL = ("--set", "eps_grid=0.1", "--set", "reps=1")

WORKLOADS = {
    # The paper's scale (n=10000, d=20): the learner dominates at eps=0.05
    # and the Huber baseline at eps=0.3, so learner and kernel changes show.
    # Not in BENCHMARK.json: a run holds only ~34 robust fits, whose time
    # and error vary up to 5x between seeds, so its seed-to-seed spread
    # exceeds the bounds. Run it by hand over many seeds.
    "paper-cell": Workload(
        "synthetic",
        ("synth-sweep", "--set", "preset=paper", "--set", "eps_grid=0.05,0.3",
         "--set", "reps=1"),
        cells=2, warmup=_SYNTH_WARMUP, tiny=_SYNTH_TINY),
    # Many small cells (n=2000, d=10): shows whether a paper-scale gain
    # survives at small n, and shows per-cell overhead.
    "desk-sweep": Workload(
        "synthetic", ("synth-sweep", "--set", "preset=desk"),
        cells=20, warmup=_SYNTH_WARMUP, tiny=_SYNTH_TINY),
    # Real-data-shaped (d=4, n=3010): diagnostics and the per-cell CSV reload
    # dominate, the learner is a few percent and Huber does not run, so a
    # learner or kernel change should leave it unmoved.
    "semi-negation": Workload(
        "semi",
        ("semi-sweep", "--set", f"input={CARD_CSV}", "--set", "attack=negation",
         "--set", "eps_grid=0.05,0.1,0.15", "--set", "reps=10"),
        cells=30, warmup=_SEMI_SMALL, tiny=_SEMI_SMALL),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# environment stamp


def _blas():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        name = "unknown"
    threads = None
    libdirs = [Path(np.__file__).parent / ".libs", Path(np.__file__).parent.parent / "numpy.libs"]
    for lib in (f for d in libdirs for f in glob.glob(str(d / "*openblas*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = int(getattr(handle, symbol)())
                break
    return name, threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"]


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:  # no git executable
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(load_at_start):
    blas_name, blas_threads = _blas()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "loadavg_at_start": list(load_at_start),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    seed: int
    wall_s: float
    exit_code: int
    rows: list  # dicts from the sweep CSV
    csv_bytes: bytes


def pass_argv(wl, tiny, seed, out, stamp_runtime):
    argv = list(wl.argv) + (list(wl.tiny) if tiny else [])
    return argv + ["--set", f"stamp_runtime={'true' if stamp_runtime else 'false'}",
                   "--seed", str(seed), "--jobs", "1", "--out", str(out)]


def run_pass(main, wl, tiny, seed, stamp_runtime, tracer=None):
    out = WORK / f"pass-{seed}.csv"
    agg = WORK / f"pass-{seed}.agg.csv"
    for path in (out, agg):
        path.unlink(missing_ok=True)
    argv = pass_argv(wl, tiny, seed, out, stamp_runtime)
    start = time.perf_counter()
    code = main(argv) if tracer is None else tracer.span("cli.main", main, argv)
    wall = time.perf_counter() - start
    rows, blob = [], b""
    if out.exists():
        blob = out.read_bytes() + (agg.read_bytes() if agg.exists() else b"")
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        rows = list(csv.DictReader(lines))
    return Pass(seed, wall, code, rows, blob)


def pass_seed(seed, k):
    return seed * 1000 + k


# ---------------------------------------------------------------------------
# correctness


def clean_iv_ate(path):
    """Exactly identified IV on the clean stand-in, solved here with numpy
    alone so the check does not trust the code it checks."""
    with open(ROOT / path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    col = {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}
    ones = np.ones(len(rows))
    X = np.column_stack([col["educ"], col["exper"], col["expersq"], ones])
    Z = np.column_stack([col["nearc4"], col["exper"], col["expersq"], ones])
    return float(np.linalg.solve(Z.T @ X, Z.T @ col["lwage"])[0])


class Checks:
    """Counts attempted and failed items: robust fits and correctness checks.

    A robust fit that ends in a declared estimation failure (a "failed" row)
    counts as failed but not as a wrong output; every other failed item is
    a wrong output and makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = []

    def item(self, ok, what, wrong_output=True):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += wrong_output
            if len(self.notes) < 20:
                self.notes.append(what)


def _value(row):
    try:
        v = float(row["value"])
    except ValueError:  # "failed"
        return None
    return v if math.isfinite(v) else None


def check_pass(checks, wl, p, clean_ate):
    """Per-row checks on one pass; returns the errors of its robust fits."""
    checks.item(p.exit_code == 0 and cell_count(p) == wl.cells,
                f"pass seed {p.seed}: exit {p.exit_code}, {cell_count(p)} cells")
    errors = []
    for r in p.rows:
        v = _value(r)
        eps = float(r["epsilon"])
        if r["estimator"] == ROBUST:
            ok = v is not None and (wl.kind == "synthetic" or v > 0.0)
            checks.item(ok, f"robust fit eps={eps} seed={r['seed']}: {r['value']}",
                        wrong_output=r["value"] != "failed")
            if v is not None:
                errors.append(v if wl.kind == "synthetic" else abs(v - clean_ate))
        elif r["estimator"] == IV and wl.kind == "semi":
            ok = v is not None and abs(v + clean_ate) <= 1e-8 * abs(clean_ate)
            checks.item(ok, f"IV negation identity eps={eps} seed={r['seed']}: {r['value']}")
    return errors


def cell_count(p):
    return len({(r["epsilon"], r["seed"]) for r in p.rows})


def check_ordering(checks, passes):
    """Synthetic: for each eps >= 0.1, mean robust error <= mean IV error."""
    by_eps = {}
    for p in passes:
        for r in p.rows:
            v = _value(r)
            if v is not None and r["estimator"] in (ROBUST, IV):
                by_eps.setdefault(float(r["epsilon"]), {}).setdefault(r["estimator"], []).append(v)
    for eps, est in sorted(by_eps.items()):
        if eps >= 0.1:
            robust = statistics.fmean(est.get(ROBUST, [math.inf]))
            iv = statistics.fmean(est.get(IV, [0.0]))
            checks.item(robust <= iv, f"eps={eps}: mean robust error {robust} > IV {iv}")


# ---------------------------------------------------------------------------
# modes


def measure_setup(wl, reps):
    """Median wall time of fresh interpreters that import robustgmm and make
    the first (warm-up) call."""
    code = ("import sys; sys.path.insert(0, 'src'); from robustgmm.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    argv = list(wl.argv) + list(wl.warmup) + ["--seed", "0", "--jobs", "1",
                                              "--out", str(WORK / "setup.csv")]
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code] + argv, cwd=ROOT,
                              capture_output=True, timeout=120)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            fail(f"set-up call failed: {done.stderr.decode(errors='replace')[-500:]}")
    return statistics.median(times)


def warm_up(main, wl):
    argv = list(wl.argv) + list(wl.warmup) + ["--seed", "0", "--jobs", "1",
                                              "--out", str(WORK / "warmup.csv")]
    if main(argv) != 0:
        fail("warm-up call failed")


def timed(main, wl, args, checks, clean_ate):
    fixed = 1 if args.tiny else ACCURACY_PASSES
    metrics = {"setup_s": (measure_setup(wl, 1 if args.tiny else SETUP_REPS), "s")}
    warm_up(main, wl)
    passes = []
    start = time.perf_counter()
    while len(passes) < fixed or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(main, wl, args.tiny, pass_seed(args.seed, len(passes)), True))
    errors = []
    for i, p in enumerate(passes):
        pass_errors = check_pass(checks, wl, p, clean_ate)
        if i < fixed:
            errors.extend(pass_errors)
    if wl.kind == "synthetic":
        check_ordering(checks, passes[:fixed])

    fits_ms = [float(r["runtime_ms"]) for p in passes for r in p.rows if r["estimator"] == ROBUST]
    cells = sum(cell_count(p) for p in passes)
    metrics["cells_per_s"] = (cells / sum(p.wall_s for p in passes), "1/s")
    metrics["robust_fit_ms.p50"] = (statistics.median(fits_ms) if fits_ms else math.nan, "ms")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["robust_err.mean"] = (statistics.fmean(errors) if errors else math.nan, "l2")
    extra = {"passes": len(passes), "cells": cells, "robust_fits": len(fits_ms)}
    if len(fits_ms) >= 100:
        extra["robust_fit_ms.p90"] = statistics.quantiles(fits_ms, n=10)[-1]
    return metrics, extra


def traced(main, robustgmm, wl, args, checks, clean_ate):
    warm_up(main, wl)
    seeds = [pass_seed(args.seed, k) for k in range(1 if args.tiny else TRACE_PASSES)]
    tracer = Tracer()

    def traced_pass(seed):
        tracer.install(robustgmm)
        try:
            return run_pass(main, wl, args.tiny, seed, False, tracer)
        finally:
            tracer.restore()

    # Untraced and traced passes alternate in ABBA order, so a drift in host
    # speed during the run does not read as tracing overhead.
    plain, with_trace = [], []
    for i, seed in enumerate(seeds):
        if i % 2 == 0:
            plain.append(run_pass(main, wl, args.tiny, seed, False))
            with_trace.append(traced_pass(seed))
        else:
            with_trace.append(traced_pass(seed))
            plain.append(run_pass(main, wl, args.tiny, seed, False))
    for p, q in zip(plain, with_trace):
        check_pass(checks, wl, p, clean_ate)
        check_pass(checks, wl, q, clean_ate)
        checks.item(p.csv_bytes == q.csv_bytes and p.csv_bytes != b"",
                    f"pass seed {p.seed}: traced CSVs differ from untraced")
    trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(trace_path)
    metrics = tracer.layer_metrics()
    untraced_s = sum(p.wall_s for p in plain)
    traced_s = tracer.wall_s("cli.main")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    extra = {"passes": len(seeds), "untraced_s": untraced_s, "traced_s": traced_s,
             "spans": len(tracer.spans), "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, extra


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: one small cell per pass, one pass seed")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    if not (ROOT / "src" / "robustgmm" / "__init__.py").is_file():
        fail(f"no robustgmm sources under {ROOT / 'src'}; run from a source checkout")
    if not (ROOT / CARD_CSV).is_file():
        fail(f"missing {CARD_CSV}")
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import robustgmm
    import robustgmm.cli

    if Path(robustgmm.__file__).resolve().parent != ROOT / "src" / "robustgmm":
        fail(f"imported robustgmm from {robustgmm.__file__}, not from this checkout")

    wl = WORKLOADS[args.workload]
    if args.tiny:
        wl = Workload(wl.kind, wl.argv, 1, wl.warmup, wl.tiny)
    WORK.mkdir(exist_ok=True)
    checks = Checks()
    clean_ate = clean_iv_ate(CARD_CSV) if wl.kind == "semi" else None
    try:
        if args.trace:
            metrics, extra = traced(robustgmm.cli.main, robustgmm, wl, args, checks, clean_ate)
        else:
            metrics, extra = timed(robustgmm.cli.main, wl, args, checks, clean_ate)
    finally:
        for path in WORK.glob("*.csv"):
            path.unlink()

    print("env " + json.dumps(environment(load_at_start), sort_keys=True))
    print("run " + json.dumps({"workload": args.workload, "seed": args.seed,
                               "trace": args.trace, **extra}, sort_keys=True))
    for note in checks.notes:
        print(f"check failed: {note}")
    print(f"metric fail_ratio {checks.failed / max(checks.attempted, 1):.6g} ratio "
          f"({checks.failed} of {checks.attempted}; {checks.wrong} wrong outputs)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    if "robust_fit_ms.p90" in extra:
        print(f"metric robust_fit_ms.p90 {extra['robust_fit_ms.p90']:.6g} ms "
              f"(n={extra['robust_fits']})")
    print(json.dumps({
        "correct": checks.wrong == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
