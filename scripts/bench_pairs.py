#!/usr/bin/env python3
"""Run the benchmark in two checkouts in alternating pairs and compare them.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload desk-sweep
    python3 scripts/bench_pairs.py PARENT CHANGE --workload semi-negation \\
        --pairs 10 --seconds 50

Pair i runs BENCHMARK.json's command (python3 perfbench/run.py) once in
each checkout, from its root, with --workload, --seconds (BENCHMARK.json's
run_seconds unless given), --trace 0 and the pair's seed, 101 + i, which
both sides share. The parent runs
first in even pairs and the change in odd ones, so drift of the host
during a pair falls on each side equally often. Each run's last output
line is its JSON record.

The summary lists every end-to-end metric of this checkout's
BENCHMARK.json: each side's median and quartiles over the pairs, the
change's median relative to the parent's with the metric's bound, and the
pairs the change won (strictly better in the metric's direction; a tie
counts for neither side). A gain holds when the change won at least nine
tenths of the pairs, the medians differ by more than the distance between
the parent's quartiles, and the change failed no more operations than the
parent over all pairs; "worse beyond bound" flags a median that
moved the wrong way by more than the bound. Failed and attempted
operations and the correctness flag are summed per side. The script
exits 1 when a run exits nonzero or prints no JSON line.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIRST_SEED = 101


def last_json(stdout: str) -> dict:
    """The JSON record on the last nonblank line of a run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def summarize(pairs, end_to_end) -> list:
    """Summary lines for (parent record, change record) pairs over the
    end-to-end metrics, each a BENCHMARK.json entry with name, unit, better
    ("higher" or "lower") and bound."""
    parent_failed, change_failed = (sum(pair[i]["failed"] for pair in pairs) for i in (0, 1))
    lines = [f"{'metric':<20} {'unit':<5} {'parent median [Q1, Q3]':<30} "
             f"{'change median [Q1, Q3]':<30} {'change':>8} {'won':>7}  verdict"]
    for metric in end_to_end:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        parent = np.array([p["metrics"][name]["value"] for p, _ in pairs], dtype=float)
        change = np.array([c["metrics"][name]["value"] for _, c in pairs], dtype=float)
        won = int(np.sum(sign * (change - parent) > 0))
        p_med, c_med = np.median(parent), np.median(change)
        p_q1, p_q3 = np.percentile(parent, [25, 75])
        c_q1, c_q3 = np.percentile(change, [25, 75])
        rel = (c_med - p_med) / abs(p_med) if p_med else 0.0
        verdicts = []
        if (won >= 0.9 * len(pairs) and sign * (c_med - p_med) > p_q3 - p_q1
                and change_failed <= parent_failed):
            verdicts.append("gain")
        if -sign * rel > metric["bound"]:
            verdicts.append("worse beyond bound")
        lines.append(
            f"{name:<20} {metric['unit']:<5} "
            f"{f'{p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]':<30} "
            f"{f'{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]':<30} "
            f"{rel:>+8.1%} {f'{won}/{len(pairs)}':>7}  {', '.join(verdicts) or '-'}"
        )
    for side, index in (("parent", 0), ("change", 1)):
        records = [pair[index] for pair in pairs]
        failed = sum(r["failed"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        correct = all(r["correct"] for r in records)
        lines.append(f"{side}: {failed} of {attempted} operations failed, "
                     f"correct in {'every' if correct else 'not every'} run")
    return lines


def run_once(checkout: pathlib.Path, command, workload, seed, seconds) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(argv)} exited {done.returncode}:\n"
                           f"{done.stderr}")
    return last_json(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    pairs = []
    try:
        for i in range(args.pairs):
            seed = FIRST_SEED + i
            records = [None, None]
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                checkout = (args.parent, args.change)[side]
                records[side] = run_once(checkout, bench["command"], args.workload,
                                         seed, seconds)
            pairs.append(tuple(records))
            print(f"pair {i + 1} of {args.pairs} (seed {seed}) done", file=sys.stderr)
    except (RuntimeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(f"{args.workload}: {len(pairs)} pairs of {seconds:g} s runs, seeds "
          f"{FIRST_SEED}-{FIRST_SEED + args.pairs - 1}")
    print("\n".join(summarize(pairs, bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
