"""Alternating parent/change runs of ``bench/run.py``, summarised per end-to-end metric.

Usage (from any directory):

    python3 tools/bench_pairs.py PARENT CHANGE --workload geweke --pairs 10

PARENT and CHANGE are two checkouts of this repository.  Each pair runs
``bench/run.py --seed 1 --seconds 20 --trace 0`` once in each checkout, one
after the other, and the side that goes first alternates from pair to pair,
so a slow stretch of a shared machine falls on both sides alike.  Each run prints its metrics as
it finishes; the summary then gives, for every end-to-end metric that
CHANGE's ``BENCHMARK.json`` declares, the parent's and the change's medians,
their ratio, the parent's interquartile range and the number of pairs the
change won (strictly better in the metric's declared direction).

The gate for a claimed gain: at least 10 pairs, the change winning at least
9 in 10 of them, and the median gap wider than the parent's IQR.  The last
column says whether each metric passes it (``gain``), fails it (``-``), or
whether there are too few pairs to tell (``few``).

The runs write their scratch files where ``bench/run.py`` puts them, in each
checkout's ``.bench_work/``.  ``bench/run.py`` runs under ``python3 -B``, so
its process writes no bytecode cache and nothing lands under either
checkout's ``bench/``; the fresh interpreters it starts to time ``setup_s``
read and write the package's caches as usual.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9


def run_once(checkout: str, workload: str) -> dict:
    """One ``bench/run.py`` run in ``checkout``; returns its last JSON line."""
    # -B: the run's own process writes no bytecode, so none lands in bench/;
    # the fresh interpreters it times for setup_s keep their usual caches
    cmd = [sys.executable, "-B", "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "20", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarise(metrics: list[dict], runs: dict[str, list[dict]]) -> list[str]:
    lines = [f"{'metric':<15} {'parent':>11} {'change':>11} {'ratio':>7} "
             f"{'parent IQR':>11} {'wins':>6} {'gate':>5}"]
    pairs = len(runs["parent"])
    for spec in metrics:
        name = spec["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"] if name in r["metrics"]]
        change = [r["metrics"][name]["value"] for r in runs["change"] if name in r["metrics"]]
        if len(parent) != pairs or len(change) != pairs:
            lines.append(f"{name:<15} {'(not reported by every run)':>40}")
            continue
        sign = 1.0 if spec["better"] == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        q1, q3 = quartiles(parent)
        ratio = c_med / p_med if p_med else float("nan")
        if pairs < MIN_PAIRS:
            gate = "few"
        elif wins >= MIN_WIN_SHARE * pairs and sign * (p_med - c_med) > q3 - q1:
            gate = "gain"
        else:
            gate = "-"
        lines.append(f"{name:<15} {p_med:>11.4g} {c_med:>11.4g} {ratio:>7.3f} "
                     f"{q3 - q1:>11.3g} {wins:>3}/{pairs} {gate:>5}")
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        lines.append(f"{side}: {failed} of {attempted} ops failed")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for path in checkouts.values():
        if not os.path.isfile(os.path.join(path, "bench", "run.py")):
            ap.error(f"{path} has no bench/run.py")
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(checkouts[side], args.workload)
            runs[side].append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"pair {i + 1} {side:<6} {values}", flush=True)
    print("\n".join(summarise(metrics, runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
