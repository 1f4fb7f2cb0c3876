"""Alternating parent/change runs of ``bench/run.py``, summarised per end-to-end metric.

Usage (from any directory):

    python3 tools/bench_pairs.py PARENT CHANGE --workload geweke --pairs 10 \
        [--seed N] [--json PATH]

PARENT and CHANGE are two checkouts of this repository.  Each pair runs
``bench/run.py --seed N --seconds 20 --trace 0`` once in each checkout, one
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

``--seed`` (default 1) sets the workload seed of every run; the run length
and the gate stay as above.  A claim written against seed 1 can so be
checked on a seed the change was not written against.

``--json PATH`` also records the summary in PATH, a ``BENCH_*.json``: under
``"workloads"``, this workload's pair count, seed, each metric's unit, direction,
medians and IQRs on both sides, ratio, wins and verdict, both sides' failed
and attempted op counts, and each side's environment line from
``bench/run.py``.  Entries of other workloads already in PATH are kept, so
one file collects the runs of several workloads.  A seed other than 1 is
recorded under its own key, ``WORKLOAD@SEED``, beside the seed-1 entry.

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


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """One ``bench/run.py`` run in ``checkout``: its last JSON line, with the
    environment line before it under ``"env"``."""
    # -B: the run's own process writes no bytecode, so none lands in bench/;
    # the fresh interpreters it times for setup_s keep their usual caches
    cmd = [sys.executable, "-B", "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "20", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    *_, env_line, result_line = proc.stdout.strip().splitlines()
    return {**json.loads(result_line), "env": json.loads(env_line)["env"]}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(metrics: list[dict], runs: dict[str, list[dict]]) -> dict:
    """Per workload: both sides' medians and IQRs, the wins and gate verdict
    per metric, the failed and attempted op counts and each side's
    environment (that of its first run)."""
    pairs = len(runs["parent"])
    out = {"pairs": pairs, "metrics": {}, "ops": {}, "env": {}}
    for spec in metrics:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]
                         if name in r["metrics"]] for side in runs}
        if any(len(v) != pairs for v in values.values()):
            out["metrics"][name] = None
            continue
        sign = 1.0 if spec["better"] == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        entry = {"unit": spec["unit"], "better": spec["better"], "wins": wins}
        for side, v in values.items():
            q1, q3 = quartiles(v)
            entry[side] = {"median": statistics.median(v), "iqr": q3 - q1}
        p_med, c_med = entry["parent"]["median"], entry["change"]["median"]
        entry["ratio"] = c_med / p_med if p_med else float("nan")
        if pairs < MIN_PAIRS:
            entry["gate"] = "few"
        elif wins >= MIN_WIN_SHARE * pairs and sign * (p_med - c_med) > entry["parent"]["iqr"]:
            entry["gate"] = "gain"
        else:
            entry["gate"] = "-"
        out["metrics"][name] = entry
    for side, side_runs in runs.items():
        out["ops"][side] = {"failed": sum(r["failed"] for r in side_runs),
                            "attempted": sum(r["attempted"] for r in side_runs)}
        out["env"][side] = side_runs[0]["env"]
    return out


def summarise(result: dict) -> list[str]:
    lines = [f"{'metric':<15} {'parent':>11} {'change':>11} {'ratio':>7} "
             f"{'parent IQR':>11} {'wins':>6} {'gate':>5}"]
    for name, m in result["metrics"].items():
        if m is None:
            lines.append(f"{name:<15} {'(not reported by every run)':>40}")
            continue
        lines.append(f"{name:<15} {m['parent']['median']:>11.4g} {m['change']['median']:>11.4g} "
                     f"{m['ratio']:>7.3f} {m['parent']['iqr']:>11.3g} "
                     f"{m['wins']:>3}/{result['pairs']} {m['gate']:>5}")
    for side, ops in result["ops"].items():
        lines.append(f"{side}: {ops['failed']} of {ops['attempted']} ops failed")
    return lines


def write_json(path: str, key: str, result: dict) -> None:
    """Set ``key``'s entry of the ``"workloads"`` map in ``path``, keeping
    the entries earlier runs wrote there."""
    doc = {"workloads": {}}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc["workloads"][key] = result
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1, help="workload seed of every run")
    ap.add_argument("--json", metavar="PATH",
                    help="also record the summary as this workload's entry in PATH")
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
            result = run_once(checkouts[side], args.workload, args.seed)
            runs[side].append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"pair {i + 1} {side:<6} {values}", flush=True)
    result = {**compare(metrics, runs), "seed": args.seed}
    print("\n".join(summarise(result)))
    if args.json:
        key = args.workload if args.seed == 1 else f"{args.workload}@{args.seed}"
        write_json(args.json, key, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
