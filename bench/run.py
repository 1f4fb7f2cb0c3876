"""mattertrack benchmark: one workload per process, one thread, closed loop.

Usage (from the repository root):

    python3 bench/run.py --workload recovery --seed 1 --seconds 20 --trace 0

One client runs ops back to back until ``--seconds`` have passed (at least
one op), cycling through the seed's op list, and checks each op's output
outside the timed region.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs each op untraced and then traced, and prints the
per-layer metrics with the tracing overhead.  The last line of standard
output is the JSON result; the line before it records the environment.
"""
from __future__ import annotations

import os

# one BLAS thread, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import mattertrack  # noqa: E402

if not os.path.abspath(mattertrack.__file__).startswith(SRC + os.sep):
    sys.exit(f"mattertrack imported from {mattertrack.__file__}, not from {SRC}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
WORK_ROOT = os.path.join(ROOT, ".bench_work")
_SC_LEVEL3_CACHE_SIZE = 194  # glibc sysconf name

# Speed reference.  The shared machine's speed drifts by up to 30%, within a
# run and between runs, and op times drift with it.  Between steps, the run
# times short fixed chunks of numpy calls, one per CHUNK_INTERVAL_S of work;
# op times leave the chunks out and are scaled to the speed at which a chunk
# takes CHUNK_REFERENCE_S.
_CAL_X = np.random.default_rng(0).standard_normal((3000, 3))
_CAL_M = 2.0 * np.eye(3) + 0.1
CHUNK_INTERVAL_S = 0.05
CHUNK_REFERENCE_S = 0.0085  # the chunk's median between recovery sweeps on a 2-vCPU Xeon


def tail(samples: list[float]) -> float:
    """Value at the highest percentile with at least ten samples beyond it.

    With 21 samples or fewer that value is not above the median, so the
    median is returned instead.
    """
    ordered = sorted(samples)
    k = len(ordered) - 11
    return ordered[k] if k >= len(ordered) // 2 else statistics.median(ordered)


def environment() -> dict:
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        l3 = int(libc.sysconf(_SC_LEVEL3_CACHE_SIZE))
    except (OSError, AttributeError):
        l3 = -1
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "l3_bytes": l3,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the whole package."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import mattertrack.io"], check=True,
                   cwd=ROOT, env={**os.environ, "PYTHONPATH": SRC})
    return time.perf_counter() - start


def calibration_chunk() -> None:
    """A fixed mix of small-matrix and vector numpy calls (~8 ms)."""
    for i in range(120):
        np.linalg.cholesky(_CAL_M)
        d = _CAL_X - _CAL_X[i]
        np.einsum("nd,nd->n", d, d).sum()


class Calibrator:
    """Times calibration chunks between steps, one per CHUNK_INTERVAL_S of
    work since the last call, and keeps a work clock that leaves them out."""

    def __init__(self):
        self.chunks: list[float] = []
        self.paused = 0.0
        self.last = time.perf_counter()

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def tick(self) -> None:
        due = max(1, round((time.perf_counter() - self.last) / CHUNK_INTERVAL_S))
        for _ in range(due):
            start = time.perf_counter()
            calibration_chunk()
            took = time.perf_counter() - start
            self.chunks.append(took)
            self.paused += took
        self.last = time.perf_counter()

    def factors(self) -> tuple[float, float]:
        """Scales to reference speed: from the mean chunk, which follows the
        machine's slow moments as totals and tails do, and from the median
        chunk, for the median step."""
        return (CHUNK_REFERENCE_S / statistics.fmean(self.chunks),
                CHUNK_REFERENCE_S / statistics.median(self.chunks))


def run_ops(run_op, seconds: float, group: int = 1, between=lambda: None):
    """Call ``run_op(0)``, ``run_op(1)``, ... until ``seconds`` have passed,
    stopping only after a whole group of ``group`` calls; ``between`` runs
    after every call.

    Returns one OpResult per call, None for a call that raised.
    """
    results = []
    start = time.perf_counter()
    while not results or len(results) % group or time.perf_counter() - start < seconds:
        try:
            results.append(run_op(len(results)))
        except Exception:  # an op that raises counts as failed; the run goes on
            traceback.print_exc()
            results.append(None)
        between()
    return results


def trace_overhead(untraced, traced) -> float:
    """Median over op pairs of traced over untraced time, as a percentage excess."""
    ratios = [t.seconds / u.seconds for u, t in zip(untraced, traced)
              if u is not None and t is not None]
    return 100 * (statistics.median(ratios) - 1)


def verdicts(wl, results) -> Counter:
    """Check every op: the workload's verdict, or raised if it raised."""
    return Counter("raised" if r is None else wl.check(i, r.output)
                   for i, r in enumerate(results))


def end_to_end(results, factor: float, median_step_factor: float,
               setup_s: float) -> dict[str, tuple[float, str]]:
    """End-to-end metrics: the median step time scaled by
    ``median_step_factor``, every other time by ``factor``."""
    done = [r for r in results if r is not None]
    if not done:
        raise RuntimeError("every op raised; no timing to report")
    steps = [s for r in done for s in r.step_s]
    return {
        "setup_s": (setup_s, "s"),
        "fit_s": (statistics.median(r.seconds for r in done) * factor, "s"),
        "first_state_s": (statistics.median(r.first_state_s for r in done) * factor, "s"),
        "frame_ms": (statistics.median(steps) * median_step_factor * 1e3, "ms"),
        "frame_ms.tail": (tail(steps) * factor * 1e3, "ms"),
        "iters_per_s": (sum(r.steps for r in done) / sum(r.seconds for r in done) / factor,
                        "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def measure(wl, seconds: float):
    """Untraced run: set-ups, then ops; returns results, verdicts, metrics.

    ``setup_s`` is not scaled: it is mostly interpreter start-up and imports,
    whose time does not follow the calibration chunk's.
    """
    setup_times = []
    for _ in range(SETUP_REPEATS):
        imports = import_seconds()
        t = time.perf_counter()
        wl.setup()
        setup_times.append(imports + time.perf_counter() - t)
    setup_s = statistics.median(setup_times)
    wl.prepare()
    cal = Calibrator()
    wl.clock, wl.tick = cal.clock, cal.tick
    results = run_ops(wl.run_op, seconds, between=cal.tick)
    mean_factor, median_factor = cal.factors()
    raw = end_to_end(results, 1.0, 1.0, setup_s)
    print(json.dumps({"unscaled": {k: v for k, (v, _) in raw.items()},
                      "chunks": len(cal.chunks), "mean_factor": mean_factor,
                      "median_factor": median_factor}))
    return results, verdicts(wl, results), end_to_end(results, mean_factor,
                                                      median_factor, setup_s)


def trace(wl, seconds: float, spans_path: str):
    """Traced run: each op untraced, then traced; returns results, verdicts, metrics."""
    tracer = Tracer()
    with tracer.installed():
        wl.setup()
    wl.prepare()

    def untraced_then_traced(i: int):
        if i % 2 == 0:
            return wl.run_op(i // 2)
        with tracer.installed():
            return tracer.run_op(i // 2, wl.run_op, i // 2)

    results = run_ops(untraced_then_traced, seconds, group=2)
    checks = verdicts(wl, results[0::2]) + verdicts(wl, results[1::2])
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_pct"] = (trace_overhead(results[0::2], results[1::2]), "%")
    tracer.write(spans_path)
    for layer, share in tracer.layer_shares().items():
        print(f"share {wl.name} {layer:<15} {100 * share:6.2f} %")
    return results, checks, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload for the benchmark's smoke test")
    args = ap.parse_args(argv)

    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    for _ in range(10):  # warm-up: the first calls into numpy are slower
        calibration_chunk()
    try:
        wl = WORKLOADS[args.workload](args.seed, work_dir, args.size == "tiny")
        if args.trace:
            spans = os.path.join(WORK_ROOT, f"trace-{args.workload}-seed{args.seed}.jsonl")
            results, checks, metrics = trace(wl, args.seconds, spans)
        else:
            results, checks, metrics = measure(wl, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps({"env": environment(), "checks": dict(checks)}))
    # an op fails if it raised or its output is broken; invalid states and
    # missed quality floors are only tallied in "checks" above
    failed = checks["broken"] + checks["raised"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
