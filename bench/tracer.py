"""Per-layer tracing of mattertrack from outside the package.

The tracer rebinds public functions wherever they are looked up: in their
own module and in every mattertrack module that bound them with
``from ... import``.  Nothing under ``src/`` changes, and leaving the
``installed()`` block restores every original binding.

Spans are (name, start, end, parent, op, size) tuples kept in memory and
written out once the run ends.  Calls into the distribution helpers are
counted instead of spanned: they are too many and too short to time one by
one, and their counts are exact.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    size: float | None


def _assign_name(args, kwargs) -> str:
    # both assignment steps call one function; position_only tells them apart
    if kwargs.get("position_only"):
        return "gibbs.assign_points_spatial"
    return "gibbs.assign_points"


def _points_read(args, kwargs, result) -> float:
    return float(sum(len(f) for f in result))


def _points_written(args, kwargs, result) -> float:
    return float(sum(len(f) for f in args[1]))


def _bytes_written(args, kwargs, result) -> float:
    return float(os.path.getsize(args[0]))


# (module, function, span name or namer, size of the call's work or None)
SPANNED = (
    ("gibbs", "sweep", "gibbs.sweep", None),
    ("gibbs", "assign_points_to_particles", _assign_name, None),
    ("gibbs", "update_particle_weights", "gibbs.particle_weights", None),
    ("gibbs", "update_particle_means", "gibbs.particle_means", None),
    ("gibbs", "update_particle_covariances", "gibbs.particle_covs", None),
    ("gibbs", "update_particle_velocity_means", "gibbs.particle_velocities", None),
    ("gibbs", "update_particle_velocity_covariances", "gibbs.particle_velocity_covs", None),
    ("gibbs", "assign_particles_to_clusters", "gibbs.assign_particles", None),
    ("gibbs", "update_cluster_weights", "gibbs.cluster_weights", None),
    ("gibbs", "update_cluster_means", "gibbs.cluster_means", None),
    ("gibbs", "update_cluster_covariances", "gibbs.cluster_covs", None),
    ("gibbs", "update_cluster_rotations", "gibbs.cluster_rotations", None),
    ("gibbs", "update_cluster_translations", "gibbs.cluster_translations", None),
    ("initialization", "init_state", "initialization.init_state", None),
    ("initialization", "kmeans_pp", "initialization.kmeans_pp", None),
    ("initialization", "kabsch_align", "initialization.kabsch_align", None),
    ("initialization", "data_dependent_hyperparams",
     "initialization.data_dependent_hyperparams", None),
    ("tracker", "track", "tracker.track", None),
    ("tracker", "propagate", "tracker.propagate", None),
    ("synth", "flow_split_proposal", "synth.flow_split_proposal", None),
    ("model", "sample_forward", "model.sample_forward", None),
    ("model", "resample_observations", "model.resample_observations", None),
    ("geweke", "run_geweke", "geweke.run_geweke", None),
    ("io", "read_observations", "io.read_observations", _points_read),
    ("io", "write_observations", "io.write_observations", _points_written),
    ("io", "write_states", "io.write_states", _bytes_written),
)

# (module, function, counter name, work per call); counted inside sweeps only
COUNTED = (
    ("distributions", "chol_spd", "distributions.chol_spd", None),
    ("distributions", "mvn_logpdf_rows", "distributions.mvn_logpdf_rows", None),
    ("distributions", "mvn_sample", "distributions.mvn_sample", None),
    ("distributions", "inverse_wishart_sample", "distributions.inverse_wishart_sample", None),
    ("distributions", "categorical_sample", "distributions.categorical_sample", None),
    ("parallel", "parallel_map", "parallel.parallel_map", lambda args: len(args[1])),
)

GIBBS_STEPS = (
    "assign_points", "assign_points_spatial", "particle_weights", "particle_means",
    "particle_covs", "particle_velocities", "particle_velocity_covs", "assign_particles",
    "cluster_weights", "cluster_means", "cluster_covs", "cluster_rotations",
    "cluster_translations",
)

# layers whose self time the share table reports; "bench" is op time spent
# outside every wrapped call
LAYERS = ("gibbs", "initialization", "tracker", "synth", "model", "geweke", "io", "bench")

OP_SPAN = "bench.op"


class Tracer:
    """Records spans and counts while its ``installed()`` block is open."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def _span_wrapper(self, fn: Callable, name, size) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(idx)
            self._open[label] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open[label] -= 1
                self._stack.pop()
                self.spans[idx] = Span(label, start, end, parent, self.op, None)
            if size is not None:
                self.spans[idx] = self.spans[idx]._replace(size=size(args, kwargs, result))
            return result

        return wrapper

    def _count_wrapper(self, fn: Callable, name: str, weight) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is not None and self._open["gibbs.sweep"]:
                self.counts[name] += 1 if weight is None else weight(args)
            return fn(*args, **kwargs)

        return wrapper

    def run_op(self, op: int, fn: Callable, *args):
        """Call ``fn(*args)`` as op ``op`` under a root span."""
        self.op = op
        try:
            return self._span_wrapper(fn, OP_SPAN, None)(*args)
        finally:
            self.op = None

    @contextlib.contextmanager
    def installed(self):
        for modname, *_ in SPANNED + COUNTED:
            importlib.import_module(f"mattertrack.{modname}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "mattertrack" or n.startswith("mattertrack.")]
        undo = []

        def rebind(modname: str, fn_name: str, make: Callable[[Callable], Callable]):
            original = getattr(sys.modules[f"mattertrack.{modname}"], fn_name)
            wrapper = make(original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))

        try:
            for modname, fn_name, name, size in SPANNED:
                rebind(modname, fn_name,
                       lambda f, name=name, size=size: self._span_wrapper(f, name, size))
            for modname, fn_name, name, weight in COUNTED:
                rebind(modname, fn_name,
                       lambda f, name=name, weight=weight: self._count_wrapper(f, name, weight))
            yield self
        finally:
            for mod, attr, original in reversed(undo):
                setattr(mod, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s._asdict()}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")

    # -- derived numbers ---------------------------------------------------------

    def self_times(self) -> list[float]:
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - child[i] for i, s in enumerate(self.spans)]

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric; 0 marks a layer the workload never calls."""
        op_spans = [(i, s) for i, s in enumerate(self.spans) if s.op is not None]
        selfs = self.self_times()
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in op_spans:
            by_name[s.name].append(i)
        n_ops = len(by_name[OP_SPAN])
        n_sweeps = len(by_name["gibbs.sweep"])

        def med(name: str, scale: float, self_time: bool = False) -> float:
            idx = by_name[name]
            if not idx:
                return 0.0
            vals = [selfs[i] if self_time else self.spans[i].end - self.spans[i].start
                    for i in idx]
            return statistics.median(vals) * scale

        def per_unit(spans: list[Span], scale: float) -> float:
            size = sum(s.size for s in spans)
            return sum(s.end - s.start for s in spans) / size * scale if size else 0.0

        out: dict[str, tuple[float, str]] = {"gibbs.sweep.ms": (med("gibbs.sweep", 1e3), "ms")}
        for step in GIBBS_STEPS:
            out[f"gibbs.{step}.ms"] = (med(f"gibbs.{step}", 1e3), "ms")
        for _, _, name, weight in COUNTED:
            kind = "calls" if weight is None else "items"
            out[f"{name}.{kind}_per_sweep"] = (
                self.counts[name] / n_sweeps if n_sweeps else 0.0, f"{kind}/sweep")
        out["initialization.init_state.s"] = (med("initialization.init_state", 1.0), "s")
        out["initialization.kmeans_pp.s"] = (med("initialization.kmeans_pp", 1.0), "s")
        out["initialization.kmeans_pp.calls"] = (
            len(by_name["initialization.kmeans_pp"]) / n_ops if n_ops else 0.0, "calls/op")
        out["initialization.kabsch_align.ms"] = (med("initialization.kabsch_align", 1e3), "ms")
        out["initialization.data_dependent_hyperparams.ms"] = (
            med("initialization.data_dependent_hyperparams", 1e3), "ms")
        out["tracker.track.self_ms"] = (med("tracker.track", 1e3, self_time=True), "ms")
        out["tracker.propagate.ms"] = (med("tracker.propagate", 1e3), "ms")
        out["synth.flow_split_proposal.ms"] = (med("synth.flow_split_proposal", 1e3), "ms")
        out["model.sample_forward.ms"] = (med("model.sample_forward", 1e3), "ms")
        out["model.resample_observations.ms"] = (med("model.resample_observations", 1e3), "ms")
        out["geweke.run_geweke.self_s"] = (med("geweke.run_geweke", 1.0, self_time=True), "s")
        reads = [self.spans[i] for i in by_name["io.read_observations"]]
        out["io.read_observations.ms"] = (med("io.read_observations", 1e3), "ms")
        out["io.read_observations.us_per_point"] = (per_unit(reads, 1e6), "us/point")
        out["io.write_states.ms"] = (med("io.write_states", 1e3), "ms")
        writes = [self.spans[i].size for i in by_name["io.write_states"]]
        out["io.write_states.bytes"] = (statistics.median(writes) if writes else 0.0, "bytes")
        # observation files are written while the inputs are set up, outside ops
        setup_writes = [s for s in self.spans if s.name == "io.write_observations"]
        out["io.write_observations.us_per_point"] = (per_unit(setup_writes, 1e6), "us/point")
        return out

    def layer_shares(self) -> dict[str, float]:
        """Share of op time spent in each layer's own code (self time)."""
        selfs = self.self_times()
        totals: Counter = Counter()
        op_total = 0.0
        for i, s in enumerate(self.spans):
            if s.op is None:
                continue
            if s.name == OP_SPAN:
                op_total += s.end - s.start
            totals[s.name.split(".")[0]] += selfs[i]
        return {layer: totals[layer] / op_total if op_total else 0.0 for layer in LAYERS}
