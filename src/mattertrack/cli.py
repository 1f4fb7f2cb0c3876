"""Command-line interface.

Offline, file-driven: observations come in as JSON lines, states and metric
reports go out the same way.  Every command is deterministic for a fixed
seed.  ``fit`` and ``track`` start chains with ``tracker.start``; the tracker's
helpers name the points a run keeps of each frame.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys

import click
import numpy as np

from . import io as mio
from .evaluation import (
    adjusted_rand_index,
    matter_weighted_jaccard,
    point_cluster_labels,
    probe_point_eval,
    rasterize_mask,
    state_to_segments,
)
from .geweke import default_check_hyper, run_geweke
from .model import sample_forward
from .render import render_frame_svg
from .sva import sva_cluster
from .synth import flow_split_proposal, make_rigid_scene, scene_spec_from_dict
from .tracker import TrackConfig, start, subsample_frame, subsample_indices, track
from .types import ValidationError


# the share of each frame's points kept; checked once here for every command
_SUBSAMPLE_RATE = click.FloatRange(0.0, 1.0, min_open=True)

# component counts and iteration counts; out-of-range values are usage errors
_AT_LEAST_ONE = click.IntRange(min=1)
_NON_NEGATIVE = click.IntRange(min=0)


def _json_number(x: float) -> float | None:
    """``x``, or None (JSON null) for a NaN or infinite value, which strict
    JSON has no literal for."""
    return float(x) if math.isfinite(x) else None


def _check_counts(num_clusters: int, num_particles: int) -> None:
    """Usage error unless every cluster can own a particle."""
    if num_particles < num_clusters:
        raise click.UsageError(f"-L/--particles ({num_particles}) must be at least "
                               f"-K/--clusters ({num_clusters})")


def _read_frames(obs_path: str) -> list:
    """The frames of an observation file; a one-line error if it holds none."""
    frames = mio.read_observations(obs_path)
    if not frames:
        raise click.ClickException("observation file holds no frames")
    return frames


def _first_frame(frames: list, rate: float, seed: int, num_particles: int):
    """Frame 0 subsampled as the sampler sees it; a one-line error unless every
    particle can own one of its points."""
    obs = subsample_frame(frames[0], rate, seed, 0)
    if len(obs) < num_particles:
        raise click.ClickException(f"frame 0 holds {len(obs)} points, fewer than "
                                   f"-L/--particles ({num_particles})")
    return obs


def _resume_record(path: str, frames: list, rate: float, num_clusters: int,
                   num_particles: int, seed: int) -> mio.StateRecord:
    """The last record of a resume dump; a one-line error unless it carries
    hyperparameters, leaves a frame to track, matches -K, -L and --seed, and
    holds as many points of its frame as --subsample keeps."""
    records = mio.read_states(path)
    if not records:
        raise click.ClickException("resume dump holds no states")
    last = records[-1]
    if last.hyper is None:
        raise click.ClickException("resume dump lacks hyperparameters")
    if last.t + 1 >= len(frames):
        raise click.ClickException(f"resume dump ends at frame {last.t}, but the observation "
                                   f"file holds {len(frames)} frames: none is left to track")
    flags = (("-K/--clusters", num_clusters, last.state.K),
             ("-L/--particles", num_particles, last.state.L),
             ("--seed", seed, last.state.rng.seed))
    differ = [f"{name} {ours} (dump: {dumped})" for name, ours, dumped in flags
              if ours != dumped]
    if differ:
        raise click.ClickException("resume flags differ from the dump: " + ", ".join(differ))
    # the rate is in no record, but the point count of the last frame shows it
    kept = len(subsample_frame(frames[last.t], rate, seed, last.t))
    if kept != last.state.N:
        raise click.ClickException(f"resume dump holds {last.state.N} points of frame {last.t}, "
                                   f"but --subsample {rate} keeps {kept}")
    return last


def _note_unscored_features(frames: list, hyper) -> None:
    """Say on stderr when the observations carry features that no term scores."""
    if hyper.sigma2_F is None and any(f.features is not None for f in frames):
        click.echo("note: the observations carry features, but sigma2_F is unset, "
                   "so the feature term is not scored", err=True)


class _Main(click.Group):
    """The command group; a ``ValidationError`` from any command is one
    ``Error: ...`` line and exit status 1, as for click's own errors."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValidationError as exc:
            raise click.ClickException(str(exc)) from None


@click.group(cls=_Main)
def main() -> None:
    """Generative clustering and tracking of moving point matter."""


@main.command()
@click.option("--dim", type=click.IntRange(2, 3), default=2, show_default=True)
@click.option("-K", "--clusters", "num_clusters", type=_AT_LEAST_ONE, default=2,
              show_default=True)
@click.option("-L", "--particles", "num_particles", type=_AT_LEAST_ONE, default=8,
              show_default=True)
@click.option("-N", "--points", "num_points", type=_AT_LEAST_ONE, default=200,
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--labels-out", type=click.Path(), default=None,
              help="Ground-truth cluster label sidecar.")
@click.option("--state-out", type=click.Path(), default=None,
              help="Dump the sampled latent state.")
def simulate(dim, num_clusters, num_particles, num_points, seed, config_path,
             out_path, labels_out, state_out):
    """Sample one frame from the forward model into an observation file."""
    _check_counts(num_clusters, num_particles)
    hyper, _, candidates = mio.load_config(config_path, dim)
    state, obs = sample_forward(hyper, num_clusters, num_particles, num_points,
                                seed, candidates=candidates)
    mio.write_observations(out_path, [obs])
    if labels_out:
        mio.write_labels(labels_out, [point_cluster_labels(state)])
    if state_out:
        mio.write_states(state_out, [state], hyper=hyper)
    click.echo(f"wrote {len(obs)} points to {out_path}")


@main.command("rdk-gen")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True),
              help="Scene description JSON.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--labels-out", type=click.Path(), default=None)
def rdk_gen(spec_path, seed, out_path, labels_out):
    """Generate a moving-dot stimulus plus ground truth from a scene spec."""
    try:
        with open(spec_path) as fh:
            spec = scene_spec_from_dict(json.load(fh))
    except (TypeError, ValueError) as exc:  # a ValidationError or JSONDecodeError too
        raise ValidationError(f"scene spec {spec_path}: {exc}") from None
    frames, labels = make_rigid_scene(spec, seed)
    mio.write_observations(out_path, frames)
    if labels_out:
        mio.write_labels(labels_out, labels)
    click.echo(f"wrote {len(frames)} frames to {out_path}")


@main.command()
@click.option("--obs", "obs_path", required=True, type=click.Path(exists=True))
@click.option("-K", "--clusters", "num_clusters", type=_AT_LEAST_ONE, required=True)
@click.option("-L", "--particles", "num_particles", type=_AT_LEAST_ONE, required=True)
@click.option("--sweeps", type=_NON_NEGATIVE, default=50, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--subsample", type=_SUBSAMPLE_RATE, default=1.0, show_default=True)
@click.option("--auto-hyper/--no-auto-hyper", default=True, show_default=True,
              help="Derive data-dependent hyperparameters from the frame.")
@click.option("--flow-split/--no-flow-split", default=False, show_default=True,
              help="Seed the grouping with a fast/slow velocity split.")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--plot", "plot_path", type=click.Path(), default=None)
def fit(obs_path, num_clusters, num_particles, sweeps, seed, config_path,
        subsample, auto_hyper, flow_split, out_path, plot_path):
    """Infer the latent state of the first frame of an observation file."""
    _check_counts(num_clusters, num_particles)
    obs = _first_frame(_read_frames(obs_path), subsample, seed, num_particles)
    hyper, _, candidates = mio.load_config(config_path, obs.dim)
    tcfg = TrackConfig(init_sweeps=sweeps, freeze_Sigma_B=False)
    state, hyper = start(obs, num_clusters, num_particles, hyper, tcfg, seed, candidates,
                         derive_hyper=auto_hyper,
                         init_proposal=flow_split_proposal if flow_split else None)
    _note_unscored_features([obs], hyper)
    mio.write_states(out_path, [state], hyper=hyper)
    if plot_path:
        render_frame_svg(state, obs, plot_path)
    click.echo(f"wrote fitted state to {out_path}")


@main.command("track")
@click.option("--obs", "obs_path", required=True, type=click.Path(exists=True))
@click.option("-K", "--clusters", "num_clusters", type=_AT_LEAST_ONE, required=True)
@click.option("-L", "--particles", "num_particles", type=_AT_LEAST_ONE, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--subsample", type=_SUBSAMPLE_RATE, default=None,
              help="Override the config's subsample rate.")
@click.option("--auto-hyper/--no-auto-hyper", default=True, show_default=True)
@click.option("--flow-split/--no-flow-split", default=False, show_default=True,
              help="Seed the frame-0 grouping with a fast/slow velocity split.")
@click.option("--resume-from", type=click.Path(exists=True), default=None,
              help="State dump to continue from (uses its last frame).")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--plot", "plot_path", type=click.Path(), default=None,
              help="SVG output; a '{t}' placeholder renders every frame, "
                   "otherwise only the final frame is drawn.")
def track_cmd(obs_path, num_clusters, num_particles, seed, config_path, subsample,
              auto_hyper, flow_split, resume_from, out_path, plot_path):
    """Track a full observation sequence."""
    _check_counts(num_clusters, num_particles)
    frames = _read_frames(obs_path)
    hyper, tcfg, candidates = mio.load_config(config_path, frames[0].dim)
    if subsample is not None:
        tcfg = dataclasses.replace(tcfg, subsample_rate=subsample)
    if resume_from:
        last = _resume_record(resume_from, frames, tcfg.subsample_rate, num_clusters,
                              num_particles, seed)
        state, hyper, first_t = last.state, last.hyper, last.t + 1
        states = []
    else:
        obs0 = _first_frame(frames, tcfg.subsample_rate, seed, num_particles)
        state, hyper = start(obs0, num_clusters, num_particles, hyper, tcfg, seed, candidates,
                             derive_hyper=auto_hyper,
                             init_proposal=flow_split_proposal if flow_split else None)
        states, first_t = [state], 0
    _note_unscored_features(frames, hyper)
    # track from the frame after `state`
    states += track(frames, num_clusters, num_particles, hyper, tcfg, seed,
                    candidates=candidates, derive_hyper=False,
                    initial_state=state, start_frame=first_t + len(states))
    mio.write_states(out_path, states, hyper=hyper, first_t=first_t)
    if plot_path:
        to_draw = range(len(states)) if "{t}" in plot_path else [len(states) - 1]
        for i in to_draw:
            t = first_t + i
            obs_t = subsample_frame(frames[t], tcfg.subsample_rate, seed, t)
            render_frame_svg(states[i], obs_t, plot_path.replace("{t}", str(t)))
    click.echo(f"wrote {len(states)} states to {out_path}")


@main.command("sva")
@click.option("--obs", "obs_path", required=True, type=click.Path(exists=True))
@click.option("-K", "--clusters", "num_clusters", type=_AT_LEAST_ONE, required=True)
@click.option("-L", "--particles", "num_particles", type=_AT_LEAST_ONE, required=True)
@click.option("--max-iter", type=_NON_NEGATIVE, default=50, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--subsample", type=_SUBSAMPLE_RATE, default=1.0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def sva_cmd(obs_path, num_clusters, num_particles, max_iter, seed, subsample,
            out_path):
    """Hard-assignment baseline clustering of the first frame."""
    _check_counts(num_clusters, num_particles)
    obs = _first_frame(_read_frames(obs_path), subsample, seed, num_particles)
    res = sva_cluster(obs, num_clusters, num_particles, seed, max_iter=max_iter)
    out = {
        "z_B": res.z_B.tolist(),
        "z_H": res.z_H.tolist(),
        "rotations": res.rotations.tolist(),
        "translations": res.translations.tolist(),
        "cluster_means": res.cluster_means.tolist(),
        "losses": res.losses.tolist(),
        "iterations": res.iterations,
    }
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    if res.iterations:
        click.echo(f"final loss {res.losses[-1]:.6g} after {res.iterations} iterations")
    else:
        click.echo("no iterations run; wrote the k-means initialization")


@main.command("eval")
@click.option("--states", "states_path", required=True, type=click.Path(exists=True))
@click.option("--obs", "obs_path", required=True, type=click.Path(exists=True))
@click.option("--gt", "gt_path", required=True, type=click.Path(exists=True))
@click.option("--subsample", type=_SUBSAMPLE_RATE, default=1.0, show_default=True,
              help="Subsample rate the states were produced with.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed the states were produced with (for subsampling).")
@click.option("--grid", type=int, default=0,
              help="Rasterization size for probe-point metrics (0 = skip).")
@click.option("--probes", type=int, default=100, show_default=True)
@click.option("--foreground-label", type=int, default=None,
              help="Ground-truth label treated as foreground (default: all non-noise).")
@click.option("--out", "out_path", type=click.Path(), default=None)
def eval_cmd(states_path, obs_path, gt_path, subsample, seed, grid, probes,
             foreground_label, out_path):
    """Score a state dump against ground-truth labels."""
    records = mio.read_states(states_path)
    if not records:
        raise click.ClickException("state dump holds no states")
    frames = mio.read_observations(obs_path)
    gt = mio.read_labels(gt_path)
    report: dict = {"frames": []}
    aris, jms = [], []
    for rec in records:
        t = rec.t
        if t >= len(frames) or t >= len(gt):
            raise click.ClickException(f"state for frame {t} has no matching obs/labels")
        obs_t, lab_t = frames[t], gt[t]
        keep = subsample_indices(len(obs_t), subsample, seed, t)
        if keep is not None:
            obs_t, lab_t = obs_t.take(keep), lab_t[keep]
        pred = point_cluster_labels(rec.state)
        if len(pred) != len(lab_t):
            raise click.ClickException(f"frame {t}: point counts differ between state and labels")
        if not len(pred):
            report["frames"].append({"t": t, "points": 0})
            continue
        ari = adjusted_rand_index(pred, lab_t)
        fg_mask = (lab_t != -1) if foreground_label is None else (lab_t == foreground_label)
        L, z_B = rec.state.L, rec.state.z_B
        inlier = z_B < L
        counts = np.bincount(z_B[inlier], minlength=L)
        fg_counts = np.bincount(z_B[inlier], weights=fg_mask[inlier], minlength=L)
        overlaps = np.divide(fg_counts, counts, out=np.zeros(L), where=counts > 0)
        jm = matter_weighted_jaccard(counts, rec.state.pi_B, overlaps)
        frame_report = {"t": t, "ari": ari, "matter_weighted_jaccard": jm}
        if grid > 0:
            seg = state_to_segments(rec.state, obs_t, (grid, grid))
            gt_grid = rasterize_mask(obs_t, fg_mask, (grid, grid))
            acc, mj, _ = probe_point_eval(seg, gt_grid, n_probes=probes, seed=seed)
            frame_report["probe_accuracy"] = acc
            frame_report["probe_jaccard"] = mj
        report["frames"].append(frame_report)
        aris.append(ari)
        jms.append(jm)
    if not aris:
        raise click.ClickException("state dump holds no frame with points")
    report["mean_ari"] = float(np.mean(aris))
    report["mean_matter_weighted_jaccard"] = float(np.mean(jms))
    text = json.dumps(report, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    click.echo(text)


@main.command("geweke")
@click.option("--dim", type=click.IntRange(2, 3), default=2, show_default=True)
@click.option("-K", "--clusters", "num_clusters", type=_AT_LEAST_ONE, default=2,
              show_default=True)
@click.option("-L", "--particles", "num_particles", type=_AT_LEAST_ONE, default=4,
              show_default=True)
@click.option("-N", "--points", "num_points", type=_AT_LEAST_ONE, default=16,
              show_default=True)
@click.option("--iters", type=click.IntRange(min=100), default=10000, show_default=True,
              help="Iterations per sampler; batch means need at least 100.")
@click.option("--sweeps-per-iter", type=_AT_LEAST_ONE, default=2, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--threshold", type=float, default=4.0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
def geweke_cmd(dim, num_clusters, num_particles, num_points, iters, sweeps_per_iter,
               seed, config_path, threshold, out_path):
    """Forward vs Gibbs marginal consistency report (exit 1 on failure)."""
    _check_counts(num_clusters, num_particles)
    hyper, _, candidates = mio.load_config(config_path, dim, base=default_check_hyper(dim))
    report = run_geweke(hyper, num_clusters, num_particles, num_points, iters,
                        seed, candidates=candidates, sweeps_per_iter=sweeps_per_iter)
    click.echo(report.summary())
    if out_path:
        payload = {
            "iterations": report.iterations,
            "max_abs_z": _json_number(report.max_abs_z),
            "stats": [{"name": s.name, "forward_mean": _json_number(s.forward_mean),
                       "chain_mean": _json_number(s.chain_mean), "z": _json_number(s.z)}
                      for s in report.stats],
        }
        with open(out_path, "w") as fh:
            json.dump(payload, fh, indent=2)
    if report.nonfinite:
        click.echo(f"FAIL: non-finite z for {', '.join(report.nonfinite)}", err=True)
        sys.exit(1)
    if not report.passed(threshold):
        click.echo(f"FAIL: max |z| {report.max_abs_z:.2f} >= {threshold}", err=True)
        sys.exit(1)
    click.echo(f"PASS: max |z| {report.max_abs_z:.2f} < {threshold}")


if __name__ == "__main__":
    main()
