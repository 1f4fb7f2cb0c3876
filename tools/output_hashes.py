"""SHA-256 prefixes of seeded mattertrack outputs, to show a change is bitwise neutral.

Usage (from the repository root):

    python3 tools/output_hashes.py                    # this checkout's src/
    python3 tools/output_hashes.py --src OTHER/src    # another checkout's library

Run it on two checkouts, say a parent commit and a change, and compare the
printed lines: equal prefixes mean equal outputs.  A change to the sweep's
random stream moves exactly the pieces that run ``gibbs.sweep``: geweke,
sweeps, features, gestalt, rgb, recovery, scale, track and cli (whose
``fit`` and ``track`` runs sweep).  A change to ``sample_forward``'s random
stream moves exactly forward, resample, geweke, sweeps, features, assign
and cli: those pieces draw their states or scenes from ``sample_forward``
(cli through ``simulate``).  The assignment scores' rounding error grows
with the condition number of the covariances.  ``init_state`` gives every
cell of at most D members the prior mean, so no piece starts from a
rank-deficient covariance; a few nearly collinear points can still give an
ill-conditioned one, so a change that only rounds the scores differently
is checked on every piece.  Each piece hashes
every array of every state it produces (dtype, shape and bytes), the
labels, the rng cursor of each state, and the bit-generator position of
every Generator it drew from:

  forward      ``sample_forward`` over D=2 and D=3, int and Generator seeds,
               L=K, empty particles and K, L, N up to 3, 30, 300;
  resample     ``resample_observations`` on forward-sampled states;
  geweke       one ``run_geweke`` report (K=2, L=4, N=16, 200 iterations);
  sweeps       200 Geweke-size sweeps with observation redraws, as criterion 2
               runs them;
  features     20 sweeps with outliers and features on, in D=2 and D=3;
  assign       ``assign_points_to_particles`` labels and generator position at
               benchmark sizes, three seeds each: N=5000, L=100 in D=2 with and
               without outliers and features, and N=3000, L=30 in D=3 with them;
  gestalt      ``track`` with ``gestalt_track_config(4, 2, 2)`` (frozen
               ``Sigma_B`` and ``z_H``, a nested 2x block) on 3-frame static
               and moving scenes, two seeds each;
  rgb          ``track`` with ``rgb_track_config(5, 2)`` on 3-frame scenes with
               features, outlier velocities and ``p_outlier`` = 0.1, three
               seeds.  Libraries that switch the outlier term on from the
               model score it in the frame-0 sweeps too, and hash apart from
               those that took it from a flag there;
  kmeans       ``kmeans_pp`` centers, labels and generator position over
               random, clustered and duplicate-heavy points in D=1-3, K from 1
               to 100 and ``n_init`` 1-4, plus the D=1, K=2 calls of the
               flow split;
  recovery, scale, track
               the benchmark op lists of seeds 1-3, built and run by
               ``bench/workloads.py`` (the track piece also hashes the uncut
               reference runs);
  cli          the bytes of every file the seven commands write at fixed
               seeds: ``simulate`` (D=2 and D=3), ``rdk-gen``, ``fit`` with
               its SVG and subsampled with a flow split and fixed
               hyperparameters, ``track`` whole, with fixed hyperparameters,
               subsampled with a flow split, subsampled with an SVG per frame,
               and as a 3-frame run resumed on the full file, ``sva``,
               ``eval`` and ``geweke --out``.  It passes only options that
               older versions of the CLI also take, so ``--src`` can point at
               one.

The ``features`` and ``assign`` pieces pass the outlier and feature flags of
older libraries only where the called function takes them; newer libraries
turn both terms on from the model, so the pieces build inputs whose model has
exactly the terms the flags asked for.

One BLAS thread is used, as in the benchmark.  The whole run takes under a
minute on a 2-vCPU Xeon.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_SEEDS = (1, 2, 3)

STATE_FIELDS = ("mu_B", "Sigma_B", "vel", "Sigma_V", "pi_B", "mu_H", "Sigma_H", "rot",
                "trans", "pi_H", "feat", "z_B", "z_H")


class Digest:
    """A running SHA-256 over arrays, states, observations and generators."""

    def __init__(self):
        self._h = hashlib.sha256()

    def array(self, a) -> None:
        a = np.ascontiguousarray(a)
        self._h.update(f"{a.dtype.str}{a.shape}".encode())
        self._h.update(a.tobytes())

    def text(self, s: str) -> None:
        self._h.update(s.encode())

    def state(self, state) -> None:
        for name in STATE_FIELDS:
            value = getattr(state, name)
            self.text(name)
            if value is not None:
                self.array(value)
        self.text(json.dumps(state.rng.to_dict()))

    def obs(self, obs) -> None:
        for a in (obs.positions, obs.velocities, obs.features):
            if a is not None:
                self.array(a)

    def file(self, path: str) -> None:
        with open(path, "rb") as fh:
            self._h.update(fh.read())

    def generator(self, rng) -> None:
        self.text(json.dumps(rng.bit_generator.state, sort_keys=True))

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


def _forward_cases():
    # (dim, K, L, N, seed kind); L=K and N < L (empty particles) included
    for dim in (2, 3):
        for K, L, N in ((1, 1, 1), (2, 2, 5), (2, 4, 16), (3, 3, 2), (3, 8, 4),
                        (2, 8, 60), (3, 30, 300)):
            for kind in ("int", "generator"):
                yield dim, K, L, N, kind


def piece_forward(d: Digest) -> None:
    from mattertrack import geweke, model

    for dim, K, L, N, kind in _forward_cases():
        hyper = geweke.default_check_hyper(dim)
        for seed in range(5):
            if kind == "int":
                state, obs = model.sample_forward(hyper, K, L, N, seed)
            else:
                rng = np.random.default_rng(seed)
                state, obs = model.sample_forward(hyper, K, L, N, rng)
                d.generator(rng)
            d.state(state)
            d.obs(obs)


def piece_resample(d: Digest) -> None:
    from mattertrack import geweke, model

    for dim in (2, 3):
        hyper = geweke.default_check_hyper(dim)
        for seed in range(20):
            state, _ = model.sample_forward(hyper, 2, 6, 40, seed)
            rng = np.random.default_rng(seed)
            d.obs(model.resample_observations(state, hyper, rng))
            d.generator(rng)


def piece_geweke(d: Digest) -> None:
    from mattertrack import geweke

    report = geweke.run_geweke(geweke.default_check_hyper(2), 2, 4, 16, 200, 7,
                               sweeps_per_iter=2)
    for s in report.stats:
        d.text(f"{s.name} {s.forward_mean!r} {s.chain_mean!r} {s.z!r}")


def piece_sweeps(d: Digest) -> None:
    from mattertrack import geweke, gibbs, model, rng as rngmod
    from mattertrack.distributions import make_transform_candidates
    from mattertrack.rng import RngState, substream

    hyper = geweke.default_check_hyper(2)
    cands = make_transform_candidates(2, hyper)
    schedule = gibbs.full_sweep_schedule()
    state, obs = model.sample_forward(hyper, 2, 4, 16, substream(3, rngmod.FORWARD, 0),
                                      candidates=cands)
    state = state.replace(rng=RngState(3))
    for i in range(200):
        state = gibbs.sweep(state, obs, hyper, schedule, cands)
        d.state(state)
        if i % 2:
            obs = model.resample_observations(state, hyper, state.rng.stream(rngmod.DATA))
            d.obs(obs)


def _extras_hyper(dim: int):
    """Hyperparameters with the feature and outlier terms set."""
    from mattertrack.types import HyperParams

    eye = np.eye(dim)
    return HyperParams(
        alpha=1.0, beta=1.0, mu_H_prior=np.zeros(dim), sigma2_mu_H=4.0,
        Psi_H=eye, nu_H=dim + 3.0, Psi_B=0.25 * eye, nu_B=dim + 3.0,
        sigma2_V=0.05, Psi_V=0.04 * eye, nu_V=dim + 3.0, s2=0.5,
        kappa_vmf=2.0, theta_max=np.pi / 6, sigma2_F=0.3, p_outlier=0.1,
        outlier_gamma_shape=2.0, outlier_gamma_rate=1.5)


def _taken(func, **flags) -> dict:
    """The entries of ``flags`` that ``func`` takes as keyword arguments."""
    params = inspect.signature(func).parameters
    return {k: v for k, v in flags.items() if k in params}


def piece_features(d: Digest) -> None:
    from mattertrack import gibbs, model
    from mattertrack.distributions import make_transform_candidates
    from mattertrack.types import Assignments, Observations

    for dim in (2, 3):
        hyper = _extras_hyper(dim)
        cands = make_transform_candidates(dim, hyper, M_r=17, M_t=5 ** dim)
        state, obs = model.sample_forward(hyper.replace(p_outlier=0.0), 3, 8, 150, dim,
                                          candidates=cands)
        rng = np.random.default_rng(100 + dim)
        z_B = state.z_B.copy()
        z_B[rng.random(z_B.size) < 0.08] = state.L
        feat = rng.standard_normal((state.L, 3))
        features = (feat[np.minimum(z_B, state.L - 1)]
                    + 0.5 * rng.standard_normal((len(obs), 3)))
        state = state.replace(assignments=Assignments(z_B, state.z_H), feat=feat)
        obs = Observations(obs.positions, obs.velocities, features)
        names = gibbs.full_sweep_schedule().flatten() + (gibbs.PARTICLE_FEATURES,)
        schedule = gibbs.SweepSchedule(
            steps=tuple(gibbs.Step(n) for n in names),
            **_taken(gibbs.SweepSchedule, enable_outliers=True, enable_features=True))
        for _ in range(20):
            state = gibbs.sweep(state, obs, hyper, schedule, cands)
            d.state(state)


def piece_assign(d: Digest) -> None:
    from mattertrack import gibbs, model
    from mattertrack.types import Observations

    for dim, L, N, extras in ((2, 100, 5000, False), (2, 100, 5000, True), (3, 30, 3000, True)):
        hyper = _extras_hyper(dim)
        state, obs = model.sample_forward(hyper.replace(p_outlier=0.0), 3, L, N, 10 + dim)
        if not extras:
            hyper = hyper.replace(p_outlier=0.0)
        else:
            rng = np.random.default_rng(dim)
            feat = rng.standard_normal((L, 3))
            obs = Observations(obs.positions, obs.velocities,
                               feat[state.z_B] + 0.5 * rng.standard_normal((N, 3)))
            state = state.replace(feat=feat)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            flags = _taken(gibbs.assign_points_to_particles,
                           include_outlier=extras, use_features=extras)
            d.array(gibbs.assign_points_to_particles(state, obs, hyper, rng, **flags))
            d.generator(rng)


def _tracking_hyper():
    """Tracking hyperparameters as ``tests/test_tracker.py`` sets them."""
    return _extras_hyper(2).replace(sigma2_mu_H=25.0, sigma2_V=1e-3, s2=0.01, kappa_vmf=8.0,
                                    theta_max=np.pi / 8, sigma2_F=None, p_outlier=0.0)


def piece_gestalt(d: Digest) -> None:
    from mattertrack.synth import Body, SceneSpec, make_rigid_scene
    from mattertrack.tracker import gestalt_track_config, track

    cfg = gestalt_track_config(4, 2, 2)
    static = (Body(kind="rect", center=(0.5, 0.5), size=(0.8, 0.8), num_dots=240),)
    moving = (Body(kind="disk", center=(0.35, 1.5), size=0.16, num_dots=150,
                   velocity=(0.15, 0.0)),
              Body(kind="rect", center=(0.8, 0.45), size=(1.2, 0.8), num_dots=150))
    for bodies, extent in ((static, ((0.0, 1.0), (0.0, 1.0))),
                           (moving, ((0.0, 6.0), (0.0, 2.0)))):
        spec = SceneSpec(bodies=bodies, extent=extent, frames=3, velocity_noise=0.004)
        for seed in (6, 10):
            frames, _ = make_rigid_scene(spec, seed)
            for state in track(frames, K=2, L=8, hyper=_tracking_hyper(), cfg=cfg, seed=seed):
                d.state(state)


def piece_rgb(d: Digest) -> None:
    from mattertrack.tracker import rgb_track_config, track
    from mattertrack.types import Observations

    hyper = _tracking_hyper().replace(sigma2_F=0.1, p_outlier=0.1, outlier_gamma_shape=2.0,
                                      outlier_gamma_rate=1.0)
    for seed in (7, 8, 9):
        rng = np.random.default_rng(4 + seed)
        frames = []
        for _ in range(3):
            pos = np.vstack([rng.normal(0, 0.2, (40, 2)), rng.normal(3, 0.2, (40, 2))])
            vel = np.vstack([np.tile([0.1, 0.0], (40, 1)), np.zeros((40, 2))])
            vel += 0.004 * rng.standard_normal(vel.shape)
            vel[:2] = 4.0   # junk velocities for the outlier component
            feat = np.vstack([np.full((40, 2), 1.0), np.full((40, 2), -1.0)])
            frames.append(Observations(pos, vel, feat + 0.05 * rng.standard_normal(feat.shape)))
        for state in track(frames, K=2, L=8, hyper=hyper, cfg=rgb_track_config(5, 2),
                           seed=seed):
            d.state(state)


def _kmeans_inputs(dim: int):
    rng = np.random.default_rng(40 + dim)
    yield rng.standard_normal((2000, dim)) * 3.0
    blobs = rng.standard_normal((8, dim)) * 6.0
    yield blobs[rng.integers(0, 8, 3000)] + 0.3 * rng.standard_normal((3000, dim))
    # duplicate-heavy: 1500 points on at most 60 sites
    yield rng.integers(-20, 21, (60, dim)).astype(float)[rng.integers(0, 60, 1500)]


def piece_kmeans(d: Digest) -> None:
    from mattertrack.initialization import kmeans_pp

    for dim in (1, 2, 3):
        for points in _kmeans_inputs(dim):
            distinct = len(np.unique(points, axis=0))
            for K, n_init in ((1, 1), (2, 4), (7, 2), (30, 3), (100, 4)):
                if K > distinct:
                    continue
                rng = np.random.default_rng(10 * K + dim)
                centers, labels = kmeans_pp(points, K, rng, n_init=n_init)
                d.array(centers)
                d.array(labels)
                d.generator(rng)
    # the flow split's call: particle speeds, K=2, an integer seed
    for seed in range(20):
        speeds = np.abs(np.random.default_rng(seed).standard_normal((40, 1)))
        centers, labels = kmeans_pp(speeds, 2, seed=0, n_init=4)
        d.array(centers)
        d.array(labels)


def _bench_piece(name: str):
    def piece(d: Digest) -> None:
        import workloads

        for seed in BENCH_SEEDS:
            with tempfile.TemporaryDirectory() as work_dir:
                w = workloads.WORKLOADS[name](seed, work_dir, tiny=False)
                w.setup()
                w.prepare()
                for states in getattr(w, "reference", []):
                    for s in states:
                        d.state(s)
                for i in range(len(w.seeds)):
                    out = w.run_op(i).output
                    for s in (out if isinstance(out, list) else [out]):
                        d.state(s)

    return piece


# criterion 10's scene and config: five frames, two bodies and background dots
_SCENE = {
    "bodies": [
        {"kind": "disk", "center": [0.35, 1.5], "size": 0.15, "num_dots": 60,
         "velocity": [0.15, 0.0]},
        {"kind": "rect", "center": [0.8, 0.45], "size": [1.0, 0.7], "num_dots": 60},
    ],
    "extent": [[0.0, 4.0], [0.0, 2.0]],
    "background_dots": 10,
    "flicker_prob": 0.05,
    "frames": 5,
}
_CONFIG = {"hyper": {"sigma2_V": 0.001, "s2": 0.01}, "track": {"init_sweeps": 8},
           "candidates": {"M_r": 9, "M_t": 25}}


def piece_cli(d: Digest) -> None:
    from click.testing import CliRunner
    from mattertrack.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        def path(name: str) -> str:
            return os.path.join(tmp, name)

        def run(*args: str) -> None:
            result = CliRunner().invoke(main, list(args), catch_exceptions=False)
            if result.exit_code:
                sys.exit(f"{args[0]} exited {result.exit_code}: {result.output}")

        for name, payload in (("scene.json", _SCENE), ("conf.json", _CONFIG)):
            with open(path(name), "w") as fh:
                json.dump(payload, fh)
        for dim in ("2", "3"):
            run("simulate", "--dim", dim, "-K", "2", "-L", "6", "-N", "60", "--seed", "3",
                "--out", path(f"sim{dim}.jsonl"), "--labels-out", path(f"sim{dim}_gt.jsonl"),
                "--state-out", path(f"sim{dim}_state.jsonl"))
        run("rdk-gen", "--spec", path("scene.json"), "--seed", "7", "--out", path("rdk.jsonl"),
            "--labels-out", path("rdk_gt.jsonl"))
        counts, conf = ["-K", "2", "-L", "8"], ["--config", path("conf.json")]
        common = ["--obs", path("rdk.jsonl"), *counts]
        run("fit", *common, *conf, "--sweeps", "10", "--out", path("fit.jsonl"),
            "--plot", path("fit.svg"))
        run("fit", *common, *conf, "--sweeps", "10", "--seed", "4", "--flow-split",
            "--subsample", "0.5", "--no-auto-hyper", "--out", path("fit_split.jsonl"))
        run("track", *common, *conf, "--seed", "11", "--out", path("track.jsonl"))
        run("track", *common, *conf, "--seed", "11", "--no-auto-hyper",
            "--out", path("track_fixed_hyper.jsonl"))
        run("track", *common, *conf, "--seed", "6", "--subsample", "0.5",
            "--out", path("track_plot.jsonl"), "--plot", path("track_{t}.svg"))
        run("track", *common, *conf, "--seed", "5", "--subsample", "0.5", "--flow-split",
            "--out", path("track_sub.jsonl"))
        with open(path("rdk.jsonl")) as src, open(path("head_obs.jsonl"), "w") as dst:
            dst.writelines(src.readlines()[:3])
        run("track", "--obs", path("head_obs.jsonl"), *counts, *conf, "--seed", "11",
            "--out", path("track_head.jsonl"))
        run("track", *common, *conf, "--seed", "11", "--resume-from", path("track_head.jsonl"),
            "--out", path("track_tail.jsonl"))
        run("sva", *common, "--out", path("sva.json"))
        run("eval", "--states", path("track.jsonl"), "--obs", path("rdk.jsonl"),
            "--gt", path("rdk_gt.jsonl"), "--grid", "24", "--probes", "40",
            "--out", path("eval.json"))
        run("geweke", "-K", "2", "-L", "4", "-N", "16", "--iters", "200", "--threshold", "100",
            "--out", path("geweke.json"))
        for name in sorted(os.listdir(tmp)):
            d.text(name)
            d.file(path(name))


PIECES = {
    "forward": piece_forward,
    "resample": piece_resample,
    "geweke": piece_geweke,
    "sweeps": piece_sweeps,
    "features": piece_features,
    "assign": piece_assign,
    "kmeans": piece_kmeans,
    "gestalt": piece_gestalt,
    "rgb": piece_rgb,
    "recovery": _bench_piece("recovery"),
    "scale": _bench_piece("scale"),
    "track": _bench_piece("track"),
    "cli": piece_cli,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory that holds the mattertrack package to hash")
    parser.add_argument("pieces", nargs="*", metavar="PIECE",
                        help=f"pieces to run, of {', '.join(PIECES)} (default: all)")
    args = parser.parse_args()
    unknown = set(args.pieces) - set(PIECES)
    if unknown:
        parser.error(f"unknown pieces: {', '.join(sorted(unknown))}")
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "bench")]
    import mattertrack

    print(f"mattertrack from {os.path.dirname(os.path.abspath(mattertrack.__file__))}")
    for name in args.pieces or PIECES:
        d = Digest()
        PIECES[name](d)
        print(f"{name:<10} {d.hexdigest()}", flush=True)


if __name__ == "__main__":
    main()
