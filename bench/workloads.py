"""The four benchmark workloads.

Each workload builds its inputs from the run seed in ``setup`` (timed as
set-up), computes untimed references in ``prepare``, runs one operation per
``run_op`` call and judges that operation's output in ``check``, outside the
timed region.  Ops cycle through a fixed list of inputs, so every run of a
seed replays the same op list.

``check`` returns OK, FLOOR, INVALID or BROKEN, the worst that applies.
BROKEN fails the op: a property every output must have on every seed
(finite parameters and in-range labels, bitwise resume, finite statistics).
INVALID and FLOOR are tallied and reported, but do not fail the op.  INVALID
is a state that fails ``ModelState.validate()`` (simplex weights, SPD
covariances, proper rotations); the library returns such states on about
half of the track scenes, where a particle covariance is singular.
FLOOR is a quality floor that the acceptance criteria themselves let a
correct sampler miss on some seeds: criterion 3 asks for ARI >= 0.9 on 95% of
fits, criterion 6 for 90% right same-object judgments.

Library calls go through module attributes (``gibbs.sweep`` rather than an
imported ``sweep``) so the tracer's rebinding reaches them.

Every op reports the same four numbers, whatever the workload:
  seconds        the whole op;
  first_state_s  op start to the first state: the initialised state of a fit,
                 the dumped frame-0 state of a track, the forward-sampled
                 starting state of a Geweke chain;
  step_s         one sample per step: a Gibbs sweep of a fit, a later frame of
                 a track (with its dump), one successive-conditional iteration
                 of a Geweke check (op time over iterations);
  steps          how many steps the op completed.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from mattertrack import distributions, geweke, gibbs, initialization, model, synth, tracker
from mattertrack import io as mio
from mattertrack.evaluation import adjusted_rand_index, point_cluster_labels
from mattertrack.synth import Body, SceneSpec
from mattertrack.types import HyperParams, ValidationError

# criterion-3 floor for point-level recovery
ARI_FLOOR = 0.9

OK, FLOOR, INVALID, BROKEN = "ok", "floor", "invalid", "broken"


@dataclass
class OpResult:
    seconds: float
    first_state_s: float
    step_s: list[float]
    steps: int
    output: object


class Workload:
    """Shared defaults; each workload sets ``name`` and ``seeds``."""

    name = ""
    # time source of every op timing, and a hook run after every step; the
    # untraced run swaps in its calibration: chunks timed in the hook, and a
    # clock that leaves them out
    clock = staticmethod(perf_counter)
    tick = staticmethod(lambda: None)

    def prepare(self) -> None:
        """Untimed references for ``check``; none by default."""


def well_formed(state) -> bool:
    """Finite parameters and labels in range."""
    arrays = (state.mu_B, state.Sigma_B, state.vel, state.Sigma_V, state.pi_B,
              state.mu_H, state.Sigma_H, state.rot, state.trans, state.pi_H)
    return (all(np.all(np.isfinite(a)) for a in arrays)
            and bool(np.all((state.z_B >= 0) & (state.z_B <= state.L)))
            and bool(np.all((state.z_H >= 0) & (state.z_H < state.K))))


def state_verdict(state) -> str:
    """BROKEN for a malformed state, INVALID for one that fails
    ``ModelState.validate()``, OK otherwise."""
    if not well_formed(state):
        return BROKEN
    try:
        state.validate()
    except ValidationError:
        return INVALID
    return OK


def fit_verdict(state, truth) -> str:
    """The state's verdict, or FLOOR for a valid state below the criterion-3 ARI floor."""
    verdict = state_verdict(state)
    if verdict != OK:
        return verdict
    return OK if adjusted_rand_index(point_cluster_labels(state), truth) >= ARI_FLOOR else FLOOR


def _op_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=n)]


def isotropic_hyper(dim: int, *, sigma2_mu_H: float, sigma2_V: float, s2: float,
                    kappa: float, theta_max: float) -> HyperParams:
    """Isotropic scales Psi_H = I, Psi_B = 0.25 I, Psi_V = 0.04 I and nu = D + 3."""
    eye = np.eye(dim)
    return HyperParams(
        alpha=1.0, beta=1.0, mu_H_prior=np.zeros(dim), sigma2_mu_H=sigma2_mu_H,
        Psi_H=eye, nu_H=dim + 3.0, Psi_B=0.25 * eye, nu_B=dim + 3.0,
        sigma2_V=sigma2_V, Psi_V=0.04 * eye, nu_V=dim + 3.0,
        s2=s2, kappa_vmf=kappa, theta_max=theta_max)


def same_state(a, b) -> bool:
    """Bitwise equality of two model states."""
    fields = ("mu_B", "Sigma_B", "vel", "Sigma_V", "pi_B", "mu_H", "Sigma_H",
              "rot", "trans", "pi_H", "z_B", "z_H")
    return (a.rng == b.rng
            and all(np.array_equal(getattr(a, f), getattr(b, f)) for f in fields))


class Recovery(Workload):
    """Criterion-3 recovery fits in D=3: init_state, then full sweeps."""

    name = "recovery"

    def __init__(self, seed: int, work_dir: str, tiny: bool):
        self.K, self.L, self.N, self.dim = (3, 8, 240, 3) if tiny else (3, 30, 3000, 3)
        self.sweeps = 3 if tiny else 50
        self.seeds = _op_seeds(seed, 1 if tiny else 8)

    def setup(self) -> None:
        self.hyper = isotropic_hyper(self.dim, sigma2_mu_H=25.0, sigma2_V=0.04, s2=0.5,
                                     kappa=4.0, theta_max=math.pi / 6)
        self.cands = distributions.make_transform_candidates(self.dim, self.hyper)
        self.scenes = [synth.separated_mixture_scene(
            self.K, self.L, self.N, self.dim, s, separation=5.0,
            hyper=self.hyper, candidates=self.cands)[1:] for s in self.seeds]

    def run_op(self, i: int) -> OpResult:
        j = i % len(self.seeds)
        obs, _ = self.scenes[j]
        sched = gibbs.full_sweep_schedule()
        t0 = self.clock()
        state = initialization.init_state(obs, self.K, self.L, self.hyper, self.seeds[j])
        first = self.clock() - t0
        steps = []
        for _ in range(self.sweeps):
            t = self.clock()
            state = gibbs.sweep(state, obs, self.hyper, sched, self.cands)
            steps.append(self.clock() - t)
            self.tick()
        return OpResult(self.clock() - t0, first, steps, self.sweeps, state)

    def check(self, i: int, state) -> str:
        return fit_verdict(state, self.scenes[i % len(self.seeds)][1])


def _probe_epoch(T: int) -> float:
    return float(np.mean(range(T - max(1, math.ceil(T / 3)), T)))


class Track(Workload):
    """Criterion-6 unambiguous RDK scenes tracked frame by frame from files."""

    name = "track"

    def __init__(self, seed: int, work_dir: str, tiny: bool):
        self.work_dir = work_dir
        self.K = 3
        self.L, self.frames = (8, 3) if tiny else (40, 10)
        self.dots, self.background = (20, 60) if tiny else (70, 330)
        self.cfg = tracker.TrackConfig(init_sweeps=3 if tiny else 30)
        rng = np.random.default_rng(seed)
        # criterion 6 draws from 20 motions (10 translations, 10 rotations);
        # even motion indices ask "same object?", odd ones "different?"
        n = 1 if tiny else 4
        self.motion = [int(m) for m in rng.integers(0, 20, size=n)]
        self.seeds = [int(s) for s in rng.integers(0, 2**31, size=n)]

    def _spec(self, m: int):
        if m < 10:
            ang = 2 * math.pi * m / 10 + 0.3
            u, omega = np.array([0.1 * math.cos(ang), 0.1 * math.sin(ang)]), 0.0
        else:
            u, omega = np.zeros(2), [0.3, -0.35, 0.32, -0.3, 0.35][m % 5]
        spec = SceneSpec(
            bodies=(Body(kind="disk", center=(0.7, 0.7), size=0.4, num_dots=self.dots,
                         velocity=tuple(u), omega=omega),),
            extent=((0.0, 2.0), (0.0, 1.4)), background_dots=self.background,
            flicker_prob=[0.0, 0.1, 0.2, 0.3][m % 4], frames=self.frames,
            velocity_noise=0.004, occlude_background=True)
        return spec, u

    def _obs_path(self, j: int) -> str:
        return os.path.join(self.work_dir, f"track_scene{j}.jsonl")

    def _state_path(self, t: int) -> str:
        return os.path.join(self.work_dir, f"track_state_t{t}.jsonl")

    def setup(self) -> None:
        self.hyper = isotropic_hyper(2, sigma2_mu_H=4.0, sigma2_V=0.002, s2=0.01,
                                     kappa=8.0, theta_max=math.pi / 8)
        self.cands = distributions.make_transform_candidates(2, self.hyper, M_r=33, M_t=81)
        for j, (m, s) in enumerate(zip(self.motion, self.seeds)):
            frames, _ = synth.make_rigid_scene(self._spec(m)[0], s)
            mio.write_observations(self._obs_path(j), frames)

    def prepare(self) -> None:
        """Effective hyperparameters (derived as ``track_cmd`` does) and the
        uncut reference run that every resumed op must reproduce bitwise."""
        self.eff_hyper, self.reference = [], []
        for j, s in enumerate(self.seeds):
            frames = mio.read_observations(self._obs_path(j))
            state0 = initialization.init_state(frames[0], self.K, self.L, self.hyper, s)
            self.eff_hyper.append(initialization.data_dependent_hyperparams(
                frames[0], state0, base=self.hyper))
            self.reference.append(tracker.track(
                frames, self.K, self.L, self.hyper, self.cfg, s, candidates=self.cands,
                init_proposal=synth.flow_split_proposal))

    def run_op(self, i: int) -> OpResult:
        j = i % len(self.seeds)
        seed, hyper = self.seeds[j], self.eff_hyper[j]
        t0 = self.clock()
        frames = mio.read_observations(self._obs_path(j))
        states = tracker.track(frames[:1], self.K, self.L, self.hyper, self.cfg, seed,
                               candidates=self.cands, init_proposal=synth.flow_split_proposal)
        mio.write_states(self._state_path(0), states, hyper=hyper, first_t=0)
        first = self.clock() - t0
        steps = []
        for t in range(1, len(frames)):
            ts = self.clock()
            states += tracker.track(frames[:t + 1], self.K, self.L, hyper, self.cfg, seed,
                                    candidates=self.cands, derive_hyper=False,
                                    initial_state=states[-1], start_frame=t)
            mio.write_states(self._state_path(t), states[-1:], hyper=hyper, first_t=t)
            steps.append(self.clock() - ts)
            self.tick()
        return OpResult(self.clock() - t0, first, steps, len(frames), states)

    def check(self, i: int, states) -> str:
        j = i % len(self.seeds)
        ref = self.reference[j]
        if len(states) != len(ref) or not all(map(same_state, states, ref)):
            return BROKEN
        verdicts = {state_verdict(s) for s in states}
        for verdict in (BROKEN, INVALID):
            if verdict in verdicts:
                return verdict
        m = self.motion[j]
        c = np.array([0.7, 0.7]) + self._spec(m)[1] * _probe_epoch(len(states))
        if m % 2 == 0:
            pa, pb, truth = c + [0.22, 0.0], c - [0.22, 0.0], True
        else:
            pa, pb, truth = c, np.array([1.75, 0.2] if c[0] < 1.0 else [0.25, 0.2]), False
        same, _ = synth.knn_same_object(states, pa, pb, k=5)
        return OK if same == truth else FLOOR


class Geweke(Workload):
    """Criterion-2 forward/Gibbs check at a fixed iteration count per call."""

    name = "geweke"

    def __init__(self, seed: int, work_dir: str, tiny: bool):
        self.K, self.L, self.N = (2, 2, 8) if tiny else (2, 4, 16)
        self.sweeps_per_iter = 1 if tiny else 2
        # run_geweke's minimum; short calls give the most samples per run
        self.iterations = 100
        self.seeds = _op_seeds(seed, 1 if tiny else 16)

    def setup(self) -> None:
        self.hyper = geweke.default_check_hyper(2)

    def run_op(self, i: int) -> OpResult:
        seed = self.seeds[i % len(self.seeds)]
        t0 = self.clock()
        model.sample_forward(self.hyper, self.K, self.L, self.N, seed)
        t1 = self.clock()
        report = geweke.run_geweke(self.hyper, self.K, self.L, self.N, self.iterations, seed,
                                   sweeps_per_iter=self.sweeps_per_iter)
        t2 = self.clock()
        return OpResult(t2 - t0, t1 - t0, [(t2 - t1) / self.iterations],
                        self.iterations, report)

    def check(self, i: int, report) -> str:
        # |z| < 4 is not a per-call gate: 100-iteration runs exceed it by chance
        vals = [v for s in report.stats for v in (s.z, s.forward_mean, s.chain_mean)]
        return OK if np.all(np.isfinite(vals)) else BROKEN


class Scale(Workload):
    """The file-driven ``fit`` path at N=5000, L=100: init-dominated.

    N=5000 rather than 10000 keeps init at ~60% of an op but cuts the op
    from ~8 s to ~4 s, so a 20-second run holds five ops instead of two.
    """

    name = "scale"

    def __init__(self, seed: int, work_dir: str, tiny: bool):
        self.work_dir = work_dir
        self.K, self.dim = 3, 2
        self.L, self.N = (10, 400) if tiny else (100, 5000)
        self.sweeps = 2 if tiny else 10
        self.seeds = _op_seeds(seed, 1 if tiny else 5)

    def _obs_path(self, j: int) -> str:
        return os.path.join(self.work_dir, f"scale_scene{j}.jsonl")

    def setup(self) -> None:
        self.truth = []
        for j, s in enumerate(self.seeds):
            _, obs, truth = synth.separated_mixture_scene(
                self.K, self.L, self.N, self.dim, s, separation=5.0)
            mio.write_observations(self._obs_path(j), [obs])
            self.truth.append(truth)

    def run_op(self, i: int) -> OpResult:
        j = i % len(self.seeds)
        t0 = self.clock()
        obs = mio.read_observations(self._obs_path(j))[0]
        base = HyperParams.default(self.dim)
        state = initialization.init_state(obs, self.K, self.L, base, self.seeds[j])
        first = self.clock() - t0
        hyper = initialization.data_dependent_hyperparams(obs, state, base=base)
        cands = distributions.make_transform_candidates(self.dim, hyper)
        sched = gibbs.full_sweep_schedule()
        steps = []
        for _ in range(self.sweeps):
            t = self.clock()
            state = gibbs.sweep(state, obs, hyper, sched, cands)
            steps.append(self.clock() - t)
            self.tick()
        mio.write_states(os.path.join(self.work_dir, "scale_state.jsonl"), [state], hyper=hyper)
        return OpResult(self.clock() - t0, first, steps, self.sweeps, state)

    def check(self, i: int, state) -> str:
        return fit_verdict(state, self.truth[i % len(self.seeds)])


WORKLOADS = {w.name: w for w in (Recovery, Track, Geweke, Scale)}
