"""Sequential multi-frame inference: propagate, anchor, refine.

Frame 0 is initialized by ``start``: hierarchical K-means plus full Gibbs
sweeps.  Every later frame propagates particle means by their velocities,
re-anchors the unordered point cloud to particles by position alone, then
refines particle and cluster variables bottom-up.  Schedules are tuples of
step names; a frozen quantity's step is left out, so it passes through
bitwise unchanged.  ``subsample_indices`` alone keys the subsample
stream, so callers reproduce the points a run kept from its seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import TransformCandidates, make_transform_candidates
from .gibbs import (
    ASSIGN_PARTICLES,
    ASSIGN_POINTS,
    ASSIGN_POINTS_SPATIAL,
    CLUSTER_COVS,
    CLUSTER_MEANS,
    CLUSTER_ROTATIONS,
    CLUSTER_TRANSLATIONS,
    CLUSTER_WEIGHTS,
    PARTICLE_COVS,
    PARTICLE_FEATURES,
    PARTICLE_MEANS,
    PARTICLE_VELOCITIES,
    PARTICLE_VELOCITY_COVS,
    PARTICLE_WEIGHTS,
    SweepSchedule,
    full_sweep_schedule,
    sweep,
    tracking_frame_schedule,
)
from .initialization import data_dependent_hyperparams, init_state
from .rng import SUBSAMPLE, substream
from .types import HyperParams, ModelState, Observations, ValidationError, is_int, is_real


@dataclass(frozen=True)
class TrackConfig:
    """Knobs of the sequential tracking procedure.

    Construction checks every knob's type and range, raising a
    ``ValidationError`` that names it.  ``per_frame_schedule`` holds step
    names in run order.  A frozen quantity's step is left out:
    ``freeze_Sigma_B`` drops ``particle_covs`` from frame 0 on, ``freeze_z_H``
    drops ``assign_particles`` after frame 0.
    """

    init_sweeps: int = 50
    per_frame_schedule: tuple[str, ...] | None = None
    freeze_z_H: bool = False
    freeze_Sigma_B: bool = True
    subsample_rate: float = 1.0

    def __post_init__(self):
        sweeps, rate = self.init_sweeps, self.subsample_rate
        for key, ok, want in (
                ("init_sweeps", is_int(sweeps) and sweeps >= 0, "an integer >= 0"),
                ("freeze_z_H", isinstance(self.freeze_z_H, bool), "true or false"),
                ("freeze_Sigma_B", isinstance(self.freeze_Sigma_B, bool), "true or false"),
                ("subsample_rate", is_real(rate) and 0 < rate <= 1, "a number in (0, 1]")):
            if not ok:
                raise ValidationError(f"track {key} must be {want}, got {getattr(self, key)!r}")
        if self.per_frame_schedule is not None:
            object.__setattr__(self, "per_frame_schedule",
                               SweepSchedule(self.per_frame_schedule).steps)

    def init_schedule(self) -> SweepSchedule:
        """The frame-0 sweep, z_H live: these sweeps establish the segmentation."""
        frozen = {PARTICLE_COVS} if self.freeze_Sigma_B else set()
        return SweepSchedule(n for n in full_sweep_schedule().steps if n not in frozen)

    def frame_schedule(self) -> SweepSchedule:
        """A later frame's sweep: the per-frame steps less the frozen ones."""
        steps = self.per_frame_schedule
        if steps is None:
            steps = tracking_frame_schedule().steps
        frozen = {name for name, freeze in ((PARTICLE_COVS, self.freeze_Sigma_B),
                                            (ASSIGN_PARTICLES, self.freeze_z_H)) if freeze}
        return SweepSchedule(n for n in steps if n not in frozen)


def propagate(state: ModelState) -> ModelState:
    """Advance particle spatial means by exactly their velocity means."""
    return state.replace(mu_B=state.mu_B + state.vel)


def subsample_indices(n: int, rate: float, seed: int, t: int) -> np.ndarray | None:
    """Sorted indices of the ceil(rate * n) points frame t of a run keeps.

    None when ``rate >= 1`` keeps every point.  Otherwise a draw from the
    run's subsample stream for frame t: a function of (n, rate, seed, t).
    An empty frame keeps no points.
    """
    if rate >= 1.0:
        return None
    m = math.ceil(rate * n)
    return np.sort(substream(seed, SUBSAMPLE, t).choice(n, size=m, replace=False))


def subsample_frame(obs: Observations, rate: float, seed: int, t: int) -> Observations:
    """Frame t's points that a run keeps, in their original order."""
    idx = subsample_indices(len(obs), rate, seed, t)
    return obs if idx is None else obs.take(idx)


def start(obs0: Observations, K: int, L: int, hyper: HyperParams, cfg: TrackConfig,
          seed: int, candidates: TransformCandidates, derive_hyper: bool = True,
          init_proposal=None) -> tuple[ModelState, HyperParams]:
    """Frame-0 state of a chain on the (subsampled) points ``obs0``, and the
    hyperparameters in effect.

    ``init_state``; data-dependent hyperparameters if ``derive_hyper``; the
    optional burn-in accelerator ``init_proposal(state, obs0, hyper,
    candidates)``; then ``cfg.init_sweeps`` full sweeps.
    """
    state = init_state(obs0, K, L, hyper, seed)
    if derive_hyper:
        hyper = data_dependent_hyperparams(obs0, state, base=hyper)
    if init_proposal is not None:
        state = init_proposal(state, obs0, hyper, candidates)
    init_sched = cfg.init_schedule()
    for _ in range(cfg.init_sweeps):
        state = sweep(state, obs0, hyper, init_sched, candidates)
    return state, hyper


def track(frames: list[Observations], K: int, L: int, hyper: HyperParams,
          cfg: TrackConfig, seed: int,
          candidates: TransformCandidates | None = None,
          derive_hyper: bool = True,
          initial_state: ModelState | None = None,
          start_frame: int = 0,
          init_proposal=None) -> list[ModelState]:
    """Run sequential inference over a frame list.

    Returns one posterior state per tracked frame.  Frame 0 must hold points;
    a later empty frame only propagates the particles, with no point labels,
    no sweep and no draws.  Without
    ``initial_state``, frame 0 goes through ``start`` (``derive_hyper`` and
    ``init_proposal`` are its options).  ``initial_state`` resumes an
    earlier run: pass the state dumped after frame ``start_frame - 1``
    together with the hyperparameters in effect (set ``derive_hyper=False``)
    and the continuation is bit-identical to the uninterrupted run.
    """
    if len(frames) < 1:
        raise ValidationError("track requires at least one frame")
    if len(frames[0]) == 0:
        raise ValidationError("frame 0 is empty")
    if candidates is None:
        candidates = make_transform_candidates(frames[0].dim, hyper)

    if initial_state is None:
        obs0 = subsample_frame(frames[0], cfg.subsample_rate, seed, 0)
        state, hyper = start(obs0, K, L, hyper, cfg, seed, candidates,
                             derive_hyper=derive_hyper, init_proposal=init_proposal)
        states, first = [state], 1
    else:
        if derive_hyper:
            raise ValidationError("resume requires derive_hyper=False with explicit hyper")
        if start_frame < 1:
            raise ValidationError("start_frame must be >= 1 when resuming")
        state, states, first = initial_state, [], start_frame

    sched = cfg.frame_schedule()
    for t in range(first, len(frames)):
        obs_t = subsample_frame(frames[t], cfg.subsample_rate, seed, t)
        state = propagate(state)
        if len(obs_t):
            state = sweep(state, obs_t, hyper, sched, candidates)
        else:
            state = state.replace(z_B=np.empty(0, np.int64))
        states.append(state)
    return states


def gestalt_track_config(init_sweeps: int = 50, velocity_iters: int = 20,
                         full_sweeps: int = 500) -> TrackConfig:
    """Preset for camouflaged structure-from-motion scenes.

    Per frame: velocity-focused iterations first, then full refinement
    sweeps; particle spatial covariances and particle-to-cluster assignments
    stay fixed after frame 0.
    """
    velocity_block = (ASSIGN_POINTS, PARTICLE_WEIGHTS, PARTICLE_VELOCITIES,
                      PARTICLE_VELOCITY_COVS, CLUSTER_ROTATIONS, CLUSTER_TRANSLATIONS)
    steps = ((ASSIGN_POINTS_SPATIAL, PARTICLE_WEIGHTS, PARTICLE_MEANS)
             + velocity_block * velocity_iters
             + tracking_frame_schedule().steps * full_sweeps)
    return TrackConfig(init_sweeps=init_sweeps, per_frame_schedule=steps,
                       freeze_z_H=True, freeze_Sigma_B=True)


def rgb_track_config(init_sweeps: int = 30, refine_iters: int = 3) -> TrackConfig:
    """Preset for feature-augmented natural-video tracking.

    Per frame: rigid transforms first, a position-only anchoring assignment,
    a full assignment, repeated spatial/velocity refinements, and a
    feature-mean refresh.  The observations must carry features and the
    hyperparameters ``sigma2_F`` and a positive ``p_outlier`` (0.1 is the
    reference weight), so every full assignment, frame 0's too, scores both.
    """
    refine_block = (PARTICLE_MEANS, PARTICLE_VELOCITIES, PARTICLE_VELOCITY_COVS)
    steps = ((CLUSTER_ROTATIONS, CLUSTER_TRANSLATIONS, ASSIGN_POINTS_SPATIAL, PARTICLE_WEIGHTS,
              ASSIGN_POINTS, PARTICLE_WEIGHTS)
             + refine_block * refine_iters
             + (PARTICLE_FEATURES, CLUSTER_WEIGHTS, CLUSTER_MEANS, CLUSTER_COVS))
    return TrackConfig(init_sweeps=init_sweeps, per_frame_schedule=steps,
                       freeze_z_H=True, freeze_Sigma_B=True)
