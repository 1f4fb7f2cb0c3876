"""Synthetic moving-dot scenes and the same-object decision policy.

Scenes are 2D: rigid bodies carrying dots that translate/rotate per frame,
plus background noise dots.  Every dot can flicker (vanish for a frame and
respawn) independently.  Emitted velocities are the exact frame differences
of the underlying matter, with optional corruption knobs for robustness
tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .distributions import _einsum
from .rng import RngState, substream
from .types import ModelState, Observations, ValidationError

NOISE_LABEL = -1


@dataclass(frozen=True)
class Body:
    """One rigid body: a dot-covered shape with a per-frame rigid motion."""

    kind: str                     # "disk" or "rect"
    center: tuple[float, float]
    size: float | tuple[float, float]   # radius, or (width, height)
    num_dots: int
    velocity: tuple[float, float] = (0.0, 0.0)
    omega: float = 0.0            # radians per frame about the (moving) center

    def __post_init__(self):
        if self.kind not in ("disk", "rect"):
            raise ValidationError(f"body kind must be 'disk' or 'rect', got {self.kind!r}")
        if self.num_dots < 1:
            raise ValidationError("num_dots must be at least 1")


@dataclass(frozen=True)
class SceneSpec:
    bodies: tuple[Body, ...]
    extent: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 1.0), (0.0, 1.0))
    background_dots: int = 0
    flicker_prob: float = 0.0
    frames: int = 2
    velocity_noise: float = 0.0          # sd of additive Gaussian velocity noise
    velocity_outlier_prob: float = 0.0   # chance a velocity is replaced by junk
    velocity_outlier_scale: float = 1.0
    # z-order occlusion: earlier bodies sit above later ones and above the
    # background; covered dots are hidden for that frame
    occlude_background: bool = False

    def __post_init__(self):
        object.__setattr__(self, "bodies", tuple(self.bodies))
        if not 0 <= self.flicker_prob < 1:
            raise ValidationError(f"flicker_prob must be in [0, 1), got {self.flicker_prob}")
        if self.frames < 1:
            raise ValidationError("frames must be at least 1")


def _body_local_dots(body: Body, rng: np.random.Generator, n: int) -> np.ndarray:
    """Sample n dot offsets in the body frame."""
    if body.kind == "disk":
        r = float(body.size) * np.sqrt(rng.random(n))
        phi = 2 * math.pi * rng.random(n)
        return np.column_stack([r * np.cos(phi), r * np.sin(phi)])
    w, h = body.size  # type: ignore[misc]
    return np.column_stack([(rng.random(n) - 0.5) * w, (rng.random(n) - 0.5) * h])


def _body_world(body: Body, local: np.ndarray, t: float) -> np.ndarray:
    angle = body.omega * t
    c, s = math.cos(angle), math.sin(angle)
    R = np.array([[c, -s], [s, c]])
    center = np.asarray(body.center) + np.asarray(body.velocity) * t
    return local @ R.T + center


def _covered_by_body(body: Body, points: np.ndarray, t: float) -> np.ndarray:
    """Which points lie inside the body footprint at frame t."""
    center = np.asarray(body.center) + np.asarray(body.velocity) * t
    rel = points - center
    if body.kind == "disk":
        return _einsum("nd,nd->n", rel, rel) <= float(body.size) ** 2
    angle = body.omega * t
    c, s = math.cos(angle), math.sin(angle)
    R = np.array([[c, -s], [s, c]])
    local = rel @ R   # rotate into the body frame
    w, h = body.size  # type: ignore[misc]
    return (np.abs(local[:, 0]) <= w / 2) & (np.abs(local[:, 1]) <= h / 2)


def make_rigid_scene(spec: SceneSpec, seed: int
                     ) -> tuple[list[Observations], list[np.ndarray]]:
    """Generate frames and per-dot ground-truth labels.

    Body dots carry their body index; background dots carry NOISE_LABEL.
    Body-dot velocities are the exact rigid frame differences; background
    matter is static (zero velocity).  A flickered-out dot is absent from
    that frame entirely and respawns afterwards (body dots at a fresh spot on
    their body, background dots uniformly in the extent).
    """
    rng = substream(seed, rngmod.SCENE)
    T = spec.frames
    (x0, x1), (y0, y1) = spec.extent
    span = max(x1 - x0, y1 - y0)

    dots_local = []     # per body-dot local offset (refreshed on respawn)
    dots_body = []      # body index per body dot
    for b, body in enumerate(spec.bodies):
        dots_local.append(_body_local_dots(body, rng, body.num_dots))
        dots_body.append(np.full(body.num_dots, b))
    local = np.concatenate(dots_local) if dots_local else np.zeros((0, 2))
    body_of = np.concatenate(dots_body) if dots_body else np.zeros(0, dtype=int)
    n_body = local.shape[0]

    bg = np.column_stack([x0 + (x1 - x0) * rng.random(spec.background_dots),
                          y0 + (y1 - y0) * rng.random(spec.background_dots)])

    frames: list[Observations] = []
    labels: list[np.ndarray] = []
    total = n_body + spec.background_dots
    was_out = np.zeros(total, dtype=bool)
    for t in range(T):
        out = rng.random(total) < spec.flicker_prob if spec.flicker_prob > 0 else \
            np.zeros(total, dtype=bool)
        # respawn dots that were out last frame
        returns = was_out & ~out
        for i in np.where(returns)[0]:
            if i < n_body:
                local[i] = _body_local_dots(spec.bodies[body_of[i]], rng, 1)[0]
            else:
                bg[i - n_body] = [x0 + (x1 - x0) * rng.random(),
                                  y0 + (y1 - y0) * rng.random()]
        alive = ~out
        pos_body = np.zeros((n_body, 2))
        vel_body = np.zeros((n_body, 2))
        for b, body in enumerate(spec.bodies):
            members = body_of == b
            here = _body_world(body, local[members], t)
            nxt = _body_world(body, local[members], t + 1)
            pos_body[members] = here
            vel_body[members] = nxt - here
        if spec.occlude_background:
            hidden = np.zeros(n_body + spec.background_dots, dtype=bool)
            for j, body in enumerate(spec.bodies):
                members = np.where(body_of == j)[0]
                for i in range(j):
                    hidden[members] |= _covered_by_body(spec.bodies[i],
                                                        pos_body[members], t)
            if spec.background_dots:
                covered = np.zeros(spec.background_dots, dtype=bool)
                for body in spec.bodies:
                    covered |= _covered_by_body(body, bg, t)
                hidden[n_body:] = covered
            alive = alive & ~hidden
        positions = np.concatenate([pos_body, bg])
        velocities = np.concatenate([vel_body, np.zeros_like(bg)])
        lab = np.concatenate([body_of, np.full(spec.background_dots, NOISE_LABEL)])

        positions = positions[alive]
        velocities = velocities[alive].copy()
        lab = lab[alive]
        if spec.velocity_noise > 0:
            velocities += spec.velocity_noise * rng.standard_normal(velocities.shape)
        if spec.velocity_outlier_prob > 0:
            junk = rng.random(len(velocities)) < spec.velocity_outlier_prob
            velocities[junk] = (spec.velocity_outlier_scale * span
                                * rng.standard_normal((int(junk.sum()), 2)))
        frames.append(Observations(positions, velocities))
        labels.append(lab)
        was_out = out
    return frames, labels


def separated_mixture_scene(K: int, L: int, N: int, dim: int, seed: int,
                            separation: float = 5.0, hyper=None, candidates=None):
    """Forward-style sample with cluster means forced onto a separated layout.

    Cluster means sit on a regular polygon whose side is ``separation`` times
    the within-cluster point standard deviation; particles round-robin over
    clusters so every cluster is populated.  Everything else follows the
    generative model with fixed covariance scales.  Returns
    (state, observations, true point cluster labels).
    """
    from .distributions import categorical_sample_rows, make_transform_candidates
    from .types import HyperParams

    if hyper is None:
        hyper = HyperParams.default(dim)
    if candidates is None:
        candidates = make_transform_candidates(dim, hyper)
    rng = substream(seed, rngmod.SCENE, 1)
    eye = np.eye(dim)

    sigma_h, sigma_b, sigma_v = 1.0, 0.04, 0.0025
    std_within = math.sqrt(sigma_h + sigma_b)
    if K == 1:
        centers = np.zeros((1, dim))
    else:
        radius = separation * std_within / (2 * math.sin(math.pi / K))
        phis = 2 * math.pi * np.arange(K) / K
        centers = np.zeros((K, dim))
        centers[:, 0] = radius * np.cos(phis)
        centers[:, 1] = radius * np.sin(phis)

    rot = np.empty((K, dim, dim))
    trans = np.empty((K, dim))
    rot_probs = np.exp(candidates.rotation_log_prior)
    trans_probs = np.exp(candidates.translation_log_prior)
    for k in range(K):
        rot[k] = candidates.rotations[rng.choice(candidates.num_rotations, p=rot_probs)]
        trans[k] = candidates.translations[rng.choice(candidates.num_translations, p=trans_probs)]

    z_H = np.arange(L, dtype=np.int64) % K
    mu_B = np.empty((L, dim))
    vel = np.empty((L, dim))
    for ell in range(L):
        k = z_H[ell]
        mu_B[ell] = centers[k] + math.sqrt(sigma_h) * rng.standard_normal(dim)
        vbar = trans[k] + (rot[k] - eye) @ (mu_B[ell] - centers[k])
        vel[ell] = vbar + math.sqrt(sigma_v) * rng.standard_normal(dim)

    pi_B = rng.dirichlet(np.full(L, 5.0))
    z_B = categorical_sample_rows(np.broadcast_to(np.log(pi_B), (N, L)), rng)
    positions = mu_B[z_B] + math.sqrt(sigma_b) * rng.standard_normal((N, dim))
    velocities = vel[z_B] + math.sqrt(sigma_v) * rng.standard_normal((N, dim))

    state = ModelState(
        dim=dim, mu_B=mu_B, Sigma_B=np.stack([sigma_b * eye] * L),
        vel=vel, Sigma_V=np.stack([sigma_v * eye] * L), pi_B=pi_B,
        mu_H=centers, Sigma_H=np.stack([sigma_h * eye] * K),
        rot=rot, trans=trans, pi_H=np.full(K, 1.0 / K),
        z_B=z_B, z_H=z_H, rng=RngState(seed),
    )
    return state, Observations(positions, velocities), z_H[z_B]


def scene_spec_from_dict(d: dict) -> SceneSpec:
    """Parse a scene description (the rdk-gen file format)."""
    known = {"bodies", "extent", "background_dots", "flicker_prob", "frames",
             "velocity_noise", "velocity_outlier_prob", "velocity_outlier_scale",
             "occlude_background"}
    if not isinstance(d, dict):
        raise ValidationError("a scene spec must be a JSON object")
    unknown = set(d) - known
    if unknown:
        raise ValidationError(f"unknown scene keys: {sorted(unknown)}")
    body_known = {"kind", "center", "size", "num_dots", "velocity", "omega"}
    bodies = []
    for i, bd in enumerate(d.get("bodies", [])):
        if not isinstance(bd, dict):
            raise ValidationError(f"body {i} must be a JSON object")
        extra = set(bd) - body_known
        if extra:
            raise ValidationError(f"unknown body keys in body {i}: {sorted(extra)}")
        missing = {"kind", "center", "size", "num_dots"} - set(bd)
        if missing:
            raise ValidationError(f"body {i} needs keys {sorted(missing)}")
        size = bd["size"]
        bodies.append(Body(
            kind=bd["kind"],
            center=tuple(bd["center"]),
            size=tuple(size) if isinstance(size, (list, tuple)) else float(size),
            num_dots=int(bd["num_dots"]),
            velocity=tuple(bd.get("velocity", (0.0, 0.0))),
            omega=float(bd.get("omega", 0.0)),
        ))
    kwargs = {k: d[k] for k in known - {"bodies", "extent"} if k in d}
    if "extent" in d:
        (a, b), (c, e) = d["extent"]
        kwargs["extent"] = ((float(a), float(b)), (float(c), float(e)))
    return SceneSpec(bodies=tuple(bodies), **kwargs)


def flow_split_proposal(state: ModelState, obs: Observations, hyper,
                        candidates) -> ModelState:
    """Burn-in accelerator: split particles into slow/fast groups by speed.

    A two-means split of particle velocity magnitudes sends the fast group to
    the last cluster; the rest keep (a squeezed copy of) their current
    assignment.  Cluster parameters are then refit to the proposed grouping.
    This only moves the chain's starting point, never the posterior it
    targets.
    """
    from .gibbs import (
        CLUSTER_COVS,
        CLUSTER_MEANS,
        CLUSTER_ROTATIONS,
        CLUSTER_TRANSLATIONS,
        CLUSTER_WEIGHTS,
        SweepSchedule,
        sweep,
    )

    from .initialization import kmeans_pp

    speeds = np.linalg.norm(state.vel, axis=1)
    if state.K > 1 and np.unique(speeds).size >= 2:
        centers, groups = kmeans_pp(speeds[:, None], 2, seed=0, n_init=4)
        fast = groups == int(np.argmax(centers[:, 0]))
        slow_home = np.minimum(state.z_H, state.K - 2)
        z_h = np.where(fast, state.K - 1, slow_home).astype(np.int64)
    else:
        z_h = state.z_H
    proposed = state.replace(z_H=z_h)
    refit = SweepSchedule((CLUSTER_WEIGHTS, CLUSTER_MEANS, CLUSTER_COVS,
                           CLUSTER_ROTATIONS, CLUSTER_TRANSLATIONS))
    return sweep(proposed, obs, hyper, refit, candidates)


def knn_same_object(states: list[ModelState], probe_a, probe_b, k: int = 5,
                    frames: list[int] | None = None) -> tuple[bool, float]:
    """Do two probe locations lie on the same inferred entity?

    Takes the k particles nearest each probe (by spatial mean averaged over
    the judged frames, default the final third of the sequence), finds the
    majority cluster among them in the last judged frame, and answers
    same-object iff the majorities agree.  Confidence is the product of the
    two majority fractions.  Ties resolve to the lowest cluster index; k is
    clamped to the particle count.
    """
    if k < 1:
        raise ValidationError("k must be at least 1")
    if not states:
        raise ValidationError("need at least one state")
    T = len(states)
    if frames is None:
        frames = list(range(max(0, T - max(1, math.ceil(T / 3))), T))
    mean_pos = np.mean([states[t].mu_B for t in frames], axis=0)
    z_H = states[frames[-1]].z_H
    K = states[frames[-1]].K
    k = min(k, mean_pos.shape[0])

    def majority(probe) -> tuple[int, float]:
        d2 = _einsum("ld,ld->l", mean_pos - probe, mean_pos - probe)
        nearest = np.argsort(d2, kind="stable")[:k]
        votes = np.bincount(z_H[nearest], minlength=K)
        best = int(np.argmax(votes))
        return best, votes[best] / k

    cluster_a, frac_a = majority(np.asarray(probe_a, dtype=np.float64))
    cluster_b, frac_b = majority(np.asarray(probe_b, dtype=np.float64))
    return cluster_a == cluster_b, float(frac_a * frac_b)
