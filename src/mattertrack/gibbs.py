"""Blocked Gibbs conditionals and the sweep scheduler.

Each update resamples one block of variables from its exact conditional given
the rest of the state.  Within a block all components are conditionally
independent and read the pre-step state; blocks compose sequentially.

Every conditional is one kernel over the stacked component arrays, (L, D, D)
for particles and (K, D, D) for clusters, with no per-component Python loop.
The kernels read sufficient statistics gathered in one ``np.bincount`` pass
keyed by ``z_B`` or ``z_H``: counts, sums and scatter entries.  Covariances
are factored and inverted as stacks, assignment scores are one (N, L)
quadratic form, and the rotation and translation grids are scored from
per-cluster moments rather than candidate by candidate.

Draw-order contract: each step takes exactly the variates, in exactly the
order, that a loop over components would take from its stream, so a seeded
chain does not depend on how a step is vectorized.  Gaussian steps draw one
``standard_normal((n, D))`` block, equal to n calls of
``standard_normal(D)``.  Inverse-Wishart steps draw their Bartlett variates
component by component, interleaving chi-square and normal draws as
``inverse_wishart_sample`` does.  Transform steps draw one uniform per
cluster in cluster order, and assignment steps one uniform per row.

The ``*_conditional`` / ``*_posterior`` / ``*_log_probs`` helpers expose one
component's slice of these kernels so tests can check them against closed
forms without going through sampling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .distributions import (
    TransformCandidates,
    categorical_sample,
    categorical_sample_rows,
    chol_spd_stack,
    dirichlet_sample,
    gamma_logpdf,
    isotropic_logpdf_rows,
    mvn_logpdf_rows_all,
    spd_inverse_stack,
    tril_inverse_stack,
)
from .types import Assignments, HyperParams, ModelState, Observations, ValidationError

_LOG_2PI = math.log(2.0 * math.pi)

# Step identifiers, in canonical full-sweep order.
ASSIGN_POINTS = "assign_points"
ASSIGN_POINTS_SPATIAL = "assign_points_spatial"
PARTICLE_WEIGHTS = "particle_weights"
PARTICLE_MEANS = "particle_means"
PARTICLE_COVS = "particle_covs"
PARTICLE_VELOCITIES = "particle_velocities"
PARTICLE_VELOCITY_COVS = "particle_velocity_covs"
PARTICLE_FEATURES = "particle_features"
ASSIGN_PARTICLES = "assign_particles"
CLUSTER_WEIGHTS = "cluster_weights"
CLUSTER_MEANS = "cluster_means"
CLUSTER_COVS = "cluster_covs"
CLUSTER_ROTATIONS = "cluster_rotations"
CLUSTER_TRANSLATIONS = "cluster_translations"

STEP_IDS = (
    ASSIGN_POINTS,
    ASSIGN_POINTS_SPATIAL,
    PARTICLE_WEIGHTS,
    PARTICLE_MEANS,
    PARTICLE_COVS,
    PARTICLE_VELOCITIES,
    PARTICLE_VELOCITY_COVS,
    PARTICLE_FEATURES,
    ASSIGN_PARTICLES,
    CLUSTER_WEIGHTS,
    CLUSTER_MEANS,
    CLUSTER_COVS,
    CLUSTER_ROTATIONS,
    CLUSTER_TRANSLATIONS,
)
_STEP_INDEX = {name: i for i, name in enumerate(STEP_IDS)}


# --------------------------------------------------------------------------
# Schedules
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Step:
    name: str
    repeat: int = 1


@dataclass(frozen=True)
class Block:
    """A group of schedule items repeated as a unit."""

    items: tuple
    repeat: int = 1


@dataclass(frozen=True)
class SweepSchedule:
    """Ordered Gibbs steps with repeat counts plus behavior flags."""

    steps: tuple
    freeze_Sigma_B: bool = False
    freeze_z_H: bool = False
    enable_outliers: bool = False
    enable_features: bool = False
    position_only_assignment: bool = False

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        self._validate_items(self.steps)

    @classmethod
    def _validate_items(cls, items) -> None:
        for item in items:
            if isinstance(item, Step):
                if item.name not in _STEP_INDEX:
                    raise ValidationError(f"unknown schedule step {item.name!r}")
                if item.repeat < 1:
                    raise ValidationError("step repeat counts must be >= 1")
            elif isinstance(item, Block):
                if item.repeat < 1:
                    raise ValidationError("block repeat counts must be >= 1")
                cls._validate_items(item.items)
            else:
                raise ValidationError(f"schedule items must be Step or Block, got {item!r}")

    def flatten(self) -> tuple[str, ...]:
        out: list[str] = []

        def walk(items):
            for item in items:
                if isinstance(item, Step):
                    out.extend([item.name] * item.repeat)
                else:
                    for _ in range(item.repeat):
                        walk(item.items)

        walk(self.steps)
        return tuple(out)

    def replace_flags(self, **kw) -> "SweepSchedule":
        import dataclasses

        return dataclasses.replace(self, **kw)


def full_sweep_schedule(**flags) -> SweepSchedule:
    """One pass over all twelve conditionals in bottom-up order."""
    names = (
        ASSIGN_POINTS,
        PARTICLE_WEIGHTS,
        PARTICLE_MEANS,
        PARTICLE_COVS,
        PARTICLE_VELOCITIES,
        PARTICLE_VELOCITY_COVS,
        ASSIGN_PARTICLES,
        CLUSTER_WEIGHTS,
        CLUSTER_MEANS,
        CLUSTER_COVS,
        CLUSTER_ROTATIONS,
        CLUSTER_TRANSLATIONS,
    )
    return SweepSchedule(steps=tuple(Step(n) for n in names), **flags)


def tracking_frame_schedule(**flags) -> SweepSchedule:
    """Per-frame order for sequential tracking.

    Spatial anchoring first (position-only assignment of the unordered point
    cloud to propagated particles), then the full assignment and the particle
    and cluster refinements.
    """
    names = (
        ASSIGN_POINTS_SPATIAL,
        PARTICLE_WEIGHTS,
        PARTICLE_MEANS,
        ASSIGN_POINTS,
        PARTICLE_WEIGHTS,
        PARTICLE_COVS,
        PARTICLE_VELOCITIES,
        PARTICLE_VELOCITY_COVS,
        ASSIGN_PARTICLES,
        CLUSTER_WEIGHTS,
        CLUSTER_MEANS,
        CLUSTER_COVS,
        CLUSTER_ROTATIONS,
        CLUSTER_TRANSLATIONS,
    )
    return SweepSchedule(steps=tuple(Step(n) for n in names), **flags)


# --------------------------------------------------------------------------
# Sufficient statistics and stacked draws
# --------------------------------------------------------------------------

def _group_counts(z: np.ndarray, n: int) -> np.ndarray:
    """Members per group; labels >= n (the outlier sentinel) are dropped."""
    return np.bincount(z, minlength=n)[:n]


def _group_sums(z: np.ndarray, n: int, values: np.ndarray) -> np.ndarray:
    """Per-group sums of the rows of ``values`` (M, P), one bincount per column."""
    out = np.empty((n, values.shape[1]))
    for p, col in enumerate(values.T):
        out[:, p] = np.bincount(z, weights=col, minlength=n)[:n]
    return out


def _group_outer(z: np.ndarray, n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-group sums of the outer products a_i b_i^T, shape (n, D, D)."""
    d = a.shape[1]
    a_cols, b_cols = a.T.copy(), b.T.copy()
    out = np.empty((n, d, d))
    for i in range(d):
        for j in range(d):
            out[:, i, j] = np.bincount(z, weights=a_cols[i] * b_cols[j], minlength=n)[:n]
    return out


def _scatter_posteriors(z: np.ndarray, n: int, values: np.ndarray, centers: np.ndarray,
                        psi: np.ndarray, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-Wishart posteriors from each group's scatter about its center."""
    # outlier rows (label n) gather a clipped center; their group is dropped
    diff = values - np.take(centers, z, axis=0, mode="clip")
    return psi + _group_outer(z, n, diff, diff), nu + _group_counts(z, n)


def _gaussians_from_precision(m_vec: np.ndarray,
                              precision: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (mean, covariance) of N(P^{-1} m, P^{-1})."""
    cov = spd_inverse_stack(precision)
    return np.einsum("nij,nj->ni", cov, m_vec), cov


def _mvn_sample_stack(means: np.ndarray, covs: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    """One draw per row, equal to ``mvn_sample`` called row by row."""
    noise = rng.standard_normal(means.shape)
    return means + np.einsum("nij,nj->ni", chol_spd_stack(covs), noise)


def _inverse_wishart_stack(psi: np.ndarray, nu: np.ndarray,
                           rng: np.random.Generator) -> np.ndarray:
    """One IW(psi_i, nu_i) draw per component, equal to ``inverse_wishart_sample``
    called component by component.

    The Bartlett variates interleave chi-square and normal draws within a
    component, so they are drawn in a scalar loop; the algebra is stacked.
    """
    n, d, _ = psi.shape
    if not np.all(nu > d - 1):
        raise ValidationError(f"nu must exceed dim - 1 = {d - 1}, got {nu.min()}")
    scale = chol_spd_stack(spd_inverse_stack(psi))
    bartlett = np.zeros((n, d, d))
    for a, dof in zip(bartlett, nu):
        for i in range(d):
            a[i, i] = math.sqrt(rng.chisquare(dof - i))
            for j in range(i):
                a[i, j] = rng.standard_normal()
    c_inv = tril_inverse_stack(scale @ bartlett)
    out = np.einsum("nki,nkj->nij", c_inv, c_inv)
    return 0.5 * (out + np.swapaxes(out, 1, 2))


def _isotropic_sum_loglik(counts: np.ndarray, sq: np.ndarray, d: int,
                          var: float) -> np.ndarray:
    """Summed log N(r; 0, var I) of ``counts`` D-vectors whose squared norms sum to ``sq``."""
    return -0.5 * (counts[:, None] * (d * (_LOG_2PI + math.log(var))) + sq / var)


# --------------------------------------------------------------------------
# Point-to-particle assignment (with feature and outlier extensions)
# --------------------------------------------------------------------------

def point_assignment_log_probs(state: ModelState, obs: Observations, hyper: HyperParams,
                               *, position_only: bool = False,
                               include_outlier: bool = False,
                               use_features: bool = False) -> np.ndarray:
    """Unnormalized log probabilities over particles (columns) per point (rows).

    With ``include_outlier`` an extra final column scores the outlier
    component: weight p_outlier with a Gamma likelihood on speed.
    """
    if use_features and not position_only:
        if obs.features is None:
            raise ValidationError("feature likelihood requested but observations have no features")
        if state.feat is None:
            raise ValidationError("feature likelihood requested but state has no feature means")
        if hyper.sigma2_F is None:
            raise ValidationError("feature likelihood requested but sigma2_F is unset")
    L = state.L
    outlier = include_outlier and hyper.p_outlier > 0
    scores = np.empty((len(obs), L + 1 if outlier else L))
    inliers = scores[:, :L]
    with np.errstate(divide="ignore"):
        inliers[...] = np.log(state.pi_B)
    if outlier:
        inliers += np.log1p(-hyper.p_outlier)
    mvn_logpdf_rows_all(obs.positions, state.mu_B, state.Sigma_B, add_to=inliers)
    if not position_only:
        mvn_logpdf_rows_all(obs.velocities, state.vel, state.Sigma_V, add_to=inliers)
        if use_features:
            F = obs.features.shape[1]
            iso = np.broadcast_to(hyper.sigma2_F * np.eye(F), (L, F, F))
            mvn_logpdf_rows_all(obs.features, state.feat, iso, add_to=inliers)
    if outlier:
        speeds = np.linalg.norm(obs.velocities, axis=1)
        scores[:, L] = np.log(hyper.p_outlier) + gamma_logpdf(
            speeds, hyper.outlier_gamma_shape, hyper.outlier_gamma_rate)
    return scores


def assign_points_to_particles(state: ModelState, obs: Observations, hyper: HyperParams,
                               rng: np.random.Generator, *, position_only: bool = False,
                               include_outlier: bool = False,
                               use_features: bool = False) -> np.ndarray:
    scores = point_assignment_log_probs(
        state, obs, hyper, position_only=position_only,
        include_outlier=include_outlier, use_features=use_features)
    return categorical_sample_rows(scores, rng)


# --------------------------------------------------------------------------
# Mixture weights
# --------------------------------------------------------------------------

def update_particle_weights(state: ModelState, hyper: HyperParams,
                            rng: np.random.Generator) -> np.ndarray:
    counts = _group_counts(state.z_B, state.L)
    return dirichlet_sample(hyper.beta_vec(state.L) + counts, rng)


def update_cluster_weights(state: ModelState, hyper: HyperParams,
                           rng: np.random.Generator) -> np.ndarray:
    counts = _group_counts(state.z_H, state.K)
    return dirichlet_sample(hyper.alpha_vec(state.K) + counts, rng)


# --------------------------------------------------------------------------
# Particle parameter conditionals
# --------------------------------------------------------------------------

def _particle_mean_conditionals(state: ModelState, obs: Observations,
                                hyper: HyperParams) -> tuple[np.ndarray, np.ndarray]:
    z_h = state.z_H
    A = state.rot - np.eye(state.dim)
    b = state.trans - np.einsum("kij,kj->ki", A, state.mu_H)
    inv_sh = spd_inverse_stack(state.Sigma_H)
    inv_sb = spd_inverse_stack(state.Sigma_B)
    counts = _group_counts(state.z_B, state.L)
    sum_x = _group_sums(state.z_B, state.L, obs.positions)
    AtA = np.einsum("kji,kjl->kil", A, A) / hyper.sigma2_V
    precision = inv_sh[z_h] + counts[:, None, None] * inv_sb + AtA[z_h]
    m_vec = (np.einsum("kij,kj->ki", inv_sh, state.mu_H)[z_h]
             + np.einsum("lij,lj->li", inv_sb, sum_x)
             + np.einsum("lji,lj->li", A[z_h], state.vel - b[z_h]) / hyper.sigma2_V)
    return _gaussians_from_precision(m_vec, precision)


def particle_mean_conditional(state: ModelState, obs: Observations, hyper: HyperParams,
                              ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian conditional of one particle's spatial mean.

    Combines the cluster spatial prior, position likelihoods of assigned
    points, and the rigid-motion velocity constraint, which is linear in the
    mean.  Empty particles keep prior plus velocity terms only.
    """
    means, covs = _particle_mean_conditionals(state, obs, hyper)
    return means[ell], covs[ell]


def update_particle_means(state: ModelState, obs: Observations, hyper: HyperParams,
                          rng: np.random.Generator) -> np.ndarray:
    return _mvn_sample_stack(*_particle_mean_conditionals(state, obs, hyper), rng)


def _particle_cov_posteriors(state: ModelState, obs: Observations,
                             hyper: HyperParams) -> tuple[np.ndarray, np.ndarray]:
    return _scatter_posteriors(state.z_B, state.L, obs.positions, state.mu_B,
                               hyper.Psi_B, hyper.nu_B)


def particle_cov_posterior(state: ModelState, obs: Observations, hyper: HyperParams,
                           ell: int) -> tuple[np.ndarray, float]:
    """Inverse-Wishart posterior parameters for one particle's spatial covariance."""
    psi, nu = _particle_cov_posteriors(state, obs, hyper)
    return psi[ell], float(nu[ell])


def update_particle_covariances(state: ModelState, obs: Observations, hyper: HyperParams,
                                rng: np.random.Generator) -> np.ndarray:
    return _inverse_wishart_stack(*_particle_cov_posteriors(state, obs, hyper), rng)


def _velocity_mean_conditionals(state: ModelState, obs: Observations,
                                hyper: HyperParams) -> tuple[np.ndarray, np.ndarray]:
    d, z_h = state.dim, state.z_H
    vbar = state.trans[z_h] + np.einsum(
        "lij,lj->li", (state.rot - np.eye(d))[z_h], state.mu_B - state.mu_H[z_h])
    inv_sv = spd_inverse_stack(state.Sigma_V)
    counts = _group_counts(state.z_B, state.L)
    sum_v = _group_sums(state.z_B, state.L, obs.velocities)
    precision = np.eye(d) / hyper.sigma2_V + counts[:, None, None] * inv_sv
    m_vec = vbar / hyper.sigma2_V + np.einsum("lij,lj->li", inv_sv, sum_v)
    return _gaussians_from_precision(m_vec, precision)


def velocity_mean_conditional(state: ModelState, obs: Observations, hyper: HyperParams,
                              ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian conditional of one particle's velocity mean."""
    means, covs = _velocity_mean_conditionals(state, obs, hyper)
    return means[ell], covs[ell]


def update_particle_velocity_means(state: ModelState, obs: Observations, hyper: HyperParams,
                                   rng: np.random.Generator) -> np.ndarray:
    return _mvn_sample_stack(*_velocity_mean_conditionals(state, obs, hyper), rng)


def _velocity_cov_posteriors(state: ModelState, obs: Observations,
                             hyper: HyperParams) -> tuple[np.ndarray, np.ndarray]:
    return _scatter_posteriors(state.z_B, state.L, obs.velocities, state.vel,
                               hyper.Psi_V, hyper.nu_V)


def velocity_cov_posterior(state: ModelState, obs: Observations, hyper: HyperParams,
                           ell: int) -> tuple[np.ndarray, float]:
    psi, nu = _velocity_cov_posteriors(state, obs, hyper)
    return psi[ell], float(nu[ell])


def update_particle_velocity_covariances(state: ModelState, obs: Observations,
                                         hyper: HyperParams,
                                         rng: np.random.Generator) -> np.ndarray:
    return _inverse_wishart_stack(*_velocity_cov_posteriors(state, obs, hyper), rng)


def update_particle_features(state: ModelState, obs: Observations) -> np.ndarray:
    """Empirical feature means over assigned points; empty particles keep theirs."""
    if state.feat is None or obs.features is None:
        raise ValidationError("feature update requires features on both state and observations")
    z = state.z_B
    counts = _group_counts(z, state.L)
    sums = _group_sums(z, state.L, obs.features)
    out = state.feat.copy()
    nonzero = counts > 0
    out[nonzero] = sums[nonzero] / counts[nonzero, None]
    return out


# --------------------------------------------------------------------------
# Particle-to-cluster assignment
# --------------------------------------------------------------------------

def cluster_assignment_log_probs(state: ModelState, hyper: HyperParams) -> np.ndarray:
    """(L, K) log scores: cluster weight x spatial fit x rigid-motion velocity fit."""
    d = state.dim
    with np.errstate(divide="ignore"):
        scores = np.tile(np.log(state.pi_H), (state.L, 1))
    mvn_logpdf_rows_all(state.mu_B, state.mu_H, state.Sigma_H, add_to=scores)
    # velocity each cluster's rigid transform induces at each particle, (L, K, D)
    offsets = state.mu_B[:, None, :] - state.mu_H[None, :, :]
    vbar = state.trans + np.einsum("kij,lkj->lki", state.rot - np.eye(d), offsets)
    resid = (state.vel[:, None, :] - vbar).reshape(-1, d)
    scores += isotropic_logpdf_rows(resid, 0.0, hyper.sigma2_V).reshape(state.L, state.K)
    return scores


def assign_particles_to_clusters(state: ModelState, hyper: HyperParams,
                                 rng: np.random.Generator) -> np.ndarray:
    return categorical_sample_rows(cluster_assignment_log_probs(state, hyper), rng)


# --------------------------------------------------------------------------
# Cluster parameter conditionals
# --------------------------------------------------------------------------

def _cluster_mean_conditionals(state: ModelState,
                               hyper: HyperParams) -> tuple[np.ndarray, np.ndarray]:
    d, K, z_h = state.dim, state.K, state.z_H
    A = np.eye(d) - state.rot
    counts = _group_counts(z_h, K)
    inv_sh = spd_inverse_stack(state.Sigma_H)
    sum_mu = _group_sums(z_h, K, state.mu_B)
    # velocity residuals of the rigid-motion model, linear in mu_H through A
    b = state.trans[z_h] - np.einsum("lij,lj->li", A[z_h], state.mu_B)
    resid_sum = _group_sums(z_h, K, state.vel - b)
    AtA = np.einsum("kji,kjl->kil", A, A) / hyper.sigma2_V
    precision = np.eye(d) / hyper.sigma2_mu_H + counts[:, None, None] * (inv_sh + AtA)
    m_vec = (hyper.mu_H_prior / hyper.sigma2_mu_H
             + np.einsum("kij,kj->ki", inv_sh, sum_mu)
             + np.einsum("kji,kj->ki", A, resid_sum) / hyper.sigma2_V)
    return _gaussians_from_precision(m_vec, precision)


def cluster_mean_conditional(state: ModelState, hyper: HyperParams,
                             k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian conditional of one cluster's spatial mean.

    Integrates the global location prior, assigned particle centers, and the
    velocity residuals of the rigid-motion model (linear in the mean through
    A = I - R).
    """
    means, covs = _cluster_mean_conditionals(state, hyper)
    return means[k], covs[k]


def update_cluster_means(state: ModelState, hyper: HyperParams,
                         rng: np.random.Generator) -> np.ndarray:
    return _mvn_sample_stack(*_cluster_mean_conditionals(state, hyper), rng)


def _cluster_cov_posteriors(state: ModelState,
                            hyper: HyperParams) -> tuple[np.ndarray, np.ndarray]:
    return _scatter_posteriors(state.z_H, state.K, state.mu_B, state.mu_H,
                               hyper.Psi_H, hyper.nu_H)


def cluster_cov_posterior(state: ModelState, hyper: HyperParams,
                          k: int) -> tuple[np.ndarray, float]:
    psi, nu = _cluster_cov_posteriors(state, hyper)
    return psi[k], float(nu[k])


def update_cluster_covariances(state: ModelState, hyper: HyperParams,
                               rng: np.random.Generator) -> np.ndarray:
    return _inverse_wishart_stack(*_cluster_cov_posteriors(state, hyper), rng)


# --------------------------------------------------------------------------
# Discrete rigid transforms
# --------------------------------------------------------------------------

def _rotation_log_probs(state: ModelState, hyper: HyperParams,
                        candidates: TransformCandidates) -> np.ndarray:
    """(K, M_r) rotation scores from per-cluster moments.

    Over a cluster's particles, with offsets o = mu_B - mu_H, residuals
    u = vel - t and B_j = R_j - I, the squared velocity misfit of candidate j
    is sum |u|^2 - 2 <B_j, sum u o^T> + <B_j^T B_j, sum o o^T>.
    """
    K, z_h = state.K, state.z_H
    offsets = state.mu_B - state.mu_H[z_h]
    resid = state.vel - state.trans[z_h]
    B = candidates.rotations - np.eye(state.dim)
    gram = np.einsum("jca,jcb->jab", B, B)
    sq = (_group_sums(z_h, K, np.einsum("ld,ld->l", resid, resid)[:, None])
          - 2.0 * np.einsum("jab,kab->kj", B, _group_outer(z_h, K, resid, offsets))
          + np.einsum("jab,kab->kj", gram, _group_outer(z_h, K, offsets, offsets)))
    loglik = _isotropic_sum_loglik(_group_counts(z_h, K), sq, state.dim, hyper.sigma2_V)
    return candidates.rotation_log_prior + loglik


def rotation_log_probs(state: ModelState, hyper: HyperParams,
                       candidates: TransformCandidates, k: int) -> np.ndarray:
    """Log scores over rotation candidates for cluster k."""
    return _rotation_log_probs(state, hyper, candidates)[k]


def update_cluster_rotations(state: ModelState, hyper: HyperParams,
                             candidates: TransformCandidates,
                             rng: np.random.Generator) -> np.ndarray:
    scores = _rotation_log_probs(state, hyper, candidates)
    return candidates.rotations[[categorical_sample(row, rng) for row in scores]]


def _translation_log_probs(state: ModelState, hyper: HyperParams,
                           candidates: TransformCandidates) -> np.ndarray:
    """(K, M_t) translation scores from per-cluster moments.

    With r = vel - (R - I)(mu_B - mu_H) over a cluster's particles, the
    squared misfit of candidate t_m is sum |r|^2 - 2 t_m . sum r + n |t_m|^2.
    """
    K, z_h = state.K, state.z_H
    offsets = state.mu_B - state.mu_H[z_h]
    resid = state.vel - np.einsum("lij,lj->li", (state.rot - np.eye(state.dim))[z_h], offsets)
    counts = _group_counts(z_h, K)
    T = candidates.translations
    sq = (_group_sums(z_h, K, np.einsum("ld,ld->l", resid, resid)[:, None])
          - 2.0 * _group_sums(z_h, K, resid) @ T.T
          + counts[:, None] * np.einsum("md,md->m", T, T))
    loglik = _isotropic_sum_loglik(counts, sq, state.dim, hyper.sigma2_V)
    return candidates.translation_log_prior + loglik


def translation_log_probs(state: ModelState, hyper: HyperParams,
                          candidates: TransformCandidates, k: int) -> np.ndarray:
    """Log scores over translation candidates for cluster k."""
    return _translation_log_probs(state, hyper, candidates)[k]


def update_cluster_translations(state: ModelState, hyper: HyperParams,
                                candidates: TransformCandidates,
                                rng: np.random.Generator) -> np.ndarray:
    scores = _translation_log_probs(state, hyper, candidates)
    return candidates.translations[[categorical_sample(row, rng) for row in scores]]


# --------------------------------------------------------------------------
# Sweep
# --------------------------------------------------------------------------

def _apply_step(name: str, state: ModelState, obs: Observations, hyper: HyperParams,
                schedule: SweepSchedule, candidates: TransformCandidates,
                rng: np.random.Generator) -> ModelState:
    if name == ASSIGN_POINTS:
        z = assign_points_to_particles(
            state, obs, hyper, rng,
            position_only=schedule.position_only_assignment,
            include_outlier=schedule.enable_outliers,
            use_features=schedule.enable_features and not schedule.position_only_assignment)
        return state.replace(assignments=Assignments(z, state.z_H))
    if name == ASSIGN_POINTS_SPATIAL:
        z = assign_points_to_particles(state, obs, hyper, rng, position_only=True)
        return state.replace(assignments=Assignments(z, state.z_H))
    if name == PARTICLE_WEIGHTS:
        return state.replace(pi_B=update_particle_weights(state, hyper, rng))
    if name == PARTICLE_MEANS:
        return state.replace(mu_B=update_particle_means(state, obs, hyper, rng))
    if name == PARTICLE_COVS:
        return state.replace(Sigma_B=update_particle_covariances(state, obs, hyper, rng))
    if name == PARTICLE_VELOCITIES:
        return state.replace(vel=update_particle_velocity_means(state, obs, hyper, rng))
    if name == PARTICLE_VELOCITY_COVS:
        return state.replace(Sigma_V=update_particle_velocity_covariances(state, obs, hyper, rng))
    if name == PARTICLE_FEATURES:
        return state.replace(feat=update_particle_features(state, obs))
    if name == ASSIGN_PARTICLES:
        z_h = assign_particles_to_clusters(state, hyper, rng)
        return state.replace(assignments=Assignments(state.z_B, z_h))
    if name == CLUSTER_WEIGHTS:
        return state.replace(pi_H=update_cluster_weights(state, hyper, rng))
    if name == CLUSTER_MEANS:
        return state.replace(mu_H=update_cluster_means(state, hyper, rng))
    if name == CLUSTER_COVS:
        return state.replace(Sigma_H=update_cluster_covariances(state, hyper, rng))
    if name == CLUSTER_ROTATIONS:
        return state.replace(rot=update_cluster_rotations(state, hyper, candidates, rng))
    if name == CLUSTER_TRANSLATIONS:
        return state.replace(trans=update_cluster_translations(state, hyper, candidates, rng))
    raise ValidationError(f"unknown schedule step {name!r}")


def sweep(state: ModelState, obs: Observations, hyper: HyperParams,
          schedule: SweepSchedule, candidates: TransformCandidates) -> ModelState:
    """Execute the schedule once, each step reading the latest state.

    Freeze flags skip the corresponding steps so the frozen arrays pass
    through bitwise unchanged.  Each step draws from a stream keyed by the
    state's rng cursor and the step position, so results are independent of
    thread count; the cursor advances once per sweep.
    """
    names = schedule.flatten()
    for pos, name in enumerate(names):
        if name == PARTICLE_COVS and schedule.freeze_Sigma_B:
            continue
        if name == ASSIGN_PARTICLES and schedule.freeze_z_H:
            continue
        rng = state.rng.stream(rngmod.SWEEP, _STEP_INDEX[name], pos)
        state = _apply_step(name, state, obs, hyper, schedule, candidates, rng)
    return state.replace(rng=state.rng.tick())
