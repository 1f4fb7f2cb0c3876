"""Blocked Gibbs conditionals and the sweep scheduler.

Each update resamples one block of variables from its exact conditional given
the rest of the state.  Within a block all components are conditionally
independent and read the pre-step state; blocks compose sequentially.  A
``SweepSchedule`` is the tuple of step names a sweep runs, in order: a step
or group of steps repeated is written out name by name.

Every conditional is one kernel over the stacked component arrays, (L, D, D)
for particles and (K, D, D) for clusters, with no per-component Python loop.
The kernels read sufficient statistics gathered in one ``np.bincount`` pass
keyed by ``z_B`` or ``z_H``: counts, sums and scatter entries, of which a
symmetric scatter sums only the entries i <= j.  Covariances are factored
and inverted as stacks (``tril_inverse_stack`` writes the D <= 3 triangular
inverses out row by row), and within a sweep each of ``Sigma_B``,
``Sigma_V`` and ``Sigma_H`` is factored once per value and shared by the
steps that read it (``_CovFactors``).  Assignment scores are one matrix
product per block: ``expand_gaussians`` expands each Gaussian term as
-x'^T P x'/2 + (P m')^T x' - m'^T P m'/2 - log-normalizer, x' and m' centred
at the mean of the term's component means, which keeps rounding near
eps cond(Sigma) |x - c|^2 / sigma^2.  The rotation and translation grids are
scored from per-cluster moments rather than candidate by candidate, and
from the grid's own moments (R_j - I, (R_j - I)^T (R_j - I) and |t_m|^2),
which ``TransformCandidates`` computes once per grid.

Draw-order contract: a sweep draws from one stream, keyed by the state's rng
cursor alone (``state.rng.stream(SWEEP)``).  The steps take their variates
from it one after another in schedule order; a step left out takes none.
Each step takes a fixed number of variates in a fixed order, so a seeded
chain is reproducible.  The stacked draws are ``distributions``' kernels,
which ``model.sample_forward`` shares.  Gaussian steps draw through
``mvn_sample_stack``: one ``standard_normal((n, D))`` block, equal to n
calls of ``standard_normal(D)``.  Inverse-Wishart steps draw through
``inverse_wishart_stack``, two calls for all n components: ``chisquare`` of
shape (n, D), the Bartlett diagonal with component l's row i at nu_l - i
degrees of freedom, then ``standard_normal`` of shape (n, D(D-1)/2), each
component's strictly lower triangle row by row ((1,0), (2,0), (2,1)).
Transform steps draw one uniform per cluster in cluster order
(``categorical_sample_wide_rows``: one ``rng.random(K)`` call, equal to K
``categorical_sample`` calls), and assignment steps one uniform per row.
Point assignment scores and draws blocks of points column-major, one row
per particle, and takes each block's uniforms in point order, so the
variates still equal one ``rng.random((N, 1))`` call and the stream ends at
the same position.

The ``*_conditional`` / ``*_posterior`` / ``*_log_probs`` helpers expose one
component's slice of these kernels so tests can check them against closed
forms without going through sampling.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .distributions import (
    TransformCandidates,
    _categorical_sample_columns,
    _einsum,
    _readonly,
    _spd_inverse_from_tril,
    categorical_sample_rows,
    categorical_sample_wide_rows,
    chol_spd_stack,
    dirichlet_sample,
    expand_gaussians,
    gamma_logpdf,
    inverse_wishart_stack,
    isotropic_logpdf_rows,
    mvn_sample_stack,
    spd_inverse_stack,
    tril_inverse_stack,
)
from .types import HyperParams, ModelState, Observations, ValidationError

_LOG_2PI = math.log(2.0 * math.pi)


# the identity of each state dimension, built once for every step
_EYE = {d: _readonly(np.eye(d)) for d in (2, 3)}

# The step names, in canonical full-sweep order.
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


# --------------------------------------------------------------------------
# Schedules
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSchedule:
    """Gibbs step names in the order ``sweep`` runs them.

    A step repeated, or a group of steps repeated as a unit, is written out
    name by name, as tuple multiplication builds it.
    """

    steps: tuple[str, ...]

    def __post_init__(self):
        steps = tuple(self.steps)
        for name in steps:
            if name not in STEP_IDS:
                raise ValidationError(f"unknown schedule step {name!r}")
        object.__setattr__(self, "steps", steps)


def full_sweep_schedule() -> SweepSchedule:
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
    return SweepSchedule(names)


def tracking_frame_schedule() -> SweepSchedule:
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
    return SweepSchedule(names)


# --------------------------------------------------------------------------
# Covariance factors and sufficient statistics
# --------------------------------------------------------------------------

class _CovFactors:
    """Cholesky factors of a state's covariance stacks and the inverses built
    from them, each computed once per value of its field.

    ``sweep`` keeps one over its private working state for the whole sweep,
    and ``_apply_step`` drops a field's entries when its step swaps that
    field, so a step reads the factors of the covariances it sees.  The
    entries are what ``chol_spd_stack``, ``tril_inverse_stack`` and
    ``spd_inverse_stack`` return for the field, so reuse changes no bit.
    A kernel called without one builds its own.
    """

    def __init__(self, state: ModelState):
        self._state = state
        self._chol: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._inv: dict[str, np.ndarray] = {}

    def chol(self, field: str) -> tuple[np.ndarray, np.ndarray]:
        """Cholesky factors of the stack ``field`` and their inverses."""
        if field not in self._chol:
            factors = chol_spd_stack(getattr(self._state, field))
            self._chol[field] = factors, tril_inverse_stack(factors)
        return self._chol[field]

    def inverse(self, field: str) -> np.ndarray:
        """Symmetric inverses of the stack ``field``."""
        if field not in self._inv:
            self._inv[field] = _spd_inverse_from_tril(self.chol(field)[1])
        return self._inv[field]

    def expansion(self, field: str) -> tuple[np.ndarray, np.ndarray]:
        """Precisions and Cholesky factors of ``field``, as ``expand_gaussians`` reads them."""
        return self.inverse(field), self.chol(field)[0]

    def drop(self, field: str) -> None:
        self._chol.pop(field, None)
        self._inv.pop(field, None)


def _own_factors(state: ModelState, factors: _CovFactors | None) -> _CovFactors:
    return _CovFactors(state) if factors is None else factors


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
    """Per-group sums of the outer products a_i b_i^T, shape (n, D, D).

    Given the same array twice it sums only the entries i <= j and mirrors
    them: a_i a_j and a_j a_i are equal products, so their sums are too."""
    d, symmetric = a.shape[1], b is a
    a_cols = a.T.copy()
    b_cols = a_cols if symmetric else b.T.copy()
    out = np.empty((n, d, d))
    for i in range(d):
        for j in range(d):
            if symmetric and j < i:
                out[:, i, j] = out[:, j, i]
            else:
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
    return _einsum("nij,nj->ni", cov, m_vec), cov


def _isotropic_sum_loglik(counts: np.ndarray, sq: np.ndarray, d: int,
                          var: float) -> np.ndarray:
    """Summed log N(r; 0, var I) of ``counts`` D-vectors whose squared norms sum to ``sq``."""
    return -0.5 * (counts[:, None] * (d * (_LOG_2PI + math.log(var))) + sq / var)


# --------------------------------------------------------------------------
# Point-to-particle assignment (with feature and outlier extensions)
# --------------------------------------------------------------------------

# Score entries per block of the point-assignment draw (1 MiB of float64), the
# smallest that pays: the draw makes one call per particle row and block.  With
# one BLAS thread a step at N=5000, L=100 takes 3.9 ms in blocks of 327 points,
# 3.2 at 648 and ~3.0 from 1,014 up; at N=3000, L=30 one block beats 2,114 by 15%.
_ASSIGN_BLOCK_ENTRIES = 1 << 17


class _PointScores:
    """Point-assignment scores, set up once per step and written by point range.

    The terms follow the model, as in ``log_joint``: unless ``position_only``, an
    outlier row if p_outlier > 0 and features if obs, state and sigma2_F carry them.
    The constructor expands the Gaussian terms (``expand_gaussians``), each centred
    at the mean of its component means: 11 row features in D=2 and 19 in D=3 for
    position plus velocity, plus |f'|^2 and f' for features, rounding near
    eps cond(Sigma) |x - c|^2 / sigma^2.  A zero weight scores -inf; numpy's divide
    warning is the caller's to silence, as ``sweep`` does.  ``columns`` writes a
    point range's scores, a row per particle, in one product.
    """

    def __init__(self, state: ModelState, obs: Observations, hyper: HyperParams,
                 position_only: bool, factors: _CovFactors):
        L = self.L = state.L
        outlier = not position_only and hyper.p_outlier > 0
        self.width = L + 1 if outlier else L
        log_pi = np.log(state.pi_B)
        if outlier:
            log_pi += np.log1p(-hyper.p_outlier)
        stacks = [(obs.positions, state.mu_B, *factors.expansion("Sigma_B"))]
        isotropic = None
        if not position_only:
            stacks.append((obs.velocities, state.vel, *factors.expansion("Sigma_V")))
            if (obs.features is not None and state.feat is not None
                    and hyper.sigma2_F is not None):
                isotropic = obs.features, state.feat, hyper.sigma2_F
        self.features, self.coefs = expand_gaussians(stacks, log_pi, isotropic)
        self.outlier_row = None
        if outlier:
            speeds = np.linalg.norm(obs.velocities, axis=1)
            self.outlier_row = np.log(hyper.p_outlier) + gamma_logpdf(
                speeds, hyper.outlier_gamma_shape, hyper.outlier_gamma_rate)

    def columns(self, start: int, stop: int, out: np.ndarray) -> np.ndarray:
        """Scores of points [start, stop) into ``out`` (width, n).  Two or more points
        give the entries of the whole; one is a matrix-vector product, rounded apart."""
        np.matmul(self.coefs.T, self.features.T[:, start:stop], out=out[:self.L])
        if self.outlier_row is not None:
            out[self.L] = self.outlier_row[start:stop]
        return out


def point_assignment_log_probs(state: ModelState, obs: Observations, hyper: HyperParams,
                               *, position_only: bool = False) -> np.ndarray:
    """Unnormalized log probabilities over particles (columns) per point (rows).

    Unless ``position_only``, a positive ``hyper.p_outlier`` adds a final column
    for the outlier component: weight p_outlier with a Gamma likelihood on speed.
    """
    with np.errstate(divide="ignore"):
        scores = _PointScores(state, obs, hyper, position_only, _CovFactors(state))
    return scores.columns(0, len(obs), np.empty((scores.width, len(obs)))).T


def assign_points_to_particles(state: ModelState, obs: Observations, hyper: HyperParams,
                               rng: np.random.Generator, *, position_only: bool = False,
                               factors: _CovFactors | None = None) -> np.ndarray:
    """Draw every point's label from ``point_assignment_log_probs``.

    Points are scored and drawn column-major, in (width, n) blocks of about
    ``_ASSIGN_BLOCK_ENTRIES`` scores reused from block to block, so no (N, L)
    array is built.  A one-point last block is scored with the point before
    it, so every point's scores are those of the whole.  The uniforms come
    block by block from ``rng``, equal to one ``rng.random((N, 1))`` call.
    ``factors`` is the covariance factors a sweep shares between its steps;
    without it the step factors for itself.
    """
    scores = _PointScores(state, obs, hyper, position_only, _own_factors(state, factors))
    n, points = len(obs), max(2, _ASSIGN_BLOCK_ENTRIES // scores.width)
    block, labels = np.empty((scores.width, min(n, points))), np.empty(n, dtype=np.int64)
    keep = np.empty(block.shape, dtype=bool)
    for start in range(0, n, points):
        stop = min(start + points, n)
        if stop - start == 1 and start > 0:
            b = scores.columns(start - 1, stop, block[:, :2])[:, 1:]
        else:
            b = scores.columns(start, stop, block[:, :stop - start])
        labels[start:stop] = _categorical_sample_columns(b, rng, keep[:, :stop - start])
    return labels


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

def _particle_mean_conditionals(state: ModelState, obs: Observations, hyper: HyperParams,
                                factors: _CovFactors | None = None,
                                ) -> tuple[np.ndarray, np.ndarray]:
    factors = _own_factors(state, factors)
    z_h = state.z_H
    A = state.rot - _EYE[state.dim]
    b = state.trans - _einsum("kij,kj->ki", A, state.mu_H)
    inv_sh = factors.inverse("Sigma_H")
    inv_sb = factors.inverse("Sigma_B")
    counts = _group_counts(state.z_B, state.L)
    sum_x = _group_sums(state.z_B, state.L, obs.positions)
    AtA = _einsum("kji,kjl->kil", A, A) / hyper.sigma2_V
    precision = inv_sh[z_h] + counts[:, None, None] * inv_sb + AtA[z_h]
    m_vec = (_einsum("kij,kj->ki", inv_sh, state.mu_H)[z_h]
             + _einsum("lij,lj->li", inv_sb, sum_x)
             + _einsum("lji,lj->li", A[z_h], state.vel - b[z_h]) / hyper.sigma2_V)
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
                          rng: np.random.Generator, *,
                          factors: _CovFactors | None = None) -> np.ndarray:
    return mvn_sample_stack(*_particle_mean_conditionals(state, obs, hyper, factors), rng)


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
    return inverse_wishart_stack(*_particle_cov_posteriors(state, obs, hyper), rng)


def _velocity_mean_conditionals(state: ModelState, obs: Observations, hyper: HyperParams,
                                factors: _CovFactors | None = None,
                                ) -> tuple[np.ndarray, np.ndarray]:
    eye, z_h = _EYE[state.dim], state.z_H
    vbar = state.trans[z_h] + _einsum(
        "lij,lj->li", (state.rot - eye)[z_h], state.mu_B - state.mu_H[z_h])
    inv_sv = _own_factors(state, factors).inverse("Sigma_V")
    counts = _group_counts(state.z_B, state.L)
    sum_v = _group_sums(state.z_B, state.L, obs.velocities)
    precision = eye / hyper.sigma2_V + counts[:, None, None] * inv_sv
    m_vec = vbar / hyper.sigma2_V + _einsum("lij,lj->li", inv_sv, sum_v)
    return _gaussians_from_precision(m_vec, precision)


def velocity_mean_conditional(state: ModelState, obs: Observations, hyper: HyperParams,
                              ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian conditional of one particle's velocity mean."""
    means, covs = _velocity_mean_conditionals(state, obs, hyper)
    return means[ell], covs[ell]


def update_particle_velocity_means(state: ModelState, obs: Observations, hyper: HyperParams,
                                   rng: np.random.Generator, *,
                                   factors: _CovFactors | None = None) -> np.ndarray:
    return mvn_sample_stack(*_velocity_mean_conditionals(state, obs, hyper, factors), rng)


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
    return inverse_wishart_stack(*_velocity_cov_posteriors(state, obs, hyper), rng)


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
    with np.errstate(divide="ignore"):
        return _cluster_scores(state, hyper, _CovFactors(state))


def _cluster_scores(state: ModelState, hyper: HyperParams, factors: _CovFactors) -> np.ndarray:
    """``cluster_assignment_log_probs`` with the spatial fit expanded as the
    point scores are, from ``factors``; the caller silences the divide
    warning of a zero weight."""
    d = state.dim
    scores = np.matmul(*expand_gaussians(
        [(state.mu_B, state.mu_H, *factors.expansion("Sigma_H"))], np.log(state.pi_H)))
    # velocity each cluster's rigid transform induces at each particle, (L, K, D)
    offsets = state.mu_B[:, None, :] - state.mu_H[None, :, :]
    vbar = state.trans + _einsum("kij,lkj->lki", state.rot - _EYE[d], offsets)
    resid = (state.vel[:, None, :] - vbar).reshape(-1, d)
    scores += isotropic_logpdf_rows(resid, 0.0, hyper.sigma2_V).reshape(state.L, state.K)
    return scores


def assign_particles_to_clusters(state: ModelState, hyper: HyperParams,
                                 rng: np.random.Generator, *,
                                 factors: _CovFactors | None = None) -> np.ndarray:
    """One cluster label per particle from ``cluster_assignment_log_probs``;
    ``factors`` as for ``assign_points_to_particles``."""
    scores = _cluster_scores(state, hyper, _own_factors(state, factors))
    return categorical_sample_rows(scores, rng)


# --------------------------------------------------------------------------
# Cluster parameter conditionals
# --------------------------------------------------------------------------

def _cluster_mean_conditionals(state: ModelState, hyper: HyperParams,
                               factors: _CovFactors | None = None,
                               ) -> tuple[np.ndarray, np.ndarray]:
    eye, K, z_h = _EYE[state.dim], state.K, state.z_H
    A = eye - state.rot
    counts = _group_counts(z_h, K)
    inv_sh = _own_factors(state, factors).inverse("Sigma_H")
    sum_mu = _group_sums(z_h, K, state.mu_B)
    # velocity residuals of the rigid-motion model, linear in mu_H through A
    b = state.trans[z_h] - _einsum("lij,lj->li", A[z_h], state.mu_B)
    resid_sum = _group_sums(z_h, K, state.vel - b)
    AtA = _einsum("kji,kjl->kil", A, A) / hyper.sigma2_V
    precision = eye / hyper.sigma2_mu_H + counts[:, None, None] * (inv_sh + AtA)
    m_vec = (hyper.mu_H_prior / hyper.sigma2_mu_H
             + _einsum("kij,kj->ki", inv_sh, sum_mu)
             + _einsum("kji,kj->ki", A, resid_sum) / hyper.sigma2_V)
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
                         rng: np.random.Generator, *,
                         factors: _CovFactors | None = None) -> np.ndarray:
    return mvn_sample_stack(*_cluster_mean_conditionals(state, hyper, factors), rng)


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
    return inverse_wishart_stack(*_cluster_cov_posteriors(state, hyper), rng)


# --------------------------------------------------------------------------
# Discrete rigid transforms
# --------------------------------------------------------------------------

def _rotation_log_probs(state: ModelState, hyper: HyperParams,
                        candidates: TransformCandidates) -> np.ndarray:
    """(K, M_r) rotation scores from per-cluster moments.

    Over a cluster's particles, with offsets o = mu_B - mu_H, residuals
    u = vel - t and B_j = R_j - I, the squared velocity misfit of candidate j
    is sum |u|^2 - 2 <B_j, sum u o^T> + <B_j^T B_j, sum o o^T>.  B_j and
    B_j^T B_j are the grid's own, computed once per grid.
    """
    K, z_h = state.K, state.z_H
    offsets = state.mu_B - state.mu_H[z_h]
    resid = state.vel - state.trans[z_h]
    sq = (_group_sums(z_h, K, _einsum("ld,ld->l", resid, resid)[:, None])
          - 2.0 * _einsum("jab,kab->kj", candidates.rotation_offsets,
                            _group_outer(z_h, K, resid, offsets))
          + _einsum("jab,kab->kj", candidates.rotation_grams,
                      _group_outer(z_h, K, offsets, offsets)))
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
    return candidates.rotations[categorical_sample_wide_rows(scores, rng)]


def _translation_log_probs(state: ModelState, hyper: HyperParams,
                           candidates: TransformCandidates) -> np.ndarray:
    """(K, M_t) translation scores from per-cluster moments.

    With r = vel - (R - I)(mu_B - mu_H) over a cluster's particles, the
    squared misfit of candidate t_m is sum |r|^2 - 2 t_m . sum r + n |t_m|^2,
    with |t_m|^2 computed once per grid.
    """
    K, z_h = state.K, state.z_H
    offsets = state.mu_B - state.mu_H[z_h]
    resid = state.vel - _einsum("lij,lj->li", (state.rot - _EYE[state.dim])[z_h], offsets)
    counts = _group_counts(z_h, K)
    sq = (_group_sums(z_h, K, _einsum("ld,ld->l", resid, resid)[:, None])
          - 2.0 * _group_sums(z_h, K, resid) @ candidates.translations.T
          + counts[:, None] * candidates.translation_sq_norms)
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
    return candidates.translations[categorical_sample_wide_rows(scores, rng)]


# --------------------------------------------------------------------------
# Sweep
# --------------------------------------------------------------------------

# step id -> (state field, update).  An update takes (state, obs, hyper,
# candidates, rng, factors) and returns the field's new value.  The lambdas
# look their kernel up in the module globals when called, so a kernel rebound
# after import (as the benchmark tracer does) is the one that runs.
_STEP_UPDATES = {
    ASSIGN_POINTS: ("z_B", lambda s, o, h, c, r, f:
                    assign_points_to_particles(s, o, h, r, factors=f)),
    ASSIGN_POINTS_SPATIAL: ("z_B", lambda s, o, h, c, r, f:
                            assign_points_to_particles(s, o, h, r, position_only=True,
                                                       factors=f)),
    PARTICLE_WEIGHTS: ("pi_B", lambda s, o, h, c, r, f: update_particle_weights(s, h, r)),
    PARTICLE_MEANS: ("mu_B", lambda s, o, h, c, r, f:
                     update_particle_means(s, o, h, r, factors=f)),
    PARTICLE_COVS: ("Sigma_B", lambda s, o, h, c, r, f:
                    update_particle_covariances(s, o, h, r)),
    PARTICLE_VELOCITIES: ("vel", lambda s, o, h, c, r, f:
                          update_particle_velocity_means(s, o, h, r, factors=f)),
    PARTICLE_VELOCITY_COVS: ("Sigma_V", lambda s, o, h, c, r, f:
                             update_particle_velocity_covariances(s, o, h, r)),
    PARTICLE_FEATURES: ("feat", lambda s, o, h, c, r, f: update_particle_features(s, o)),
    ASSIGN_PARTICLES: ("z_H", lambda s, o, h, c, r, f:
                       assign_particles_to_clusters(s, h, r, factors=f)),
    CLUSTER_WEIGHTS: ("pi_H", lambda s, o, h, c, r, f: update_cluster_weights(s, h, r)),
    CLUSTER_MEANS: ("mu_H", lambda s, o, h, c, r, f:
                    update_cluster_means(s, h, r, factors=f)),
    CLUSTER_COVS: ("Sigma_H", lambda s, o, h, c, r, f:
                   update_cluster_covariances(s, h, r)),
    CLUSTER_ROTATIONS: ("rot", lambda s, o, h, c, r, f:
                        update_cluster_rotations(s, h, c, r)),
    CLUSTER_TRANSLATIONS: ("trans", lambda s, o, h, c, r, f:
                           update_cluster_translations(s, h, c, r)),
}


def _apply_step(name: str, work: ModelState, obs: Observations, hyper: HyperParams,
                candidates: TransformCandidates, rng: np.random.Generator,
                factors: _CovFactors | None = None) -> None:
    """Run step ``name``, which its ``SweepSchedule`` checked, and swap its
    field of ``work`` in place, unvalidated.

    ``work`` is a private copy of a state; its owner builds the validated
    state once the steps are done.  ``factors`` is the owner's
    ``_CovFactors`` of ``work``: the step reads it and it drops the swapped
    field.  Without it the step factors for itself.
    """
    field, update = _STEP_UPDATES[name]
    object.__setattr__(work, field, update(work, obs, hyper, candidates, rng, factors))
    if factors is not None:
        factors.drop(field)


def sweep(state: ModelState, obs: Observations, hyper: HyperParams,
          schedule: SweepSchedule, candidates: TransformCandidates) -> ModelState:
    """Execute the schedule once, each step reading the latest state.

    Every step of ``schedule.steps`` runs; a quantity left out of the
    schedule passes through bitwise unchanged and draws nothing.  The sweep
    builds one Generator, the stream keyed by the state's rng cursor alone,
    and every step takes its variates from it in schedule order; the cursor
    advances once per sweep.  The steps swap fields of one private copy of
    ``state`` and share one ``_CovFactors`` of it, so each covariance stack is
    factored once per value within the sweep; the returned state is built and
    validated once.
    """
    work = copy.copy(state)
    factors = _CovFactors(work)
    rng = state.rng.stream(rngmod.SWEEP)
    # the log of a zero mixture weight is -inf, never drawn
    with np.errstate(divide="ignore"):
        for name in schedule.steps:
            _apply_step(name, work, obs, hyper, candidates, rng, factors)
    return work.replace(rng=state.rng.tick())
