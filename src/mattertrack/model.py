"""Forward sampler and exact joint log density.

The generative process: draw mixture weights for clusters and particles, give
each cluster a spatial Gaussian and a rigid transform from discretized priors,
give each particle a cluster, a spatial Gaussian, and a velocity Gaussian
centered at the cluster-induced rigid velocity, then emit observed points from
their particles.  ``log_joint`` scores a full (state, observations) pair term
by term and serves as the independent oracle for the Gibbs conditionals.

Draw-order contract: ``sample_forward`` draws through the stacked kernels
of ``distributions`` that ``gibbs.sweep`` also uses, so a seeded draw is
fixed by these generator calls, in this order: ``dirichlet`` for the
cluster weights, then for the particle weights; ``inverse_wishart_stack``'s
two Bartlett calls for all K + 2L covariances, ``chisquare`` of shape
(K + 2L, D) and ``standard_normal`` of shape (K + 2L, D(D-1)/2), in the
order ``Sigma_H``, ``Sigma_B``, ``Sigma_V``; ``standard_normal((K, D))`` for
the cluster means; ``random(K)`` for the translations, then ``random(K)``
for the rotations (``categorical_sample_wide_rows``); ``random((L, 1))``
for the particle clusters and ``random((N, 1))`` for the point particles
(``categorical_sample_rows``); ``standard_normal((L, D))`` for the particle
means (``mvn_sample_stack``), then ``standard_normal((L, D))`` for the
particle velocities; then, particle by particle in index order, one
``standard_normal((n, D))`` block for the positions of its n points and
one for their velocities.  The isotropic means and velocities are scaled by
sqrt(sigma2), which is ``mvn_sample_stack`` bit for bit: the Cholesky
factor of sigma2 I is sqrt(sigma2) I.  ``resample_observations`` takes
only those last blocks.

The latents are drawn in two passes (``LatentStack.sample``): a variate
pass that makes each draw's generator calls above, up to the points, and
a transform pass that turns the variates of R independent draws, each
from its own generator, into latents at once: one Bartlett transform over
R(K + 2L) matrices under the three scale factors, factored once; the
transform priors' cumulative weights, built once per grid; the labels of
``z_H`` and ``z_B`` as (K, RL) and (L, RN) column blocks; and ``mu_B`` and
``vel`` over RL rows.  Every transform acts row by row, matrix by matrix or
column by column, so R stacked draws equal R single draws bit for bit, and
each generator is left where its draw's points begin.  ``sample_forward``
is the R = 1 stack; the forward half of ``geweke.run_geweke`` collects
latents alone, so it draws them as stacks and never draws points.  A loop
over the generative process that takes the same variates in the same order
gives the same labels and, within rounding, the same arrays (pinned by the
reference loops in the tests).
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import rng as rngmod
from .distributions import (
    TransformCandidates,
    _bartlett_inverse_wishart,
    _bartlett_variates,
    _categorical_columns,
    _categorical_labels_wide,
    _correlate_rows,
    chol_spd_stack,
    dirichlet_logpdf,
    gamma_logpdf,
    inverse_wishart_logpdf,
    isotropic_logpdf_rows,
    make_transform_candidates,
    mvn_logpdf,
    mvn_logpdf_rows,
    spd_inverse_stack,
)
from .rng import RngState, substream
from .types import (
    HyperParams,
    ModelState,
    Observations,
    ValidationError,
)


def induced_velocities(rot: np.ndarray, trans: np.ndarray, mu_H: np.ndarray,
                       means: np.ndarray) -> np.ndarray:
    """Rowwise cluster-induced velocities of ``means`` under one transform.

    Each row is t + (R - I)(mu - mu_H): translation plus the first-order
    effect of rotating about the cluster center.
    """
    A = rot - np.eye(rot.shape[0])
    return trans + (means - mu_H) @ A.T


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return substream(int(seed), rngmod.FORWARD)


def sample_forward(hyper: HyperParams, K: int, L: int, N: int, seed,
                   candidates: TransformCandidates | None = None,
                   ) -> tuple[ModelState, Observations]:
    """Sample latents and observations from the generative model.

    ``seed`` may be an int or a Generator.  Rigid transforms are drawn from
    the same finite candidate sets used during inference, so forward sampling
    and Gibbs updates share identical support.
    """
    _check_forward_inputs(hyper, K, L, N)
    return _sample_forward(hyper, K, L, N, seed, candidates)


def _check_forward_inputs(hyper: HyperParams, K: int, L: int, N: int) -> int:
    """Check ``sample_forward``'s sizes against each other and against the
    lengths of ``alpha`` and ``beta``; returns the state dimension."""
    if min(K, L, N) < 1:
        raise ValidationError(f"K, L, N must be at least 1, got {(K, L, N)}")
    if L < K:
        raise ValidationError(f"need L >= K, got L={L}, K={K}")
    hyper.alpha_vec(K)
    hyper.beta_vec(L)
    return hyper.dim


def _sample_forward(hyper: HyperParams, K: int, L: int, N: int, seed,
                    candidates: TransformCandidates | None = None,
                    ) -> tuple[ModelState, Observations]:
    """``sample_forward`` on inputs already checked by ``_check_forward_inputs``,
    for callers that draw many times from one ``hyper``."""
    state, rng = _sample_latents(hyper, K, L, N, seed, candidates)
    positions, velocities = _draw_points(state.z_B, state.mu_B, state.Sigma_B, state.vel,
                                         state.Sigma_V, rng)
    return state, Observations(positions, velocities)


def _sample_latents(hyper: HyperParams, K: int, L: int, N: int, seed,
                    candidates: TransformCandidates | None = None,
                    ) -> tuple[ModelState, np.random.Generator]:
    """The latent half of ``_sample_forward``: every draw before the points,
    and the generator positioned where the points' draws begin."""
    if candidates is None:
        candidates = make_transform_candidates(hyper.dim, hyper)
    rng = _as_generator(seed)
    draw = {name: stack[0] for name, stack in
            LatentStack.sample(hyper, K, L, N, [rng], candidates)._asdict().items()}
    base_seed = int(seed) if not isinstance(seed, np.random.Generator) else 0
    state = ModelState(dim=draw["mu_B"].shape[1], **draw, rng=RngState(base_seed))
    return state, rng


class LatentStack(NamedTuple):
    """The latents of R independent forward draws, one leading axis of R on
    every field: ``pi_H`` (R, K), ``Sigma_H`` (R, K, D, D), ``z_B`` (R, N) and
    so on, named as on ``ModelState``."""

    pi_H: np.ndarray
    pi_B: np.ndarray
    Sigma_H: np.ndarray
    Sigma_B: np.ndarray
    Sigma_V: np.ndarray
    mu_H: np.ndarray
    trans: np.ndarray
    rot: np.ndarray
    z_H: np.ndarray
    z_B: np.ndarray
    mu_B: np.ndarray
    vel: np.ndarray

    @classmethod
    def sample(cls, hyper: HyperParams, K: int, L: int, N: int,
               rngs: list[np.random.Generator],
               candidates: TransformCandidates) -> "LatentStack":
        """Draw r of the stack from ``rngs[r]``, each generator left where
        that draw's points would begin.

        The variate pass takes every draw's variates from its generator, in
        the draw-order contract's order and shapes; the transform pass then
        turns all R draws' variates into latents at once.  Every transform
        acts row by row, matrix by matrix or column by column, so draw r is
        the same, bit for bit, as a stack of draw r alone.
        """
        dim = hyper.dim
        R, counts = len(rngs), (K, L, L)
        alpha, beta = hyper.alpha_vec(K), hyper.beta_vec(L)
        nu = np.repeat([hyper.nu_H, hyper.nu_B, hyper.nu_V], counts)
        # one factor per scale, computed before any draw as inverse_wishart_stack does
        scales = np.repeat(chol_spd_stack(spd_inverse_stack(
            np.stack([hyper.Psi_H, hyper.Psi_B, hyper.Psi_V]))), counts, axis=0)

        variates = [(rng.dirichlet(alpha), rng.dirichlet(beta),
                     *_bartlett_variates(nu, dim, rng), rng.standard_normal((K, dim)),
                     rng.random(K), rng.random(K), rng.random((L, 1)), rng.random((N, 1)),
                     rng.standard_normal((L, dim)), rng.standard_normal((L, dim)))
                    for rng in rngs]
        (pi_H, pi_B, chi2, normals, mu_noise, u_trans, u_rot, u_H, u_B, mu_B_noise,
         vel_noise) = (np.array(v) for v in zip(*variates))

        n = K + 2 * L
        covs = _bartlett_inverse_wishart(np.tile(scales, (R, 1, 1)), chi2.reshape(R * n, dim),
                                         normals.reshape(R * n, -1)).reshape(R, n, dim, dim)
        mu_H = hyper.mu_H_prior + math.sqrt(hyper.sigma2_mu_H) * mu_noise
        trans = candidates.translations[_categorical_labels_wide(
            candidates.translation_prior_cdf, u_trans.ravel())]
        rot = candidates.rotations[_categorical_labels_wide(
            candidates.rotation_prior_cdf, u_rot.ravel())]
        z_H = _categorical_draws(pi_H, L, u_H)
        # row r * L + l of the flat stacks is draw r's particle l, and its
        # cluster is row r * K + z_H[r, l] of the flat cluster stacks
        cluster = (z_H + K * np.arange(R)[:, None]).ravel()
        mu_H_c = mu_H.reshape(R * K, dim)[cluster]
        mu_B = mu_H_c + _correlate_rows(
            chol_spd_stack(covs[:, :K].reshape(R * K, dim, dim)[cluster]),
            mu_B_noise.reshape(R * L, dim))
        # the rigid-motion velocity each particle's cluster induces at its mean,
        # as induced_velocities computes it for one row
        offsets = (mu_B - mu_H_c)[:, None, :]
        vbar = trans[cluster] + (offsets @ np.swapaxes((rot - np.eye(dim))[cluster], 1, 2))[:, 0]
        vel = vbar + math.sqrt(hyper.sigma2_V) * vel_noise.reshape(R * L, dim)
        return cls(pi_H=pi_H, pi_B=pi_B, Sigma_H=covs[:, :K], Sigma_B=covs[:, K:K + L],
                   Sigma_V=covs[:, K + L:], mu_H=mu_H, trans=trans.reshape(R, K, dim),
                   rot=rot.reshape(R, K, dim, dim), z_H=z_H, z_B=_categorical_draws(pi_B, N, u_B),
                   mu_B=mu_B.reshape(R, L, dim), vel=vel.reshape(R, L, dim))


def _categorical_draws(weights: np.ndarray, n: int, uniforms: np.ndarray) -> np.ndarray:
    """(R, n) labels, n per row of the (R, M) ``weights``, as
    ``categorical_sample_rows`` draws them from ``uniforms`` (R, n, 1)."""
    R, M = weights.shape
    with np.errstate(divide="ignore"):
        block = np.repeat(np.log(weights).T, n, axis=1)
    return _categorical_columns(block, uniforms.ravel(),
                                np.empty((M, R * n), dtype=bool)).reshape(R, n)


def _draw_points(z: np.ndarray, mu_B: np.ndarray, Sigma_B: np.ndarray, vel: np.ndarray,
                 Sigma_V: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Positions and velocities of points labelled ``z``, drawn particle by
    particle in index order, as ``mvn_sample`` draws a particle's points.

    The covariances of occupied particles are factored in one stacked call
    each.
    """
    N, dim = z.shape[0], mu_B.shape[1]
    positions = np.empty((N, dim))
    velocities = np.empty((N, dim))
    occupied = np.flatnonzero(np.bincount(z, minlength=mu_B.shape[0]))
    chol_B = chol_spd_stack(Sigma_B[occupied])
    chol_V = chol_spd_stack(Sigma_V[occupied])
    for ell, lb, lv in zip(occupied, chol_B, chol_V):
        idx = np.flatnonzero(z == ell)
        positions[idx] = mu_B[ell] + rng.standard_normal((idx.size, dim)) @ lb.T
        velocities[idx] = vel[ell] + rng.standard_normal((idx.size, dim)) @ lv.T
    return positions, velocities


def resample_observations(state: ModelState, hyper: HyperParams,
                          rng: np.random.Generator) -> Observations:
    """Redraw observations given the current latents (assignments fixed).

    Used by the forward/Gibbs consistency check.  States holding outlier
    assignments cannot be resampled: the outlier component has no positional
    model.
    """
    z = state.z_B
    if np.any(z >= state.L):
        raise ValidationError("cannot resample observations for outlier assignments")
    N = z.shape[0]
    positions, velocities = _draw_points(z, state.mu_B, state.Sigma_B, state.vel,
                                         state.Sigma_V, rng)
    features = None
    if state.feat is not None and hyper.sigma2_F is not None:
        F = state.feat.shape[1]
        features = state.feat[z] + np.sqrt(hyper.sigma2_F) * rng.standard_normal((N, F))
    return Observations(positions, velocities, features)


def log_joint(state: ModelState, obs: Observations, hyper: HyperParams,
              candidates: TransformCandidates | None = None) -> float:
    """Sum of the log densities of every sampled quantity in the model.

    When ``candidates`` is given, the discrete rigid-transform priors are
    included (each cluster's transform must be a member of the set); without
    it those constant-support terms are omitted.  Feature and outlier terms
    enter whenever the state/observations/hyperparameters carry them.
    """
    dim = state.dim
    eye = np.eye(dim)
    K, L = state.K, state.L
    z_B, z_H = state.z_B, state.z_H

    total = dirichlet_logpdf(state.pi_H, hyper.alpha_vec(K))
    total += dirichlet_logpdf(state.pi_B, hyper.beta_vec(L))

    for k in range(K):
        total += inverse_wishart_logpdf(state.Sigma_H[k], hyper.Psi_H, hyper.nu_H)
        total += mvn_logpdf(state.mu_H[k], hyper.mu_H_prior, hyper.sigma2_mu_H * eye)
        if candidates is not None:
            total += float(candidates.rotation_log_prior[candidates.rotation_index(state.rot[k])])
            total += float(candidates.translation_log_prior[candidates.translation_index(state.trans[k])])

    with np.errstate(divide="ignore"):
        log_pi_H = np.log(state.pi_H)
        log_pi_B = np.log(state.pi_B)
    for ell in range(L):
        k = z_H[ell]
        total += float(log_pi_H[k])
        total += inverse_wishart_logpdf(state.Sigma_B[ell], hyper.Psi_B, hyper.nu_B)
        total += mvn_logpdf(state.mu_B[ell], state.mu_H[k], state.Sigma_H[k])
        vbar = induced_velocities(state.rot[k], state.trans[k], state.mu_H[k],
                                  state.mu_B[ell][None])[0]
        total += mvn_logpdf(state.vel[ell], vbar, hyper.sigma2_V * eye)
        total += inverse_wishart_logpdf(state.Sigma_V[ell], hyper.Psi_V, hyper.nu_V)

    inlier = z_B < L
    use_features = (state.feat is not None and obs.features is not None
                    and hyper.sigma2_F is not None)
    p_out = float(hyper.p_outlier)
    if np.any(~inlier) and p_out <= 0:
        raise ValidationError("state holds outlier assignments but p_outlier is 0")
    for ell in range(L):
        idx = np.where(z_B == ell)[0]
        if idx.size == 0:
            continue
        total += idx.size * float(log_pi_B[ell])
        total += float(mvn_logpdf_rows(obs.positions[idx], state.mu_B[ell], state.Sigma_B[ell]).sum())
        total += float(mvn_logpdf_rows(obs.velocities[idx], state.vel[ell], state.Sigma_V[ell]).sum())
        if use_features:
            total += float(isotropic_logpdf_rows(obs.features[idx], state.feat[ell],
                                                 hyper.sigma2_F).sum())
    if p_out > 0:
        n_out = int(np.sum(~inlier))
        total += (len(obs) - n_out) * float(np.log1p(-p_out))
        if n_out:
            speeds = np.linalg.norm(obs.velocities[~inlier], axis=1)
            total += n_out * float(np.log(p_out))
            total += float(gamma_logpdf(speeds, hyper.outlier_gamma_shape,
                                        hyper.outlier_gamma_rate).sum())
    if not np.isfinite(total):
        raise ValidationError("log joint is not finite for this state")
    return float(total)
