"""Forward sampler and exact joint log density.

The generative process: draw mixture weights for clusters and particles, give
each cluster a spatial Gaussian and a rigid transform from discretized priors,
give each particle a cluster, a spatial Gaussian, and a velocity Gaussian
centered at the cluster-induced rigid velocity, then emit observed points from
their particles.  ``log_joint`` scores a full (state, observations) pair term
by term and serves as the independent oracle for the Gibbs conditionals.

Draw-order contract: ``sample_forward`` draws through the stacked kernels
of ``distributions`` that ``gibbs.sweep`` also uses, so a seeded draw is
fixed by these calls, in this order: the Dirichlet weights of clusters, then
of particles; one ``inverse_wishart_stack`` call for all K + 2L covariances,
``Sigma_H``, then ``Sigma_B``, then ``Sigma_V``; one ``standard_normal((K, D))``
call for the K cluster means; one ``categorical_sample_wide_rows`` call for
the K translations, then one for the K rotations; one
``categorical_sample_rows`` call for the L particle clusters, then one for
the N point particles; one ``mvn_sample_stack`` call for the L particle
means; one ``standard_normal((L, D))`` call for the L particle velocities;
then, particle by particle in index order, one ``standard_normal((n, D))``
block for the positions of its n points and one for their velocities.  The
isotropic means and velocities are scaled by sqrt(sigma2), which is
``mvn_sample_stack`` bit for bit: the Cholesky factor of sigma2 I is
sqrt(sigma2) I.  ``resample_observations`` takes only those last blocks.
The forward half of ``geweke.run_geweke`` collects latents alone, so it
stops before the points (``_sample_latents``); every latent it collects is
the one ``sample_forward`` draws on the same stream.  A loop over the
generative process that takes the same variates in the same order gives
the same labels and, within rounding, the same arrays (pinned by the
reference loops in the tests).
"""
from __future__ import annotations

import math

import numpy as np

from . import rng as rngmod
from .distributions import (
    TransformCandidates,
    categorical_sample_rows,
    categorical_sample_wide_rows,
    chol_spd_stack,
    dirichlet_logpdf,
    dirichlet_sample,
    gamma_logpdf,
    inverse_wishart_logpdf,
    inverse_wishart_stack,
    isotropic_logpdf_rows,
    make_transform_candidates,
    mvn_logpdf,
    mvn_logpdf_rows,
    mvn_sample_stack,
)
from .rng import RngState, substream
from .types import (
    Assignments,
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
    """Validate ``sample_forward``'s sizes and hyperparameters; returns the
    state dimension."""
    if min(K, L, N) < 1:
        raise ValidationError(f"K, L, N must be at least 1, got {(K, L, N)}")
    if L < K:
        raise ValidationError(f"need L >= K, got L={L}, K={K}")
    dim = int(np.asarray(hyper.mu_H_prior).shape[0])
    hyper.validate(dim)
    return dim


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
    dim = int(np.asarray(hyper.mu_H_prior).shape[0])
    if candidates is None:
        candidates = make_transform_candidates(dim, hyper)
    rng = _as_generator(seed)
    eye = np.eye(dim)

    pi_H = dirichlet_sample(hyper.alpha_vec(K), rng)
    pi_B = dirichlet_sample(hyper.beta_vec(L), rng)
    # one call for the three stacks: at small K and L the per-call cost dominates
    counts = (K, L, L)
    Sigma_H, Sigma_B, Sigma_V = np.split(inverse_wishart_stack(
        np.repeat(np.stack([hyper.Psi_H, hyper.Psi_B, hyper.Psi_V]), counts, axis=0),
        np.repeat([hyper.nu_H, hyper.nu_B, hyper.nu_V], counts), rng), [K, K + L])
    mu_H = hyper.mu_H_prior + math.sqrt(hyper.sigma2_mu_H) * rng.standard_normal((K, dim))
    trans = candidates.translations[categorical_sample_wide_rows(
        np.broadcast_to(candidates.translation_log_prior, (K, candidates.num_translations)),
        rng)]
    rot = candidates.rotations[categorical_sample_wide_rows(
        np.broadcast_to(candidates.rotation_log_prior, (K, candidates.num_rotations)), rng)]
    with np.errstate(divide="ignore"):
        z_H = categorical_sample_rows(np.broadcast_to(np.log(pi_H), (L, K)), rng)
        z_B = categorical_sample_rows(np.broadcast_to(np.log(pi_B), (N, L)), rng)
    mu_B = mvn_sample_stack(mu_H[z_H], Sigma_H[z_H], rng)
    # the rigid-motion velocity each particle's cluster induces at its mean,
    # as induced_velocities computes it for one row
    offsets = (mu_B - mu_H[z_H])[:, None, :]
    vbar = trans[z_H] + (offsets @ np.swapaxes((rot - eye)[z_H], 1, 2))[:, 0]
    vel = vbar + math.sqrt(hyper.sigma2_V) * rng.standard_normal((L, dim))

    base_seed = int(seed) if not isinstance(seed, np.random.Generator) else 0
    state = ModelState(
        dim=dim, mu_B=mu_B, Sigma_B=Sigma_B, vel=vel, Sigma_V=Sigma_V, pi_B=pi_B,
        mu_H=mu_H, Sigma_H=Sigma_H, rot=rot, trans=trans, pi_H=pi_H,
        assignments=Assignments(z_B, z_H), rng=RngState(base_seed),
    )
    return state, rng


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
