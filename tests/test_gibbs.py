"""Oracle checks for every blocked Gibbs conditional.

Continuous conditionals are checked against scalar conjugate closed forms on
diagonal instances (1e-10) and against grid argmaxes of the exact log joint;
discrete conditionals against hand-normalized products; conjugate posteriors
against hand-computed sufficient statistics; and every sampler against its
prior when the data terms are emptied.
"""
import math

import numpy as np
import pytest
from scipy.stats import norm

from mattertrack import gibbs
from mattertrack.distributions import (
    TransformCandidates,
    log_normalize,
    make_transform_candidates,
    rotation_2d,
)
from mattertrack.gibbs import (
    assign_particles_to_clusters,
    assign_points_to_particles,
    cluster_assignment_log_probs,
    cluster_cov_posterior,
    cluster_mean_conditional,
    full_sweep_schedule,
    particle_cov_posterior,
    particle_mean_conditional,
    point_assignment_log_probs,
    rotation_log_probs,
    sweep,
    translation_log_probs,
    update_cluster_covariances,
    update_cluster_means,
    update_cluster_rotations,
    update_cluster_translations,
    update_cluster_weights,
    update_particle_covariances,
    update_particle_features,
    update_particle_means,
    update_particle_velocity_covariances,
    update_particle_velocity_means,
    update_particle_weights,
    velocity_cov_posterior,
    velocity_mean_conditional,
)
from mattertrack.model import log_joint, sample_forward
from mattertrack.rng import RngState
from mattertrack.synth import separated_mixture_scene
from mattertrack.types import Assignments, ModelState, Observations, ValidationError

from conftest import diag_hyper, make_state, single_particle_state


def two_particle_state(mu0=(-1.0, 0.0), mu1=(1.0, 0.0), v0=(0.0, 0.0), v1=(0.0, 0.0),
                       sigma_b=0.5, sigma_v=0.1, pi=(0.5, 0.5), z_B=(0,)):
    eye = np.eye(2)
    return make_state(
        mu_B=[mu0, mu1], Sigma_B=[sigma_b * eye] * 2, vel=[v0, v1],
        Sigma_V=[sigma_v * eye] * 2, pi_B=list(pi), mu_H=[[0.0, 0.0]],
        Sigma_H=[4.0 * eye], rot=[eye], trans=[[0.0, 0.0]], pi_H=[1.0],
        z_B=list(z_B), z_H=[0, 0])


# ---------------------------------------------------------------------------
# point-to-particle assignment
# ---------------------------------------------------------------------------

def test_assign_points_single_particle():
    state = single_particle_state(z_B=[0] * 7)
    obs = Observations(np.random.default_rng(0).standard_normal((7, 2)),
                       np.zeros((7, 2)))
    z = assign_points_to_particles(state, obs, diag_hyper(2), np.random.default_rng(1))
    assert np.all(z == 0)


def test_assign_points_symmetric_half_half():
    state = two_particle_state(z_B=[0] * 10_000)
    obs = Observations(np.zeros((10_000, 2)), np.zeros((10_000, 2)))
    z = assign_points_to_particles(state, obs, diag_hyper(2), np.random.default_rng(2))
    frac = (z == 0).mean()
    assert frac == pytest.approx(0.5, abs=0.02)


def test_assign_points_matches_hand_normalized_scalar_product():
    # diagonal covariances factor into per-axis scalar Gaussians
    state = two_particle_state(mu0=(-0.7, 0.2), mu1=(0.9, -0.4),
                               v0=(0.05, 0.0), v1=(-0.02, 0.04),
                               sigma_b=0.3, sigma_v=0.02, pi=(0.4, 0.6))
    x = np.array([[0.1, -0.2]])
    v = np.array([[0.01, 0.02]])
    obs = Observations(x, v)
    scores = point_assignment_log_probs(state, obs, diag_hyper(2))
    probs = log_normalize(scores[0])

    def hand(ell):
        mu, vm = state.mu_B[ell], state.vel[ell]
        p = state.pi_B[ell]
        for d in range(2):
            p *= norm(mu[d], math.sqrt(0.3)).pdf(x[0, d])
            p *= norm(vm[d], math.sqrt(0.02)).pdf(v[0, d])
        return p

    h = np.array([hand(0), hand(1)])
    h /= h.sum()
    np.testing.assert_allclose(probs, h, atol=1e-10)


def test_assign_points_position_only_drops_velocity_and_features():
    state = two_particle_state()
    feat = np.array([[1.0], [-1.0]])
    state = state.replace(feat=feat)
    obs = Observations(np.array([[0.3, 0.0]]), np.array([[5.0, 5.0]]),
                       np.array([[0.9]]))
    hyper = diag_hyper(2, sigma2_F=0.5)
    full = point_assignment_log_probs(state, obs, hyper)
    pos_only = point_assignment_log_probs(state, obs, hyper, position_only=True)
    from mattertrack.distributions import mvn_logpdf_rows

    for ell in range(2):
        expected = math.log(state.pi_B[ell]) + mvn_logpdf_rows(
            obs.positions, state.mu_B[ell], state.Sigma_B[ell])[0]
        assert pos_only[0, ell] == pytest.approx(expected, abs=1e-10)
    assert not np.allclose(full, pos_only)


def test_assign_points_scores_features_only_when_the_model_has_them():
    # as in log_joint: the points, the state and sigma2_F must all carry features
    state = two_particle_state()
    obs = Observations(np.array([[0.3, 0.0], [-0.2, 0.1]]), np.array([[0.1, 0.0], [0.0, 0.0]]))
    bare = dict(state=state, obs=obs, hyper=diag_hyper(2))
    full = dict(state=state.replace(feat=np.array([[1.0], [-1.0]])),
                obs=Observations(obs.positions, obs.velocities, np.array([[0.9], [-0.4]])),
                hyper=bare["hyper"].replace(sigma2_F=0.5))
    plain = point_assignment_log_probs(**bare)
    for missing in full:
        scores = point_assignment_log_probs(**{**full, missing: bare[missing]})
        np.testing.assert_array_equal(scores, plain, strict=True)
    assert not np.allclose(point_assignment_log_probs(**full), plain)


def test_assign_points_outlier_catches_fast_points():
    state = two_particle_state(sigma_v=1e-4)
    hyper = diag_hyper(2, p_outlier=0.1, outlier_gamma_shape=2.0,
                       outlier_gamma_rate=0.5)
    obs = Observations(np.zeros((1, 2)), np.array([[8.0, 6.0]]))  # speed 10
    scores = point_assignment_log_probs(state, obs, hyper)
    assert scores.shape == (1, 3)
    probs = log_normalize(scores[0])
    assert probs[2] > 0.999


# ---------------------------------------------------------------------------
# particle mixture weights
# ---------------------------------------------------------------------------

def test_particle_weights_prior_fallback_when_all_outliers():
    state = two_particle_state(z_B=[2] * 5)  # sentinel index L = 2
    hyper = diag_hyper(2, beta=np.array([2.0, 6.0]), p_outlier=0.1)
    rng = np.random.default_rng(3)
    draws = np.stack([update_particle_weights(state, hyper, rng) for _ in range(20_000)])
    np.testing.assert_allclose(draws.mean(axis=0), [0.25, 0.75], atol=0.01)


def test_particle_weights_posterior_mean():
    state = two_particle_state(z_B=[0] * 9 + [1])
    hyper = diag_hyper(2, beta=1.0)
    rng = np.random.default_rng(4)
    draws = np.stack([update_particle_weights(state, hyper, rng) for _ in range(20_000)])
    np.testing.assert_allclose(draws.mean(axis=0), [10 / 12, 2 / 12], atol=0.01)


def test_particle_weights_simplex():
    state = two_particle_state(z_B=[0, 1, 1])
    w = update_particle_weights(state, diag_hyper(2), np.random.default_rng(5))
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# particle spatial means
# ---------------------------------------------------------------------------

def test_particle_mean_prior_fallback_distribution():
    # many empty particles sharing one cluster: draws are iid from the prior
    n = 20_000
    eye = np.eye(2)
    state = make_state(
        mu_B=np.zeros((n, 2)), Sigma_B=np.stack([0.2 * eye] * n),
        vel=np.zeros((n, 2)), Sigma_V=np.stack([0.05 * eye] * n),
        pi_B=np.full(n, 1 / n), mu_H=[[1.0, -2.0]], Sigma_H=[2.5 * eye],
        rot=[eye], trans=[[0.0, 0.0]], pi_H=[1.0], z_B=[], z_H=[0] * n)
    obs = Observations(np.zeros((0, 2)), np.zeros((0, 2)))
    out = update_particle_means(state, obs, diag_hyper(2), np.random.default_rng(6))
    std = math.sqrt(2.5)
    np.testing.assert_allclose(out.mean(axis=0), [1.0, -2.0], atol=0.02 * std)
    np.testing.assert_allclose(out.std(axis=0), std, rtol=0.03)


def test_particle_mean_scalar_conjugate_formula():
    sigma_h, sigma_b = 1.5, 0.3
    x = np.array([[0.8, -0.6]])
    state = single_particle_state(dim=2, mu_b=(0.0, 0.0), sigma_b=sigma_b,
                                  mu_h=(0.2, 0.1), sigma_h=sigma_h, z_B=[0])
    obs = Observations(x, np.zeros((1, 2)))
    mean, cov = particle_mean_conditional(state, obs, diag_hyper(2), 0)
    for d in range(2):
        prec = 1 / sigma_h + 1 / sigma_b
        m = state.mu_H[0][d] / sigma_h + x[0, d] / sigma_b
        assert mean[d] == pytest.approx(m / prec, abs=1e-10)
        assert cov[d, d] == pytest.approx(1 / prec, abs=1e-10)
    # precision-weighted average sits between prior mean and observation
    assert min(0.2, 0.8) <= mean[0] <= max(0.2, 0.8)


def test_particle_mean_reduces_to_cluster_prior_without_data():
    state = single_particle_state(dim=2, mu_h=(3.0, 1.0), sigma_h=2.0, z_B=[])
    obs = Observations(np.zeros((0, 2)), np.zeros((0, 2)))
    mean, cov = particle_mean_conditional(state, obs, diag_hyper(2), 0)
    np.testing.assert_allclose(mean, [3.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(cov, 2.0 * np.eye(2), atol=1e-12)


def test_particle_mean_grid_argmax_of_log_joint():
    # rotation active: the velocity constraint shifts the conditional
    hyper = diag_hyper(2, sigma2_V=0.05)
    R = rotation_2d(0.25)
    state = single_particle_state(dim=2, mu_b=(0.5, 0.2), sigma_b=0.4,
                                  v=(0.15, -0.02), sigma_v=0.06,
                                  mu_h=(0.0, 0.0), sigma_h=1.2, rot=R,
                                  trans=(0.05, 0.0), z_B=[0, 0, 0])
    obs = Observations(np.array([[0.6, 0.1], [0.4, 0.3], [0.55, 0.15]]),
                       np.array([[0.1, 0.0], [0.12, -0.05], [0.14, 0.02]]))
    mean, _ = particle_mean_conditional(state, obs, hyper, 0)
    centered = state.replace(mu_B=mean[None, :])
    grid = np.linspace(mean[0] - 0.5, mean[0] + 0.5, 2001)
    vals = [log_joint(centered.replace(mu_B=np.array([[g, mean[1]]])), obs, hyper)
            for g in grid]
    best = grid[int(np.argmax(vals))]
    step = grid[1] - grid[0]
    assert abs(best - mean[0]) <= step


# ---------------------------------------------------------------------------
# particle spatial covariances
# ---------------------------------------------------------------------------

def test_particle_cov_posterior_params_exact():
    state = two_particle_state(z_B=(0, 0, 1))
    x = np.array([[0.1, 0.2], [-0.3, 0.5], [2.0, 1.0]])
    obs = Observations(x, np.zeros((3, 2)))
    hyper = diag_hyper(2)
    psi, nu = particle_cov_posterior(state, obs, hyper, 0)
    d0 = x[0] - state.mu_B[0]
    d1 = x[1] - state.mu_B[0]
    hand = hyper.Psi_B + np.outer(d0, d0) + np.outer(d1, d1)
    np.testing.assert_allclose(psi, hand, atol=1e-10)
    assert nu == hyper.nu_B + 2


def test_particle_cov_prior_fallback_moments():
    n = 3000
    eye = np.eye(2)
    state = make_state(
        mu_B=np.zeros((n, 2)), Sigma_B=np.stack([eye] * n),
        vel=np.zeros((n, 2)), Sigma_V=np.stack([eye] * n),
        pi_B=np.full(n, 1 / n), mu_H=[[0.0, 0.0]], Sigma_H=[eye],
        rot=[eye], trans=[[0.0, 0.0]], pi_H=[1.0], z_B=[], z_H=[0] * n)
    obs = Observations(np.zeros((0, 2)), np.zeros((0, 2)))
    # nu > dim + 3 keeps the entry variance finite, so the sample mean converges
    hyper = diag_hyper(2, psi_b=0.8).replace(nu_B=8.0)
    draws = update_particle_covariances(state, obs, hyper, np.random.default_rng(7))
    expected = hyper.Psi_B / (hyper.nu_B - 2 - 1)
    np.testing.assert_allclose(draws.mean(axis=0), expected, rtol=0.05, atol=0.01)
    assert np.all(np.linalg.eigvalsh(draws) > 0)


@pytest.mark.parametrize("dim", [2, 3])
def test_particle_cov_step_moments_with_distinct_dof(dim):
    # four kinds of particle, each with its own members, so each has its own
    # posterior IW(psi, nu); the kinds are interleaved over 4 * reps particles
    counts = (0, 2, 5, 11)
    reps = 2500
    rng = np.random.default_rng(40 + dim)
    offsets = [rng.standard_normal((m, dim)) * 0.3 for m in counts]
    hyper = diag_hyper(dim, psi_b=0.5).replace(nu_B=dim + 6.0)
    L = len(counts) * reps
    kind = np.arange(L) % len(counts)
    z_B = np.concatenate([np.full(counts[c], ell) for ell, c in enumerate(kind)])
    x = np.concatenate([offsets[c] for c in kind])
    eye = np.eye(dim)
    state = make_state(
        mu_B=np.zeros((L, dim)), Sigma_B=np.broadcast_to(eye, (L, dim, dim)),
        vel=np.zeros((L, dim)), Sigma_V=np.broadcast_to(eye, (L, dim, dim)),
        pi_B=np.full(L, 1 / L), mu_H=[np.zeros(dim)], Sigma_H=[eye], rot=[eye],
        trans=[np.zeros(dim)], pi_H=[1.0], z_B=z_B, z_H=np.zeros(L, dtype=int))
    obs = Observations(x, np.zeros_like(x))
    draws = update_particle_covariances(state, obs, hyper, np.random.default_rng(dim))
    for c, (m, off) in enumerate(zip(counts, offsets)):
        psi, nu = hyper.Psi_B + off.T @ off, hyper.nu_B + m
        q = nu - dim
        # entrywise mean and variance of IW(psi, nu)
        mean = psi / (q - 1)
        var = ((q + 1) * psi ** 2 + (q - 1) * np.outer(np.diag(psi), np.diag(psi))) / (
            q * (q - 1) ** 2 * (q - 3))
        z = (draws[kind == c].mean(axis=0) - mean) / np.sqrt(var / reps)
        assert np.abs(z).max() < 4.5, (m, z)


# ---------------------------------------------------------------------------
# particle velocity means and covariances
# ---------------------------------------------------------------------------

def test_velocity_mean_no_data_reduces_to_rigid_prior():
    R = rotation_2d(0.3)
    state = single_particle_state(dim=2, mu_b=(1.0, 0.5), rot=R, trans=(0.2, -0.1),
                                  mu_h=(0.0, 0.0), z_B=[])
    obs = Observations(np.zeros((0, 2)), np.zeros((0, 2)))
    hyper = diag_hyper(2, sigma2_V=0.07)
    mean, cov = velocity_mean_conditional(state, obs, hyper, 0)
    vbar = np.array([0.2, -0.1]) + (R - np.eye(2)) @ np.array([1.0, 0.5])
    np.testing.assert_allclose(mean, vbar, atol=1e-12)
    np.testing.assert_allclose(cov, 0.07 * np.eye(2), atol=1e-12)


def test_velocity_mean_large_prior_variance_limit():
    vels = np.array([[0.3, -0.1], [0.5, 0.1], [0.4, 0.0]])
    state = single_particle_state(dim=2, sigma_v=0.04, z_B=[0, 0, 0])
    obs = Observations(np.zeros((3, 2)), vels)
    hyper = diag_hyper(2, sigma2_V=1e6)
    mean, _ = velocity_mean_conditional(state, obs, hyper, 0)
    np.testing.assert_allclose(mean, vels.mean(axis=0), atol=1e-3)


def test_velocity_mean_scalar_conjugate_formula():
    sigma_vp = 0.05   # particle velocity covariance scale
    sigma2_V = 0.09   # rigid-motion noise
    v_n = np.array([[0.22, -0.04]])
    state = single_particle_state(dim=2, v=(0.0, 0.0), sigma_v=sigma_vp,
                                  trans=(0.1, 0.02), z_B=[0])
    obs = Observations(np.zeros((1, 2)), v_n)
    mean, cov = velocity_mean_conditional(state, obs, diag_hyper(2, sigma2_V=sigma2_V), 0)
    vbar = np.array([0.1, 0.02])  # R == I
    for d in range(2):
        prec = 1 / sigma2_V + 1 / sigma_vp
        m = vbar[d] / sigma2_V + v_n[0, d] / sigma_vp
        assert mean[d] == pytest.approx(m / prec, abs=1e-10)
        assert cov[d, d] == pytest.approx(1 / prec, abs=1e-10)


def test_velocity_cov_posterior_params_exact():
    state = two_particle_state(v0=(0.1, 0.0), z_B=(0, 0))
    v = np.array([[0.2, 0.1], [0.0, -0.1]])
    obs = Observations(np.zeros((2, 2)), v)
    hyper = diag_hyper(2)
    psi, nu = velocity_cov_posterior(state, obs, hyper, 0)
    d0, d1 = v[0] - [0.1, 0.0], v[1] - [0.1, 0.0]
    np.testing.assert_allclose(psi, hyper.Psi_V + np.outer(d0, d0) + np.outer(d1, d1),
                               atol=1e-10)
    assert nu == hyper.nu_V + 2


def test_velocity_cov_prior_fallback_and_spd():
    state = two_particle_state(z_B=())
    obs = Observations(np.zeros((0, 2)), np.zeros((0, 2)))
    hyper = diag_hyper(2, psi_v=0.3).replace(nu_V=8.0)
    rng = np.random.default_rng(8)
    draws = np.stack([update_particle_velocity_covariances(state, obs, hyper, rng)
                      for _ in range(2000)])
    expected = hyper.Psi_V / (hyper.nu_V - 3)
    np.testing.assert_allclose(draws.mean(axis=(0, 1)), expected, rtol=0.05, atol=0.01)
    assert np.all(np.linalg.eigvalsh(draws.reshape(-1, 2, 2)) > 0)


# ---------------------------------------------------------------------------
# particle-to-cluster assignment
# ---------------------------------------------------------------------------

def test_assign_particles_single_cluster():
    state = two_particle_state()
    z = assign_particles_to_clusters(state, diag_hyper(2), np.random.default_rng(9))
    assert np.all(z == 0)


def test_assign_particles_rotation_sign_llr():
    # clusters differ only in rotation sign; particle velocity matches +theta
    eye = np.eye(2)
    theta = 0.2
    mu = np.array([1.0, 0.0])
    v_plus = (rotation_2d(theta) - eye) @ mu
    state = make_state(
        mu_B=[mu, [0.0, 1.0]], Sigma_B=[0.1 * eye] * 2,
        vel=[v_plus, [0.0, 0.0]], Sigma_V=[0.01 * eye] * 2,
        pi_B=[0.5, 0.5], mu_H=[[0.0, 0.0], [0.0, 0.0]], Sigma_H=[eye, eye],
        rot=[rotation_2d(theta), rotation_2d(-theta)],
        trans=[[0.0, 0.0], [0.0, 0.0]], pi_H=[0.5, 0.5], z_B=[0], z_H=[0, 1])
    probs = log_normalize(cluster_assignment_log_probs(state, diag_hyper(2, sigma2_V=1e-4))[0])
    assert probs[0] > 0.99


def test_assign_particles_symmetric_half_half():
    eye = np.eye(2)
    state = make_state(
        mu_B=[[0.0, 0.0], [0.0, 3.0]], Sigma_B=[0.1 * eye] * 2,
        vel=[[0.0, 0.0], [0.0, 0.0]], Sigma_V=[0.01 * eye] * 2, pi_B=[0.5, 0.5],
        mu_H=[[-1.0, 0.0], [1.0, 0.0]], Sigma_H=[eye, eye], rot=[eye, eye],
        trans=[[0.0, 0.0], [0.0, 0.0]], pi_H=[0.5, 0.5], z_B=[0], z_H=[0, 1])
    hyper = diag_hyper(2)
    probs = log_normalize(cluster_assignment_log_probs(state, hyper)[0])
    np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)
    rng = np.random.default_rng(10)
    draws = [assign_particles_to_clusters(state, hyper, rng)[0] for _ in range(10_000)]
    assert np.mean(draws) == pytest.approx(0.5, abs=0.02)


# ---------------------------------------------------------------------------
# cluster mixture weights
# ---------------------------------------------------------------------------

def test_cluster_weights_prior_and_posterior():
    eye = np.eye(2)
    state = make_state(
        mu_B=np.zeros((4, 2)), Sigma_B=np.stack([eye] * 4), vel=np.zeros((4, 2)),
        Sigma_V=np.stack([eye] * 4), pi_B=np.full(4, 0.25),
        mu_H=[[0.0, 0.0], [1.0, 1.0]], Sigma_H=[eye, eye], rot=[eye, eye],
        trans=np.zeros((2, 2)), pi_H=[0.5, 0.5], z_B=[0, 1, 2, 3], z_H=[0, 0, 0, 1])
    hyper = diag_hyper(2, alpha=1.0)
    rng = np.random.default_rng(11)
    draws = np.stack([update_cluster_weights(state, hyper, rng) for _ in range(20_000)])
    np.testing.assert_allclose(draws.mean(axis=0), [4 / 6, 2 / 6], atol=0.01)
    assert draws[0].sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# cluster spatial means
# ---------------------------------------------------------------------------

def test_cluster_mean_prior_when_empty():
    eye = np.eye(2)
    state = make_state(
        mu_B=[[5.0, 5.0], [4.0, 4.0]], Sigma_B=[eye] * 2,
        vel=np.zeros((2, 2)), Sigma_V=[eye] * 2,
        pi_B=[0.5, 0.5], mu_H=[[0.0, 0.0], [9.0, 9.0]], Sigma_H=[eye, eye],
        rot=[eye, eye], trans=np.zeros((2, 2)), pi_H=[0.5, 0.5],
        z_B=[0], z_H=[0, 0])  # cluster 1 has no particles
    hyper = diag_hyper(2, sigma2_mu_H=6.0)
    mean, cov = cluster_mean_conditional(state, hyper, 1)
    np.testing.assert_allclose(mean, hyper.mu_H_prior, atol=1e-12)
    np.testing.assert_allclose(cov, 6.0 * np.eye(2), atol=1e-12)


def test_cluster_mean_scalar_conjugate_formula():
    eye = np.eye(2)
    sigma_h, sigma2_mu = 1.2, 5.0
    mus = np.array([[0.6, -0.2], [1.0, 0.4]])
    state = make_state(
        mu_B=mus, Sigma_B=[0.1 * eye] * 2, vel=np.zeros((2, 2)),
        Sigma_V=[0.05 * eye] * 2, pi_B=[0.5, 0.5], mu_H=[[0.0, 0.0]],
        Sigma_H=[sigma_h * eye], rot=[eye], trans=[[0.0, 0.0]], pi_H=[1.0],
        z_B=[0, 1], z_H=[0, 0])
    hyper = diag_hyper(2, sigma2_mu_H=sigma2_mu)
    mean, cov = cluster_mean_conditional(state, hyper, 0)
    for d in range(2):
        prec = 1 / sigma2_mu + 2 / sigma_h   # R = I kills the velocity term
        m = 0.0 / sigma2_mu + mus[:, d].sum() / sigma_h
        assert mean[d] == pytest.approx(m / prec, abs=1e-10)
        assert cov[d, d] == pytest.approx(1 / prec, abs=1e-10)


def test_cluster_mean_grid_argmax_of_log_joint():
    eye = np.eye(2)
    R = rotation_2d(-0.2)
    mus = np.array([[0.5, 0.1], [0.9, -0.3], [0.2, 0.4]])
    vels = np.array([[0.1, 0.05], [0.0, 0.12], [0.08, -0.02]])
    state = make_state(
        mu_B=mus, Sigma_B=[0.1 * eye] * 3, vel=vels, Sigma_V=[0.05 * eye] * 3,
        pi_B=np.full(3, 1 / 3), mu_H=[[0.0, 0.0]], Sigma_H=[0.8 * eye],
        rot=[R], trans=[[0.05, -0.02]], pi_H=[1.0], z_B=[0, 1, 2], z_H=[0, 0, 0])
    hyper = diag_hyper(2, sigma2_V=0.04, sigma2_mu_H=3.0)
    obs = Observations(mus + 0.01, vels + 0.005)
    mean, _ = cluster_mean_conditional(state, hyper, 0)
    centered = state.replace(mu_H=mean[None, :])
    grid = np.linspace(mean[1] - 0.4, mean[1] + 0.4, 2001)
    vals = [log_joint(centered.replace(mu_H=np.array([[mean[0], g]])), obs, hyper)
            for g in grid]
    best = grid[int(np.argmax(vals))]
    assert abs(best - mean[1]) <= grid[1] - grid[0]


# ---------------------------------------------------------------------------
# cluster spatial covariances
# ---------------------------------------------------------------------------

def test_cluster_cov_posterior_params_exact():
    eye = np.eye(2)
    mus = np.array([[0.5, 0.1], [-0.2, 0.3], [0.9, 0.9]])
    state = make_state(
        mu_B=mus, Sigma_B=[eye] * 3, vel=np.zeros((3, 2)), Sigma_V=[eye] * 3,
        pi_B=np.full(3, 1 / 3), mu_H=[[0.2, 0.2]], Sigma_H=[eye], rot=[eye],
        trans=[[0.0, 0.0]], pi_H=[1.0], z_B=[0, 1, 2], z_H=[0, 0, 0])
    hyper = diag_hyper(2)
    psi, nu = cluster_cov_posterior(state, hyper, 0)
    hand = hyper.Psi_H.copy()
    for mu in mus:
        d = mu - [0.2, 0.2]
        hand += np.outer(d, d)
    np.testing.assert_allclose(psi, hand, atol=1e-10)
    assert nu == hyper.nu_H + 3


def test_cluster_cov_prior_fallback_and_spd():
    eye = np.eye(2)
    state = make_state(
        mu_B=[[0.0, 0.0], [1.0, 0.0]], Sigma_B=[eye] * 2,
        vel=np.zeros((2, 2)), Sigma_V=[eye] * 2,
        pi_B=[0.5, 0.5], mu_H=[[0.0, 0.0], [5.0, 5.0]], Sigma_H=[eye, eye],
        rot=[eye, eye], trans=np.zeros((2, 2)), pi_H=[0.5, 0.5],
        z_B=[0], z_H=[0, 0])
    hyper = diag_hyper(2, psi_h=2.0).replace(nu_H=8.0)
    rng = np.random.default_rng(12)
    draws = np.stack([update_cluster_covariances(state, hyper, rng)[1]
                      for _ in range(2000)])
    np.testing.assert_allclose(draws.mean(axis=0), hyper.Psi_H / (hyper.nu_H - 3),
                               rtol=0.05, atol=0.03)
    assert np.all(np.linalg.eigvalsh(draws) > 0)


# ---------------------------------------------------------------------------
# discrete rigid transforms
# ---------------------------------------------------------------------------

def test_rotation_empty_cluster_samples_from_prior():
    eye = np.eye(2)
    state = make_state(
        mu_B=[[0.0, 0.0], [1.0, 1.0]], Sigma_B=[eye] * 2,
        vel=np.zeros((2, 2)), Sigma_V=[eye] * 2,
        pi_B=[0.5, 0.5], mu_H=[[0.0, 0.0], [3.0, 3.0]], Sigma_H=[eye, eye],
        rot=[eye, eye], trans=np.zeros((2, 2)), pi_H=[0.5, 0.5],
        z_B=[0], z_H=[0, 0])
    hyper = diag_hyper(2)
    cands = make_transform_candidates(2, hyper, M_r=9, M_t=9)
    scores = rotation_log_probs(state, hyper, cands, 1)
    np.testing.assert_allclose(scores, cands.rotation_log_prior, atol=1e-15)
    t_scores = translation_log_probs(state, hyper, cands, 1)
    np.testing.assert_allclose(t_scores, cands.translation_log_prior, atol=1e-15)


def test_rotation_forward_synthesis_recovery():
    hyper = diag_hyper(2, sigma2_V=1e-6)
    cands = make_transform_candidates(2, hyper, M_r=9, M_t=9)
    j_star = 6
    R = cands.rotations[j_star]
    eye = np.eye(2)
    rng = np.random.default_rng(13)
    mus = rng.standard_normal((12, 2))
    t = np.array([0.12, -0.06])
    vels = t + (mus - 0.0) @ (R - eye).T
    state = make_state(
        mu_B=mus, Sigma_B=[0.1 * eye] * 12, vel=vels, Sigma_V=[0.01 * eye] * 12,
        pi_B=np.full(12, 1 / 12), mu_H=[[0.0, 0.0]], Sigma_H=[eye], rot=[eye],
        trans=[t], pi_H=[1.0], z_B=list(range(12)), z_H=[0] * 12)
    probs = log_normalize(rotation_log_probs(state, hyper, cands, 0))
    assert probs[j_star] > 0.999
    out = np.stack([update_cluster_rotations(state, hyper, cands, np.random.default_rng(s))[0]
                    for s in range(50)])
    assert np.mean([np.allclose(o, R) for o in out]) > 0.999 - 0.05


def test_translation_forward_synthesis_recovery():
    hyper = diag_hyper(2, sigma2_V=1e-6)
    cands = make_transform_candidates(2, hyper, M_r=9, M_t=25)
    m_star = 7
    t = cands.translations[m_star]
    eye = np.eye(2)
    R = cands.rotations[5]
    rng = np.random.default_rng(14)
    mus = rng.standard_normal((10, 2))
    vels = t + mus @ (R - eye).T
    state = make_state(
        mu_B=mus, Sigma_B=[0.1 * eye] * 10, vel=vels, Sigma_V=[0.01 * eye] * 10,
        pi_B=np.full(10, 0.1), mu_H=[[0.0, 0.0]], Sigma_H=[eye], rot=[R],
        trans=[[0.0, 0.0]], pi_H=[1.0], z_B=list(range(10)), z_H=[0] * 10)
    probs = log_normalize(translation_log_probs(state, hyper, cands, 0))
    assert probs[m_star] > 0.999


def test_transform_prior_shift_invariance():
    hyper = diag_hyper(2)
    cands = make_transform_candidates(2, hyper, M_r=9, M_t=9)
    shifted = TransformCandidates(cands.rotations, cands.rotation_log_prior + 7.5,
                                  cands.translations, cands.translation_log_prior - 3.0)
    state, obs, _ = separated_mixture_scene(K=1, L=6, N=30, dim=2, seed=15)
    a = log_normalize(rotation_log_probs(state, hyper, cands, 0))
    b = log_normalize(rotation_log_probs(state, hyper, shifted, 0))
    np.testing.assert_allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_preserves_invariants():
    hyper = diag_hyper(2)
    cands = make_transform_candidates(2, hyper, M_r=9, M_t=9)
    state, obs = sample_forward(hyper, K=2, L=6, N=80, seed=17)
    sched = full_sweep_schedule()
    for _ in range(10):
        state = sweep(state, obs, hyper, sched, cands)
        state.validate()


def test_sweep_deterministic_given_state_rng():
    hyper = diag_hyper(2)
    cands = make_transform_candidates(2, hyper, M_r=9, M_t=9)
    state, obs = sample_forward(hyper, K=2, L=5, N=40, seed=18)
    sched = full_sweep_schedule()
    a = sweep(state, obs, hyper, sched, cands)
    b = sweep(state, obs, hyper, sched, cands)
    np.testing.assert_array_equal(a.mu_B, b.mu_B)
    np.testing.assert_array_equal(a.z_B, b.z_B)
    assert a.rng.counter == state.rng.counter + 1


def test_sweep_builds_and_validates_one_state(monkeypatch):
    hyper = diag_hyper(2)
    cands = make_transform_candidates(2, hyper, M_r=9, M_t=9)
    state, obs = sample_forward(hyper, K=2, L=5, N=40, seed=19)
    before = {name: getattr(state, name).copy() for name in ("mu_B", "Sigma_B", "pi_B", "z_B")}
    built = []
    post_init = ModelState.__post_init__
    monkeypatch.setattr(ModelState, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    sweep(state, obs, hyper, full_sweep_schedule(), cands)
    assert len(built) == 1
    for name, arr in before.items():
        np.testing.assert_array_equal(getattr(state, name), arr)
    # the steps swap fields unchecked; the state the sweep returns is checked
    monkeypatch.setattr(gibbs, "update_particle_weights", lambda s, h, r: np.ones(s.L + 1))
    with pytest.raises(ValidationError, match="pi_B"):
        sweep(state, obs, hyper, full_sweep_schedule(), cands)


def test_sweep_recovers_separated_clusters():
    from mattertrack.evaluation import adjusted_rand_index, point_cluster_labels
    from mattertrack.initialization import init_state

    hyper = diag_hyper(2, sigma2_mu_H=100.0, sigma2_V=0.01)
    cands = make_transform_candidates(2, hyper)
    _, obs, true_labels = separated_mixture_scene(K=3, L=18, N=600, dim=2,
                                                  seed=19, separation=8.0,
                                                  hyper=hyper, candidates=cands)
    state = init_state(obs, 3, 18, hyper, seed=19)
    sched = full_sweep_schedule()
    for _ in range(25):
        state = sweep(state, obs, hyper, sched, cands)
    ari = adjusted_rand_index(point_cluster_labels(state), true_labels)
    assert ari >= 0.9


def test_sweep_stationary_log_joint_no_drift():
    hyper = diag_hyper(2)
    cands = make_transform_candidates(2, hyper, M_r=9, M_t=9)
    state, obs = sample_forward(hyper, K=2, L=4, N=16, seed=20)
    sched = full_sweep_schedule()
    for _ in range(100):   # burn toward the posterior
        state = sweep(state, obs, hyper, sched, cands)
    series = np.empty(500)
    for i in range(500):
        state = sweep(state, obs, hyper, sched, cands)
        series[i] = log_joint(state, obs, hyper, candidates=cands)
    # batch means kill autocorrelation; OLS slope CI must contain zero
    batches = series.reshape(25, 20).mean(axis=1)
    xs = np.arange(25, dtype=float)
    slope, intercept = np.polyfit(xs, batches, 1)
    resid = batches - (slope * xs + intercept)
    se = math.sqrt(resid.var(ddof=2) / ((xs - xs.mean()) ** 2).sum())
    assert abs(slope) <= 4 * se


def test_sweep_label_permutation_equivariance_distributional():
    hyper = diag_hyper(2)
    cands = make_transform_candidates(2, hyper, M_r=9, M_t=9)
    base, obs = sample_forward(hyper, K=2, L=5, N=40, seed=21)
    perm = np.array([2, 0, 4, 1, 3])
    inv = np.empty_like(perm)
    inv[perm] = np.arange(5)
    sched = full_sweep_schedule()

    direct, permuted = [], []
    for s in range(120):
        st = base.replace(rng=RngState(1000 + s))
        out = sweep(st, obs, hyper, sched, cands)
        direct.append(out.mu_B[0, 0])
        pst = base.replace(
            mu_B=base.mu_B[perm], Sigma_B=base.Sigma_B[perm], vel=base.vel[perm],
            Sigma_V=base.Sigma_V[perm], pi_B=base.pi_B[perm],
            assignments=Assignments(inv[base.z_B], base.z_H[perm]),
            rng=RngState(5000 + s))
        pout = sweep(pst, obs, hyper, sched, cands)
        permuted.append(pout.mu_B[inv[0], 0])
    direct = np.array(direct)
    permuted = np.array(permuted)
    se = math.sqrt(direct.var(ddof=1) / len(direct) + permuted.var(ddof=1) / len(permuted))
    assert abs(direct.mean() - permuted.mean()) < 4 * se


def test_update_particle_features_empirical_means():
    state = two_particle_state(z_B=(0, 0, 1))
    state = state.replace(feat=np.array([[0.0], [0.0]]))
    obs = Observations(np.zeros((3, 2)), np.zeros((3, 2)),
                       np.array([[1.0], [3.0], [5.0]]))
    out = update_particle_features(state, obs)
    np.testing.assert_allclose(out, [[2.0], [5.0]], atol=1e-15)
