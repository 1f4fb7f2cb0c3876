"""Forward-sampler and log-joint oracles."""
import math

import numpy as np
import pytest
from scipy import stats

from mattertrack.distributions import make_transform_candidates
from mattertrack.model import (
    induced_velocities,
    log_joint,
    resample_observations,
    sample_forward,
)
from mattertrack.synth import separated_mixture_scene
from mattertrack.types import HyperParams, ValidationError

from conftest import diag_hyper, single_particle_state


def collapsed_hyper(dim=2):
    eye = np.eye(dim)
    return HyperParams(
        alpha=1.0, beta=1.0, mu_H_prior=np.zeros(dim), sigma2_mu_H=1.0,
        Psi_H=eye, nu_H=dim + 3.0, Psi_B=0.01 * eye, nu_B=dim + 3.0,
        sigma2_V=1e-30, Psi_V=1e-30 * eye, nu_V=dim + 2.0,
        s2=1.0, kappa_vmf=1.0, theta_max=math.pi / 8)


def test_forward_collapsed_velocity_is_particle_velocity_is_zero():
    hyper = collapsed_hyper()
    cands = make_transform_candidates(2, hyper, M_r=1, M_t=1)
    state, obs = sample_forward(hyper, K=1, L=1, N=1, seed=0, candidates=cands)
    np.testing.assert_allclose(state.rot[0], np.eye(2), atol=0)
    np.testing.assert_allclose(state.trans[0], np.zeros(2), atol=0)
    assert np.linalg.norm(obs.velocities[0] - state.vel[0]) < 1e-6
    assert np.linalg.norm(state.vel[0]) < 1e-6
    assert np.linalg.norm(obs.velocities[0]) < 1e-6


def test_forward_separated_clusters_recoverable_by_nearest_mean():
    state, obs, true_labels = separated_mixture_scene(K=2, L=10, N=1000, dim=2,
                                                      seed=3, separation=10.0)
    from mattertrack.evaluation import adjusted_rand_index

    d2 = np.linalg.norm(obs.positions[:, None, :] - state.mu_H[None], axis=2)
    nearest = np.argmin(d2, axis=1)
    assert adjusted_rand_index(nearest, true_labels) >= 0.99


def test_forward_deterministic_for_fixed_seed():
    hyper = diag_hyper(2)
    s1, o1 = sample_forward(hyper, K=2, L=5, N=40, seed=42)
    s2, o2 = sample_forward(hyper, K=2, L=5, N=40, seed=42)
    np.testing.assert_array_equal(o1.positions, o2.positions)
    np.testing.assert_array_equal(o1.velocities, o2.velocities)
    np.testing.assert_array_equal(s1.mu_B, s2.mu_B)
    np.testing.assert_array_equal(s1.Sigma_H, s2.Sigma_H)
    np.testing.assert_array_equal(s1.z_B, s2.z_B)
    np.testing.assert_array_equal(s1.rot, s2.rot)


def test_forward_invalid_hyper_names_field():
    hyper = diag_hyper(2).replace(sigma2_V=-1.0)
    with pytest.raises(ValidationError, match="sigma2_V"):
        sample_forward(hyper, K=1, L=1, N=1, seed=0)


def test_forward_output_satisfies_invariants():
    for seed in range(5):
        hyper = diag_hyper(2, sigma2_mu_H=1.0 + seed, psi_b=0.1 * (seed + 1))
        state, obs = sample_forward(hyper, K=2, L=6, N=30, seed=seed)
        state.validate()
        assert np.all(np.isfinite(obs.positions))
        assert np.all(np.isfinite(obs.velocities))
    hyper3 = diag_hyper(3)
    state, obs = sample_forward(hyper3, K=2, L=4, N=20, seed=0)
    state.validate()


# -- induced_velocities -----------------------------------------------------------

def test_induced_velocity_identity_rotation():
    means = np.array([[0.0, 0.0], [5.0, -2.0], [100.0, 3.0]])
    np.testing.assert_allclose(
        induced_velocities(np.eye(2), np.array([3.0, 4.0]), np.zeros(2), means),
        np.tile([3.0, 4.0], (3, 1)), atol=1e-15)


def test_induced_velocity_zero_offset():
    mu = np.array([1.5, -0.5])
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_allclose(induced_velocities(quarter, np.zeros(2), mu, mu[None]),
                               np.zeros((1, 2)), atol=1e-15)


def test_induced_velocity_quarter_turn():
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_allclose(
        induced_velocities(quarter, np.zeros(2), np.zeros(2), np.array([[1.0, 0.0]])),
        [[-1.0, 1.0]], atol=1e-15)


def test_induced_velocity_affine_jacobian():
    rng = np.random.default_rng(0)
    R = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
    mu_H, t = rng.standard_normal(2), rng.standard_normal(2)
    p0 = rng.standard_normal(2)
    eps = 1e-6
    jac = np.empty((2, 2))
    for j in range(2):
        dp = np.zeros(2)
        dp[j] = eps
        jac[:, j] = (induced_velocities(R, t, mu_H, (p0 + dp)[None])[0]
                     - induced_velocities(R, t, mu_H, (p0 - dp)[None])[0]) / (2 * eps)
    np.testing.assert_allclose(jac, R - np.eye(2), atol=1e-8)


# -- log_joint -------------------------------------------------------------------

def test_log_joint_finite_on_forward_sample():
    hyper = diag_hyper(2)
    state, obs = sample_forward(hyper, K=2, L=5, N=60, seed=1)
    val = log_joint(state, obs, hyper)
    assert np.isfinite(val)
    cands = make_transform_candidates(2, hyper)
    val2 = log_joint(state, obs, hyper, candidates=cands)
    assert np.isfinite(val2) and val2 < val  # discrete priors only subtract mass


def test_log_joint_decreases_when_point_moves_away():
    hyper = diag_hyper(2)
    state, obs = sample_forward(hyper, K=2, L=4, N=20, seed=2)
    base = log_joint(state, obs, hyper)
    far = obs.positions.copy()
    far[0] += 250.0
    from mattertrack.types import Observations

    worse = log_joint(state, Observations(far, obs.velocities), hyper)
    assert worse < base - 100.0


def test_log_joint_matches_scipy_composition():
    # 1-particle, 1-point instance with diagonal scales: sum each density by hand
    hyper = diag_hyper(2, sigma2_mu_H=4.0, psi_h=1.2, psi_b=0.3, psi_v=0.05,
                       sigma2_V=0.09)
    state = single_particle_state(
        dim=2, mu_b=(0.4, -0.2), sigma_b=0.5, v=(0.12, 0.05), sigma_v=0.07,
        mu_h=(0.1, 0.3), sigma_h=1.5, trans=(0.08, -0.03))
    x = np.array([[0.55, -0.11]])
    v = np.array([[0.10, 0.02]])
    from mattertrack.types import Observations

    obs = Observations(x, v)
    eye = np.eye(2)
    expected = 0.0  # two one-component Dirichlet terms and two log Cat(1) terms
    expected += stats.invwishart(df=hyper.nu_H, scale=hyper.Psi_H).logpdf(1.5 * eye)
    expected += stats.multivariate_normal(hyper.mu_H_prior, 4.0 * eye).logpdf([0.1, 0.3])
    expected += stats.invwishart(df=hyper.nu_B, scale=hyper.Psi_B).logpdf(0.5 * eye)
    expected += stats.multivariate_normal([0.1, 0.3], 1.5 * eye).logpdf([0.4, -0.2])
    vbar = np.array([0.08, -0.03])  # R = I so the rotation term vanishes
    expected += stats.multivariate_normal(vbar, 0.09 * eye).logpdf([0.12, 0.05])
    expected += stats.invwishart(df=hyper.nu_V, scale=hyper.Psi_V).logpdf(0.07 * eye)
    expected += stats.multivariate_normal([0.4, -0.2], 0.5 * eye).logpdf(x[0])
    expected += stats.multivariate_normal([0.12, 0.05], 0.07 * eye).logpdf(v[0])
    assert log_joint(state, obs, hyper) == pytest.approx(expected, abs=1e-10)


def test_log_joint_invariant_under_particle_relabeling():
    hyper = diag_hyper(2)  # symmetric beta
    state, obs = sample_forward(hyper, K=2, L=5, N=40, seed=5)
    perm = np.array([3, 0, 4, 1, 2])
    inv = np.empty_like(perm)
    inv[perm] = np.arange(5)
    permuted = state.replace(
        mu_B=state.mu_B[perm], Sigma_B=state.Sigma_B[perm], vel=state.vel[perm],
        Sigma_V=state.Sigma_V[perm], pi_B=state.pi_B[perm],
        assignments=type(state.assignments)(inv[state.z_B], state.z_H[perm]))
    a = log_joint(state, obs, hyper)
    b = log_joint(permuted, obs, hyper)
    assert a == pytest.approx(b, abs=1e-10)


def test_resample_observations_distribution():
    state = single_particle_state(dim=2, mu_b=(2.0, -1.0), sigma_b=0.04,
                                  v=(0.3, 0.1), sigma_v=0.01,
                                  z_B=[0] * 5000)
    hyper = diag_hyper(2)
    obs = resample_observations(state, hyper, np.random.default_rng(0))
    np.testing.assert_allclose(obs.positions.mean(axis=0), [2.0, -1.0], atol=0.02)
    np.testing.assert_allclose(obs.velocities.mean(axis=0), [0.3, 0.1], atol=0.01)
