"""Forward-sampler and log-joint oracles.

``ref_sample_forward`` and ``ref_resample_observations`` are per-component
loops built from the single-matrix distribution helpers, taking their
variates in the stacked order of ``mattertrack.model``'s draw-order
contract.  The stacked sampler must reproduce their labels and leave the
generator at the same position, with continuous arrays within 1e-10 (those
of ``resample_observations`` bit for bit), which pins that contract.  The
prior-moment test checks the forward draws against the prior in closed form.
"""
import math

import numpy as np
import pytest
from scipy import stats

from mattertrack.distributions import (
    categorical_sample,
    categorical_sample_rows,
    dirichlet_sample,
    inverse_wishart_mean,
    inverse_wishart_sample,
    make_transform_candidates,
    mvn_sample,
    spd_inverse,
)
from mattertrack.geweke import default_check_hyper
from mattertrack.model import (
    LatentStack,
    _as_generator,
    _draw_points,
    _sample_forward,
    induced_velocities,
    log_joint,
    resample_observations,
    sample_forward,
)
from mattertrack.rng import FORWARD, RngState, substream
from mattertrack.synth import separated_mixture_scene
from mattertrack.types import (
    HyperParams,
    ModelState,
    NumericalDomainError,
    Observations,
    ValidationError,
)

from conftest import diag_hyper, ref_iw_draws, single_particle_state


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
    with pytest.raises(ValidationError, match="sigma2_V"):
        diag_hyper(2).replace(sigma2_V=-1.0)


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


def test_log_joint_feature_and_outlier_terms_match_scipy():
    # one particle owning two points with features, plus one outlier point
    hyper = diag_hyper(2, sigma2_mu_H=4.0, psi_h=1.2, psi_b=0.3, psi_v=0.05,
                       sigma2_V=0.09, sigma2_F=0.3, p_outlier=0.2,
                       outlier_gamma_shape=2.0, outlier_gamma_rate=1.5)
    state = single_particle_state(
        dim=2, mu_b=(0.4, -0.2), sigma_b=0.5, v=(0.12, 0.05), sigma_v=0.07,
        mu_h=(0.1, 0.3), sigma_h=1.5, trans=(0.08, -0.03), z_B=(0, 1, 0))
    feat = np.array([0.6, -1.1, 0.25])
    state = state.replace(feat=feat[None])
    x = np.array([[0.55, -0.11], [2.0, 1.5], [0.31, -0.4]])
    v = np.array([[0.10, 0.02], [0.9, -0.6], [0.15, 0.07]])
    f = np.array([[0.7, -1.0, 0.1], [3.0, 2.0, -1.0], [0.2, -1.5, 0.6]])
    obs = Observations(x, v, f)
    eye = np.eye(2)
    expected = stats.invwishart(df=hyper.nu_H, scale=hyper.Psi_H).logpdf(1.5 * eye)
    expected += stats.multivariate_normal(hyper.mu_H_prior, 4.0 * eye).logpdf([0.1, 0.3])
    expected += stats.invwishart(df=hyper.nu_B, scale=hyper.Psi_B).logpdf(0.5 * eye)
    expected += stats.multivariate_normal([0.1, 0.3], 1.5 * eye).logpdf([0.4, -0.2])
    expected += stats.multivariate_normal([0.08, -0.03], 0.09 * eye).logpdf([0.12, 0.05])
    expected += stats.invwishart(df=hyper.nu_V, scale=hyper.Psi_V).logpdf(0.07 * eye)
    for n in (0, 2):  # the particle's points: position, velocity and feature
        expected += stats.multivariate_normal([0.4, -0.2], 0.5 * eye).logpdf(x[n])
        expected += stats.multivariate_normal([0.12, 0.05], 0.07 * eye).logpdf(v[n])
        expected += stats.multivariate_normal(feat, 0.3 * np.eye(3)).logpdf(f[n])
    # two inliers and one outlier, whose speed is Gamma(shape 2, rate 1.5)
    expected += 2 * math.log(0.8) + math.log(0.2)
    expected += stats.gamma(a=2.0, scale=1 / 1.5).logpdf(np.linalg.norm(v[1]))
    assert log_joint(state, obs, hyper) == pytest.approx(expected, abs=1e-10)
    # without features on the observations their term drops out, term by term
    no_feat = expected - sum(stats.multivariate_normal(feat, 0.3 * np.eye(3)).logpdf(f[n])
                             for n in (0, 2))
    assert log_joint(state, Observations(x, v), hyper) == pytest.approx(no_feat, abs=1e-10)


def test_log_joint_invariant_under_particle_relabeling():
    hyper = diag_hyper(2)  # symmetric beta
    state, obs = sample_forward(hyper, K=2, L=5, N=40, seed=5)
    perm = np.array([3, 0, 4, 1, 2])
    inv = np.empty_like(perm)
    inv[perm] = np.arange(5)
    permuted = state.replace(
        mu_B=state.mu_B[perm], Sigma_B=state.Sigma_B[perm], vel=state.vel[perm],
        Sigma_V=state.Sigma_V[perm], pi_B=state.pi_B[perm],
        z_B=inv[state.z_B], z_H=state.z_H[perm])
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


# -- the stacked forward sampler against the per-component loops -------------------

def ref_sample_forward(hyper, K, L, N, seed, candidates):
    dim = hyper.mu_H_prior.shape[0]
    rng = _as_generator(seed)
    eye = np.eye(dim)
    pi_H = dirichlet_sample(hyper.alpha_vec(K), rng)
    pi_B = dirichlet_sample(hyper.beta_vec(L), rng)
    covs = ref_iw_draws([(hyper.Psi_H, hyper.nu_H)] * K + [(hyper.Psi_B, hyper.nu_B)] * L
                        + [(hyper.Psi_V, hyper.nu_V)] * L, rng)
    Sigma_H, Sigma_B, Sigma_V = covs[:K], covs[K:K + L], covs[K + L:]
    mu_H = np.stack([mvn_sample(hyper.mu_H_prior, hyper.sigma2_mu_H * eye, rng)
                     for _ in range(K)])
    trans = np.stack([candidates.translations[
        categorical_sample(candidates.translation_log_prior, rng)] for _ in range(K)])
    rot = np.stack([candidates.rotations[
        categorical_sample(candidates.rotation_log_prior, rng)] for _ in range(K)])
    with np.errstate(divide="ignore"):
        z_H = np.array([categorical_sample(np.log(pi_H), rng) for _ in range(L)])
        z_B = categorical_sample_rows(np.broadcast_to(np.log(pi_B), (N, L)), rng)
    mu_B = np.stack([mvn_sample(mu_H[k], Sigma_H[k], rng) for k in z_H])
    vel = np.stack([
        mvn_sample(induced_velocities(rot[k], trans[k], mu_H[k], mu_B[ell][None])[0],
                   hyper.sigma2_V * eye, rng)
        for ell, k in enumerate(z_H)])
    positions = np.empty((N, dim))
    velocities = np.empty((N, dim))
    for ell in range(L):
        idx = np.where(z_B == ell)[0]
        if idx.size == 0:
            continue
        positions[idx] = mvn_sample(mu_B[ell], Sigma_B[ell], rng, size=idx.size)
        velocities[idx] = mvn_sample(vel[ell], Sigma_V[ell], rng, size=idx.size)
    base_seed = int(seed) if not isinstance(seed, np.random.Generator) else 0
    state = ModelState(
        dim=dim, mu_B=mu_B, Sigma_B=Sigma_B, vel=vel, Sigma_V=Sigma_V, pi_B=pi_B,
        mu_H=mu_H, Sigma_H=Sigma_H, rot=rot, trans=trans, pi_H=pi_H,
        z_B=z_B, z_H=z_H, rng=RngState(base_seed))
    return state, Observations(positions, velocities)


def ref_resample_observations(state, hyper, rng):
    z = state.z_B
    N, dim = z.shape[0], state.dim
    positions = np.empty((N, dim))
    velocities = np.empty((N, dim))
    for ell in range(state.L):
        idx = np.where(z == ell)[0]
        if idx.size == 0:
            continue
        positions[idx] = mvn_sample(state.mu_B[ell], state.Sigma_B[ell], rng, size=idx.size)
        velocities[idx] = mvn_sample(state.vel[ell], state.Sigma_V[ell], rng, size=idx.size)
    features = None
    if state.feat is not None and hyper.sigma2_F is not None:
        F = state.feat.shape[1]
        features = state.feat[z] + np.sqrt(hyper.sigma2_F) * rng.standard_normal((N, F))
    return Observations(positions, velocities, features)


# (K, L, N): criterion-2 size, L = K, empty particles (N < L), one of each,
# and a larger draw
FORWARD_SIZES = [(2, 4, 16), (3, 3, 20), (2, 8, 4), (1, 1, 1), (3, 30, 300)]


def assert_bitwise(got, want, names):
    for name in names:
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape, name
        np.testing.assert_array_equal(g, w, err_msg=name, strict=True)


# labels, the transforms they pick and the Dirichlet weights: equal bit for bit
LABEL_ARRAYS = ("z_B", "z_H", "rot", "trans", "pi_B", "pi_H")
CONTINUOUS_ARRAYS = ("mu_B", "Sigma_B", "vel", "Sigma_V", "mu_H", "Sigma_H")


def assert_forward_matches(got, want):
    (gs, go), (ws, wo) = got, want
    assert_bitwise(gs, ws, LABEL_ARRAYS)
    for g, w, names in ((gs, ws, CONTINUOUS_ARRAYS), (go, wo, ("positions", "velocities"))):
        for name in names:
            np.testing.assert_allclose(getattr(g, name), getattr(w, name), rtol=1e-10,
                                       atol=1e-10, err_msg=name, strict=True)
    assert gs.rng == ws.rng


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("K,L,N", FORWARD_SIZES)
def test_forward_matches_loop_bitwise(dim, K, L, N):
    hyper = default_check_hyper(dim)
    cands = make_transform_candidates(dim, hyper)
    for seed in range(4):
        # an int seed, and a Generator whose final position must match too
        assert_forward_matches(sample_forward(hyper, K, L, N, seed, candidates=cands),
                               ref_sample_forward(hyper, K, L, N, seed, cands))
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_forward_matches(sample_forward(hyper, K, L, N, rng_got, candidates=cands),
                               ref_sample_forward(hyper, K, L, N, rng_want, cands))
        assert rng_got.bit_generator.state == rng_want.bit_generator.state


def test_forward_matches_loop_with_empty_particles_and_skewed_priors():
    # small Dirichlet concentrations leave particles empty and weights tiny
    hyper = diag_hyper(2, alpha=0.3, beta=0.2)
    cands = make_transform_candidates(2, hyper, M_r=9, M_t=9)
    empties = 0
    for seed in range(20):
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_forward(hyper, 3, 10, 12, rng_got, candidates=cands)
        assert_forward_matches(got, ref_sample_forward(hyper, 3, 10, 12, rng_want, cands))
        assert rng_got.bit_generator.state == rng_want.bit_generator.state
        empties += 10 - len(np.unique(got[0].z_B))
    assert empties > 0


LATENT_FIELDS = ("pi_H", "pi_B", "Sigma_H", "Sigma_B", "Sigma_V", "mu_H", "rot", "trans",
                 "z_H", "z_B", "mu_B", "vel")


# criterion-2 size, K = 1, L = K and N = 1 (with L > N, so particles go empty)
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("K,L,N", [(2, 4, 16), (1, 3, 5), (3, 3, 20), (2, 4, 1), (1, 1, 1)])
def test_latent_stack_equals_single_draws(dim, K, L, N):
    # R draws in one stack equal R sample_forward draws bit for bit, field by
    # field, and leave each generator where that draw's points begin
    hyper = default_check_hyper(dim)
    cands = make_transform_candidates(dim, hyper)
    R = 9
    rngs = [substream(5, FORWARD, r) for r in range(R)]
    stack = LatentStack.sample(hyper, K, L, N, rngs, cands)
    for r, rng in enumerate(rngs):
        state, obs = sample_forward(hyper, K, L, N, substream(5, FORWARD, r), cands)
        for name in LATENT_FIELDS:
            np.testing.assert_array_equal(getattr(stack, name)[r], getattr(state, name),
                                          err_msg=name, strict=True)
        points = _draw_points(stack.z_B[r], stack.mu_B[r], stack.Sigma_B[r], stack.vel[r],
                              stack.Sigma_V[r], rng)
        np.testing.assert_array_equal(points[0], obs.positions, strict=True)
        np.testing.assert_array_equal(points[1], obs.velocities, strict=True)


def test_latent_stack_equals_single_draws_with_skewed_priors():
    # small Dirichlet concentrations: empty particles, tiny and zero log weights
    hyper = diag_hyper(2, alpha=0.3, beta=0.2)
    cands = make_transform_candidates(2, hyper, M_r=9, M_t=9)
    stack = LatentStack.sample(hyper, 3, 10, 12, [np.random.default_rng(s) for s in range(20)],
                               cands)
    for seed in range(20):
        state, _ = sample_forward(hyper, 3, 10, 12, np.random.default_rng(seed), cands)
        for name in LATENT_FIELDS:
            np.testing.assert_array_equal(getattr(stack, name)[seed], getattr(state, name),
                                          err_msg=name, strict=True)


def z_scores(samples, expected, se=None):
    """z-scores of the column means of ``samples`` (n, ...) against ``expected``;
    the standard error is the sample one unless ``se`` gives it."""
    expected = np.broadcast_to(expected, samples.shape[1:]).ravel()
    samples = samples.reshape(len(samples), -1)
    if se is None:
        se = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
    return (samples.mean(axis=0) - expected) / se


@pytest.mark.parametrize("dim", [2, 3])
def test_forward_draws_match_prior_moments(dim):
    # 4,000 draws at criterion-2 size against the prior's closed-form moments:
    # IW means Psi / (nu - D - 1), the Gaussian mean and covariance of mu_H,
    # Dirichlet means, and the candidate priors' index frequencies (with their
    # binomial standard errors) and mean log prior.
    hyper = default_check_hyper(dim)
    K, L, N, draws = 2, 4, 16, 4000
    cands = make_transform_candidates(dim, hyper)
    rng = np.random.default_rng(dim)
    states = [_sample_forward(hyper, K, L, N, rng, cands)[0] for _ in range(draws)]

    def stack(name):
        return np.stack([getattr(s, name) for s in states])

    z = [z_scores(stack(name), inverse_wishart_mean(psi, nu))
         for name, psi, nu in (("Sigma_H", hyper.Psi_H, hyper.nu_H),
                               ("Sigma_B", hyper.Psi_B, hyper.nu_B),
                               ("Sigma_V", hyper.Psi_V, hyper.nu_V))]
    offsets = stack("mu_H") - hyper.mu_H_prior
    z.append(z_scores(offsets, 0.0))
    z.append(z_scores(offsets[..., :, None] * offsets[..., None, :],
                      hyper.sigma2_mu_H * np.eye(dim)))
    for name, conc in (("pi_H", hyper.alpha_vec(K)), ("pi_B", hyper.beta_vec(L))):
        z.append(z_scores(stack(name), conc / conc.sum()))
    for name, grid, log_prior in (("rot", cands.rotations, cands.rotation_log_prior),
                                  ("trans", cands.translations,
                                   cands.translation_log_prior)):
        values = stack(name).reshape(draws * K, 1, -1)
        index = np.all(values == grid.reshape(1, len(grid), -1), axis=2)
        assert np.all(index.sum(axis=1) == 1)
        p = np.exp(log_prior)
        z.append(z_scores(index, p, np.sqrt(p * (1 - p) / len(index))))
        # the mean log prior of the drawn candidates, which a flatter or a
        # sharper prior moves even where each cell's count stays within noise
        z.append(z_scores(index @ log_prior, p @ log_prior))
    z = np.concatenate(z)
    assert np.all(np.isfinite(z))
    assert np.abs(z).max() < 5.0


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("with_features", [False, True])
def test_resample_observations_matches_loop_bitwise(dim, with_features):
    hyper = default_check_hyper(dim)
    if with_features:
        hyper = hyper.replace(sigma2_F=0.3)
    for seed, (K, L, N) in enumerate(FORWARD_SIZES):
        state, _ = sample_forward(hyper, K, L, N, seed)
        if with_features:
            state = state.replace(feat=np.random.default_rng(seed).standard_normal((L, 2)))
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        got = resample_observations(state, hyper, rng_got)
        want = ref_resample_observations(state, hyper, rng_want)
        assert rng_got.bit_generator.state == rng_want.bit_generator.state
        assert_bitwise(got, want, ("positions", "velocities"))
        assert (got.features is None) == (not with_features)
        if with_features:
            np.testing.assert_array_equal(got.features, want.features, strict=True)


def test_spd_inverse_and_iw_draw_raise_on_singular_or_nonfinite_factor():
    rng = np.random.default_rng(0)
    for bad in (np.diag([np.inf, 1.0]), np.diag([np.nan, 1.0])):
        with pytest.raises(ValueError, match="infs or NaNs"):
            spd_inverse(bad)
        with pytest.raises(ValueError, match="infs or NaNs"):
            inverse_wishart_sample(bad, 5.0, rng)
        with pytest.raises(ValueError, match="infs or NaNs"):
            inverse_wishart_sample(bad, 5.0, rng, size=3)
    for draw in (spd_inverse, lambda m: inverse_wishart_sample(m, 5.0, rng)):
        with pytest.raises(NumericalDomainError):
            draw(np.zeros((2, 2)))


# -- state labels and the package namespace -----------------------------------------

@pytest.mark.parametrize("labels,message", [
    ({"z_B": [0, 4, 1]}, r"z_B entries must lie in \[0, L\]"),       # L = 3
    ({"z_B": [0, -1, 1]}, r"z_B entries must lie in \[0, L\]"),
    ({"z_H": [0, 2, 1]}, r"z_H entries must lie in \[0, K\)"),       # K = 2
    ({"z_H": [0, -1, 1]}, r"z_H entries must lie in \[0, K\)"),
    ({"z_B": [[0, 1], [2, 3]]}, r"z_B must have shape \(N,\)"),
    ({"z_H": [0, 1]}, r"z_H must have shape \(3,\)"),
], ids=["z_B-above-L", "z_B-negative", "z_H-at-K", "z_H-negative", "z_B-2d", "z_H-short"])
def test_model_state_rejects_bad_labels(labels, message):
    state, _ = sample_forward(diag_hyper(2), K=2, L=3, N=6, seed=0)
    with pytest.raises(ValidationError, match=message):
        state.replace(**labels)


def test_model_state_labels_are_int64_and_L_marks_an_outlier():
    state, _ = sample_forward(diag_hyper(2), K=2, L=3, N=6, seed=0)
    got = state.replace(z_B=[0, 3, 3], z_H=np.array([1, 0, 1], dtype=np.int32))
    assert got.z_B.dtype == got.z_H.dtype == np.int64
    assert got.N == 3 and got.outlier_index == 3


def test_star_import_resolves_every_public_name():
    import mattertrack

    namespace: dict = {}
    exec("from mattertrack import *", namespace)
    assert set(mattertrack.__all__) <= set(namespace)
