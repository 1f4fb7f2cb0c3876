"""Equivalence of the batched Gibbs kernels with per-component loops.

The reference functions below are the earlier loop implementations: one
Python iteration per particle, cluster or transform candidate, built from the
single-matrix distribution helpers.  Each batched step must reproduce them
under the same ``np.random.default_rng(seed)``: equal labels and candidate
indices, continuous outputs within 1e-10, and the stream left at the same
position.  That pins the draw-order contract of ``mattertrack.gibbs``.
"""
import numpy as np
import pytest

from mattertrack import gibbs
from mattertrack.distributions import (
    categorical_sample,
    categorical_sample_rows,
    dirichlet_sample,
    gamma_logpdf,
    inverse_wishart_sample,
    isotropic_logpdf_rows,
    make_transform_candidates,
    moments_from_precision,
    mvn_logpdf_rows,
    mvn_sample,
    spd_inverse,
)
from mattertrack.model import induced_velocities, sample_forward
from mattertrack.rng import SWEEP
from mattertrack.types import Assignments, Observations

from conftest import diag_hyper

TOL = dict(rtol=1e-10, atol=1e-10)


# ---------------------------------------------------------------------------
# per-component reference implementations
# ---------------------------------------------------------------------------

def ref_point_log_probs(state, obs, hyper, position_only=False, include_outlier=False,
                        use_features=False):
    with np.errstate(divide="ignore"):
        log_pi = np.log(state.pi_B)

    def column(ell):
        ll = mvn_logpdf_rows(obs.positions, state.mu_B[ell], state.Sigma_B[ell])
        if not position_only:
            ll = ll + mvn_logpdf_rows(obs.velocities, state.vel[ell], state.Sigma_V[ell])
            if use_features:
                ll = ll + isotropic_logpdf_rows(obs.features, state.feat[ell], hyper.sigma2_F)
        return log_pi[ell] + ll

    scores = np.column_stack([column(ell) for ell in range(state.L)])
    if include_outlier and hyper.p_outlier > 0:
        scores = scores + np.log1p(-hyper.p_outlier)
        speeds = np.linalg.norm(obs.velocities, axis=1)
        out_col = np.log(hyper.p_outlier) + gamma_logpdf(
            speeds, hyper.outlier_gamma_shape, hyper.outlier_gamma_rate)
        scores = np.column_stack([scores, out_col])
    return scores


def ref_assign_points(state, obs, hyper, rng, **kw):
    return categorical_sample_rows(ref_point_log_probs(state, obs, hyper, **kw), rng)


def ref_particle_weights(state, hyper, rng):
    z = state.z_B
    return dirichlet_sample(hyper.beta_vec(state.L) + np.bincount(z[z < state.L],
                                                                  minlength=state.L), rng)


def ref_cluster_weights(state, hyper, rng):
    return dirichlet_sample(hyper.alpha_vec(state.K) + np.bincount(state.z_H,
                                                                   minlength=state.K), rng)


def ref_particle_mean_conditional(state, obs, hyper, ell):
    d = state.dim
    k = state.z_H[ell]
    A = state.rot[k] - np.eye(d)
    b = state.trans[k] - A @ state.mu_H[k]
    inv_sh = spd_inverse(state.Sigma_H[k])
    inv_sb = spd_inverse(state.Sigma_B[ell])
    mask = state.z_B == ell
    n_ell = int(mask.sum())
    sum_x = obs.positions[mask].sum(axis=0) if n_ell else np.zeros(d)
    precision = inv_sh + n_ell * inv_sb + (A.T @ A) / hyper.sigma2_V
    m_vec = inv_sh @ state.mu_H[k] + inv_sb @ sum_x + A.T @ (state.vel[ell] - b) / hyper.sigma2_V
    return moments_from_precision(m_vec, precision)


def ref_velocity_mean_conditional(state, obs, hyper, ell):
    d = state.dim
    k = state.z_H[ell]
    vbar = induced_velocities(state.rot[k], state.trans[k], state.mu_H[k],
                              state.mu_B[ell][None])[0]
    inv_sv = spd_inverse(state.Sigma_V[ell])
    mask = state.z_B == ell
    n_ell = int(mask.sum())
    sum_v = obs.velocities[mask].sum(axis=0) if n_ell else np.zeros(d)
    precision = np.eye(d) / hyper.sigma2_V + n_ell * inv_sv
    m_vec = vbar / hyper.sigma2_V + inv_sv @ sum_v
    return moments_from_precision(m_vec, precision)


def ref_cluster_mean_conditional(state, hyper, k):
    d = state.dim
    A = np.eye(d) - state.rot[k]
    mask = state.z_H == k
    n_k = int(mask.sum())
    inv_sh = spd_inverse(state.Sigma_H[k])
    sum_mu = state.mu_B[mask].sum(axis=0) if n_k else np.zeros(d)
    if n_k:
        b = state.trans[k] - state.mu_B[mask] @ A.T
        resid_sum = (state.vel[mask] - b).sum(axis=0)
    else:
        resid_sum = np.zeros(d)
    precision = np.eye(d) / hyper.sigma2_mu_H + n_k * (inv_sh + (A.T @ A) / hyper.sigma2_V)
    m_vec = (hyper.mu_H_prior / hyper.sigma2_mu_H + inv_sh @ sum_mu
             + A.T @ resid_sum / hyper.sigma2_V)
    return moments_from_precision(m_vec, precision)


def ref_scatter_posterior(z, idx, values, center, psi, nu):
    mask = z == idx
    diff = values[mask] - center
    return psi + diff.T @ diff, nu + int(mask.sum())


def ref_particle_cov_posterior(state, obs, hyper, ell):
    return ref_scatter_posterior(state.z_B, ell, obs.positions, state.mu_B[ell],
                                 hyper.Psi_B, hyper.nu_B)


def ref_velocity_cov_posterior(state, obs, hyper, ell):
    return ref_scatter_posterior(state.z_B, ell, obs.velocities, state.vel[ell],
                                 hyper.Psi_V, hyper.nu_V)


def ref_cluster_cov_posterior(state, hyper, k):
    return ref_scatter_posterior(state.z_H, k, state.mu_B, state.mu_H[k],
                                 hyper.Psi_H, hyper.nu_H)


def ref_gaussian_draws(conds, rng):
    return np.stack([mvn_sample(mean, cov, rng) for mean, cov in conds])


def ref_iw_draws(posteriors, rng):
    return np.stack([inverse_wishart_sample(psi, nu, rng) for psi, nu in posteriors])


def ref_particle_features(state, obs):
    z = state.z_B
    counts = np.bincount(z[z < state.L], minlength=state.L)
    sums = np.zeros((state.L, obs.features.shape[1]))
    mask = z < state.L
    np.add.at(sums, z[mask], obs.features[mask])
    out = state.feat.copy()
    nonzero = counts > 0
    out[nonzero] = sums[nonzero] / counts[nonzero, None]
    return out


def ref_cluster_log_probs(state, hyper):
    with np.errstate(divide="ignore"):
        log_pi = np.log(state.pi_H)

    def column(k):
        spatial = mvn_logpdf_rows(state.mu_B, state.mu_H[k], state.Sigma_H[k])
        vbar = induced_velocities(state.rot[k], state.trans[k], state.mu_H[k], state.mu_B)
        velocity = isotropic_logpdf_rows(state.vel, vbar, hyper.sigma2_V)
        return log_pi[k] + spatial + velocity

    return np.column_stack([column(k) for k in range(state.K)])


def ref_rotation_log_probs(state, hyper, candidates, k):
    mask = state.z_H == k
    if not np.any(mask):
        return candidates.rotation_log_prior.copy()
    offsets = state.mu_B[mask] - state.mu_H[k]
    vel = state.vel[mask]
    eye = np.eye(state.dim)
    loglik = np.array([
        isotropic_logpdf_rows(vel, state.trans[k] + offsets @ (R - eye).T,
                              hyper.sigma2_V).sum()
        for R in candidates.rotations])
    return candidates.rotation_log_prior + loglik


def ref_translation_log_probs(state, hyper, candidates, k):
    mask = state.z_H == k
    if not np.any(mask):
        return candidates.translation_log_prior.copy()
    offsets = state.mu_B[mask] - state.mu_H[k]
    rotated = offsets @ (state.rot[k] - np.eye(state.dim)).T
    vel = state.vel[mask]
    loglik = np.array([isotropic_logpdf_rows(vel, t + rotated, hyper.sigma2_V).sum()
                       for t in candidates.translations])
    return candidates.translation_log_prior + loglik


def ref_transform_indices(log_probs, state, hyper, candidates, rng):
    return [categorical_sample(log_probs(state, hyper, candidates, k), rng)
            for k in range(state.K)]


def ref_apply_step(name, state, obs, hyper, candidates, rng):
    L, K = state.L, state.K
    if name == gibbs.ASSIGN_POINTS:
        z = ref_assign_points(state, obs, hyper, rng, include_outlier=True, use_features=True)
        return state.replace(assignments=Assignments(z, state.z_H))
    if name == gibbs.ASSIGN_POINTS_SPATIAL:
        z = ref_assign_points(state, obs, hyper, rng, position_only=True)
        return state.replace(assignments=Assignments(z, state.z_H))
    if name == gibbs.PARTICLE_WEIGHTS:
        return state.replace(pi_B=ref_particle_weights(state, hyper, rng))
    if name == gibbs.PARTICLE_MEANS:
        conds = [ref_particle_mean_conditional(state, obs, hyper, ell) for ell in range(L)]
        return state.replace(mu_B=ref_gaussian_draws(conds, rng))
    if name == gibbs.PARTICLE_COVS:
        posts = [ref_particle_cov_posterior(state, obs, hyper, ell) for ell in range(L)]
        return state.replace(Sigma_B=ref_iw_draws(posts, rng))
    if name == gibbs.PARTICLE_VELOCITIES:
        conds = [ref_velocity_mean_conditional(state, obs, hyper, ell) for ell in range(L)]
        return state.replace(vel=ref_gaussian_draws(conds, rng))
    if name == gibbs.PARTICLE_VELOCITY_COVS:
        posts = [ref_velocity_cov_posterior(state, obs, hyper, ell) for ell in range(L)]
        return state.replace(Sigma_V=ref_iw_draws(posts, rng))
    if name == gibbs.PARTICLE_FEATURES:
        return state.replace(feat=ref_particle_features(state, obs))
    if name == gibbs.ASSIGN_PARTICLES:
        z_h = categorical_sample_rows(ref_cluster_log_probs(state, hyper), rng)
        return state.replace(assignments=Assignments(state.z_B, z_h))
    if name == gibbs.CLUSTER_WEIGHTS:
        return state.replace(pi_H=ref_cluster_weights(state, hyper, rng))
    if name == gibbs.CLUSTER_MEANS:
        conds = [ref_cluster_mean_conditional(state, hyper, k) for k in range(K)]
        return state.replace(mu_H=ref_gaussian_draws(conds, rng))
    if name == gibbs.CLUSTER_COVS:
        posts = [ref_cluster_cov_posterior(state, hyper, k) for k in range(K)]
        return state.replace(Sigma_H=ref_iw_draws(posts, rng))
    if name == gibbs.CLUSTER_ROTATIONS:
        idx = ref_transform_indices(ref_rotation_log_probs, state, hyper, candidates, rng)
        return state.replace(rot=candidates.rotations[idx])
    if name == gibbs.CLUSTER_TRANSLATIONS:
        idx = ref_transform_indices(ref_translation_log_probs, state, hyper, candidates, rng)
        return state.replace(trans=candidates.translations[idx])
    raise AssertionError(name)


# ---------------------------------------------------------------------------
# scenes
# ---------------------------------------------------------------------------

EMPTY_PARTICLE = 2
EMPTY_CLUSTER = 2   # of K = 3


def scene(dim, seed=0):
    """Forward-sampled state with outliers, features, an empty particle and an
    empty cluster."""
    hyper = diag_hyper(dim, sigma2_V=0.05, sigma2_F=0.3, p_outlier=0.1,
                       outlier_gamma_shape=2.0, outlier_gamma_rate=1.5)
    cands = make_transform_candidates(dim, hyper, M_r=17, M_t=5 ** dim)
    state, obs = sample_forward(hyper.replace(p_outlier=0.0), K=3, L=8, N=150,
                                seed=seed, candidates=cands)
    rng = np.random.default_rng(100 + seed)
    z_B = state.z_B.copy()
    z_B[z_B == EMPTY_PARTICLE] = 0
    z_B[rng.random(z_B.size) < 0.08] = state.L          # outlier sentinel
    z_H = state.z_H.copy()
    z_H[z_H == EMPTY_CLUSTER] = 0
    z_H[:2] = (0, 1)                                     # clusters 0 and 1 stay occupied
    F = 3
    feat = rng.standard_normal((state.L, F))
    features = feat[np.minimum(z_B, state.L - 1)] + 0.5 * rng.standard_normal((len(obs), F))
    state = state.replace(assignments=Assignments(z_B, z_H), feat=feat)
    obs = Observations(obs.positions, obs.velocities, features)
    return state, obs, hyper, cands


def batched_step(name, state, obs, hyper, cands, rng):
    schedule = gibbs.full_sweep_schedule(enable_outliers=True, enable_features=True)
    return gibbs._apply_step(name, state, obs, hyper, schedule, cands, rng)


FIELDS = ("mu_B", "Sigma_B", "vel", "Sigma_V", "pi_B", "mu_H", "Sigma_H", "rot", "trans",
          "pi_H", "feat")


def assert_states_match(a, b):
    np.testing.assert_array_equal(a.z_B, b.z_B)
    np.testing.assert_array_equal(a.z_H, b.z_H)
    for name in FIELDS:
        np.testing.assert_allclose(getattr(a, name), getattr(b, name), **TOL, err_msg=name)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [2, 3])
def test_scene_has_empty_components(dim):
    state, obs, _, _ = scene(dim)
    assert not np.any(state.z_B == EMPTY_PARTICLE)
    assert np.any(state.z_B == state.L)
    assert not np.any(state.z_H == EMPTY_CLUSTER)
    assert obs.features is not None and state.feat is not None


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", gibbs.STEP_IDS)
def test_batched_step_matches_loop(dim, name):
    state, obs, hyper, cands = scene(dim, seed=dim)
    for seed in range(3):
        rng_b, rng_r = np.random.default_rng(seed), np.random.default_rng(seed)
        got = batched_step(name, state, obs, hyper, cands, rng_b)
        want = ref_apply_step(name, state, obs, hyper, cands, rng_r)
        assert_states_match(got, want)
        # same number of variates taken from the stream
        assert rng_b.random() == rng_r.random()


@pytest.mark.parametrize("dim", [2, 3])
def test_batched_scores_match_loop(dim):
    state, obs, hyper, cands = scene(dim, seed=10 + dim)
    for kw in ({}, {"position_only": True},
               {"include_outlier": True, "use_features": True}):
        np.testing.assert_allclose(gibbs.point_assignment_log_probs(state, obs, hyper, **kw),
                                   ref_point_log_probs(state, obs, hyper, **kw), **TOL)
    np.testing.assert_allclose(gibbs.cluster_assignment_log_probs(state, hyper),
                               ref_cluster_log_probs(state, hyper), **TOL)
    for k in range(state.K):
        np.testing.assert_allclose(gibbs.rotation_log_probs(state, hyper, cands, k),
                                   ref_rotation_log_probs(state, hyper, cands, k), **TOL)
        np.testing.assert_allclose(gibbs.translation_log_probs(state, hyper, cands, k),
                                   ref_translation_log_probs(state, hyper, cands, k), **TOL)


@pytest.mark.parametrize("dim", [2, 3])
def test_component_oracles_match_loop(dim):
    state, obs, hyper, _ = scene(dim, seed=20 + dim)
    pairs = []
    for ell in range(state.L):
        pairs += [
            (gibbs.particle_mean_conditional(state, obs, hyper, ell),
             ref_particle_mean_conditional(state, obs, hyper, ell)),
            (gibbs.velocity_mean_conditional(state, obs, hyper, ell),
             ref_velocity_mean_conditional(state, obs, hyper, ell)),
            (gibbs.particle_cov_posterior(state, obs, hyper, ell),
             ref_particle_cov_posterior(state, obs, hyper, ell)),
            (gibbs.velocity_cov_posterior(state, obs, hyper, ell),
             ref_velocity_cov_posterior(state, obs, hyper, ell)),
        ]
    for k in range(state.K):
        pairs += [(gibbs.cluster_mean_conditional(state, hyper, k),
                   ref_cluster_mean_conditional(state, hyper, k)),
                  (gibbs.cluster_cov_posterior(state, hyper, k),
                   ref_cluster_cov_posterior(state, hyper, k))]
    for got, want in pairs:
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, **TOL)


@pytest.mark.parametrize("dim", [2, 3])
def test_batched_sweeps_match_loop(dim):
    # the tracking order runs every step but features; features are appended
    state, obs, hyper, cands = scene(dim, seed=30 + dim)
    names = gibbs.tracking_frame_schedule().flatten() + (gibbs.PARTICLE_FEATURES,)
    schedule = gibbs.SweepSchedule(steps=tuple(gibbs.Step(n) for n in names),
                                   enable_outliers=True, enable_features=True)
    got = want = state
    for _ in range(3):
        got = gibbs.sweep(got, obs, hyper, schedule, cands)
        for pos, name in enumerate(names):
            rng = want.rng.stream(SWEEP, gibbs._STEP_INDEX[name], pos)
            want = ref_apply_step(name, want, obs, hyper, cands, rng)
        want = want.replace(rng=want.rng.tick())
        assert_states_match(got, want)
