"""Equivalence of the batched Gibbs kernels with per-component loops.

The reference functions below are the earlier loop implementations: one
Python iteration per particle, cluster or transform candidate, built from the
single-matrix distribution helpers.  Each batched step must reproduce them
under the same ``np.random.default_rng(seed)``: equal labels and candidate
indices, continuous outputs within 1e-10, and the stream left at the same
position.  That pins the draw-order contract of ``mattertrack.gibbs``; the
inverse-Wishart reference (``conftest.ref_iw_draws``) takes its Bartlett
variates in that contract's stacked order, one scalar at a time.
The blocked point-assignment draw must equal the one-shot draw over the
whole score matrix, label for label, and the column-major draw and score
blocks the row-major ones, bit for bit.  The transform steps' row kernel,
``categorical_sample_wide_rows``, must equal one ``categorical_sample`` call
per cluster, and a sweep whose steps share covariance factors must equal one
whose steps each factor for themselves, bit for bit.
"""
import copy
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from mattertrack import distributions, gibbs
from mattertrack.distributions import (
    TransformCandidates,
    _categorical_sample_columns,
    categorical_sample,
    categorical_sample_rows,
    categorical_sample_wide_rows,
    dirichlet_sample,
    gamma_logpdf,
    isotropic_logpdf_rows,
    make_transform_candidates,
    moments_from_precision,
    mvn_logpdf_rows,
    mvn_sample,
    spd_inverse,
)
from mattertrack.model import induced_velocities, sample_forward
from mattertrack.rng import SWEEP
from mattertrack.tracker import TrackConfig
from mattertrack.types import Assignments, Observations, ValidationError

from conftest import diag_hyper, ref_iw_draws

TOL = dict(rtol=1e-10, atol=1e-10)


# ---------------------------------------------------------------------------
# per-component reference implementations
# ---------------------------------------------------------------------------

def ref_point_log_probs(state, obs, hyper, position_only=False):
    with np.errstate(divide="ignore"):
        log_pi = np.log(state.pi_B)
    use_features = (obs.features is not None and state.feat is not None
                    and hyper.sigma2_F is not None)

    def column(ell):
        ll = mvn_logpdf_rows(obs.positions, state.mu_B[ell], state.Sigma_B[ell])
        if not position_only:
            ll = ll + mvn_logpdf_rows(obs.velocities, state.vel[ell], state.Sigma_V[ell])
            if use_features:
                ll = ll + isotropic_logpdf_rows(obs.features, state.feat[ell], hyper.sigma2_F)
        return log_pi[ell] + ll

    scores = np.column_stack([column(ell) for ell in range(state.L)])
    if not position_only and hyper.p_outlier > 0:
        scores = scores + np.log1p(-hyper.p_outlier)
        speeds = np.linalg.norm(obs.velocities, axis=1)
        out_col = np.log(hyper.p_outlier) + gamma_logpdf(
            speeds, hyper.outlier_gamma_shape, hyper.outlier_gamma_rate)
        scores = np.column_stack([scores, out_col])
    return scores


def ref_categorical_sample_rows(log_weights, rng):
    """The row-major draw: shift by the row maximum, flush terms below
    exp(-707) to 0, a row ``cumsum``, and the first column at or above u."""
    m = log_weights.max(axis=1, keepdims=True)
    if not np.isfinite(m).all():
        raise ValidationError("no admissible component: a row has all -inf weights")
    c = log_weights - m
    keep = c >= -707.0
    np.maximum(c, -707.0, out=c)
    np.exp(c, out=c)
    c *= keep
    c.cumsum(axis=1, out=c)
    u = rng.random((len(c), 1)) * c[:, -1:]
    return (c >= u).argmax(axis=1).astype(np.int64)


def ref_assign_points(state, obs, hyper, rng, **kw):
    return ref_categorical_sample_rows(ref_point_log_probs(state, obs, hyper, **kw), rng)


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
        z = ref_assign_points(state, obs, hyper, rng)
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
    work = copy.copy(state)
    gibbs._apply_step(name, work, obs, hyper, cands, rng)
    return work.replace()


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
    for variant in ASSIGN_VARIANTS:
        h, kw = variant_inputs(hyper, **variant)
        np.testing.assert_allclose(gibbs.point_assignment_log_probs(state, obs, h, **kw),
                                   ref_point_log_probs(state, obs, h, **kw), **TOL)
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
    schedule = gibbs.SweepSchedule(steps=tuple(gibbs.Step(n) for n in names))
    got = want = state
    for _ in range(3):
        got = gibbs.sweep(got, obs, hyper, schedule, cands)
        # every step draws from the sweep's one stream, in schedule order
        rng = want.rng.stream(SWEEP)
        for name in names:
            want = ref_apply_step(name, want, obs, hyper, cands, rng)
        want = want.replace(rng=want.rng.tick())
        assert_states_match(got, want)


# ---------------------------------------------------------------------------
# blocked point assignment
# ---------------------------------------------------------------------------

def wide_scene(dim, L, N, seed=0, K=3):
    """A forward-sampled state with features and an outlier component; the
    scores do not read z_B, so any prefix of ``obs`` is a valid input."""
    hyper = diag_hyper(dim, sigma2_V=0.05, sigma2_F=0.3, p_outlier=0.1,
                       outlier_gamma_shape=2.0, outlier_gamma_rate=1.5)
    state, obs = sample_forward(hyper.replace(p_outlier=0.0), K=K, L=L, N=N, seed=seed)
    rng = np.random.default_rng(200 + seed)
    feat = rng.standard_normal((L, 2))
    features = feat[state.z_B] + 0.5 * rng.standard_normal((N, 2))
    return (state.replace(feat=feat), Observations(obs.positions, obs.velocities, features),
            hyper)


# the terms a variant scores: position only, positions and velocities, or
# those with the outlier component and features
ASSIGN_VARIANTS = [{"position_only": True}, {},
                   {"include_outlier": True, "use_features": True}]


def variant_inputs(hyper, position_only=False, include_outlier=False, use_features=False):
    """The hyperparameters and keywords of an assignment variant.  The scores
    take the outlier and feature terms from the model, so ``hyper`` loses the
    terms the variant leaves out."""
    hyper = hyper.replace(p_outlier=hyper.p_outlier if include_outlier else 0.0,
                          sigma2_F=hyper.sigma2_F if use_features else None)
    return hyper, {"position_only": position_only}


def assert_blocked_draw_matches_one_shot(state, obs, hyper, seed, **variant):
    hyper, kw = variant_inputs(hyper, **variant)
    rng_b, rng_o = np.random.default_rng(seed), np.random.default_rng(seed)
    got = gibbs.assign_points_to_particles(state, obs, hyper, rng_b, **kw)
    want = categorical_sample_rows(
        gibbs.point_assignment_log_probs(state, obs, hyper, **kw), rng_o)
    np.testing.assert_array_equal(got, want)
    assert rng_b.bit_generator.state == rng_o.bit_generator.state


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kw", ASSIGN_VARIANTS)
def test_blocked_assignment_matches_one_shot_draw(dim, kw, monkeypatch):
    # small blocks, so that every block boundary case takes few points
    monkeypatch.setattr(gibbs, "_ASSIGN_BLOCK_ENTRIES", 200)
    L = 8
    rows = 200 // (L + 1 if kw.get("include_outlier") else L)
    state, obs, hyper = wide_scene(dim, L, 4 * rows + 3, seed=dim)
    for n in (1, rows - 1, rows, rows + 1, 4 * rows + 3):
        assert_blocked_draw_matches_one_shot(state, obs.take(np.arange(n)), hyper,
                                             seed=n, **kw)


@pytest.mark.parametrize("kw", ASSIGN_VARIANTS)
def test_blocked_assignment_matches_one_shot_draw_at_block_size(kw):
    L = 64
    rows = gibbs._ASSIGN_BLOCK_ENTRIES // (L + 1 if kw.get("include_outlier") else L)
    state, obs, hyper = wide_scene(2, L, 2 * rows + 1, seed=5)
    for n in (rows, rows + 1, 2 * rows + 1):
        assert_blocked_draw_matches_one_shot(state, obs.take(np.arange(n)), hyper,
                                             seed=n, **kw)


def test_blocked_assignment_peak_memory_below_one_score_matrix():
    N, L = 20_000, 100
    state, obs, hyper = wide_scene(2, L, N)
    tracemalloc.start()
    try:
        gibbs.assign_points_to_particles(state, obs, hyper, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < N * L * 8


SHIFT = 1e4


@pytest.mark.parametrize("dim", [2, 3])
def test_scores_match_loop_far_from_the_origin(dim):
    # the expanded scores centre every term at the mean of its component
    # means, so a scene moved far from the origin rounds like one near it;
    # positions and velocities move with every mean of their kind (trans is
    # a velocity too, so the rigid-motion residuals stay put)
    state, obs, hyper, _ = scene(dim, seed=40 + dim)
    state = state.replace(mu_B=state.mu_B + SHIFT, vel=state.vel + SHIFT,
                          mu_H=state.mu_H + SHIFT, trans=state.trans + SHIFT)
    obs = Observations(obs.positions + SHIFT, obs.velocities + SHIFT, obs.features)
    for variant in ASSIGN_VARIANTS:
        h, kw = variant_inputs(hyper, **variant)
        np.testing.assert_allclose(gibbs.point_assignment_log_probs(state, obs, h, **kw),
                                   ref_point_log_probs(state, obs, h, **kw), **TOL)
    np.testing.assert_allclose(gibbs.cluster_assignment_log_probs(state, hyper),
                               ref_cluster_log_probs(state, hyper), **TOL)


@pytest.mark.parametrize("L", [1, 8])
@pytest.mark.parametrize("kw", ASSIGN_VARIANTS)
def test_assignment_of_an_empty_frame_draws_nothing(L, kw):
    state, obs, hyper = wide_scene(2, L, 20, K=1)
    hyper, kw = variant_inputs(hyper, **kw)
    empty = obs.take(np.arange(0))
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        labels = gibbs.assign_points_to_particles(state, empty, hyper, rng, **kw)
    assert labels.dtype == np.int64 and labels.shape == (0,)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("kw", ASSIGN_VARIANTS)
def test_assignment_with_one_particle(kw):
    state, obs, hyper = wide_scene(2, 1, 20, K=1)
    h, opts = variant_inputs(hyper, **kw)
    np.testing.assert_allclose(gibbs.point_assignment_log_probs(state, obs, h, **opts),
                               ref_point_log_probs(state, obs, h, **opts), **TOL)
    labels = gibbs.assign_points_to_particles(state, obs, h, np.random.default_rng(4), **opts)
    assert set(labels) <= {0, state.L}
    assert_blocked_draw_matches_one_shot(state, obs, hyper, seed=4, **kw)


def draw_inputs():
    """(N, M) log weights: random rows with -inf entries, shifted weights at,
    just above and just below the -707 flush threshold and in exp's slow
    range, ties, one column, and no rows."""
    rng = np.random.default_rng(60)
    for n, m in ((500, 12), (1300, 101), (300, 31)):
        lw = rng.normal(0.0, 10.0 ** rng.uniform(-1, 3), (n, m))
        lw[rng.random(lw.shape) < 0.2] = -np.inf
        lw[:, rng.integers(0, m)] = -np.inf
        lw[np.arange(n), rng.integers(0, m, n)] = rng.normal(0.0, 1.0, n)
        yield lw
    edge = np.array([-707.0, np.nextafter(-707.0, 0.0), np.nextafter(-707.0, -np.inf),
                     -707.7, -708.0, -745.0, -746.0, -np.inf])
    lw = rng.choice(edge, (2000, 9))
    lw[np.arange(2000), rng.integers(0, 9, 2000)] = 0.0
    yield lw
    yield lw + 1e3                      # the same rows, shifted
    yield np.zeros((400, 7))            # ties everywhere
    yield np.repeat(rng.normal(size=(400, 3)), 2, axis=1)   # pairwise ties
    yield rng.normal(size=(50, 1))      # one column
    yield np.zeros((0, 5))              # no rows


def test_column_draw_matches_row_draw():
    for seed, lw in enumerate(draw_inputs()):
        rng_c, rng_p, rng_r = (np.random.default_rng(seed) for _ in range(3))
        block = lw.T.copy()
        got = _categorical_sample_columns(block, rng_c, np.empty(block.shape, dtype=bool))
        want = ref_categorical_sample_rows(lw, rng_r)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(categorical_sample_rows(lw, rng_p), want)
        assert (rng_c.bit_generator.state == rng_p.bit_generator.state
                == rng_r.bit_generator.state)


def test_column_draw_rejects_a_row_without_admissible_column_like_row_draw():
    lw = np.array([[0.0, 1.0], [-np.inf, -np.inf]])
    with pytest.raises(ValidationError) as want:
        ref_categorical_sample_rows(lw, np.random.default_rng(0))
    with pytest.raises(ValidationError) as got:
        _categorical_sample_columns(lw.T.copy(), np.random.default_rng(0),
                                    np.empty((2, 2), dtype=bool))
    assert str(got.value) == str(want.value)
    with pytest.raises(ValidationError, match=re.escape(str(want.value))):
        categorical_sample_rows(lw, np.random.default_rng(0))


def masked_categorical_sample_columns(block, rng, keep):
    """The column draw that sets every flushed term to exactly 0: a mask of the
    shifted scores at or above -707, clamp, ``exp``, then the mask applied."""
    m = block.max(axis=0)
    if not np.isfinite(m).all():
        raise ValidationError("no admissible component: a row has all -inf weights")
    block -= m
    np.greater_equal(block, -707.0, out=keep)
    np.maximum(block, -707.0, out=block)
    np.exp(block, out=block)
    block *= keep
    for i in range(1, len(block)):
        np.add(block[i - 1], block[i], out=block[i])
    np.less(block, rng.random((block.shape[1], 1))[:, 0] * block[-1], out=keep)
    return keep.sum(axis=0, dtype=np.int32).astype(np.int64)


def test_unmasked_column_draw_matches_masked_draw():
    # flushed terms weigh exp(-707) = 9.0e-308 each instead of 0; the target
    # u * total is 0 or at least 1.1e-16, so no label moves.  Scores are at
    # most 0 with a 0 in every column, so the edge values are the shifted ones
    rng = np.random.default_rng(70)
    edge = np.array([-707.0, np.nextafter(-707.0, 0.0), np.nextafter(-707.0, -np.inf),
                     -706.5, -707.7, -708.0, -745.0, -746.0, -np.inf])
    n = 257
    for width in range(1, 130):
        scores = -np.abs(rng.normal(0.0, 10.0 ** rng.uniform(-1, 3), (width, n)))
        straddle = rng.random(scores.shape) < 0.4
        scores[straddle] = rng.choice(edge, np.count_nonzero(straddle))
        scores[rng.random(scores.shape) < 0.2] = -np.inf
        scores[:, :32] = np.where(rng.random((width, 32)) < 0.7, -np.inf, scores[:, :32])
        scores[rng.integers(0, width, n), np.arange(n)] = 0.0
        uniforms = rng.random(n)
        uniforms[::5] = 0.0
        uniforms[1::7] = 1.0 - 2.0 ** -53
        got = _categorical_sample_columns(scores.copy(), FixedUniforms(uniforms),
                                          np.empty(scores.shape, dtype=bool))
        want = masked_categorical_sample_columns(
            scores.copy(), FixedUniforms(uniforms), np.empty(scores.shape, dtype=bool))
        np.testing.assert_array_equal(got, want, err_msg=f"width {width}")
        # a -inf column is drawn only by a zero uniform, as the first column
        finite = np.isfinite(scores[np.minimum(got, width - 1), np.arange(n)])
        assert np.all(finite | ((uniforms == 0.0) & (got == 0)))


def rank_one_scene(dim, N):
    """``wide_scene`` with particle 2's covariance rank one.  ``validate()``
    rejects it and ``init_state`` never stores one, but ``chol_spd``'s jitter
    factors it, and its scores round the most."""
    state, obs, hyper = wide_scene(dim, 8, N, seed=dim)
    d = np.linspace(0.3, -0.2, dim)
    Sigma_B = state.Sigma_B.copy()
    Sigma_B[2] = np.outer(d, d)
    assert np.linalg.cond(Sigma_B[2]) >= 1e16
    return state.replace(Sigma_B=Sigma_B), obs, hyper


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kw", ASSIGN_VARIANTS)
def test_column_scores_equal_row_scores_with_a_rank_one_covariance(dim, kw):
    state, obs, hyper = rank_one_scene(dim, 700)
    hyper, kw = variant_inputs(hyper, **kw)
    with np.errstate(divide="ignore"):
        scores = gibbs._PointScores(state, obs, hyper, kw["position_only"],
                                    gibbs._CovFactors(state))
    whole = gibbs.point_assignment_log_probs(state, obs, hyper, **kw)
    for start, stop in ((0, 700), (3, 257), (257, 700), (698, 700), (0, 1), (699, 700)):
        block = scores.columns(start, stop, np.empty((scores.width, stop - start)))
        # the row-major product of the same points, bit for bit
        rows = np.matmul(scores.features[start:stop], scores.coefs)
        np.testing.assert_array_equal(block[:state.L], rows.T)
        # a one-point product is a matrix-vector product in either layout, and
        # rounds unlike the whole; every longer range gives the whole's entries
        if stop - start > 1:
            np.testing.assert_array_equal(block, whole.T[:, start:stop])


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kw", ASSIGN_VARIANTS)
def test_a_one_point_last_block_is_scored_like_the_whole(dim, kw, monkeypatch):
    monkeypatch.setattr(gibbs, "_ASSIGN_BLOCK_ENTRIES", 200)
    state, obs, hyper = rank_one_scene(dim, 700)
    points = 200 // (state.L + 1 if kw.get("include_outlier") else state.L)
    hyper, kw = variant_inputs(hyper, **kw)
    obs = obs.take(np.arange(26 * points + 1))
    blocks, draw = [], gibbs._categorical_sample_columns
    monkeypatch.setattr(gibbs, "_categorical_sample_columns",
                        lambda b, rng, keep: blocks.append(b.copy()) or draw(b, rng, keep))
    rng_b, rng_o = np.random.default_rng(dim), np.random.default_rng(dim)
    got = gibbs.assign_points_to_particles(state, obs, hyper, rng_b, **kw)
    whole = gibbs.point_assignment_log_probs(state, obs, hyper, **kw)
    assert [b.shape[1] for b in blocks] == [points] * 26 + [1]
    np.testing.assert_array_equal(np.hstack(blocks), whole.T)
    np.testing.assert_array_equal(got, categorical_sample_rows(whole, rng_o))
    assert rng_b.bit_generator.state == rng_o.bit_generator.state


# ---------------------------------------------------------------------------
# transform draws and shared covariance factors
# ---------------------------------------------------------------------------

class FixedUniforms:
    """Stands in for a Generator: ``random`` hands out preset uniforms in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        count = int(np.prod(size))
        out, self.values = np.array(self.values[:count]).reshape(size), self.values[count:]
        return out


def assert_rows_drawn_like_single_calls(scores, rng_rows, rng_single):
    got = categorical_sample_wide_rows(scores, rng_rows)
    want = [categorical_sample(row, rng_single) for row in scores]
    np.testing.assert_array_equal(got, want)
    return got


def test_transform_row_draws_match_single_draws_with_inf_columns():
    rng = np.random.default_rng(0)
    for width in (1, 2, 25, 33, 125, 129):
        scores = rng.normal(0.0, 10.0 ** rng.uniform(-1, 3), (2000, width))
        scores[rng.random(scores.shape) < 0.3] = -np.inf
        scores[np.arange(len(scores)), rng.integers(0, width, len(scores))] = rng.normal()
        rng_rows, rng_single = np.random.default_rng(width), np.random.default_rng(width)
        assert_rows_drawn_like_single_calls(scores, rng_rows, rng_single)
        assert rng_rows.bit_generator.state == rng_single.bit_generator.state


def test_transform_row_draws_reach_the_last_column():
    # rows whose weight sits on the last column, or after -inf columns, with
    # uniforms from 0 to the largest double below 1
    top = 1.0 - 2.0 ** -53
    rows = np.array([[-np.inf, -np.inf, 0.0],
                     [-40.0, -np.inf, 0.0],
                     [0.0, 0.0, 0.0],
                     [0.0, -np.inf, -np.inf],
                     [-1e-300, -745.0, -1e-300],
                     [5.0, 5.0, -np.inf]])
    for u in (0.0, 0.5, 1.0 - 1e-12, top):
        uniforms = [u] * len(rows)
        got = assert_rows_drawn_like_single_calls(rows, FixedUniforms(uniforms),
                                                  FixedUniforms(uniforms))
        assert got[0] == 2 and got[3] == 0
        if u >= 0.5:
            assert got[1] == 2
        if u == top:
            assert got[2] == 2 and got[4] == 2 and got[5] == 1


def test_transform_row_draws_reject_rows_without_admissible_column():
    scores = np.array([[0.0, 1.0], [-np.inf, -np.inf]])
    with pytest.raises(ValidationError, match="no admissible component"):
        categorical_sample_wide_rows(scores, np.random.default_rng(0))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", [gibbs.CLUSTER_ROTATIONS, gibbs.CLUSTER_TRANSLATIONS])
def test_transform_steps_match_loop_with_excluded_candidates(dim, name):
    state, obs, hyper, cands = scene(dim, seed=40 + dim)
    rng = np.random.default_rng(dim)
    rot_lp, trans_lp = cands.rotation_log_prior.copy(), cands.translation_log_prior.copy()
    # exclude candidates, but keep the identity and the current transforms
    rot_lp[1:][rng.random(len(rot_lp) - 1) < 0.5] = -np.inf
    trans_lp[rng.random(len(trans_lp)) < 0.5] = -np.inf
    for k in range(state.K):
        trans_lp[cands.translation_index(state.trans[k])] = 0.0
        rot_lp[cands.rotation_index(state.rot[k])] = 0.0
    cands = TransformCandidates(cands.rotations, rot_lp, cands.translations, trans_lp)
    for seed in range(5):
        rng_b, rng_r = np.random.default_rng(seed), np.random.default_rng(seed)
        got = batched_step(name, state, obs, hyper, cands, rng_b)
        want = ref_apply_step(name, state, obs, hyper, cands, rng_r)
        assert_states_match(got, want)
        assert rng_b.bit_generator.state == rng_r.bit_generator.state


@pytest.mark.parametrize("dim", [2, 3])
def test_grid_moments_are_computed_once_and_equal_the_direct_forms(dim):
    cands = make_transform_candidates(dim, diag_hyper(dim))
    B = cands.rotations - np.eye(dim)
    T = cands.translations
    for name, want in (("rotation_offsets", B),
                       ("rotation_grams", np.einsum("jca,jcb->jab", B, B)),
                       ("translation_sq_norms", np.einsum("md,md->m", T, T))):
        got = getattr(cands, name)
        np.testing.assert_array_equal(got, want, strict=True)
        assert getattr(cands, name) is got and not got.flags.writeable


@pytest.mark.parametrize("dim", [2, 3])
def test_symmetric_group_outer_equals_the_full_path(dim):
    # one array passed twice sums the i <= j entries and mirrors them; a copy
    # as the second argument takes the path that sums all D x D entries
    rng = np.random.default_rng(80 + dim)
    for n, rows in ((1, 5), (4, 40), (30, 3000)):
        a = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), (rows, dim))
        z = rng.integers(0, n + 1, rows)          # label n is the outlier sentinel
        got = gibbs._group_outer(z, n, a, a)
        np.testing.assert_array_equal(got, gibbs._group_outer(z, n, a, a.copy()), strict=True)
        np.testing.assert_array_equal(got, got.swapaxes(1, 2))


@pytest.mark.parametrize("dim", [2, 3])
def test_shared_covariance_inverses_are_exactly_symmetric(dim):
    state = scene(dim)[0]
    factors = gibbs._CovFactors(state)
    for field in ("Sigma_B", "Sigma_V", "Sigma_H"):
        inv = factors.inverse(field)
        np.testing.assert_array_equal(inv, inv.swapaxes(1, 2), err_msg=field)


def sweep_with_own_factors(state, obs, hyper, schedule, cands):
    """``gibbs.sweep`` with every step factoring its covariances for itself;
    the steps draw from one stream in schedule order."""
    work = copy.copy(state)
    rng = state.rng.stream(SWEEP)
    for name in schedule.flatten():
        with np.errstate(divide="ignore"):
            gibbs._apply_step(name, work, obs, hyper, cands, rng)
    return work.replace(rng=state.rng.tick())


SHARED_FACTOR_SCHEDULES = {
    # two passes, so that later steps read covariances swapped earlier
    "full_twice": gibbs.SweepSchedule(
        steps=(gibbs.Block(gibbs.full_sweep_schedule().steps
                           + (gibbs.Step(gibbs.PARTICLE_FEATURES),), repeat=2),)),
    "tracking_frozen": TrackConfig(freeze_Sigma_B=True).frame_schedule(),
}


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("schedule", list(SHARED_FACTOR_SCHEDULES))
def test_sweep_with_shared_factors_matches_steps_factoring_alone(dim, schedule):
    sched = SHARED_FACTOR_SCHEDULES[schedule]
    state, obs, hyper, cands = scene(dim, seed=50 + dim)
    got = want = state
    for _ in range(3):
        got = gibbs.sweep(got, obs, hyper, sched, cands)
        want = sweep_with_own_factors(want, obs, hyper, sched, cands)
        assert got.rng == want.rng
        for name in ("z_B", "z_H") + FIELDS:
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                          err_msg=name, strict=True)


def test_sweep_factors_each_covariance_once_per_value(monkeypatch):
    # a full sweep factors Sigma_B, Sigma_V and Sigma_H once each instead of
    # 2, 2 and 3 times.  Every step also inverts factors of its own: each
    # inverse-Wishart step two stacks (its scales and its draws) and each
    # Gaussian step one (its precisions), 9 in all, counted through the
    # distributions kernels
    hyper = diag_hyper(2)
    state, obs = sample_forward(hyper, K=2, L=4, N=30, seed=0)
    sched = gibbs.full_sweep_schedule()
    cands = make_transform_candidates(2, hyper)
    calls = []
    inverse = gibbs.tril_inverse_stack
    for module in (gibbs, distributions):
        monkeypatch.setattr(module, "tril_inverse_stack",
                            lambda f: calls.append(f.shape) or inverse(f))
    gibbs.sweep(state, obs, hyper, sched, cands)
    shared = len(calls)
    calls.clear()
    sweep_with_own_factors(state, obs, hyper, sched, cands)
    assert (shared, len(calls)) == (3 + 9, 7 + 9)


def test_apply_step_drops_the_swapped_field_from_the_factors():
    state, obs, hyper, cands = scene(2)
    work = copy.copy(state)
    factors = gibbs._CovFactors(work)
    before = {f: factors.chol(f)[0] for f in ("Sigma_B", "Sigma_V", "Sigma_H")}
    gibbs._apply_step(gibbs.PARTICLE_COVS, work, obs, hyper, cands,
                      np.random.default_rng(0), factors)
    assert factors.chol("Sigma_B")[0] is not before["Sigma_B"]
    np.testing.assert_array_equal(factors.chol("Sigma_B")[0],
                                  np.linalg.cholesky(work.Sigma_B))
    assert factors.chol("Sigma_V")[0] is before["Sigma_V"]
    assert factors.chol("Sigma_H")[0] is before["Sigma_H"]
