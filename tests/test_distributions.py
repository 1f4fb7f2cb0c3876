"""Primitive-distribution oracles: closed forms, explicit-inverse checks,
moment identities, and candidate-set geometry."""
import math

import numpy as np
import pytest
from scipy import special, stats

from mattertrack.distributions import (
    _multigammaln,
    categorical_sample,
    categorical_sample_rows,
    chol_spd,
    chol_spd_stack,
    dirichlet_logpdf,
    dirichlet_sample,
    expand_gaussians,
    fibonacci_sphere,
    gamma_logpdf,
    inverse_wishart_logpdf,
    inverse_wishart_mean,
    inverse_wishart_sample,
    inverse_wishart_stack,
    isotropic_logpdf_rows,
    log_normalize,
    make_transform_candidates,
    moments_from_precision,
    mvn_logpdf,
    mvn_logpdf_rows,
    mvn_sample,
    rotation_2d,
    rotation_angle,
    rotation_from_axis_angle,
    spd_inverse,
    spd_inverse_stack,
    tril_inverse_stack,
)
from mattertrack.types import NumericalDomainError, ValidationError

from conftest import diag_hyper


def test_mvn_logpdf_standard_scalar():
    assert mvn_logpdf([0.0], [0.0], [[1.0]]) == pytest.approx(-0.5 * math.log(2 * math.pi),
                                                              abs=1e-12)


def test_mvn_logpdf_at_mean_equals_normalizer():
    rng = np.random.default_rng(7)
    for d in (2, 3):
        a = rng.standard_normal((d, d))
        cov = a @ a.T + d * np.eye(d)
        mean = rng.standard_normal(d)
        expected = -0.5 * (d * math.log(2 * math.pi) + np.linalg.slogdet(cov)[1])
        assert mvn_logpdf(mean, mean, cov) == pytest.approx(expected, abs=1e-12)


def test_mvn_logpdf_matches_explicit_inverse():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.standard_normal((3, 3))
        cov = a @ a.T + 3 * np.eye(3)
        x = rng.standard_normal(3)
        mean = rng.standard_normal(3)
        diff = x - mean
        brute = -0.5 * (3 * math.log(2 * math.pi)
                        + np.linalg.slogdet(cov)[1]
                        + diff @ np.linalg.inv(cov) @ diff)
        assert mvn_logpdf(x, mean, cov) == pytest.approx(brute, abs=1e-10)


def test_mvn_logpdf_sign_symmetric():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    mean = np.array([1.0, -2.0])
    d = np.array([0.7, 0.2])
    assert mvn_logpdf(mean + d, mean, cov) == pytest.approx(mvn_logpdf(mean - d, mean, cov),
                                                            abs=1e-12)


def test_mvn_logpdf_rows_matches_scipy():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2))
    cov = a @ a.T + np.eye(2)
    mean = rng.standard_normal(2)
    X = rng.standard_normal((50, 2))
    expected = stats.multivariate_normal(mean, cov).logpdf(X)
    np.testing.assert_allclose(mvn_logpdf_rows(X, mean, cov), expected, atol=1e-10)


def test_isotropic_rows_matches_full():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((20, 3))
    mean = rng.standard_normal(3)
    var = 0.37
    full = mvn_logpdf_rows(X, mean, var * np.eye(3))
    np.testing.assert_allclose(isotropic_logpdf_rows(X, mean, var), full, atol=1e-12)


def test_chol_spd_failure_raises_numerical_error():
    bad = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(NumericalDomainError):
        chol_spd(bad)


def random_spd_stack(rng, n, d):
    a = rng.standard_normal((n, d, d))
    return a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(d)


@pytest.mark.parametrize("d", [2, 3])
def test_stacked_factorizations_match_single_matrix(d):
    covs = random_spd_stack(np.random.default_rng(20 + d), 9, d)
    np.testing.assert_array_equal(chol_spd_stack(covs), [chol_spd(c) for c in covs])
    np.testing.assert_allclose(spd_inverse_stack(covs), [spd_inverse(c) for c in covs],
                               rtol=1e-12, atol=1e-12)


def ref_tril_inverse_stack(factors):
    """Forward substitution against the identity, one row at a time across the
    stack: row i is -L[i, :i] @ inv[:i, :i] / L[i, i] left of the diagonal."""
    d = factors.shape[1]
    out = np.zeros_like(factors)
    for i in range(d):
        diag = factors[:, i, i]
        out[:, i, i] = 1.0 / diag
        if i:
            row = np.einsum("nk,nkj->nj", factors[:, i, :i], out[:, :i, :i])
            out[:, i, :i] = -row / diag[:, None]
    return out


def conditioned_spd_stack(rng, n, d):
    """SPD matrices at scales 1e-6 to 1e6 with condition numbers up to 1e12."""
    q = np.linalg.qr(rng.standard_normal((n, d, d)))[0]
    eigs = 10.0 ** (rng.uniform(-6.0, 6.0, (n, 1))
                    + rng.uniform(0.0, 1.0, (n, d)) * rng.uniform(0.0, 12.0, (n, 1)))
    covs = (q * eigs[:, None, :]) @ np.swapaxes(q, 1, 2)
    return 0.5 * (covs + np.swapaxes(covs, 1, 2))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tril_inverse_stack_equals_row_by_row_substitution(d):
    # bit for bit, compared as integers: the written-out rows take the
    # reciprocal of L_00 where a division by L_00 would round apart
    rng = np.random.default_rng(50 + d)
    covs = conditioned_spd_stack(rng, 20_000, d)
    factors = np.stack([np.linalg.cholesky(c) for c in covs])
    # loose factors too, lower-triangular with any signs and spread diagonals
    loose = np.tril(rng.standard_normal((20_000, d, d))
                    * 10.0 ** rng.uniform(-6.0, 6.0, (20_000, d, d)))
    np.einsum("nii->ni", loose)[:] = 10.0 ** rng.uniform(-6.0, 6.0, (20_000, d))
    for stack in (factors, loose):
        got = tril_inverse_stack(stack)
        want = ref_tril_inverse_stack(stack)
        assert np.count_nonzero(np.tril(stack)) == stack.size // d * (d + 1) // 2
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_tril_inverse_stack_rejects_more_than_three_dimensions():
    with pytest.raises(ValidationError, match="D <= 3 only, got D=4"):
        tril_inverse_stack(np.eye(4)[None])
    with pytest.raises(ValidationError, match="D <= 3 only, got D=4"):
        spd_inverse(np.eye(4))
    with pytest.raises(ValidationError, match="D <= 3 only, got D=4"):
        inverse_wishart_sample(np.eye(4), 6.0, np.random.default_rng(0))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_spd_inverses_and_iw_draws_are_exactly_symmetric(d):
    # the Gram products sum the same products in the same order for (i, j)
    # and (j, i), so no symmetrization pass is needed
    rng = np.random.default_rng(60 + d)
    covs = conditioned_spd_stack(rng, 2_000, d)
    inv = spd_inverse_stack(covs)
    np.testing.assert_array_equal(inv, inv.swapaxes(1, 2))
    draws = inverse_wishart_stack(covs, rng.uniform(d - 0.5, d + 30.0, 2_000), rng)
    np.testing.assert_array_equal(draws, draws.swapaxes(1, 2))


def test_chol_spd_stack_keeps_per_matrix_jitter_and_error():
    covs = random_spd_stack(np.random.default_rng(8), 3, 2)
    covs[1] = [[1.0, 1.0], [1.0, 1.0]]           # singular: factored after jitter
    np.testing.assert_array_equal(chol_spd_stack(covs), [chol_spd(c) for c in covs])
    covs[2] = [[1.0, 0.0], [0.0, -1.0]]
    with pytest.raises(NumericalDomainError):
        chol_spd_stack(covs)


@pytest.mark.parametrize("d", [2, 3])
def test_chol_spd_stack_mixed_stack_matches_per_matrix(d):
    """Stacks mixing well-conditioned, rank-one and barely definite matrices
    at scales 1e-6 to 1e6 factor exactly as chol_spd does matrix by matrix."""
    rng = np.random.default_rng(40 + d)
    for _ in range(200):
        a = rng.standard_normal((9, d, d)) * 10.0 ** rng.uniform(-6, 6, (9, 1, 1))
        covs = a @ np.swapaxes(a, 1, 2)
        v = a[0, 0]
        covs[rng.integers(9)] = np.outer(v, v)
        covs[rng.integers(9)] += 1e-13 * np.abs(covs[0]).max() * np.eye(d)
        np.testing.assert_array_equal(chol_spd_stack(covs), [chol_spd(c) for c in covs])


@pytest.mark.parametrize("d", [2, 3])
def test_mvn_logpdf_rows_all_matches_columns(d):
    rng = np.random.default_rng(30 + d)
    covs = random_spd_stack(rng, 7, d)
    means = 3.0 * rng.standard_normal((7, d))
    X = 3.0 * rng.standard_normal((40, d))
    columns = np.column_stack([mvn_logpdf_rows(X, m, c) for m, c in zip(means, covs)])
    features, coefs = expand_gaussians(
        [(X, means, spd_inverse_stack(covs), chol_spd_stack(covs))], np.zeros(len(covs)))
    np.testing.assert_allclose(features @ coefs, columns, rtol=1e-12, atol=1e-12)


def test_moments_from_precision_roundtrip():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3))
    prec = a @ a.T + 3 * np.eye(3)
    m = rng.standard_normal(3)
    mean, cov = moments_from_precision(m, prec)
    np.testing.assert_allclose(cov, np.linalg.inv(prec), atol=1e-10)
    np.testing.assert_allclose(mean, np.linalg.solve(prec, m), atol=1e-10)


# -- Inverse-Wishart ---------------------------------------------------------

def test_iw_scalar_reduces_to_inverse_gamma_mean():
    rng = np.random.default_rng(0)
    draws = inverse_wishart_sample(np.array([[2.0]]), 5.0, rng, size=100_000)
    mean = draws[:, 0, 0].mean()
    assert mean == pytest.approx(2.0 / (5.0 - 2.0), rel=0.02)


def test_iw_matrix_mean_matches_identity():
    rng = np.random.default_rng(1)
    psi = np.array([[1.5, 0.4], [0.4, 1.0]])
    nu = 7.0
    draws = inverse_wishart_sample(psi, nu, rng, size=100_000)
    np.testing.assert_allclose(draws.mean(axis=0), inverse_wishart_mean(psi, nu),
                               rtol=0.02)


def test_iw_scale_equivariance_ks():
    rng1 = np.random.default_rng(2)
    rng2 = np.random.default_rng(3)
    psi = np.eye(2)
    c = 3.7
    a = inverse_wishart_sample(psi, 6.0, rng1, size=4000)[:, 0, 0]
    b = inverse_wishart_sample(c * psi, 6.0, rng2, size=4000)[:, 0, 0]
    ks = stats.ks_2samp(c * a, b)
    assert ks.pvalue > 1e-4


def test_iw_draws_are_spd():
    rng = np.random.default_rng(4)
    draws = inverse_wishart_sample(np.eye(3), 6.5, rng, size=10_000)
    np.testing.assert_allclose(draws, np.transpose(draws, (0, 2, 1)), atol=1e-12)
    eigs = np.linalg.eigvalsh(draws)
    assert np.all(eigs > 0)


def test_iw_single_draw_matches_scipy_logpdf_region():
    # logpdf oracle: compare against scipy's implementation
    rng = np.random.default_rng(5)
    psi = np.array([[2.0, 0.5], [0.5, 1.5]])
    nu = 6.0
    sigma = inverse_wishart_sample(psi, nu, rng)
    mine = inverse_wishart_logpdf(sigma, psi, nu)
    ref = stats.invwishart(df=nu, scale=psi).logpdf(sigma)
    assert mine == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("excess", [1e-6, 1e-3, 0.5, 1e4])
def test_iw_logpdf_matches_scipy_from_nu_near_its_floor_to_large(d, excess):
    # nu just above D - 1, where log Gamma_D(nu/2) has a pole, and large
    nu = d - 1 + excess
    psi = np.diag(np.arange(1.0, d + 1)) + 0.3
    sigma = np.eye(d) + 0.2
    assert _multigammaln(nu / 2, d) == pytest.approx(special.multigammaln(nu / 2, d),
                                                     rel=1e-14)
    ref = stats.invwishart(df=nu, scale=psi).logpdf(sigma)
    assert inverse_wishart_logpdf(sigma, psi, nu) == pytest.approx(ref, rel=1e-12)


def test_iw_invalid_nu_rejected():
    with pytest.raises(ValidationError):
        inverse_wishart_sample(np.eye(2), 0.5, np.random.default_rng(0))
    with pytest.raises(ValidationError):
        inverse_wishart_logpdf(np.eye(2), np.eye(2), 0.5)


# -- Dirichlet / categorical ---------------------------------------------------

def test_dirichlet_uniform_mean():
    rng = np.random.default_rng(6)
    draws = np.stack([dirichlet_sample(np.ones(3), rng) for _ in range(20_000)])
    np.testing.assert_allclose(draws.mean(axis=0), [1 / 3] * 3, atol=0.01)


def test_dirichlet_logpdf_matches_scipy():
    x = np.array([0.2, 0.3, 0.5])
    conc = np.array([2.0, 1.0, 3.5])
    assert dirichlet_logpdf(x, conc) == pytest.approx(stats.dirichlet(conc).logpdf(x),
                                                      abs=1e-10)


def test_categorical_never_samples_zero_mass():
    rng = np.random.default_rng(7)
    lw = np.array([0.0, -np.inf, 1.0])
    for _ in range(500):
        assert categorical_sample(lw, rng) != 1


def test_categorical_ratio():
    rng = np.random.default_rng(8)
    lw = np.log(np.array([1.0, 3.0]))
    draws = categorical_sample_rows(np.broadcast_to(lw, (100_000, 2)), rng)
    frac = (draws == 1).mean()
    assert frac == pytest.approx(0.75, abs=0.02 * 0.75)


def test_categorical_rows_matches_out_of_place_form():
    lw = np.random.default_rng(9).standard_normal((300, 12)) * 4.0
    lw[::7, 3] = -np.inf
    before = lw.copy()
    draws = categorical_sample_rows(lw, np.random.default_rng(10))
    np.testing.assert_array_equal(lw, before)
    c = np.cumsum(np.exp(lw - lw.max(axis=1, keepdims=True)), axis=1)
    u = np.random.default_rng(10).random((300, 1)) * c[:, -1:]
    np.testing.assert_array_equal(draws, (u > c).sum(axis=1))


def test_categorical_rows_flush_keeps_labels_of_unflushed_form():
    # shifted log weights dense around the -707 flush threshold and the
    # subnormal range of exp, next to a few columns that carry the mass; in
    # the second half every other weight sits 707 to 708 below the row maximum
    rng = np.random.default_rng(11)
    n, m = 20_000, 16
    lw = rng.uniform(-760.0, -700.0, (n, m))
    lw[n // 2:] = rng.uniform(-708.0, -707.0, (n - n // 2, m))
    rows = np.arange(n)[:, None]
    lw[rows, rng.integers(0, m, (n, 3))] = rng.uniform(-12.0, 0.0, (n, 3))
    top = lw[n // 2:].max(axis=1, keepdims=True)
    lw[n // 2:] = np.where(lw[n // 2:] < -700.0, lw[n // 2:] + top, lw[n // 2:])
    lw[::3] -= 40.0                     # shift whole rows: only relative weights count
    lw[::5, 2] = -np.inf
    lw[::7, 11] = -np.inf
    draws = categorical_sample_rows(lw, np.random.default_rng(12))
    with np.errstate(under="ignore"):
        c = np.cumsum(np.exp(lw - lw.max(axis=1, keepdims=True)), axis=1)
    assert np.any((c > 0) & (c < 1e-300))   # the unflushed form sees subnormal terms
    u = np.random.default_rng(12).random((n, 1)) * c[:, -1:]
    np.testing.assert_array_equal(draws, (u > c).sum(axis=1))
    assert np.all(np.isfinite(lw[np.arange(n), draws]))


def test_categorical_all_neg_inf_errors():
    with pytest.raises(ValidationError, match="no admissible"):
        categorical_sample(np.array([-np.inf, -np.inf]), np.random.default_rng(0))


def test_log_normalize_shift_invariant():
    lw = np.array([-5.0, 0.0, 2.0])
    p1 = log_normalize(lw)
    p2 = log_normalize(lw + 123.0)
    np.testing.assert_allclose(p1, p2, atol=1e-12)
    assert p1.sum() == pytest.approx(1.0, abs=1e-12)


def test_gamma_logpdf_matches_scipy():
    x = np.array([0.1, 1.0, 4.2])
    mine = gamma_logpdf(x, 2.5, 1.7)
    ref = stats.gamma(a=2.5, scale=1 / 1.7).logpdf(x)
    np.testing.assert_allclose(mine, ref, atol=1e-10)
    assert gamma_logpdf(np.array([-1.0]), 2.5, 1.7)[0] == -np.inf


# -- Transform candidates ------------------------------------------------------

def test_candidates_single_rotation_is_identity():
    hyper = diag_hyper(2)
    cands = make_transform_candidates(2, hyper, M_r=1, M_t=1)
    np.testing.assert_allclose(cands.rotations[0], np.eye(2), atol=1e-15)
    np.testing.assert_allclose(cands.translations[0], np.zeros(2), atol=1e-15)


def test_candidates_2d_angles_evenly_spaced():
    hyper = diag_hyper(2, theta_max=math.pi / 8)
    cands = make_transform_candidates(2, hyper, M_r=5, M_t=9)
    angles = sorted(math.atan2(r[1, 0], r[0, 0]) for r in cands.rotations)
    expected = [-math.pi / 8, -math.pi / 16, 0.0, math.pi / 16, math.pi / 8]
    np.testing.assert_allclose(angles, expected, atol=1e-12)


def test_candidates_zero_translation_has_max_weight():
    hyper = diag_hyper(2)
    cands = make_transform_candidates(2, hyper)
    zero_idx = cands.translation_index(np.zeros(2))
    assert np.argmax(cands.translation_log_prior) == zero_idx


def test_candidates_rotations_orthogonal_within_cap():
    for dim in (2, 3):
        hyper = diag_hyper(dim, theta_max=0.4)
        cands = make_transform_candidates(dim, hyper)
        eye = np.eye(dim)
        for R in cands.rotations:
            np.testing.assert_allclose(R.T @ R, eye, atol=1e-12)
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)
            assert rotation_angle(R) <= 0.4 + 1e-12
        # identity is always a member
        cands.rotation_index(eye)


def test_candidates_priors_normalized():
    # at kappa 800 an unshifted exp of the rotation weights overflows
    for dim, kappa in [(3, 4.0), (2, 800.0), (3, 800.0)]:
        hyper = diag_hyper(dim, kappa=kappa)
        cands = make_transform_candidates(dim, hyper)
        assert np.exp(cands.rotation_log_prior).sum() == pytest.approx(1.0, abs=1e-12)
        assert np.exp(cands.translation_log_prior).sum() == pytest.approx(1.0, abs=1e-12)
        rot_w = kappa * np.cos([rotation_angle(R) for R in cands.rotations])
        trans_w = -0.5 * (cands.translations ** 2).sum(axis=1) / hyper.s2
        with np.errstate(over="ignore"):
            assert np.isinf(np.exp(rot_w).sum()) == (kappa > 709.0)
        np.testing.assert_allclose(cands.rotation_log_prior,
                                   rot_w - special.logsumexp(rot_w), rtol=0, atol=1e-9)
        np.testing.assert_allclose(cands.translation_log_prior,
                                   trans_w - special.logsumexp(trans_w), rtol=0, atol=1e-12)


def test_rotation_helpers():
    R = rotation_2d(0.3)
    assert rotation_angle(R) == pytest.approx(0.3, abs=1e-12)
    R3 = rotation_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.25)
    assert rotation_angle(R3) == pytest.approx(0.25, abs=1e-12)
    axes = fibonacci_sphere(64)
    np.testing.assert_allclose(np.linalg.norm(axes, axis=1), 1.0, atol=1e-12)


def test_mvn_sample_moments():
    rng = np.random.default_rng(9)
    cov = np.array([[1.0, 0.6], [0.6, 2.0]])
    mean = np.array([3.0, -1.0])
    draws = mvn_sample(mean, cov, rng, size=100_000)
    np.testing.assert_allclose(draws.mean(axis=0), mean, atol=0.03)
    np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.05)
