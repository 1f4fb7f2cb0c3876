"""Primitive distributions and discretized rigid-transform candidate sets.

Gaussian log densities go through triangular (Cholesky) factorizations; the
Inverse-Wishart sampler uses the Bartlett decomposition of the Wishart of the
inverse scale.  All categorical arithmetic is done in log space with
max-subtraction.  The samplers draw whole stacks in a fixed number of
generator calls (``inverse_wishart_stack``, ``mvn_sample_stack``,
``categorical_sample_rows`` and ``categorical_sample_wide_rows``), and both
``model.sample_forward`` and ``gibbs.sweep`` draw through them.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .types import NumericalDomainError, ValidationError, check_dim, is_int

if TYPE_CHECKING:  # pragma: no cover
    from .types import HyperParams

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)

# Default candidate-grid sizes; overridable through configuration.
DEFAULT_NUM_ROTATIONS = {2: 33, 3: 129}


def default_num_translations(dim: int) -> int:
    return 5 ** dim


# --------------------------------------------------------------------------
# Gaussians
# --------------------------------------------------------------------------

def chol_spd(cov: np.ndarray) -> np.ndarray:
    """Cholesky factor of an SPD matrix.

    On failure retries once with a diagonal jitter of 1e-9 * trace/D, then
    raises NumericalDomainError.  The retry lets sampling go on through a
    covariance that rounding left barely indefinite; it is no definiteness
    test, and no caller may use it as one (``ModelState.validate`` and
    ``init_state`` factor without jitter).
    """
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        d = cov.shape[0]
        jitter = 1e-9 * float(np.trace(cov)) / d
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(d))
        except np.linalg.LinAlgError as exc:
            raise NumericalDomainError("matrix is not positive definite") from exc


def spd_inverse(cov: np.ndarray) -> np.ndarray:
    """Symmetric inverse of one SPD matrix of dimension D <= 3."""
    cov = np.asarray(cov, dtype=np.float64)
    if not np.all(np.isfinite(cov)):  # np.linalg.cholesky factors them silently
        raise ValueError("array must not contain infs or NaNs")
    return spd_inverse_stack(cov[None])[0]


# The gufunc behind ``np.linalg.cholesky``, resolved once.  The public
# wrapper's type and shape checks cost more than the factorization of a
# Geweke-size stack, and the float64 stacks here need none of them.
_cholesky_lo = np.linalg._umath_linalg.cholesky_lo

# numpy's compiled einsum kernel, resolved once.  With its default
# ``optimize=False``, ``np.einsum`` only passes its arguments on to this
# kernel, after an ``__array_function__`` dispatch that takes about as long
# as the contraction of a Geweke-size stack; the kernel returns the same bits.
_einsum = np._core.multiarray.c_einsum


def _raise_not_positive_definite(err, flag):
    raise np.linalg.LinAlgError("Matrix is not positive definite")


def chol_spd_stack(covs: np.ndarray) -> np.ndarray:
    """Cholesky factors of a (n, D, D) stack of SPD matrices.

    One LAPACK call over the stack, the one ``np.linalg.cholesky`` makes,
    under the same error state, so a failure raises ``LinAlgError`` as it
    does.  If any matrix fails, every matrix goes through ``chol_spd``, so
    the jitter retry and its error stay per matrix and every factor equals
    ``chol_spd`` of its matrix.
    """
    covs = np.asarray(covs, dtype=np.float64)
    try:
        with np.errstate(call=_raise_not_positive_definite, invalid="call",
                         over="ignore", divide="ignore", under="ignore"):
            return _cholesky_lo(covs, signature="d->d")
    except np.linalg.LinAlgError:
        return np.stack([chol_spd(c) for c in covs])


def tril_inverse_stack(factors: np.ndarray) -> np.ndarray:
    """Inverses of a (n, D, D) stack of lower-triangular matrices, D <= 3.

    Forward substitution against the identity, written out row by row across
    the whole stack: with r_i = 1 / L_ii on the diagonal, row 1 is
    -(L_10 r_0) / L_11, and row 2 is -(L_20 r_0 + L_21 inv_10) / L_22 and
    -(L_21 r_1) / L_22.  That is the loop -L[i, :i] @ inv[:i, :i] / L[i, i]
    bit for bit, up to the sign of a zero entry, which the Gram products
    that read the inverses (``spd_inverse_stack``, ``inverse_wishart_stack``)
    do not see.  A wider stack raises rather than return a wrong inverse.
    """
    n, d = factors.shape[:2]
    if d > 3:
        raise ValidationError(f"matrices of dimension D <= 3 only, got D={d}")
    out = np.zeros((n, d, d))
    recip = 1.0 / factors.diagonal(axis1=1, axis2=2)
    out.reshape(n, d * d)[:, ::d + 1] = recip
    if d > 1:
        out[:, 1, 0] = -(factors[:, 1, 0] * recip[:, 0]) / factors[:, 1, 1]
    if d > 2:
        out[:, 2, 0] = -(factors[:, 2, 0] * recip[:, 0]
                         + factors[:, 2, 1] * out[:, 1, 0]) / factors[:, 2, 2]
        out[:, 2, 1] = -(factors[:, 2, 1] * recip[:, 1]) / factors[:, 2, 2]
    return out


def spd_inverse_stack(covs: np.ndarray) -> np.ndarray:
    """Symmetric inverses of a (n, D, D) stack of SPD matrices, D <= 3."""
    return _spd_inverse_from_tril(tril_inverse_stack(chol_spd_stack(covs)))


def _spd_inverse_from_tril(inv_l: np.ndarray) -> np.ndarray:
    """``spd_inverse_stack`` given ``tril_inverse_stack`` of the Cholesky factors.

    The Gram product is exactly symmetric: entries (i, j) and (j, i) sum the
    same products over k in the same order."""
    return _einsum("nki,nkj->nij", inv_l, inv_l)


def _solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^-1 b for a lower-triangular (D, D) ``L`` and a (D,) or (D, n) ``b``:
    forward substitution, one row of the solution at a time."""
    z = np.empty(b.shape)
    for i in range(len(L)):
        z[i] = (b[i] - L[i, :i] @ z[:i]) / L[i, i]
    return z


def mvn_logpdf(x, mean, cov) -> float:
    x = np.asarray(x, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    L = chol_spd(np.asarray(cov, dtype=np.float64))
    z = _solve_lower(L, x - mean)
    return float(-0.5 * (x.size * _LOG_2PI + z @ z) - np.log(np.diag(L)).sum())


def mvn_logpdf_rows(X: np.ndarray, mean, cov) -> np.ndarray:
    """Log density of each row of X under a single Gaussian."""
    X = np.asarray(X, dtype=np.float64)
    L = chol_spd(np.asarray(cov, dtype=np.float64))
    Z = _solve_lower(L, (X - mean).T)
    quad = _einsum("dn,dn->n", Z, Z)
    return -0.5 * (X.shape[1] * _LOG_2PI + quad) - np.log(np.diag(L)).sum()


@functools.lru_cache(maxsize=None)
def _quad_layout(d: int, terms: int) -> tuple[list, np.ndarray]:
    """Per row i of each term's x': i, its term's end and the row of x_i x_j (j >= i);
    and the map from a flat precision P to those coefficients, -P_ii / 2 and -P_ij."""
    i, j = np.triu_indices(d)
    weights = np.zeros((len(i), d * d))
    weights[np.arange(len(i)), i * d + j] = np.where(i == j, -0.5, -1.0)
    return [(k * d + r, (k + 1) * d, 1 + k * len(i) + r * d - r * (r - 1) // 2)
            for k in range(terms) for r in range(d)], weights


def expand_gaussians(stacks, const: np.ndarray,
                     isotropic=None) -> tuple[np.ndarray, np.ndarray]:
    """Row features (N, F) and coefficients (F, M) whose product is ``const``
    (M,) plus each row's summed Gaussian log densities under M components.

    ``stacks`` holds terms ``(X, means, P, L)``: rows (N, D), means (M, D),
    precisions and Cholesky factors (M, D, D), one D for all; ``isotropic``
    an optional ``(X, means, var)`` of covariance var I.  With x', m' the
    row and mean less c, the mean of the term's means, a term is
    -x'^T P x'/2 + (P m')^T x' - m'^T P m'/2 - D log(2 pi)/2 - log det L
    over features [1, each stack's x'_i x'_j (i <= j), the isotropic |x'|^2,
    each term's x'], stored feature by feature.  N may be 0, a -inf in
    ``const`` scores -inf, and the product over any range of two or more rows
    gives the entries of the whole; one row is a matrix-vector product, whose
    last bits may differ.
    Rounding grows with cond(Sigma) |x - c|^2 / sigma^2: only near-singular
    covariances, which ``validate()`` rejects and ``chol_spd``'s jitter
    still factors, round visibly differently from a direct whitening.
    """
    terms = stacks if isotropic is None else [*stacks, isotropic]
    t, d, m = len(stacks), stacks[0][0].shape[1], len(const)
    products, weights = _quad_layout(d, t)
    lin = 1 + t * len(weights) + (isotropic is not None)
    dims = t * d + (0 if isotropic is None else isotropic[0].shape[1])
    features, coefs = np.empty((lin + dims, len(stacks[0][0]))), np.empty((lin + dims, m))
    # m' per term, then L_ii^2 per stack, to sum into m'^T P m' / 2 + log det L
    parts = np.empty((dims + t * d, m))
    features[0] = 1.0
    x_c = features[lin:]
    for i, (x, means, *_) in enumerate(terms):
        a, b = i * d, i * d + x.shape[1]
        center = means.sum(axis=0)[:, None] / m
        np.subtract(means.T, center, out=parts[a:b])
        np.subtract(x.T, center, out=x_c[a:b])
    for i, stop, row in products:
        np.multiply(x_c[i], x_c[i:stop], out=features[row:row + stop - i])
    for i, (_, _, precision, factors) in enumerate(stacks):
        a, q = i * d, 1 + i * len(weights)
        np.matmul(weights, precision.reshape(m, d * d).T, out=coefs[q:q + len(weights)])
        np.matmul(precision, parts[a:a + d].T[:, :, None],
                  out=coefs[lin + a:lin + a + d].T[:, :, None])
        np.square(factors.diagonal(axis1=1, axis2=2).T, out=parts[dims + a:dims + a + d])
    np.subtract(const, 0.5 * dims * _LOG_2PI, out=coefs[0])
    if isotropic is not None:
        var, f_c = isotropic[2], x_c[t * d:]
        _einsum("dn,dn->n", f_c, f_c, out=features[lin - 1])
        coefs[lin - 1] = -0.5 / var
        np.divide(parts[t * d:dims], var, out=coefs[lin + t * d:])
        coefs[0] -= 0.5 * len(f_c) * math.log(var)
    np.log(parts[dims:], out=parts[dims:])
    parts[:dims] *= coefs[lin:]
    coefs[0] -= 0.5 * parts.sum(axis=0)
    return features.T, coefs


def isotropic_logpdf_rows(X: np.ndarray, mean, var: float) -> np.ndarray:
    """Row-wise Gaussian log density with covariance var * I."""
    diff = np.asarray(X, dtype=np.float64) - mean
    sq = _einsum("nd,nd->n", diff, diff)
    d = diff.shape[1]
    return -0.5 * (d * (_LOG_2PI + math.log(var)) + sq / var)


def mvn_sample(mean, cov, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    mean = np.asarray(mean, dtype=np.float64)
    L = chol_spd(np.asarray(cov, dtype=np.float64))
    if size is None:
        return mean + L @ rng.standard_normal(mean.size)
    return mean + rng.standard_normal((size, mean.size)) @ L.T


def mvn_sample_stack(means: np.ndarray, covs: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """One draw per row of ``means`` (n, D) from the (n, D, D) ``covs``, equal
    to ``mvn_sample`` called row by row: one ``standard_normal((n, D))`` call."""
    noise = rng.standard_normal(means.shape)
    return means + _correlate_rows(chol_spd_stack(covs), noise)


def _correlate_rows(factors: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Row n of ``noise`` (n, D) times the (n, D, D) ``factors``[n]."""
    return _einsum("nij,nj->ni", factors, noise)


def moments_from_precision(m_vec: np.ndarray, precision: np.ndarray):
    """(mean, covariance) of the Gaussian N(P^{-1} m, P^{-1})."""
    cov = spd_inverse(precision)
    return cov @ np.asarray(m_vec, dtype=np.float64), cov


# --------------------------------------------------------------------------
# Inverse-Wishart
# --------------------------------------------------------------------------

def inverse_wishart_sample(Psi: np.ndarray, nu: float, rng: np.random.Generator,
                           size: int | None = None) -> np.ndarray:
    """Draw from IW(Psi, nu) for a D x D ``Psi``, D <= 3: one
    ``inverse_wishart_stack`` draw, or ``size`` of them."""
    Psi = np.asarray(Psi, dtype=np.float64)
    d = Psi.shape[0]
    if not nu > d - 1:
        raise ValidationError(f"nu must exceed dim - 1 = {d - 1}, got {nu}")
    if not np.all(np.isfinite(Psi)):
        raise ValueError("array must not contain infs or NaNs")
    draws = inverse_wishart_stack(Psi[None], np.full(1 if size is None else int(size), nu), rng)
    return draws[0] if size is None else draws


def inverse_wishart_stack(psi: np.ndarray, nu: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
    """One IW(psi_l, nu_l) draw per entry of ``nu`` (n,), from two stacked
    Bartlett draws.

    ``psi`` is (n, D, D), or one (1, D, D) scale for every draw, D <= 3 (a
    larger D raises before any draw, in ``spd_inverse_stack``).  With A the
    Bartlett factor and Ls the Cholesky factor of psi^-1, a draw is
    (C C^T)^-1 for C = Ls A.  ``rng.chisquare`` of shape (n, D) gives A's
    diagonal, row i of draw l with nu_l - i degrees of freedom;
    ``rng.standard_normal`` of shape (n, D(D-1)/2) fills each strictly lower
    triangle row by row, in ``np.tril_indices(D, -1)`` order.  The factor is
    filled with basic slices, which at Geweke size (n = 2-4) cost less than
    fancy indexing.  Every nu_l must exceed D - 1.
    """
    scale = chol_spd_stack(spd_inverse_stack(psi))
    return _bartlett_inverse_wishart(scale, *_bartlett_variates(nu, psi.shape[-1], rng))


def _bartlett_variates(nu: np.ndarray, d: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The two generator calls of ``inverse_wishart_stack``: the Bartlett
    diagonal's chi-square variates (n, D), then the lower triangles'
    normals (n, D(D-1)/2)."""
    chi2 = rng.chisquare(nu[:, None] - np.arange(d))
    return chi2, rng.standard_normal((len(nu), d * (d - 1) // 2))


def _bartlett_inverse_wishart(scale: np.ndarray, chi2: np.ndarray,
                              normals: np.ndarray) -> np.ndarray:
    """The IW draws of ``_bartlett_variates`` under the (n, D, D) or (1, D, D)
    Cholesky factors ``scale`` of the inverse scales; matrix l depends only
    on row l of each input, so a stack of draws equals its draws one by one."""
    n, d = chi2.shape
    bartlett = np.zeros((n, d, d))
    bartlett.reshape(n, d * d)[:, ::d + 1] = np.sqrt(chi2)
    for i in range(1, d):
        bartlett[:, i, :i] = normals[:, i * (i - 1) // 2:i * (i + 1) // 2]
    return _spd_inverse_from_tril(tril_inverse_stack(scale @ bartlett))


def inverse_wishart_mean(Psi: np.ndarray, nu: float) -> np.ndarray:
    Psi = np.asarray(Psi, dtype=np.float64)
    d = Psi.shape[0]
    if not nu > d + 1:
        raise ValidationError(f"IW mean needs nu > dim + 1, got {nu}")
    return Psi / (nu - d - 1)


def inverse_wishart_logpdf(Sigma: np.ndarray, Psi: np.ndarray, nu: float) -> float:
    Sigma = np.asarray(Sigma, dtype=np.float64)
    Psi = np.asarray(Psi, dtype=np.float64)
    d = Sigma.shape[0]
    if not nu > d - 1:
        raise ValidationError(f"nu must exceed dim - 1 = {d - 1}, got {nu}")
    L_sig = chol_spd(Sigma)
    L_psi = chol_spd(Psi)
    logdet_sig = 2.0 * np.log(np.diag(L_sig)).sum()
    logdet_psi = 2.0 * np.log(np.diag(L_psi)).sum()
    half = _solve_lower(L_sig, L_psi)
    trace_term = float(np.sum(half * half))   # tr(Sigma^{-1} Psi)
    return float(
        0.5 * nu * logdet_psi
        - 0.5 * nu * d * math.log(2.0)
        - _multigammaln(0.5 * nu, d)
        - 0.5 * (nu + d + 1) * logdet_sig
        - 0.5 * trace_term
    )


def _multigammaln(a: float, d: int) -> float:
    """log Gamma_d(a) = d(d-1)/4 log(pi) + sum_j log Gamma(a - j/2), j < d."""
    return d * (d - 1) / 4 * _LOG_PI + sum(math.lgamma(a - 0.5 * j) for j in range(d))


# --------------------------------------------------------------------------
# Dirichlet / categorical / gamma
# --------------------------------------------------------------------------

def _xlogy(x, y) -> np.ndarray:
    """x log y, and 0 wherever x is 0 (the 0 log 0 = 0 of a density's support edge)."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0, 0.0, x * np.log(y))


def dirichlet_sample(conc: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return rng.dirichlet(conc)


def dirichlet_logpdf(x: np.ndarray, conc: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    conc = np.asarray(conc, dtype=np.float64)
    return float(_xlogy(conc - 1.0, x).sum() + math.lgamma(conc.sum())
                 - sum(math.lgamma(c) for c in conc))


def log_normalize(log_weights: np.ndarray) -> np.ndarray:
    """Probabilities from unnormalized log weights (max-subtracted)."""
    log_weights = np.asarray(log_weights, dtype=np.float64)
    m = np.max(log_weights)
    if not np.isfinite(m):
        raise ValidationError("no admissible component: all log weights are -inf")
    p = np.exp(log_weights - m)
    return p / p.sum()


def categorical_sample(log_weights: np.ndarray, rng: np.random.Generator) -> int:
    p = log_normalize(log_weights)
    c = np.cumsum(p)
    return int(np.searchsorted(c, rng.random() * c[-1], side="right").clip(0, len(p) - 1))


def categorical_sample_wide_rows(log_weights: np.ndarray,
                                rng: np.random.Generator) -> np.ndarray:
    """One label per row of a (n, M) log-weight matrix, equal to
    ``categorical_sample`` called row by row (the count of cumulative weights
    at or below u * total, clipped to the last column), with one uniform per
    row from a single ``rng.random(n)`` call.  Every pass runs along the rows:
    the kernel for few rows of many columns, such as the transform grids,
    where ``categorical_sample_rows`` would loop once per column.
    """
    cdf = _categorical_cdf_rows(log_weights)
    return _categorical_labels_wide(cdf, rng.random(len(cdf)))


def _categorical_cdf_rows(log_weights: np.ndarray) -> np.ndarray:
    """Normalized cumulative weights of each row of a (n, M) log-weight
    matrix, as ``categorical_sample_wide_rows`` builds them; each row's
    depend on that row alone."""
    lw = np.asarray(log_weights, dtype=np.float64)
    m = lw.max(axis=1, keepdims=True)
    if not np.isfinite(m).all():
        raise ValidationError("no admissible component: all log weights are -inf")
    cdf = np.exp(lw - m)
    cdf /= cdf.sum(axis=1, keepdims=True)
    return cdf.cumsum(axis=1)


def _categorical_labels_wide(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """``categorical_sample_wide_rows``' labels given its uniforms (n,), and
    the (n, M) rows of ``_categorical_cdf_rows``, or one (1, M) row for all."""
    target = uniforms * cdf[:, -1]
    return np.minimum((cdf <= target[:, None]).sum(axis=1), cdf.shape[1] - 1)


def categorical_sample_rows(log_weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row of a (N, M) log-weight matrix.

    The label is the first column whose cumulative weight reaches
    u = U * total, with U one ``rng.random()`` per row.  Weights are shifted
    by the row maximum, so each row's total is at least 1, and since U is a
    multiple of 2**-53, u is 0 or at least 1.1e-16.  A shifted log weight
    below -707 (-inf included) is raised to -707 before ``exp``, so it weighs
    exp(-707) = 9.0e-308 rather than its own value, and ``exp`` never sees
    it: below about -707.7, just above the subnormal range, ``exp`` leaves
    its vector path and runs 10-100x slower per element.  The flushed mass
    of a row of W columns is at most W * 9.0e-308.  It moves only cumulative
    weights below about 1e-291, which a nonzero u never meets, and is
    absorbed whole by any larger sum, so no label moves unless a rounding tie
    in a later cumulative sum meets u, an event of measure below 2**-50.
    The same argument compares the draw with one on the unflushed weights.
    A column of weight -inf is drawn
    only by a zero U, and then only as the first column.  The draw runs on a
    transposed copy (``_categorical_sample_columns``), not on the input.
    """
    columns = np.asarray(log_weights, dtype=np.float64).T.copy()
    return _categorical_sample_columns(columns, rng, np.empty(columns.shape, dtype=bool))


# exp(-707) = 9.0e-308, above the inputs below about -707.7 on which numpy's
# vector exp leaves its fast path
_EXP_FLOOR = -707.0


def _categorical_sample_columns(block: np.ndarray, rng: np.random.Generator,
                                keep: np.ndarray) -> np.ndarray:
    """``categorical_sample_rows`` of ``block.T`` in place, ``keep`` a bool scratch of
    its shape, with one ``rng.random((n, 1))`` call for the n columns."""
    return _categorical_columns(block, rng.random((block.shape[1], 1))[:, 0], keep)


def _categorical_columns(block: np.ndarray, uniforms: np.ndarray,
                         keep: np.ndarray) -> np.ndarray:
    """``_categorical_sample_columns`` given its uniforms (n,).  Rows add up one at a
    time, as a row ``cumsum`` does; the sums are monotone, so a label is the count
    below u, summed in int32 (~2.5x int64's speed).  Four passes over the block
    before the sums: max, subtract, clamp and ``exp``.  Each column's label
    depends on that column and its uniform alone."""
    m = block.max(axis=0)
    if not np.isfinite(m).all():
        raise ValidationError("no admissible component: a row has all -inf weights")
    block -= m
    # clamp the flushed entries, -inf included, to the floor, so exp only sees
    # values in its fast range; each then weighs exp(-707), below any nonzero u
    np.maximum(block, _EXP_FLOOR, out=block)
    np.exp(block, out=block)
    for i in range(1, len(block)):
        np.add(block[i - 1], block[i], out=block[i])
    np.less(block, uniforms * block[-1], out=keep)
    return keep.sum(axis=0, dtype=np.int32).astype(np.int64)


def gamma_logpdf(x, shape: float, rate: float) -> np.ndarray:
    """Log density of Gamma(shape, rate) evaluated elementwise."""
    x = np.asarray(x, dtype=np.float64)
    out = np.where(
        x > 0,
        _xlogy(shape - 1.0, np.maximum(x, 1e-300)) - rate * x
        + shape * math.log(rate) - math.lgamma(shape),
        -np.inf,
    )
    return out


# --------------------------------------------------------------------------
# Rotations and transform candidate sets
# --------------------------------------------------------------------------

def rotation_2d(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotation_from_axis_angle(axis: np.ndarray, theta: float) -> np.ndarray:
    """Rodrigues' rotation formula for a unit axis."""
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    kx, ky, kz = axis
    K = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)


def rotation_angle(R: np.ndarray) -> float:
    """Geodesic angle of a rotation from the identity."""
    R = np.asarray(R, dtype=np.float64)
    if R.shape[0] == 2:
        return abs(math.atan2(R[1, 0], R[0, 0]))
    return float(np.arccos(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)))


def fibonacci_sphere(n: int) -> np.ndarray:
    """n approximately evenly spread unit vectors (deterministic)."""
    i = np.arange(n, dtype=np.float64)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    phi = golden * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


@dataclass(frozen=True)
class TransformCandidates:
    """Finite candidate sets for cluster rotations and translations.

    Prior log weights are normalized; the identity rotation and the zero
    translation are always members.
    """

    rotations: np.ndarray            # (M_r, D, D)
    rotation_log_prior: np.ndarray   # (M_r,)
    translations: np.ndarray         # (M_t, D)
    translation_log_prior: np.ndarray  # (M_t,)

    def __post_init__(self):
        object.__setattr__(self, "rotations", np.asarray(self.rotations, dtype=np.float64))
        object.__setattr__(self, "translations", np.asarray(self.translations, dtype=np.float64))
        for name in ("rotation_log_prior", "translation_log_prior"):
            lw = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, lw - _logsumexp(lw))

    @property
    def dim(self) -> int:
        return self.rotations.shape[1]

    @property
    def num_rotations(self) -> int:
        return self.rotations.shape[0]

    @property
    def num_translations(self) -> int:
        return self.translations.shape[0]

    # the moments the rotation and translation steps score the grids with,
    # computed on first use and kept read-only, since the grid never changes
    @functools.cached_property
    def rotation_offsets(self) -> np.ndarray:
        """B_j = R_j - I per rotation candidate, (M_r, D, D)."""
        return _readonly(self.rotations - np.eye(self.dim))

    @functools.cached_property
    def rotation_grams(self) -> np.ndarray:
        """B_j^T B_j per rotation candidate, (M_r, D, D)."""
        B = self.rotation_offsets
        return _readonly(_einsum("jca,jcb->jab", B, B))

    @functools.cached_property
    def translation_sq_norms(self) -> np.ndarray:
        """|t_m|^2 per translation candidate, (M_t,)."""
        T = self.translations
        return _readonly(_einsum("md,md->m", T, T))

    @functools.cached_property
    def rotation_prior_cdf(self) -> np.ndarray:
        """The rotation prior's cumulative weights, (1, M_r), as
        ``categorical_sample_wide_rows`` builds them for each row."""
        return _readonly(_categorical_cdf_rows(self.rotation_log_prior[None]))

    @functools.cached_property
    def translation_prior_cdf(self) -> np.ndarray:
        """The translation prior's cumulative weights, (1, M_t)."""
        return _readonly(_categorical_cdf_rows(self.translation_log_prior[None]))

    def rotation_index(self, R: np.ndarray, atol: float = 1e-9) -> int:
        hits = np.where(np.all(np.abs(self.rotations - R) <= atol, axis=(1, 2)))[0]
        if hits.size == 0:
            raise ValidationError("rotation is not a member of the candidate set")
        return int(hits[0])

    def translation_index(self, t: np.ndarray, atol: float = 1e-9) -> int:
        hits = np.where(np.all(np.abs(self.translations - t) <= atol, axis=1))[0]
        if hits.size == 0:
            raise ValidationError("translation is not a member of the candidate set")
        return int(hits[0])


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _logsumexp(lw: np.ndarray) -> float:
    """log sum exp(lw), shifted by the maximum so no term overflows.

    The m maximal terms are counted apart, top + log(m) + log1p(rest / m),
    which keeps the digits of a sum that the largest term dominates.
    """
    top = lw.max()
    ties = lw == top
    m = np.count_nonzero(ties)
    rest = np.exp(np.where(ties, -np.inf, lw) - top).sum() / m
    return np.log1p(rest) + np.log(float(m)) + top


def _odd(n: int) -> int:
    n = max(1, int(n))
    return n if n % 2 == 1 else n + 1


def make_transform_candidates(dim: int, hyper: "HyperParams",
                              M_r: int | None = None,
                              M_t: int | None = None) -> TransformCandidates:
    """Build the discretized transform support shared by sampling and inference.

    2D rotations are evenly spaced angles on [-theta_max, theta_max]; 3D
    rotations see a deterministic low-discrepancy cap coverage (Fibonacci
    axes, cube-root-spaced magnitudes) with the identity always first.
    Translations live on a centered lattice covering +/- 3 sqrt(s2) per axis.
    Prior weights follow exp(kappa * cos(angle)) and the N(0, s2 I) density;
    even grid sizes are rounded up so the identity / zero stay members.  A
    grid size is an integer >= 1 (never a bool); None takes the default.
    """
    check_dim(dim)
    if M_r is None:
        M_r = DEFAULT_NUM_ROTATIONS[dim]
    if M_t is None:
        M_t = default_num_translations(dim)
    for name, size in (("M_r", M_r), ("M_t", M_t)):
        if not is_int(size) or size < 1:
            raise ValidationError(f"{name} must be an integer >= 1, got {size!r}")
    kappa = float(hyper.kappa_vmf)
    theta_max = float(hyper.theta_max)

    if dim == 2:
        m = _odd(M_r)
        angles = np.linspace(-theta_max, theta_max, m) if m > 1 else np.array([0.0])
        rotations = np.stack([rotation_2d(a) for a in angles])
        rot_logw = kappa * np.cos(angles)
    else:
        if M_r == 1:
            rotations = np.eye(3)[None]
            rot_logw = np.array([kappa])
        else:
            n = M_r - 1
            axes = fibonacci_sphere(n)
            mags = theta_max * ((np.arange(n, dtype=np.float64) + 1.0) / n) ** (1.0 / 3.0)
            mats = [np.eye(3)] + [rotation_from_axis_angle(axes[i], mags[i]) for i in range(n)]
            rotations = np.stack(mats)
            rot_logw = kappa * np.cos(np.concatenate([[0.0], mags]))

    s = math.sqrt(float(hyper.s2))
    per_axis = _odd(round(M_t ** (1.0 / dim)))
    pts = np.linspace(-3.0 * s, 3.0 * s, per_axis) if per_axis > 1 else np.array([0.0])
    grids = np.meshgrid(*([pts] * dim), indexing="ij")
    translations = np.column_stack([g.ravel() for g in grids])
    trans_logw = -0.5 * _einsum("md,md->m", translations, translations) / float(hyper.s2)

    return TransformCandidates(rotations, rot_logw, translations, trans_logw)
