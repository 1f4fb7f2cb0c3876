"""Primitive distributions and discretized rigid-transform candidate sets.

Gaussian log densities go through triangular (Cholesky) factorizations; the
Inverse-Wishart sampler uses the Bartlett decomposition of the Wishart of the
inverse scale.  All categorical arithmetic is done in log space with
max-subtraction.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtrtrs
from scipy.special import gammaln, logsumexp, multigammaln, xlogy

from .types import NumericalDomainError, ValidationError, check_dim

if TYPE_CHECKING:  # pragma: no cover
    from .types import HyperParams

_LOG_2PI = math.log(2.0 * math.pi)

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
    raises NumericalDomainError.
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
    inv_l = _tril_inverses(chol_spd(np.asarray(cov, dtype=np.float64))[None])[0]
    inv = inv_l.T @ inv_l
    return 0.5 * (inv + inv.T)


def _tril_inverses(factors: np.ndarray) -> np.ndarray:
    """Inverses of a (n, D, D) stack of lower-triangular factors, one LAPACK
    ``dtrtrs`` call each.

    Each inverse equals ``solve_triangular(factor, eye, lower=True)`` bit for
    bit: that function solves the transposed, upper-triangular system of a
    C-ordered factor through the same ``dtrtrs`` call, which is made here
    without its per-call argument handling.  Raises ValueError on a
    non-finite factor and LinAlgError on a singular one, as
    ``solve_triangular`` does.
    """
    factors = np.asarray(factors, dtype=np.float64)
    if not np.all(np.isfinite(factors)):
        raise ValueError("array must not contain infs or NaNs")
    n, d, _ = factors.shape
    eye = np.eye(d)
    out = np.empty((n, d, d))
    for i, factor in enumerate(factors):
        inv, info = dtrtrs(factor.T, eye, lower=0, trans=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"singular matrix: resolution failed at diagonal {info - 1}")
        out[i] = inv
    return out


def chol_spd_stack(covs: np.ndarray) -> np.ndarray:
    """Cholesky factors of a (n, D, D) stack of SPD matrices.

    One LAPACK call over the stack.  If any matrix fails, only the matrices
    that ``_marginal_spd`` flags are factored one by one through
    ``chol_spd``, so the jitter retry and its error stay per matrix, and the
    rest still take one stacked call.  Every factor equals ``chol_spd`` of
    its matrix either way.
    """
    covs = np.asarray(covs, dtype=np.float64)
    try:
        return np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        pass
    marginal = _marginal_spd(covs)
    out = np.empty_like(covs)
    safe = ~marginal
    try:
        out[safe] = np.linalg.cholesky(covs[safe])
    except np.linalg.LinAlgError:  # the screen missed one: factor all singly
        return np.stack([chol_spd(c) for c in covs])
    for i in np.flatnonzero(marginal):
        out[i] = chol_spd(covs[i])
    return out


def _marginal_spd(covs: np.ndarray) -> np.ndarray:
    """Flags matrices of a (n, D, D) stack whose Cholesky factorization may fail.

    Runs the factorization entry by entry across the stack and flags a
    matrix when a pivot is not above 1e-8 of its diagonal entry, or is not
    finite.  Rounding moves a pivot by a few ulps of that entry, far less
    than the margin, so LAPACK factors every unflagged matrix; should it
    not, ``chol_spd_stack`` factors the whole stack singly.
    """
    n, d, _ = covs.shape
    lower = [[None] * d for _ in range(d)]
    marginal = np.zeros(n, dtype=bool)
    for j in range(d):
        diag = covs[:, j, j]
        pivot = diag.copy()
        for k in range(j):
            pivot -= lower[j][k] * lower[j][k]
        marginal |= ~(pivot > 1e-8 * np.abs(diag))
        root = np.sqrt(np.where(marginal, 1.0, pivot))
        for i in range(j + 1, d):
            entry = covs[:, i, j].copy()
            for k in range(j):
                entry -= lower[i][k] * lower[j][k]
            lower[i][j] = entry / root
    return marginal


def tril_inverse_stack(factors: np.ndarray) -> np.ndarray:
    """Inverses of a (n, D, D) stack of lower-triangular matrices.

    Forward substitution against the identity, one row at a time across the
    whole stack: row i of the inverse is -L[i, :i] @ inv[:i, :i] / L[i, i]
    left of the diagonal and 1 / L[i, i] on it.
    """
    d = factors.shape[1]
    out = np.zeros_like(factors)
    for i in range(d):
        diag = factors[:, i, i]
        out[:, i, i] = 1.0 / diag
        if i:
            row = np.einsum("nk,nkj->nj", factors[:, i, :i], out[:, :i, :i])
            out[:, i, :i] = -row / diag[:, None]
    return out


def spd_inverse_stack(covs: np.ndarray) -> np.ndarray:
    """Symmetric inverses of a (n, D, D) stack of SPD matrices."""
    return _spd_inverse_from_tril(tril_inverse_stack(chol_spd_stack(covs)))


def _spd_inverse_from_tril(inv_l: np.ndarray) -> np.ndarray:
    """``spd_inverse_stack`` given ``tril_inverse_stack`` of the Cholesky factors."""
    inv = np.einsum("nki,nkj->nij", inv_l, inv_l)
    return 0.5 * (inv + np.swapaxes(inv, 1, 2))


def mvn_logpdf(x, mean, cov) -> float:
    x = np.asarray(x, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    L = chol_spd(np.asarray(cov, dtype=np.float64))
    z = solve_triangular(L, x - mean, lower=True)
    return float(-0.5 * (x.size * _LOG_2PI + z @ z) - np.log(np.diag(L)).sum())


def mvn_logpdf_rows(X: np.ndarray, mean, cov) -> np.ndarray:
    """Log density of each row of X under a single Gaussian."""
    X = np.asarray(X, dtype=np.float64)
    L = chol_spd(np.asarray(cov, dtype=np.float64))
    Z = solve_triangular(L, (X - mean).T, lower=True)
    quad = np.einsum("dn,dn->n", Z, Z)
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
    ``const`` scores -inf, and any row range gives the entries of the whole.
    Rounding grows with cond(Sigma) |x - c|^2 / sigma^2: only near-singular
    covariances, such as the rank-one ones ``chol_spd``'s jitter admits,
    round visibly differently from a direct whitening.
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
        np.einsum("dn,dn->n", f_c, f_c, out=features[lin - 1])
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
    sq = np.einsum("nd,nd->n", diff, diff)
    d = diff.shape[1]
    return -0.5 * (d * (_LOG_2PI + math.log(var)) + sq / var)


def mvn_sample(mean, cov, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    mean = np.asarray(mean, dtype=np.float64)
    L = chol_spd(np.asarray(cov, dtype=np.float64))
    if size is None:
        return mean + L @ rng.standard_normal(mean.size)
    return mean + rng.standard_normal((size, mean.size)) @ L.T


def moments_from_precision(m_vec: np.ndarray, precision: np.ndarray):
    """(mean, covariance) of the Gaussian N(P^{-1} m, P^{-1})."""
    cov = spd_inverse(precision)
    return cov @ np.asarray(m_vec, dtype=np.float64), cov


# --------------------------------------------------------------------------
# Inverse-Wishart
# --------------------------------------------------------------------------

def inverse_wishart_sample(Psi: np.ndarray, nu: float, rng: np.random.Generator,
                           size: int | None = None) -> np.ndarray:
    """Draw from IW(Psi, nu) via Bartlett decomposition of the inverse Wishart."""
    Psi = np.asarray(Psi, dtype=np.float64)
    d = Psi.shape[0]
    if not nu > d - 1:
        raise ValidationError(f"nu must exceed dim - 1 = {d - 1}, got {nu}")
    return _inverse_wishart_draw(chol_spd(spd_inverse(Psi)), nu, rng, size)


def _inverse_wishart_draw(Ls: np.ndarray, nu: float, rng: np.random.Generator,
                          size: int | None = None) -> np.ndarray:
    """``inverse_wishart_sample`` given ``Ls``, the Cholesky factor of Psi^-1,
    for callers that draw many times from one scale."""
    d = Ls.shape[0]
    if size is None:
        bartlett = np.zeros((1, d, d))
        _bartlett_fill(bartlett[0], nu, rng)
        return _inverse_wishart_from_bartlett(Ls, bartlett)[0]
    n = int(size)
    A = np.zeros((n, d, d))
    for i in range(d):
        A[:, i, i] = np.sqrt(rng.chisquare(nu - i, size=n))
        for j in range(i):
            A[:, i, j] = rng.standard_normal(n)
    C = Ls[None, :, :] @ A
    c_inv = np.linalg.inv(C)
    out = np.einsum("nki,nkj->nij", c_inv, c_inv)
    return 0.5 * (out + np.transpose(out, (0, 2, 1)))


def _bartlett_fill(a: np.ndarray, nu: float, rng: np.random.Generator) -> None:
    """Bartlett variates of one Wishart(nu) draw into the zeroed (D, D) ``a``.

    Row by row: the chi-square diagonal entry, then the normals left of it,
    the order in which one ``inverse_wishart_sample`` call takes them.
    """
    for i in range(a.shape[0]):
        a[i, i] = math.sqrt(rng.chisquare(nu - i))
        for j in range(i):
            a[i, j] = rng.standard_normal()


def _inverse_wishart_from_bartlett(Ls: np.ndarray, bartlett: np.ndarray) -> np.ndarray:
    """IW draws (C C^T)^-1, C = Ls A, for a (n, D, D) stack of Bartlett factors A.

    ``Ls`` is the Cholesky factor of Psi^-1.  Each draw equals the single
    draw of ``inverse_wishart_sample`` from the same variates, bit for bit:
    the products are stacked ``matmul`` calls, which compute each matrix as
    the single product does, and C is inverted by ``_tril_inverses``.
    """
    c_inv = _tril_inverses(Ls[None] @ bartlett)
    out = np.swapaxes(c_inv, 1, 2) @ c_inv
    return 0.5 * (out + np.swapaxes(out, 1, 2))


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
    L_sig = chol_spd(Sigma)
    L_psi = chol_spd(Psi)
    logdet_sig = 2.0 * np.log(np.diag(L_sig)).sum()
    logdet_psi = 2.0 * np.log(np.diag(L_psi)).sum()
    half = solve_triangular(L_sig, L_psi, lower=True)
    trace_term = float(np.sum(half * half))   # tr(Sigma^{-1} Psi)
    return float(
        0.5 * nu * logdet_psi
        - 0.5 * nu * d * math.log(2.0)
        - multigammaln(0.5 * nu, d)
        - 0.5 * (nu + d + 1) * logdet_sig
        - 0.5 * trace_term
    )


# --------------------------------------------------------------------------
# Dirichlet / categorical / gamma
# --------------------------------------------------------------------------

def dirichlet_sample(conc: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    conc = np.asarray(conc, dtype=np.float64)
    if np.any(conc <= 0):
        raise ValidationError("Dirichlet concentration entries must be positive")
    return rng.dirichlet(conc)


def dirichlet_logpdf(x: np.ndarray, conc: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    conc = np.asarray(conc, dtype=np.float64)
    return float(xlogy(conc - 1.0, x).sum() + gammaln(conc.sum()) - gammaln(conc).sum())


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


def _categorical_cdf(log_weights: np.ndarray) -> np.ndarray:
    """Cumulative normalized weights along the last axis, built as
    ``categorical_sample`` builds them for one row."""
    lw = np.asarray(log_weights, dtype=np.float64)
    m = lw.max(axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        raise ValidationError("no admissible component: all log weights are -inf")
    p = np.exp(lw - m)
    p /= p.sum(axis=-1, keepdims=True)
    return p.cumsum(axis=-1)


def _categorical_from_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Labels for the uniforms ``u`` (n,), from one (M,) ``cdf`` or one row of a
    (n, M) ``cdf`` each.

    The label is the count of cumulative weights at or below u * total,
    clipped to the last column: ``categorical_sample``'s right-sided
    ``searchsorted``, so row k with ``u[k]`` gives the label of the k-th of
    n ``categorical_sample`` calls that drew ``u[k]``.
    """
    cdf = np.atleast_2d(cdf)
    target = u * cdf[:, -1]
    counts = (cdf <= target[:, None]).sum(axis=1)
    return np.minimum(counts, cdf.shape[1] - 1)


def categorical_sample_rows(log_weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row of a (N, M) log-weight matrix.

    The label is the first column whose cumulative weight reaches
    u = U * total, with U one ``rng.random()`` per row.  Weights are shifted
    by the row maximum, so each row's total is at least 1, and since U is a
    multiple of 2**-53, u is 0 or above 1e-16.  A term whose shifted log
    weight is below -707 (a term below 9.0e-308) is set to exactly 0, and
    ``exp`` never sees its value: below about -707.7, just above the
    subnormal range, ``exp`` leaves its vector path and runs 10-100x slower
    per element.  The flushed terms change only cumulative weights below
    about 1e-292, far below any nonzero u, so a label can move only when a
    rounding tie in a later cumulative sum meets u, an event of measure
    below 2**-50.  Columns of weight -inf are never drawn.  The input is not
    modified.
    """
    lw = np.asarray(log_weights, dtype=np.float64)
    return _categorical_sample_rows(lw, rng, out=None)


# exp(-707) = 9.0e-308, above the inputs below about -707.7 on which numpy's
# vector exp leaves its fast path
_EXP_FLOOR = -707.0


def _categorical_sample_rows(lw: np.ndarray, rng: np.random.Generator,
                             out: np.ndarray | None) -> np.ndarray:
    """``categorical_sample_rows`` working in ``out``, which may be ``lw`` itself."""
    m = lw.max(axis=1, keepdims=True)
    if not np.isfinite(m).all():
        raise ValidationError("no admissible component: a row has all -inf weights")
    c = np.subtract(lw, m, out=out)
    keep = c >= _EXP_FLOOR
    # clamp the flushed entries, -inf included, to the floor, so exp only sees
    # values in its fast range, then zero them: exp(-707) * 0 is exactly 0
    np.maximum(c, _EXP_FLOOR, out=c)
    np.exp(c, out=c)
    c *= keep
    c.cumsum(axis=1, out=c)
    u = rng.random((lw.shape[0], 1)) * c[:, -1:]
    # cumulative weights are monotone, so the first column at or above u is
    # the count of columns below it
    return (c >= u).argmax(axis=1).astype(np.int64, copy=False)


def gamma_logpdf(x, shape: float, rate: float) -> np.ndarray:
    """Log density of Gamma(shape, rate) evaluated elementwise."""
    x = np.asarray(x, dtype=np.float64)
    out = np.where(
        x > 0,
        xlogy(shape - 1.0, np.maximum(x, 1e-300)) - rate * x
        + shape * math.log(rate) - gammaln(shape),
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
            object.__setattr__(self, name, lw - logsumexp(lw))

    @property
    def dim(self) -> int:
        return self.rotations.shape[1]

    @property
    def num_rotations(self) -> int:
        return self.rotations.shape[0]

    @property
    def num_translations(self) -> int:
        return self.translations.shape[0]

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
    even grid sizes are rounded up so the identity / zero stay members.
    """
    check_dim(dim)
    if M_r is None:
        M_r = DEFAULT_NUM_ROTATIONS[dim]
    if M_t is None:
        M_t = default_num_translations(dim)
    if M_r < 1 or M_t < 1:
        raise ValidationError("candidate counts must be at least 1")
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
    trans_logw = -0.5 * np.einsum("md,md->m", translations, translations) / float(hyper.s2)

    return TransformCandidates(rotations, rot_logw, translations, trans_logw)
