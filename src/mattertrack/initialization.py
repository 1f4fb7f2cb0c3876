"""Frame-0 chain initialization.

Hierarchical K-means (points -> particles, particle centers -> clusters),
empirical weights / velocity means / sample covariances, rigid transforms via
Kabsch alignment of assigned points against their observed displacements, and
data-dependent hyperparameters from frame statistics.
"""
from __future__ import annotations

import math

import numpy as np

from . import rng as rngmod
from .distributions import chol_spd, inverse_wishart_mean
from .rng import RngState, substream
from .types import (
    Assignments,
    HyperParams,
    ModelState,
    NumericalDomainError,
    Observations,
    ValidationError,
)


# Squared distances per block of the k-means distance pass (256 KiB of
# float64), so a block's accumulator and scratch stay in cache.  Measured as
# init_state on three N=5000, L=100 scenes together (2-vCPU Xeon, median of
# 7): 1.40 s at 2**15 or 2**16 entries, 1.51-1.52 s at 2**14 or 2**17, 2.00 s
# at 2**12, and 2.10 s with one unblocked (N, K) accumulator and scratch.
_KMEANS_BLOCK_ENTRIES = 1 << 15

# Safety margins of the k-means pruning bounds (see ``_settled``).
_BOUND_MARGIN = 1e-9
_BOUND_FLOOR = 1e-150


def _sq_dist_blocks(points: np.ndarray, centers: np.ndarray, scratch: np.ndarray):
    """Yield (start, stop, d2) over row blocks, with d2 the (stop - start, K)
    squared Euclidean distances of those points to every center.

    Coordinates are accumulated one at a time in ``scratch`` (2, rows, K), so
    no (N, K, D) difference tensor is built; d2 is only valid until the next
    block.
    """
    rows = scratch.shape[1]
    for start in range(0, points.shape[0], rows):
        x = points[start:start + rows]
        acc, tmp = scratch[0, :len(x)], scratch[1, :len(x)]
        np.subtract(x[:, :1], centers[:, 0], out=acc)
        np.square(acc, out=acc)
        for j in range(1, points.shape[1]):
            np.subtract(x[:, j:j + 1], centers[:, j], out=tmp)
            np.square(tmp, out=tmp)
            acc += tmp
        yield start, start + len(x), acc


def _group_slices(labels: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A stable argsort of ``labels`` and the offsets of each group's slice.

    Group g's members are ``order[bounds[g]:bounds[g + 1]]``, in index order,
    so rows gathered through ``order`` reproduce a boolean-mask selection.
    """
    order = np.argsort(labels, kind="stable")
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(labels, minlength=n), out=bounds[1:])
    return order, bounds


def kmeans_pp(points: np.ndarray, K: int, seed, max_iter: int = 100,
              n_init: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """K-means++ seeding followed by Lloyd iterations to a label fixpoint.

    ``n_init`` restarts keep the lowest-objective run (Lloyd converges to
    local minima).  Degenerate seeding (all remaining distances zero) falls
    back to sampling unused distinct points; fewer than K distinct points is
    an error.  The Lloyd passes skip the distances that triangle-inequality
    bounds already settle (see ``_kmeans_single``) and return bitwise the
    labels, centers and generator state of plain Lloyd.
    """
    points = np.asarray(points, dtype=np.float64)
    N = points.shape[0]
    if not N >= K >= 1:
        raise ValidationError(f"need N >= K >= 1, got N={N}, K={K}")
    distinct = np.unique(points, axis=0)
    if distinct.shape[0] < K:
        raise ValidationError(f"need at least K={K} distinct points, got {distinct.shape[0]}")
    rng = seed if isinstance(seed, np.random.Generator) else substream(int(seed), rngmod.INIT)
    best = None
    for _ in range(max(1, n_init)):
        centers, labels = _kmeans_single(points, K, rng, max_iter)
        obj = kmeans_objective(points, centers, labels)
        if best is None or obj < best[0]:
            best = (obj, centers, labels)
    return best[1], best[2]


def _kmeans_single(points: np.ndarray, K: int, rng: np.random.Generator,
                   max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """One k-means++ seeding and Lloyd run with Hamerly-bounded passes.

    The first pass computes every distance.  From then on each point keeps
    ``upper``, at least its distance to its own center, and ``lower``, at
    most its distance to any other center.  When center k moves by delta_k,
    ``upper`` grows by its own center's delta and ``lower`` shrinks by the
    largest delta among the other centers.  A point is settled when its
    upper bound, tightened to the exact distance if needed, lies below the
    larger of ``lower`` and half the gap from its center to the nearest
    other one.  Only unsettled points get a full row of distances, computed
    by the same per-coordinate operations as a full pass.

    The labels stay those of plain Lloyd, bitwise: ``lower`` and the half
    gaps are rounded down by a 1e-9 relative margin at every update, and
    ``upper`` is rounded up by it when compared, so a settled point's own
    center is nearer than every other one by far more than rounding can
    move a computed squared distance (~1e-15 relative); an exact tie is
    never settled.  A recomputed row holds the values a full pass would.
    So the centers, the iteration count, the empty-cell reseeds (which keep
    their full pass) and the generator state are unchanged.
    """
    N = points.shape[0]
    centers = np.empty((K, points.shape[1]))
    centers[0] = points[rng.integers(N)]
    diff = points - centers[0]
    d2 = np.einsum("nd,nd->n", diff, diff)
    for k in range(1, K):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            idx = int(np.searchsorted(np.cumsum(probs), rng.random()).clip(0, N - 1))
        else:
            # all mass on existing centers; resample among unused distinct points
            used = {tuple(c) for c in centers[:k]}
            candidates = [i for i in range(N) if tuple(points[i]) not in used]
            idx = candidates[rng.integers(len(candidates))]
        centers[k] = points[idx]
        diff = points - centers[k]
        d2 = np.minimum(d2, np.einsum("nd,nd->n", diff, diff))

    scratch = np.empty((2, min(N, max(1, _KMEANS_BLOCK_ENTRIES // K)), K))
    labels, upper, lower = _nearest_two(points, centers, scratch)
    old = np.empty_like(centers)
    for _ in range(max_iter):
        counts = np.bincount(labels, minlength=K)
        means = _cell_means(points, labels, counts)
        old[:] = centers
        # an empty cell is reseeded at the worst-fit point, seeing the cells
        # before it already updated and the cells after it not yet
        done = 0
        for k in np.flatnonzero(counts == 0):
            centers[done:k] = means[done:k]
            far = np.empty(N)
            for start, stop, dist in _sq_dist_blocks(points, centers, scratch):
                np.min(dist, axis=1, out=far[start:stop])
            centers[k] = points[int(np.argmax(far))]
            done = k + 1
        centers[done:] = means[done:]

        # a center that moved by delta moves each distance to it by at most delta
        moved = np.sqrt(_sq_norms(centers - old))
        drop = np.full(K, moved.max())
        if K > 1:
            drop[np.argmax(moved)] = np.partition(moved, -2)[-2]
        upper += moved[labels]
        lower *= 1.0 - _BOUND_MARGIN
        lower -= (1.0 + _BOUND_MARGIN) * drop[labels]
        bound = np.maximum(lower, _half_gaps(centers, scratch)[labels])

        # the points no bound settles, first with the loose upper bound, then
        # with the exact distance to the own center, get a full row
        rows = np.flatnonzero(~_settled(upper, bound))
        upper[rows] = np.sqrt(_sq_norms(points[rows] - centers[labels[rows]]))
        rows = rows[~_settled(upper[rows], bound[rows])]
        new_labels, upper[rows], lower[rows] = _nearest_two(points[rows], centers, scratch)
        if np.array_equal(new_labels, labels[rows]):
            break
        labels[rows] = new_labels
    return centers, labels


def _sq_norms(diff: np.ndarray) -> np.ndarray:
    """Row sums of squares, one coordinate at a time as in ``_sq_dist_blocks``."""
    out = np.square(diff[:, 0])
    for j in range(1, diff.shape[1]):
        out += np.square(diff[:, j])
    return out


def _settled(upper: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Whether a point's own center is nearer than every other one by a gap
    no rounding of the distances can close.

    The relative margin dwarfs the ~1e-15 rounding of a computed distance;
    the absolute one keeps squared distances out of the subnormal range.
    NaN or infinite bounds settle nothing.
    """
    return upper * (1.0 + _BOUND_MARGIN) + _BOUND_FLOOR < bound


def _half_gaps(centers: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Half the distance from each center to its nearest other one, rounded
    down by the margin; infinite for a single center."""
    K = centers.shape[0]
    gaps = np.empty(K)
    for start, stop, d2 in _sq_dist_blocks(centers, centers, scratch):
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        np.min(d2, axis=1, out=gaps[start:stop])
    return 0.5 * (1.0 - _BOUND_MARGIN) * np.sqrt(gaps)


def _nearest_two(points: np.ndarray, centers: np.ndarray, scratch: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each point's nearest center (the first one on a tie), its distance to
    that center, and a lower bound on its distance to every other center."""
    n = points.shape[0]
    labels = np.empty(n, dtype=np.intp)
    near, second = np.empty(n), np.empty(n)
    for start, stop, d2 in _sq_dist_blocks(points, centers, scratch):
        own = labels[start:stop]
        np.argmin(d2, axis=1, out=own)
        rows = np.arange(stop - start)
        near[start:stop] = d2[rows, own]
        d2[rows, own] = np.inf
        np.min(d2, axis=1, out=second[start:stop])
    return labels, np.sqrt(near), (1.0 - _BOUND_MARGIN) * np.sqrt(second)


def _cell_means(points: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(K, D) means of each cell's points; rows of empty cells are meaningless.

    Each entry equals ``points[labels == k].mean(axis=0)``.  For D >= 2 numpy
    sums those rows in index order, as ``np.bincount`` does.  A single column
    it sums pairwise, so there each cell's contiguous slice is averaged.  The
    slice means are bitwise equal for every D, but at N=5000, K=100 they make
    init_state ~35% slower than the bincount sums (2.02 s against 1.50 s for
    three scenes), so they serve only D = 1.
    """
    K, d = len(counts), points.shape[1]
    if d == 1:
        order, bounds = _group_slices(labels, K)
        ordered = points[order]
        return np.array([ordered[a:b].mean(axis=0) if b > a else [0.0]
                         for a, b in zip(bounds[:-1], bounds[1:])])
    sums = np.empty((K, d))
    for j in range(d):
        sums[:, j] = np.bincount(labels, weights=points[:, j], minlength=K)
    return sums / np.maximum(counts, 1)[:, None]


def kmeans_objective(points: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> float:
    diff = points - centers[labels]
    return float(np.einsum("nd,nd->", diff, diff))


def kabsch_align(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal rigid (R, t) mapping src onto dst in least squares.

    R is recovered from the SVD of the cross-covariance of the centered sets
    with the determinant-corrected middle factor, so det(R) = +1.  A
    rank-deficient cross-covariance falls back to the identity rotation with
    a translation of means.
    """
    src = np.atleast_2d(np.asarray(src, dtype=np.float64))
    dst = np.atleast_2d(np.asarray(dst, dtype=np.float64))
    if src.shape[0] == 0:
        raise ValidationError("kabsch_align requires at least one point")
    if src.shape != dst.shape:
        raise ValidationError(f"src shape {src.shape} != dst shape {dst.shape}")
    d = src.shape[1]
    src_mean = src.mean(axis=0)
    dst_mean = dst.mean(axis=0)
    H = (src - src_mean).T @ (dst - dst_mean)
    if np.linalg.matrix_rank(H) < d:
        return np.eye(d), dst_mean - src_mean
    U, _, Vt = np.linalg.svd(H)
    D = np.eye(d)
    D[-1, -1] = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ D @ U.T
    t = dst_mean - R @ src_mean
    return R, t


def _spd_or(cov: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    cov = 0.5 * (cov + cov.T)
    try:
        chol_spd(cov)
        return cov
    except NumericalDomainError:
        return fallback.copy()


def init_state(obs: Observations, K: int, L: int, hyper: HyperParams, seed: int
               ) -> ModelState:
    """Hierarchical K-means initialization of the full latent state.

    Particles come from K-means++ on positions, clusters from a second pass
    over the particle centers.  Weights and velocity means are empirical;
    covariances are sample covariances with a prior-mean fallback below two
    members; rigid transforms come from Kabsch alignment per cluster.
    """
    N, d = len(obs), obs.dim
    if not N >= L >= K >= 1:
        raise ValidationError(f"need N >= L >= K >= 1, got N={N}, L={L}, K={K}")
    hyper.validate(d)

    part_rng = substream(seed, rngmod.INIT, 0)
    clus_rng = substream(seed, rngmod.INIT, 1)
    mu_B, z_B = kmeans_pp(obs.positions, L, part_rng, n_init=4)
    mu_H, z_H = kmeans_pp(mu_B, K, clus_rng, n_init=8)

    counts_b = np.bincount(z_B, minlength=L)
    counts_h = np.bincount(z_H, minlength=K)
    pi_B = counts_b / N
    pi_H = counts_h / L

    prior_b = inverse_wishart_mean(hyper.Psi_B, hyper.nu_B)
    prior_v = inverse_wishart_mean(hyper.Psi_V, hyper.nu_V)
    prior_h = inverse_wishart_mean(hyper.Psi_H, hyper.nu_H)

    # each group's members as one contiguous slice, in index order, so every
    # statistic sees the rows a boolean mask would select, in the same order
    order_b, bounds_b = _group_slices(z_B, L)
    pos_b, velo_b = obs.positions[order_b], obs.velocities[order_b]
    vel = np.zeros((L, d))
    Sigma_B = np.empty((L, d, d))
    Sigma_V = np.empty((L, d, d))
    for ell, (a, b) in enumerate(zip(bounds_b[:-1], bounds_b[1:])):
        m = int(b - a)
        if m:
            vel[ell] = velo_b[a:b].mean(axis=0)
        if m >= 2:
            dx = pos_b[a:b] - mu_B[ell]
            dv = velo_b[a:b] - vel[ell]
            Sigma_B[ell] = _spd_or(dx.T @ dx / (m - 1), prior_b)
            Sigma_V[ell] = _spd_or(dv.T @ dv / (m - 1), prior_v)
        else:
            Sigma_B[ell] = prior_b
            Sigma_V[ell] = prior_v

    order_h, bounds_h = _group_slices(z_H, K)
    mu_h = mu_B[order_h]
    # points grouped by the cluster of their particle
    order_p, bounds_p = _group_slices(z_H[z_B], K)
    pos_p, velo_p = obs.positions[order_p], obs.velocities[order_p]
    Sigma_H = np.empty((K, d, d))
    rot = np.empty((K, d, d))
    trans = np.zeros((K, d))
    for k in range(K):
        a, b = bounds_h[k], bounds_h[k + 1]
        m = int(b - a)
        if m >= 2:
            dm = mu_h[a:b] - mu_H[k]
            Sigma_H[k] = _spd_or(dm.T @ dm / (m - 1), prior_h)
        else:
            Sigma_H[k] = prior_h
        a, b = bounds_p[k], bounds_p[k + 1]
        if b > a:
            src = pos_p[a:b]
            rot[k], trans[k] = kabsch_align(src, src + velo_p[a:b])
        else:
            rot[k] = np.eye(d)

    feat = None
    if obs.features is not None:
        feat_b = obs.features[order_b]
        feat = np.zeros((L, feat_b.shape[1]))
        for ell, (a, b) in enumerate(zip(bounds_b[:-1], bounds_b[1:])):
            if b > a:
                feat[ell] = feat_b[a:b].mean(axis=0)

    return ModelState(
        dim=d, mu_B=mu_B, Sigma_B=Sigma_B, vel=vel, Sigma_V=Sigma_V, pi_B=pi_B,
        mu_H=mu_H, Sigma_H=Sigma_H, rot=rot, trans=trans, pi_H=pi_H,
        assignments=Assignments(z_B, z_H), rng=RngState(seed), feat=feat,
    )


def data_dependent_hyperparams(obs: Observations, state: ModelState,
                               base: HyperParams | None = None) -> HyperParams:
    """Hyperparameters from frame statistics.

    The cluster location prior is the per-axis median position.  Degrees of
    freedom are floored medians of weight-proportional point counts, clamped
    to D + 2.  Inverse-Wishart scale matrices are isotropic and calibrated so
    the prior MEAN sits at the median covariance length scale (median of
    trace/D over components): Psi = scale * (nu - D - 1) * I.  Calibrating
    raw Psi instead leaves a prior mean of scale/nu, which collapses every
    covariance once nu reaches data-scale counts and turns assignment into
    nearest-center matching.  All other fields are inherited from ``base``.
    """
    d = obs.dim
    if base is None:
        base = HyperParams.default(d)
    N = len(obs)
    mu_prior = np.median(obs.positions, axis=0)
    scale_b = float(np.median(np.trace(state.Sigma_B, axis1=1, axis2=2) / d))
    scale_v = float(np.median(np.trace(state.Sigma_V, axis1=1, axis2=2) / d))
    scale_h = float(np.median(np.trace(state.Sigma_H, axis1=1, axis2=2) / d))
    nu_b = max(float(math.floor(np.median(state.pi_B * N))), d + 2.0)
    nu_h = max(float(math.floor(np.median(state.pi_H * N))), d + 2.0)
    eye = np.eye(d)
    return base.replace(
        mu_H_prior=mu_prior,
        Psi_B=scale_b * (nu_b - d - 1) * eye,
        Psi_V=scale_v * (nu_b - d - 1) * eye,
        Psi_H=scale_h * (nu_h - d - 1) * eye,
        nu_B=nu_b,
        nu_V=nu_b,
        nu_H=nu_h,
    )
