"""Frame-0 chain initialization.

Hierarchical K-means (points -> particles, particle centers -> clusters),
empirical weights / velocity means / sample covariances, rigid transforms via
Kabsch alignment of assigned points against their observed displacements, and
data-dependent hyperparameters from frame statistics.

K-means picks its Lloyd passes by input size alone: a problem of at most
``_PLAIN_LLOYD_ENTRIES`` (2**14) point-center entries N * K computes every
distance in one block each pass, and a larger one keeps Yinyang group
bounds, which skip most distances but cost a fixed amount per pass.  The
crossover was measured between 2**14 and 2**15 entries.  Every k-means call
of a bench ``track`` frame (N ~ 300 points, L = 40 particles, K = 3) lies
below it, while the particle-level calls of ``recovery`` and ``scale`` lie
above it.  Both paths give the same labels, centers and generator state.
On the four ``track`` scenes of bench seed 1 (2-vCPU Xeon, one BLAS
thread), plain passes took ``init_state`` from 16.6 to 9.6 ms a frame and
the workload's ``first_state_s`` from 0.075 to 0.067 s.
"""
from __future__ import annotations

import math

import numpy as np

from . import rng as rngmod
from .distributions import _einsum, inverse_wishart_mean
from .rng import RngState, substream
from .types import (
    HyperParams,
    ModelState,
    Observations,
    ValidationError,
)


# Squared distances per block of the k-means distance pass (256 KiB of
# float64), so a block's accumulator and scratch stay in cache.  Measured as
# init_state on three N=5000, L=100 scenes together (2-vCPU Xeon, median of
# 7): 1.40 s at 2**15 or 2**16 entries, 1.51-1.52 s at 2**14 or 2**17, 2.00 s
# at 2**12, and 2.10 s with one unblocked (N, K) accumulator and scratch.
_KMEANS_BLOCK_ENTRIES = 1 << 15

# Problems of at most this many point-center entries (N * K) take plain
# Lloyd passes, which compute every distance; larger ones keep group bounds.
# One kmeans_pp call timed each way (clustered D=2 points, 2-vCPU Xeon):
# N x K = 300 x 40 takes 1.0 ms plain against 1.7 ms bounded, 1600 x 10
# 2.2 against 2.4 ms and 2000 x 8 1.4 against 1.5 ms; at about 2**15 entries
# the bounds win (3200 x 10: 4.2 ms plain against 3.2 ms bounded).
_PLAIN_LLOYD_ENTRIES = 1 << 14

# Centers per group of the Lloyd lower bounds (see ``_kmeans_single``).
_GROUP_SIZE = 10

# Safety margins of the k-means pruning bounds (see ``_settled``).
_BOUND_MARGIN = 1e-9
_BOUND_FLOOR = 1e-150


def _coordinate_order(d: int) -> tuple[int, ...]:
    """The order in which einsum's ``"nd,nd->n"`` contraction adds squared coordinates.

    einsum keeps even and odd coordinates in two running sums and adds them
    last, so D=3 sums as (0 + 2) + 1.  Adding squares one at a time in this
    order gives its sums bitwise for D <= 3; larger D adds in index order.
    """
    return (0, 2, 1) if d == 3 else tuple(range(d))


def _sq_dist_blocks(points: np.ndarray, centers: np.ndarray, scratch: np.ndarray):
    """Yield (start, stop, d2) over row blocks, with d2 the (stop - start, K)
    squared Euclidean distances of those points to the K centers: the rows
    of ``centers`` (K, D), or for point i those of ``centers[i]`` (K, D).

    Coordinates are accumulated one at a time, in ``_coordinate_order``, in
    the two rows of the flat ``scratch`` (2, entries), which must hold at
    least K entries a row; no (N, K, D) difference tensor is built, and d2
    is only valid until the next block.
    """
    k = centers.shape[-2]
    rows = scratch.shape[1] // k
    first, *rest = _coordinate_order(points.shape[1])
    for start in range(0, points.shape[0], rows):
        x = points[start:start + rows]
        c = centers if centers.ndim == 2 else centers[start:start + rows]
        acc = scratch[0, :len(x) * k].reshape(len(x), k)
        tmp = scratch[1, :len(x) * k].reshape(len(x), k)
        np.subtract(x[:, first:first + 1], c[..., first], out=acc)
        np.square(acc, out=acc)
        for j in rest:
            np.subtract(x[:, j:j + 1], c[..., j], out=tmp)
            np.square(tmp, out=tmp)
            acc += tmp
        yield start, start + len(x), acc


def _sq_dists_to(cols: np.ndarray, center: np.ndarray, out: np.ndarray,
                 tmp: np.ndarray) -> None:
    """Squared distances of the column-major points ``cols`` (D, N) to one
    center, into ``out``, added in ``_coordinate_order``."""
    first, *rest = _coordinate_order(len(cols))
    np.subtract(cols[first], center[first], out=out)
    np.square(out, out=out)
    for j in rest:
        np.subtract(cols[j], center[j], out=tmp)
        np.square(tmp, out=tmp)
        out += tmp


def _sq_norms(diff: np.ndarray) -> np.ndarray:
    """Row sums of squares, added in ``_coordinate_order``."""
    first, *rest = _coordinate_order(diff.shape[1])
    out = np.square(diff[:, first])
    for j in rest:
        out += np.square(diff[:, j])
    return out


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

    ``n_init`` >= 1 restarts keep the lowest-objective run (Lloyd converges
    to local minima); ``max_iter`` >= 0 caps the Lloyd passes.  Degenerate
    seeding (all remaining distances zero) falls back to sampling unused
    distinct points; fewer than K distinct points is an error.

    Every squared distance adds coordinates in einsum's ``"nd,nd->n"``
    order (``_coordinate_order``).  Seeding updates each point's distance to
    its nearest center from one column-major copy of the points.  A problem
    of at most ``_PLAIN_LLOYD_ENTRIES`` (2**14) point-center entries N * K
    takes plain Lloyd passes over one distance block; a larger one skips the
    distances that group bounds already settle (see ``_kmeans_single``).
    Either way the labels, centers and generator state are bitwise those of
    plain k-means++ and Lloyd on einsum distances.
    """
    points = np.asarray(points, dtype=np.float64)
    N = points.shape[0]
    if not N >= K >= 1:
        raise ValidationError(f"need N >= K >= 1, got N={N}, K={K}")
    if n_init < 1:
        raise ValidationError(f"n_init must be >= 1, got {n_init}")
    if max_iter < 0:
        raise ValidationError(f"max_iter must be >= 0, got {max_iter}")
    rng = seed if isinstance(seed, np.random.Generator) else substream(int(seed), rngmod.INIT)
    cols = np.ascontiguousarray(points.T)
    best = None
    for _ in range(n_init):
        centers, labels = _kmeans_single(points, cols, K, rng, max_iter)
        obj = kmeans_objective(points, centers, labels)
        if best is None or obj < best[0]:
            best = (obj, centers, labels)
    return best[1], best[2]


def _seed_centers(points: np.ndarray, cols: np.ndarray, K: int,
                  rng: np.random.Generator) -> np.ndarray:
    """K-means++ seeding: each next center is a point drawn with probability
    proportional to its squared distance to the nearest center so far.

    The running minimum is updated from the column-major ``cols`` (D, N),
    one coordinate at a time; the draw keeps the ``d2 / total``, cumsum and
    searchsorted sequence.  A shortfall of distinct points can only show
    where every remaining distance is zero, so it is checked there.
    """
    N = cols.shape[1]
    centers = np.empty((K, cols.shape[0]))
    centers[0] = points[rng.integers(N)]
    d2, new, tmp = np.empty(N), np.empty(N), np.empty(N)
    _sq_dists_to(cols, centers[0], d2, tmp)
    for k in range(1, K):
        total = d2.sum()
        if total > 0:
            idx = min(int(np.searchsorted(np.cumsum(d2 / total), rng.random())), N - 1)
        else:
            # all mass on existing centers; resample among unused distinct points
            used = {tuple(c) for c in centers[:k]}
            candidates = [i for i in range(N) if tuple(points[i]) not in used]
            if not candidates:
                distinct = np.unique(points, axis=0).shape[0]
                raise ValidationError(f"need at least K={K} distinct points, got {distinct}")
            idx = candidates[rng.integers(len(candidates))]
        centers[k] = points[idx]
        _sq_dists_to(cols, centers[k], new, tmp)
        np.minimum(d2, new, out=d2)
    return centers


def _center_groups(centers: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """t groups of nearby centers: a (t, kmax) table of center indices, each
    row ascending and padded with K, and each center's group.

    The centers are bisected recursively along their widest coordinate, in
    proportion to the groups on each side, so grouping draws nothing from
    the generator and the groups are about K / t centers each (exactly 10
    for K = 30, 40 or 100), which keeps the padding of the table small.
    """
    K = len(centers)
    groups = []

    def split(idx: np.ndarray, n: int) -> None:
        if n == 1:
            groups.append(np.sort(idx))
            return
        pts = centers[idx]
        axis = int(np.argmax(np.ptp(pts, axis=0)))
        idx = idx[np.argsort(pts[:, axis], kind="stable")]
        cut = len(idx) * (n // 2) // n
        split(idx[:cut], n // 2)
        split(idx[cut:], n - n // 2)

    split(np.arange(K), t)
    members = np.full((t, max(map(len, groups))), K)
    group_of = np.empty(K, dtype=np.intp)
    for g, idx in enumerate(groups):
        members[g, :len(idx)] = idx
        group_of[idx] = g
    return members, group_of


def _kmeans_single(points: np.ndarray, cols: np.ndarray, K: int,
                   rng: np.random.Generator, max_iter: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """One k-means++ seeding and Lloyd run: plain passes (``_plain_lloyd``)
    when N * K is at most ``_PLAIN_LLOYD_ENTRIES``, group-bounded ones above.

    Input size alone picks the path.  Below the crossover, measured between
    2**14 and 2**15 entries, the bounds' fixed cost per pass (half gaps,
    (point, group) pairs, bound updates) outweighs the distances they skip;
    above it the skipped distances pay for it.

    The seeded centers are split into t = ceil(K / 10) groups of nearby
    centers (``_center_groups``), fixed for the run (Ding et al. 2015,
    "Yinyang K-Means"; t = 1 keeps one bound per point, as Hamerly's
    does).  The first pass
    computes every distance.  From then on each point keeps ``upper``, at
    least its distance to its own center, and a (t, N) table of lower
    bounds: group g's is at most the point's distance to any center of g
    other than its own.  They start from the distance to the nearest other
    center and, by the triangle inequality, from the group's gap to the own
    center less ``upper``.  When center k moves by delta_k, ``upper`` grows
    by its own center's delta and group g's bound shrinks by the largest
    delta in g.  A point is settled when its upper bound, tightened to the
    exact distance if needed, lies below both its smallest group bound and
    half the gap from its center to the nearest other one.  An unsettled
    point recomputes its own center's group and every group whose bound does
    not clear its exact distance, as (point, group) pairs (``_reassign``).
    When every unsettled point needs every group, as always for t = 1, the
    pass takes full rows (``_nearest_two``) and sets each group bound to the
    distance to the nearest other center.

    The labels stay those of plain Lloyd, bitwise: the bounds and half gaps
    are rounded down by a 1e-9 relative margin at every update, and
    ``upper`` is rounded up by it when compared, so every center a settled
    point or a skipped group leaves out is farther than the own center by
    far more than rounding can move a computed squared distance (~1e-15
    relative); an exact tie is never settled.  Recomputed distances hold
    the values a full pass would, and exact ties across groups go to the
    lowest index, as ``argmin`` does.  So the centers, the iteration count,
    the empty-cell reseeds (which keep their full pass) and the generator
    state are unchanged.
    """
    N = points.shape[0]
    centers = _seed_centers(points, cols, K, rng)
    scratch = np.empty((2, min(N, max(1, _KMEANS_BLOCK_ENTRIES // K)) * K))
    if N * K <= _PLAIN_LLOYD_ENTRIES:
        return _plain_lloyd(points, centers, scratch, max_iter)
    members, group_of = _center_groups(centers, -(-K // _GROUP_SIZE))
    # the centers and their moves with an inf center and a zero move at
    # index K, which the padding slots of ``members`` pick
    padded = np.full((K + 1, points.shape[1]), np.inf)
    moved = np.zeros(K + 1)

    labels, near, second = _nearest_two(points, centers, scratch)
    upper = np.sqrt(near)
    lower = np.tile(_lower_bound(second), (len(members), 1))
    if len(members) > 1:
        # a group's centers lie at least its gap to the own center, less
        # ``upper``, away from the point
        gaps = np.take(_group_gaps(centers, members, scratch), labels, axis=1)
        np.maximum(lower, gaps - (1.0 + _BOUND_MARGIN) * upper, out=lower)
    old = np.empty_like(centers)
    for _ in range(max_iter):
        old[:] = centers
        _update_centers(points, labels, centers, scratch)

        # a center that moved by delta moves each distance to it by at most delta
        moved[:K] = np.sqrt(_sq_norms(centers - old))
        upper += moved[labels]
        lower *= 1.0 - _BOUND_MARGIN
        lower -= (1.0 + _BOUND_MARGIN) * moved[members].max(axis=1, keepdims=True)
        bound = np.maximum(lower.min(axis=0), _half_gaps(centers, scratch)[labels])

        # the points no bound settles, first with the loose upper bound, then
        # with the exact distance to the own center, recompute some groups
        rows = np.flatnonzero(~_settled(upper, bound))
        upper[rows] = np.sqrt(_sq_norms(points[rows] - centers[labels[rows]]))
        rows = rows[~_settled(upper[rows], bound[rows])]
        if not len(rows):
            break
        # each point recomputes its own center's group and the groups whose
        # bound its exact distance does not clear; full rows when that is all
        need = ~_settled(upper[rows], lower[:, rows])
        need[group_of[labels[rows]], np.arange(len(rows))] = True
        if need.all():
            new_labels, best, second = _nearest_two(points[rows], centers, scratch)
            lower[:, rows] = _lower_bound(second)
        else:
            padded[:K] = centers
            new_labels, best = _reassign(points, rows, need, padded[members], members,
                                         lower, scratch)
        upper[rows] = np.sqrt(best)
        if np.array_equal(new_labels, labels[rows]):
            break
        labels[rows] = new_labels
    return centers, labels


def _plain_lloyd(points: np.ndarray, centers: np.ndarray, scratch: np.ndarray,
                 max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd passes from the seeded ``centers`` (updated in place) that
    compute every distance, to a label fixpoint or ``max_iter`` updates."""
    labels = _nearest(points, centers, scratch)
    for _ in range(max_iter):
        _update_centers(points, labels, centers, scratch)
        new_labels = _nearest(points, centers, scratch)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centers, labels


def _nearest(points: np.ndarray, centers: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Each point's nearest center, the first one on a tie."""
    labels = np.empty(points.shape[0], dtype=np.intp)
    for start, stop, d2 in _sq_dist_blocks(points, centers, scratch):
        np.argmin(d2, axis=1, out=labels[start:stop])
    return labels


def _update_centers(points: np.ndarray, labels: np.ndarray, centers: np.ndarray,
                    scratch: np.ndarray) -> None:
    """One Lloyd update of ``centers`` in place: each cell's mean, and an
    empty cell reseeded at the worst-fit point, seeing the cells before it
    already updated and the cells after it not yet."""
    counts = np.bincount(labels, minlength=len(centers))
    means = _cell_means(points, labels, counts)
    done = 0
    for k in np.flatnonzero(counts == 0):
        centers[done:k] = means[done:k]
        far = np.empty(points.shape[0])
        for start, stop, dist in _sq_dist_blocks(points, centers, scratch):
            np.min(dist, axis=1, out=far[start:stop])
        centers[k] = points[int(np.argmax(far))]
        done = k + 1
    centers[done:] = means[done:]


def _reassign(points: np.ndarray, rows: np.ndarray, need: np.ndarray,
              grouped: np.ndarray, members: np.ndarray, lower: np.ndarray,
              scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centers of ``points[rows]`` among the groups ``need`` (t, R)
    marks for each, with their (t, N) group bounds ``lower`` updated in
    place; every center of an unmarked group must lie farther than the
    point's own one, whose group is marked.

    ``grouped`` (t, kmax, D) holds each group's centers, whose indices are
    in ``members`` (t, kmax), padded with inf and K.  The (point, group)
    pairs go through ``_nearest_two`` in chunks whose gathered centers fit
    one row of ``scratch``.
    Returns the labels (the first index among exact minima, as ``argmin``
    over a full row) and their squared distances.
    """
    R = len(rows)
    g, r = np.nonzero(need)
    lab, near, second = np.empty(len(g), dtype=np.intp), np.empty(len(g)), np.empty(len(g))
    step = scratch.shape[1] // grouped[0].size
    for a in range(0, len(g), step):
        pair = slice(a, a + step)
        lab[pair], near[pair], second[pair] = _nearest_two(
            points[rows[r[pair]]], grouped[g[pair]], scratch)
    nearest = members[g, lab]
    best = np.full(R, np.inf)
    np.minimum.at(best, r, near)
    tied = near == best[r]
    new = np.full(R, members.size)
    np.minimum.at(new, r[tied], nearest[tied])
    # a recomputed group's bound leaves out the new own center
    lower[g, rows[r]] = _lower_bound(np.where(nearest == new[r], second, near))
    return new, best


def _lower_bound(d2: np.ndarray) -> np.ndarray:
    """A distance bound from squared distances, rounded down by the margin."""
    return (1.0 - _BOUND_MARGIN) * np.sqrt(d2)


def _settled(upper: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Whether a point's own center is nearer than every other one by a gap
    no rounding of the distances can close.

    The relative margin dwarfs the ~1e-15 rounding of a computed distance;
    the absolute one keeps squared distances out of the subnormal range.
    NaN bounds and infinite upper bounds settle nothing.
    """
    return upper * (1.0 + _BOUND_MARGIN) + _BOUND_FLOOR < bound


def _group_gaps(centers: np.ndarray, members: np.ndarray, scratch: np.ndarray
                ) -> np.ndarray:
    """(t, K) distances from each group to each center, leaving the center
    itself out, rounded down by the margin; infinite where none is left."""
    K = centers.shape[0]
    gaps = np.empty((members.shape[0], K))
    for start, stop, d2 in _sq_dist_blocks(centers, centers, scratch):
        d2 = np.hstack([d2, np.full((stop - start, 1), np.inf)])
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        np.min(d2[:, members], axis=2, out=gaps[:, start:stop].T)
    return _lower_bound(gaps)


def _half_gaps(centers: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Half the distance from each center to its nearest other one, rounded
    down by the margin; infinite for a single center."""
    K = centers.shape[0]
    gaps = np.empty(K)
    for start, stop, d2 in _sq_dist_blocks(centers, centers, scratch):
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        np.min(d2, axis=1, out=gaps[start:stop])
    return 0.5 * _lower_bound(gaps)


def _nearest_two(points: np.ndarray, centers: np.ndarray, scratch: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each point's nearest center (the first one on a tie), and its squared
    distances to that center and to the nearest other one (inf for a single
    center); ``centers`` is shared or per point, as in ``_sq_dist_blocks``."""
    n = points.shape[0]
    labels = np.empty(n, dtype=np.intp)
    near, second = np.empty(n), np.empty(n)
    for start, stop, d2 in _sq_dist_blocks(points, centers, scratch):
        own = labels[start:stop]
        np.argmin(d2, axis=1, out=own)
        rows = np.arange(stop - start)
        near[start:stop] = d2[rows, own]
        d2[rows, own] = np.inf
        if centers.ndim == 2:
            np.min(d2, axis=1, out=second[start:stop])
        else:
            # a group's few columns: numpy reduces such short rows ~3x slower
            # than it takes their elementwise minimum column by column
            out = second[start:stop]
            np.minimum(d2[:, 0], d2[:, -1], out=out)
            for j in range(1, d2.shape[1] - 1):
                np.minimum(out, d2[:, j], out=out)
    return labels, near, second


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
    return float(_einsum("nd,nd->", diff, diff))


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
    """The symmetrized ``cov`` if it passes ``validate()``'s definiteness
    test, a plain Cholesky factorization; otherwise a copy of ``fallback``."""
    cov = 0.5 * (cov + cov.T)
    try:
        np.linalg.cholesky(cov)
        return cov
    except np.linalg.LinAlgError:
        return fallback.copy()


def init_state(obs: Observations, K: int, L: int, hyper: HyperParams, seed: int
               ) -> ModelState:
    """Hierarchical K-means initialization of the full latent state.

    Particles come from K-means++ on positions, clusters from a second pass
    over the particle centers.  Weights and velocity means are empirical;
    rigid transforms come from Kabsch alignment per cluster.  A covariance
    is the sample covariance of a cell with more than D members when that
    passes ``validate()``'s definiteness test, and the prior mean otherwise:
    the sample covariance of m <= D points is singular.
    """
    N, d = len(obs), obs.dim
    if not N >= L >= K >= 1:
        raise ValidationError(f"need N >= L >= K >= 1, got N={N}, L={L}, K={K}")
    if hyper.dim != d:
        raise ValidationError(f"hyperparameters are {hyper.dim}-D, the observations {d}-D")
    hyper.alpha_vec(K)
    hyper.beta_vec(L)

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
        if m > d:
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
        if m > d:
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
        z_B=z_B, z_H=z_H, rng=RngState(seed), feat=feat,
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
