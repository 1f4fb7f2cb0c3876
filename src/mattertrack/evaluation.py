"""Grouping metrics: probe-point segmentation scores, matter-weighted
Jaccard, and the adjusted Rand index used as the recovery oracle."""
from __future__ import annotations

import warnings

import numpy as np

from . import rng as rngmod
from .rng import substream
from .types import ModelState, Observations, ValidationError


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected partition agreement; 1.0 iff identical up to relabeling."""
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if a.shape != b.shape:
        raise ValidationError(f"label arrays differ in length: {a.shape} vs {b.shape}")
    n = a.size
    if n == 0:
        raise ValidationError("label arrays are empty")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb2(n)
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


def matter_weighted_jaccard(counts, weights, overlaps, foreground=None) -> float:
    """Overlap score weighting each particle by extent times mixture weight.

    ``counts`` are per-particle point/pixel counts, ``weights`` mixture
    probabilities, ``overlaps`` fractional ground-truth overlaps in [0, 1].
    Foreground attribution defaults to majority overlap (f > 1/2).  Returns
    sum(w f) over foreground divided by that plus sum(w (1 - f)) over
    background; a zero denominator scores 0 with a warning.
    """
    n = np.asarray(counts, dtype=np.float64)
    pi = np.asarray(weights, dtype=np.float64)
    f = np.asarray(overlaps, dtype=np.float64)
    if not (n.shape == pi.shape == f.shape):
        raise ValidationError("counts, weights, overlaps must have equal shapes")
    if np.any(n < 0) or np.any(pi < 0):
        raise ValidationError("counts and weights must be non-negative")
    if np.any((f < 0) | (f > 1)):
        raise ValidationError("overlaps must lie in [0, 1]")
    w = n * pi
    fg = f > 0.5 if foreground is None else np.asarray(foreground, dtype=bool)
    num = float((w[fg] * f[fg]).sum())
    den = num + float((w[~fg] * (1.0 - f[~fg])).sum())
    if den == 0.0:
        warnings.warn("matter-weighted Jaccard has zero denominator; returning 0")
        return 0.0
    return num / den


def probe_point_eval(pred_segments: np.ndarray, gt_mask: np.ndarray,
                     n_probes: int = 100, seed: int = 0,
                     probes: np.ndarray | None = None
                     ) -> tuple[float, float, np.ndarray]:
    """Probe-based segmentation scores against a binary ground-truth mask.

    Probes are drawn uniformly over the ground-truth region (or supplied
    explicitly as (row, col) pairs).  Each probe's segment is the connected
    component of its predicted label; label -1 means unlabeled and scores an
    empty segment (Jaccard 0).  Returns (mean per-probe pixel accuracy, mean
    per-probe Jaccard, probe-coverage probability map).
    """
    pred = np.asarray(pred_segments)
    gt = np.asarray(gt_mask, dtype=bool)
    if pred.shape != gt.shape:
        raise ValidationError(f"prediction shape {pred.shape} != mask shape {gt.shape}")
    gt_cells = np.argwhere(gt)
    if gt_cells.shape[0] == 0:
        raise ValidationError("ground-truth mask is empty")
    if probes is not None:
        picks = np.asarray(probes, dtype=int)
        n_probes = picks.shape[0]
    else:
        rng = substream(seed, rngmod.EVAL)
        picks = gt_cells[rng.integers(gt_cells.shape[0], size=n_probes)]

    gt_area = int(gt.sum())
    total = gt.size
    seg_cache: dict[tuple[int, int], np.ndarray] = {}
    prob_map = np.zeros(pred.shape, dtype=np.float64)
    accs = np.empty(n_probes)
    jacs = np.empty(n_probes)
    for i, (r, c) in enumerate(picks):
        label = int(pred[r, c])
        if label < 0:
            accs[i] = (total - gt_area) / total
            jacs[i] = 0.0
            continue
        comp_map, _ = _components(pred, label, seg_cache)
        seg = comp_map == comp_map[r, c]
        inter = int((seg & gt).sum())
        union = int((seg | gt).sum())
        accs[i] = (total - union + inter) / total
        jacs[i] = inter / union if union else 0.0
        prob_map += seg
    prob_map /= n_probes
    return float(accs.mean()), float(jacs.mean()), prob_map


def _components(pred: np.ndarray, label: int, cache: dict) -> tuple[np.ndarray, int]:
    key = ("lbl", label)
    if key not in cache:
        cache[key] = _label(pred == label)
    return cache[key]


def _label(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected components of a 2-D boolean mask: (labels, count), with 0
    off the mask and components numbered 1.. in the raster order of their
    first cell.

    Each run of consecutive cells in a row gets one id in raster order.  Runs
    that share a column in adjacent rows are joined by union-find, whose root
    is the smallest id of the component, so the cost is linear in the cells.
    """
    starts = mask.copy()
    starts[:, 1:] &= ~mask[:, :-1]
    runs = np.cumsum(starts).reshape(mask.shape) * mask
    parent = list(range(int(runs.max(initial=0)) + 1))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    joined = mask[:-1] & mask[1:]
    for a, b in set(zip(runs[:-1][joined].tolist(), runs[1:][joined].tolist())):
        a, b = root(a), root(b)
        parent[max(a, b)] = min(a, b)
    roots = np.array([root(i) for i in range(len(parent))])
    _, numbers = np.unique(roots, return_inverse=True)
    return numbers[runs], int(numbers.max())


def _grid_cells(obs: Observations, grid_shape: tuple[int, int],
                extent=None) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of the grid cell each point falls in (first two coordinates).

    The grid spans ``extent`` ((x0, x1), (y0, y1)), or the points' bounding box.
    """
    H, W = grid_shape
    pos = obs.positions[:, :2]
    if extent is None:
        lo = pos.min(axis=0)
        hi = pos.max(axis=0)
    else:
        (x0, x1), (y0, y1) = extent
        lo = np.array([x0, y0])
        hi = np.array([x1, y1])
    span = np.maximum(hi - lo, 1e-12)
    cols = np.clip(((pos[:, 0] - lo[0]) / span[0] * W).astype(int), 0, W - 1)
    rows = np.clip(((pos[:, 1] - lo[1]) / span[1] * H).astype(int), 0, H - 1)
    return rows, cols


def state_to_segments(state: ModelState, obs: Observations, grid_shape: tuple[int, int],
                      extent=None) -> np.ndarray:
    """Rasterize inferred point groupings onto a grid of cluster labels.

    Each point lands in a cell (first two coordinates); the cell's label is
    the majority cluster among its points.  Cells without points, and points
    assigned to the outlier component, stay -1.
    """
    H, W = grid_shape
    rows, cols = _grid_cells(obs, grid_shape, extent)
    cluster_of_point = point_cluster_labels(state)

    votes = np.zeros((H, W, state.K), dtype=np.int64)
    ok = cluster_of_point >= 0
    np.add.at(votes, (rows[ok], cols[ok], cluster_of_point[ok]), 1)
    out = np.full((H, W), -1, dtype=np.int64)
    filled = votes.sum(axis=2) > 0
    out[filled] = votes[filled].argmax(axis=1)
    return out


def rasterize_mask(obs: Observations, point_mask: np.ndarray,
                   grid_shape: tuple[int, int], extent=None) -> np.ndarray:
    """Boolean grid marking cells where masked points outnumber unmasked ones."""
    H, W = grid_shape
    rows, cols = _grid_cells(obs, grid_shape, extent)
    mask = np.asarray(point_mask, dtype=bool)
    yes = np.zeros((H, W), dtype=np.int64)
    no = np.zeros((H, W), dtype=np.int64)
    np.add.at(yes, (rows[mask], cols[mask]), 1)
    np.add.at(no, (rows[~mask], cols[~mask]), 1)
    return yes > no


def point_cluster_labels(state: ModelState) -> np.ndarray:
    """Per-point inferred cluster label; outlier points get -1."""
    z = state.z_B
    out = np.full(z.shape, -1, dtype=np.int64)
    inlier = z < state.L
    out[inlier] = state.z_H[z[inlier]]
    return out
