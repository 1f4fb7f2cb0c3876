"""Metric oracles: adjusted Rand, matter-weighted Jaccard, probe-point scores."""
import numpy as np
import pytest
from scipy import ndimage

from mattertrack.evaluation import (
    _label,
    adjusted_rand_index,
    matter_weighted_jaccard,
    point_cluster_labels,
    probe_point_eval,
    rasterize_mask,
    state_to_segments,
)
from mattertrack.types import Observations, ValidationError

from conftest import make_state


# -- adjusted Rand index -------------------------------------------------------

def test_ari_identical_labelings():
    labels = np.array([0, 0, 1, 1, 2, 2])
    assert adjusted_rand_index(labels, labels) == 1.0


def test_ari_relabeling_invariance():
    a = np.array([0, 0, 1, 1, 2, 2])
    b = np.array([5, 5, 9, 9, 7, 7])
    assert adjusted_rand_index(a, b) == 1.0


def test_ari_matches_hand_contingency():
    # partitions {0,0,0,1,1,1} vs {0,0,1,1,2,2}:
    # contingency [[2,1,0],[0,1,2]]; sum_ij C(n,2) = 1+1 = 2
    # a: C(3,2)*2 = 6; b: C(2,2)*3 = 3; expected = 6*3/C(6,2) = 18/15 = 1.2
    # ARI = (2 - 1.2) / (0.5*(6+3) - 1.2) = 0.8 / 3.3
    a = np.array([0, 0, 0, 1, 1, 1])
    b = np.array([0, 0, 1, 1, 2, 2])
    assert adjusted_rand_index(a, b) == pytest.approx(0.8 / 3.3, abs=1e-12)


def test_ari_independent_partitions_near_zero():
    rng = np.random.default_rng(0)
    vals = [adjusted_rand_index(rng.integers(0, 4, 600), rng.integers(0, 4, 600))
            for _ in range(30)]
    assert abs(np.mean(vals)) < 0.02


def test_ari_shape_mismatch_errors():
    with pytest.raises(ValidationError):
        adjusted_rand_index([0, 1], [0, 1, 2])


# -- matter-weighted Jaccard -----------------------------------------------------

def test_mwj_reduces_to_standard_jaccard_uniform_weights():
    assert matter_weighted_jaccard([1, 1], [1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.5)


def test_mwj_weighted_case():
    assert matter_weighted_jaccard([3, 1], [1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.75)


def test_mwj_all_foreground_is_one():
    assert matter_weighted_jaccard([2, 5, 1], [0.2, 0.5, 0.3],
                                   [1.0, 1.0, 1.0]) == pytest.approx(1.0)


def test_mwj_scale_invariance_in_weights():
    n = np.array([4, 2, 7])
    pi = np.array([0.1, 0.6, 0.3])
    f = np.array([0.9, 0.2, 0.7])
    a = matter_weighted_jaccard(n, pi, f)
    b = matter_weighted_jaccard(n * 13, pi, f)
    c = matter_weighted_jaccard(n, pi * 0.25, f)
    assert a == pytest.approx(b, abs=1e-15)
    assert a == pytest.approx(c, abs=1e-15)


def test_mwj_explicit_foreground_partition():
    # partition given by caller overrides the majority rule
    val = matter_weighted_jaccard([1, 1], [1.0, 1.0], [0.4, 0.2],
                                  foreground=[True, False])
    assert val == pytest.approx(0.4 / (0.4 + 0.8))


def test_mwj_zero_denominator_warns_and_returns_zero():
    with pytest.warns(UserWarning):
        assert matter_weighted_jaccard([0, 0], [0.0, 0.0], [1.0, 0.0]) == 0.0


def test_mwj_validates_inputs():
    with pytest.raises(ValidationError):
        matter_weighted_jaccard([1], [1.0], [1.5])
    with pytest.raises(ValidationError):
        matter_weighted_jaccard([-1], [1.0], [0.5])


# -- probe-point evaluation -------------------------------------------------------

def square_mask(h, w, r0, c0, r1, c1):
    m = np.zeros((h, w), dtype=bool)
    m[r0:r1, c0:c1] = True
    return m


def test_probe_exact_prediction_scores_one():
    gt = square_mask(20, 20, 5, 5, 15, 15)
    pred = np.where(gt, 3, -1)
    acc, jac, prob = probe_point_eval(pred, gt, n_probes=50, seed=0)
    assert acc == 1.0
    assert jac == 1.0
    np.testing.assert_allclose(prob[gt], 1.0)
    np.testing.assert_allclose(prob[~gt], 0.0)


def test_probe_half_overlap_J_is_one_third():
    # equal-area prediction shifted to cover exactly half the object
    gt = square_mask(20, 40, 5, 0, 15, 20)          # 10 x 20 object
    pred = np.full((20, 40), -1)
    pred[5:15, 10:30] = 0                           # same area, half overlapping
    acc, jac, prob = probe_point_eval(pred, gt, n_probes=200, seed=1)
    # probes in the overlap see J = 100/300; probes outside the prediction see 0
    probe_j = 100 / 300
    assert jac == pytest.approx(probe_j * 0.5, abs=0.06)
    # every probe placed in the overlap region scores exactly 1/3
    overlap = np.argwhere(square_mask(20, 40, 5, 10, 15, 20))
    _, jac2, _ = probe_point_eval(pred, gt, probes=overlap)
    assert jac2 == pytest.approx(1 / 3, abs=1e-12)


def test_probe_unlabeled_probe_scores_zero_jaccard():
    gt = square_mask(10, 10, 0, 0, 5, 5)
    pred = np.full((10, 10), -1)
    acc, jac, prob = probe_point_eval(pred, gt, n_probes=20, seed=3)
    assert jac == 0.0
    np.testing.assert_allclose(prob, 0.0)


def test_probe_segments_are_connected_components():
    # same label in two disconnected blobs: only the probe's component counts
    gt = square_mask(10, 20, 0, 0, 10, 8)
    pred = np.full((10, 20), -1)
    pred[:, :8] = 2
    pred[:, 12:] = 2
    acc, jac, prob = probe_point_eval(pred, gt, n_probes=40, seed=4)
    assert jac == pytest.approx(1.0)
    np.testing.assert_allclose(prob[:, 12:], 0.0)


def spiral_mask(n):
    """A one-cell-wide square spiral walked clockwise from the top-left corner,
    one cell apart from its own earlier arms: one component, and so is its gap."""
    mask = np.zeros((n, n), dtype=bool)
    r, c, dr, dc = 0, 0, 0, 1
    mask[r, c] = True

    def on(i, j):
        return 0 <= i < n and 0 <= j < n and mask[i, j]

    while True:
        for _ in range(2):   # go on, or turn right once
            if 0 <= r + dr < n and 0 <= c + dc < n and not on(r + dr, c + dc) \
                    and not on(r + 2 * dr, c + 2 * dc):
                r, c = r + dr, c + dc
                mask[r, c] = True
                break
            dr, dc = dc, -dr
        else:
            return mask


_LABEL_MASKS = {
    "random": [np.random.default_rng(s).random(shape) < p for s, (shape, p) in enumerate(
        [((1, 1), 0.5), ((1, 30), 0.6), ((30, 1), 0.6), ((17, 23), 0.3), ((17, 23), 0.55),
         ((40, 40), 0.6), ((64, 48), 0.75)])],
    "spiral": [spiral_mask(n) for n in (5, 11, 31)],
    # cells that touch only at corners stay apart under 4-connectivity
    "diagonal": [np.indices((9, 12)).sum(axis=0) % 2 == 0, np.eye(7, dtype=bool),
                 np.fliplr(np.eye(6, 8, dtype=bool))],
}


@pytest.mark.parametrize("kind", sorted(_LABEL_MASKS))
def test_segment_labels_match_scipy(kind):
    # the probe segments' labelling against scipy's 4-connected one, on the
    # mask and on its complement; both number components in raster order
    for mask in _LABEL_MASKS[kind]:
        for cells in (mask, ~mask):
            labels, count = _label(cells)
            ref, ref_count = ndimage.label(cells)
            assert count == ref_count
            np.testing.assert_array_equal(labels, ref)
    if kind == "spiral":
        assert ndimage.label(mask)[1] == ndimage.label(~mask)[1] == 1
    if kind == "diagonal":
        assert _label(_LABEL_MASKS[kind][0])[1] == 54


def test_probe_prob_map_bounds():
    gt = square_mask(12, 12, 2, 2, 10, 10)
    pred = np.where(square_mask(12, 12, 2, 2, 10, 6), 0, -1)
    pred[np.where(square_mask(12, 12, 2, 6, 10, 10))] = 1
    acc, jac, prob = probe_point_eval(pred, gt, n_probes=100, seed=5)
    assert np.all(prob >= 0.0) and np.all(prob <= 1.0)
    assert 0.0 < jac < 1.0


def test_probe_empty_mask_errors():
    with pytest.raises(ValidationError):
        probe_point_eval(np.zeros((4, 4), dtype=int), np.zeros((4, 4), dtype=bool))


# -- rasterization helpers ---------------------------------------------------------

def test_state_to_segments_majority_and_outliers():
    eye = np.eye(2)
    state = make_state(
        mu_B=[[0.25, 0.25], [0.75, 0.75]], Sigma_B=[0.1 * eye] * 2,
        vel=np.zeros((2, 2)), Sigma_V=[0.1 * eye] * 2, pi_B=[0.5, 0.5],
        mu_H=[[0.25, 0.25], [0.75, 0.75]], Sigma_H=[eye] * 2, rot=[eye] * 2,
        trans=np.zeros((2, 2)), pi_H=[0.5, 0.5],
        z_B=[0, 0, 1, 2], z_H=[0, 1])
    obs = Observations(
        np.array([[0.1, 0.1], [0.2, 0.2], [0.9, 0.9], [0.95, 0.95]]),
        np.zeros((4, 2)))
    seg = state_to_segments(state, obs, (4, 4), extent=((0.0, 1.0), (0.0, 1.0)))
    assert seg[0, 0] == 0          # low corner cells hold cluster 0
    assert seg[3, 3] == 1          # high corner: cluster 1 point beats the outlier
    assert seg[0, 3] == -1         # empty cell


def test_point_cluster_labels_with_outliers():
    eye = np.eye(2)
    state = make_state(
        mu_B=[[0.0, 0.0], [1.0, 1.0]], Sigma_B=[eye] * 2, vel=np.zeros((2, 2)),
        Sigma_V=[eye] * 2, pi_B=[0.5, 0.5], mu_H=[[0.0, 0.0]], Sigma_H=[eye],
        rot=[eye], trans=[[0.0, 0.0]], pi_H=[1.0], z_B=[0, 1, 2], z_H=[0, 0])
    np.testing.assert_array_equal(point_cluster_labels(state), [0, 0, -1])


def test_rasterize_mask_majority_rule():
    obs = Observations(np.array([[0.1, 0.1], [0.12, 0.12], [0.9, 0.9]]),
                       np.zeros((3, 2)))
    grid = rasterize_mask(obs, np.array([True, True, False]), (4, 4),
                          extent=((0.0, 1.0), (0.0, 1.0)))
    assert grid[0, 0]
    assert not grid[3, 3]
