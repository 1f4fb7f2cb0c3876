"""Hard-assignment clustering baseline: loss oracle, monotonicity, and
synthesis recovery."""
import math

import numpy as np
import pytest

from mattertrack.distributions import rotation_2d
from mattertrack.evaluation import adjusted_rand_index
from mattertrack.initialization import kabsch_align
from mattertrack.sva import _reseed_empty_clusters, sva_cluster, sva_loss
from mattertrack.synth import Body, SceneSpec, make_rigid_scene
from mattertrack.types import Observations


def rigid_loss_naive(z_B, z_H, rotations, translations, means, obs):
    total = 0.0
    for n in range(len(obs)):
        k = z_H[z_B[n]]
        x = obs.positions[n]
        pred = rotations[k] @ (x - means[k]) + means[k] + translations[k]
        total += float(np.sum((x + obs.velocities[n] - pred) ** 2))
    return total


def test_sva_loss_zero_on_exact_rigid_motion():
    rng = np.random.default_rng(0)
    R = rotation_2d(0.3)
    t = np.array([0.5, -0.1])
    mu = np.array([1.0, 2.0])
    x = rng.standard_normal((30, 2)) + mu
    pred = (x - mu) @ R.T + mu + t
    obs = Observations(x, pred - x)
    loss = sva_loss(np.zeros(30, dtype=int), np.zeros(1, dtype=int), R[None],
                    t[None], mu[None], obs)
    assert loss == pytest.approx(0.0, abs=1e-18)


def test_sva_loss_single_point_unit_velocity():
    obs = Observations(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
    loss = sva_loss(np.array([0]), np.array([0]), np.eye(2)[None],
                    np.zeros((1, 2)), np.zeros((1, 2)), obs)
    assert loss == pytest.approx(1.0, abs=1e-15)


def test_sva_loss_matches_naive_loop():
    rng = np.random.default_rng(1)
    for _ in range(10):
        K, L, N = 3, 6, 40
        z_H = rng.integers(0, K, size=L)
        z_B = rng.integers(0, L, size=N)
        rots = np.stack([rotation_2d(a) for a in rng.uniform(-0.5, 0.5, K)])
        trans = rng.standard_normal((K, 2))
        means = rng.standard_normal((K, 2))
        obs = Observations(rng.standard_normal((N, 2)), rng.standard_normal((N, 2)))
        fast = sva_loss(z_B, z_H, rots, trans, means, obs)
        slow = rigid_loss_naive(z_B, z_H, rots, trans, means, obs)
        assert fast == pytest.approx(slow, abs=1e-12)


def two_body_scene(seed=0, u=(0.6, 0.0), n_dots=120):
    spec = SceneSpec(
        bodies=(
            Body(kind="disk", center=(0.3, 0.5), size=0.12, num_dots=n_dots,
                 velocity=u),
            Body(kind="rect", center=(0.75, 0.5), size=(0.3, 0.6),
                 num_dots=n_dots, velocity=(0.0, 0.0)),
        ),
        extent=((0.0, 1.2), (0.0, 1.0)),
        frames=2,
    )
    frames, labels = make_rigid_scene(spec, seed)
    return frames[0], labels[0]


def test_sva_two_body_translation_exact_separation():
    obs, truth = two_body_scene(seed=2)
    res = sva_cluster(obs, K=2, L=12, seed=0, max_iter=40)
    pred = res.z_H[res.z_B]
    assert adjusted_rand_index(pred, truth) == 1.0


def test_sva_losses_monotone_on_random_instances():
    rng = np.random.default_rng(3)
    for trial in range(100):
        n = int(rng.integers(30, 80))
        obs = Observations(rng.standard_normal((n, 2)),
                           0.3 * rng.standard_normal((n, 2)))
        res = sva_cluster(obs, K=2, L=5, seed=trial, max_iter=15)
        diffs = np.diff(res.losses)
        assert np.all(diffs <= 1e-9), f"trial {trial}: losses increased {diffs}"


def test_sva_rotation_angle_recovery_small_angles():
    rng = np.random.default_rng(4)
    for theta_deg in (1.0, 3.0, 5.0):
        theta = math.radians(theta_deg)
        R = rotation_2d(theta)
        center = np.array([0.5, 0.5])
        x = center + 0.3 * rng.standard_normal((150, 2))
        v = (x - center) @ (R - np.eye(2)).T  # exact rigid displacement
        obs = Observations(x, v)
        res = sva_cluster(obs, K=1, L=8, seed=1, max_iter=25)
        est = math.atan2(res.rotations[0][1, 0], res.rotations[0][0, 0])
        assert abs(est - theta) <= 0.1 * theta


def test_sva_procrustes_block_is_optimal():
    # for the final assignments, no enumerated rigid transform beats the fit
    obs, _ = two_body_scene(seed=5)
    res = sva_cluster(obs, K=2, L=10, seed=2, max_iter=30)
    base = sva_loss(res.z_B, res.z_H, res.rotations, res.translations,
                    res.cluster_means, obs)
    point_k = res.z_H[res.z_B]
    for k in range(2):
        mask = point_k == k
        if not mask.any():
            continue
        for theta in np.linspace(-0.5, 0.5, 101):
            R = rotation_2d(theta)
            rots = res.rotations.copy()
            rots[k] = R
            src = obs.positions[mask]
            dst = src + obs.velocities[mask]
            t_abs = dst.mean(axis=0) - R @ src.mean(axis=0)
            trans = res.translations.copy()
            trans[k] = t_abs - (np.eye(2) - R) @ res.cluster_means[k]
            loss = sva_loss(res.z_B, res.z_H, rots, trans, res.cluster_means, obs)
            assert base <= loss + 1e-9


def test_sva_assignment_block_is_pointwise_optimal():
    obs, _ = two_body_scene(seed=6, n_dots=40)
    res = sva_cluster(obs, K=2, L=8, seed=3, max_iter=30)
    # each point's chosen cluster must minimize its own rigid residual
    x, v = obs.positions, obs.velocities
    for n in range(len(obs)):
        losses = []
        for k in range(2):
            pred = (res.rotations[k] @ (x[n] - res.cluster_means[k])
                    + res.cluster_means[k] + res.translations[k])
            losses.append(float(np.sum((x[n] + v[n] - pred) ** 2)))
        chosen = res.z_H[res.z_B[n]]
        assert losses[chosen] <= min(losses) + 1e-9


def test_clusters_empty_at_once_are_reseeded_at_distinct_particles():
    # particles 0 and 2 carry the largest member losses, in that order
    z_H = np.zeros(4, dtype=np.int64)
    z_B = np.array([0, 0, 1, 2, 2, 3])
    point_loss = np.array([5.0, 4.0, 1.0, 3.0, 3.0, 0.5])
    out = _reseed_empty_clusters(z_H, z_B, point_loss, np.array([1, 2]))
    np.testing.assert_array_equal(out, [1, 0, 2, 0])
    np.testing.assert_array_equal(z_H, 0)
