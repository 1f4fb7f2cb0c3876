"""Small-variance hard-assignment clustering baseline.

Alternating minimization of the rigid-prediction objective: particle means are
assigned-point centroids, cluster means are assigned-particle centroids, each
cluster's transform is the Procrustes optimum over its points, and points then
re-pick the particle (hence cluster) minimizing their rigid residual.  The
recorded objective is non-increasing across iterations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .distributions import _einsum
from .initialization import kabsch_align, kmeans_pp
from .rng import substream
from .types import Observations, ValidationError


def sva_loss(z_B: np.ndarray, z_H: np.ndarray, rotations: np.ndarray,
             translations: np.ndarray, cluster_means: np.ndarray,
             obs: Observations) -> float:
    """Sum of squared rigid-prediction residuals.

    Each point is scored against its cluster's transform applied about the
    cluster mean: || x + v - (R (x - mu) + mu + t) ||^2.
    """
    z_B = np.asarray(z_B)
    z_H = np.asarray(z_H)
    k_of_n = z_H[z_B]
    x, v = obs.positions, obs.velocities
    mu = cluster_means[k_of_n]
    rel = x - mu
    pred = _einsum("nij,nj->ni", rotations[k_of_n], rel) + mu + translations[k_of_n]
    resid = x + v - pred
    return float(_einsum("nd,nd->", resid, resid))


def _per_point_cluster_losses(obs: Observations, rotations: np.ndarray,
                              translations: np.ndarray,
                              cluster_means: np.ndarray) -> np.ndarray:
    """(N, K) rigid residuals of every point under every cluster transform."""
    x, v = obs.positions, obs.velocities
    target = x + v
    K = cluster_means.shape[0]
    out = np.empty((x.shape[0], K))
    for k in range(K):
        rel = x - cluster_means[k]
        pred = rel @ rotations[k].T + cluster_means[k] + translations[k]
        diff = target - pred
        out[:, k] = _einsum("nd,nd->n", diff, diff)
    return out


def _reseed_empty_clusters(z_H: np.ndarray, z_B: np.ndarray, point_loss: np.ndarray,
                           empty: np.ndarray) -> np.ndarray:
    """``z_H`` with each cluster of ``empty`` moved onto its own particle: the
    one, of those not yet taken, whose members' summed loss is largest."""
    member_loss = np.bincount(z_B, weights=point_loss, minlength=len(z_H))
    z_H = z_H.copy()
    for k in empty:
        worst = int(np.argmax(member_loss))
        z_H[worst] = k
        member_loss[worst] = -np.inf
    return z_H


@dataclass(frozen=True)
class SvaResult:
    z_B: np.ndarray
    z_H: np.ndarray
    rotations: np.ndarray
    translations: np.ndarray
    cluster_means: np.ndarray
    particle_means: np.ndarray
    losses: np.ndarray          # objective after each iteration's assignment step
    iterations: int


def sva_cluster(obs: Observations, K: int, L: int, seed: int,
                max_iter: int = 50) -> SvaResult:
    """Run the alternating minimization from a hierarchical K-means start.

    Clusters that lose all their points are reseeded at the particles whose
    members fit worst, one particle each.  Terminates at an assignment
    fixpoint or ``max_iter``.
    """
    N, d = len(obs), obs.dim
    if not N >= L >= K >= 1:
        raise ValidationError(f"need N >= L >= K >= 1, got N={N}, L={L}, K={K}")
    part_rng = substream(seed, rngmod.INIT, 10)
    clus_rng = substream(seed, rngmod.INIT, 11)
    mu_B, z_B = kmeans_pp(obs.positions, L, part_rng)
    mu_H, z_H = kmeans_pp(mu_B, K, clus_rng)

    rotations = np.stack([np.eye(d)] * K)
    translations = np.zeros((K, d))
    losses: list[float] = []
    iterations = 0
    for _ in range(max_iter):
        iterations += 1

        # reseed clusters that currently own no points
        point_k = z_H[z_B]
        owned = np.bincount(point_k, minlength=K)
        if iterations > 1 and np.any(owned == 0):
            per_point = _per_point_cluster_losses(obs, rotations, translations, mu_H)
            z_H = _reseed_empty_clusters(z_H, z_B, per_point[np.arange(N), point_k],
                                         np.where(owned == 0)[0])
            point_k = z_H[z_B]

        # block 1: particle means = centroids of assigned points
        for ell in range(L):
            members = z_B == ell
            if np.any(members):
                mu_B[ell] = obs.positions[members].mean(axis=0)

        # block 2: cluster means = centroids of assigned particle means
        for k in range(K):
            members = z_H == k
            if np.any(members):
                mu_H[k] = mu_B[members].mean(axis=0)

        # block 3: Procrustes transform per cluster over its points
        for k in range(K):
            mask = point_k == k
            if not np.any(mask):
                rotations[k] = np.eye(d)
                translations[k] = 0.0
                continue
            src = obs.positions[mask]
            dst = src + obs.velocities[mask]
            R, t_abs = kabsch_align(src, dst)
            rotations[k] = R
            # absolute affine -> transform about the cluster mean
            translations[k] = t_abs - (np.eye(d) - R) @ mu_H[k]

        # block 4: points pick the particle whose cluster minimizes their loss
        per_point = _per_point_cluster_losses(obs, rotations, translations, mu_H)
        best_k = np.argmin(per_point, axis=1)
        first_particle = np.full(K, -1, dtype=np.int64)
        for ell in range(L - 1, -1, -1):
            first_particle[z_H[ell]] = ell
        reachable = first_particle[best_k] >= 0
        if not np.all(reachable):
            # a cluster without particles is unreachable; such points keep
            # their next-best reachable cluster
            per_point_reach = per_point.copy()
            per_point_reach[:, first_particle < 0] = np.inf
            best_k = np.argmin(per_point_reach, axis=1)
        new_z_B = first_particle[best_k]

        # per-particle cluster update by member majority (lowest index on ties)
        new_z_H = z_H.copy()
        for ell in range(L):
            members = new_z_B == ell
            if np.any(members):
                votes = np.bincount(best_k[members], minlength=K)
                new_z_H[ell] = int(np.argmax(votes))

        converged = np.array_equal(new_z_B, z_B) and np.array_equal(new_z_H, z_H)
        z_B, z_H = new_z_B, new_z_H
        losses.append(sva_loss(z_B, z_H, rotations, translations, mu_H, obs))
        if converged:
            break

    return SvaResult(z_B, z_H, rotations, translations, mu_H, mu_B,
                     np.asarray(losses), iterations)
