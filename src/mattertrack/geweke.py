"""Forward/Gibbs marginal consistency check.

Compares latent-variable statistics under (a) independent forward samples and
(b) a successive-conditional chain alternating Gibbs sweeps over latents with
resampling of the observations given the latents.  If every conditional is
correct, both sides target the same prior marginals and all z-scores stay at
Monte Carlo noise level.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .distributions import TransformCandidates, make_transform_candidates
from .gibbs import SweepSchedule, full_sweep_schedule, sweep
from .model import (
    _check_forward_inputs,
    _sample_forward,
    _sample_latents,
    resample_observations,
)
from .rng import RngState, substream
from .types import HyperParams, ModelState, ValidationError


def default_check_hyper(dim: int) -> HyperParams:
    """Hyperparameters tuned so the successive-conditional chain mixes fast.

    Prior and data precisions are balanced at every level; with sticky
    settings (tiny noise scales) the chain's autocorrelation time explodes
    and the z-scores measure mixing instead of correctness.
    """
    eye = np.eye(dim)
    return HyperParams(
        alpha=2.0, beta=2.0, mu_H_prior=np.zeros(dim), sigma2_mu_H=1.0,
        Psi_H=2.0 * eye, nu_H=dim + 5.0, Psi_B=2.0 * eye, nu_B=dim + 5.0,
        sigma2_V=1.0, Psi_V=4.0 * eye, nu_V=dim + 5.0,
        s2=0.25, kappa_vmf=2.0, theta_max=np.pi / 6)


@dataclass(frozen=True)
class GewekeStat:
    name: str
    forward_mean: float
    chain_mean: float
    z: float


@dataclass(frozen=True)
class GewekeReport:
    stats: tuple[GewekeStat, ...]
    iterations: int

    @property
    def max_abs_z(self) -> float:
        return max(abs(s.z) for s in self.stats)

    def passed(self, threshold: float = 4.0) -> bool:
        return self.max_abs_z < threshold

    def summary(self) -> str:
        lines = [f"{'statistic':<18} {'forward':>12} {'chain':>12} {'z':>8}"]
        for s in self.stats:
            lines.append(f"{s.name:<18} {s.forward_mean:>12.5f} {s.chain_mean:>12.5f} {s.z:>8.2f}")
        lines.append(f"max |z| = {self.max_abs_z:.2f} over {len(self.stats)} statistics")
        return "\n".join(lines)


def _collect(state: ModelState) -> np.ndarray:
    return np.concatenate([state.mu_B.ravel(), state.vel.ravel(), state.pi_B])


def _stat_names(L: int, dim: int) -> list[str]:
    names = [f"mu_B[{i}][{d}]" for i in range(L) for d in range(dim)]
    names += [f"v[{i}][{d}]" for i in range(L) for d in range(dim)]
    names += [f"pi_B[{i}]" for i in range(L)]
    return names


def _batch_se(samples: np.ndarray, n_batches: int = 100) -> np.ndarray:
    """Standard error of the mean via batch means (handles autocorrelation)."""
    n = samples.shape[0]
    n_batches = min(n_batches, n)
    usable = (n // n_batches) * n_batches
    batches = samples[:usable].reshape(n_batches, -1, samples.shape[1]).mean(axis=1)
    return batches.std(axis=0, ddof=1) / np.sqrt(n_batches)


def run_geweke(hyper: HyperParams, K: int, L: int, N: int, iterations: int,
               seed: int, candidates: TransformCandidates | None = None,
               schedule: SweepSchedule | None = None,
               sweeps_per_iter: int = 1) -> GewekeReport:
    """Run both samplers for ``iterations`` steps and z-score their moments.

    ``sweeps_per_iter`` Gibbs sweeps run between observation redraws; extra
    sweeps shorten the chain's autocorrelation time without changing its
    stationary distribution.
    """
    if iterations < 100:
        raise ValidationError("need at least 100 iterations for stable batch means")
    if sweeps_per_iter < 1:
        raise ValidationError(f"sweeps_per_iter must be at least 1, got {sweeps_per_iter}")
    # the inputs are checked once; the loops below draw unchecked
    dim = _check_forward_inputs(hyper, K, L, N)
    if hyper.p_outlier > 0:
        raise ValidationError("consistency check requires the outlier component disabled")
    if candidates is None:
        candidates = make_transform_candidates(dim, hyper)
    if schedule is None:
        schedule = full_sweep_schedule()

    n_stats = 2 * L * dim + L
    forward = np.empty((iterations, n_stats))
    # the collected statistics are latents, drawn before the points, so the
    # forward half stops there
    for i in range(iterations):
        state, _ = _sample_latents(hyper, K, L, N, substream(seed, rngmod.FORWARD, i),
                                   candidates=candidates)
        forward[i] = _collect(state)

    chain = np.empty((iterations, n_stats))
    state, obs = _sample_forward(hyper, K, L, N, substream(seed, rngmod.FORWARD, iterations),
                                 candidates=candidates)
    state = state.replace(rng=RngState(seed))
    for i in range(iterations):
        for _ in range(sweeps_per_iter):
            state = sweep(state, obs, hyper, schedule, candidates)
        obs = resample_observations(state, hyper, state.rng.stream(rngmod.DATA))
        chain[i] = _collect(state)

    se_f = forward.std(axis=0, ddof=1) / np.sqrt(iterations)
    se_c = _batch_se(chain)
    denom = np.sqrt(se_f ** 2 + se_c ** 2)
    denom[denom == 0] = np.inf
    z = (forward.mean(axis=0) - chain.mean(axis=0)) / denom

    names = _stat_names(L, dim)
    stats = tuple(
        GewekeStat(names[j], float(forward[:, j].mean()), float(chain[:, j].mean()), float(z[j]))
        for j in range(n_stats)
    )
    return GewekeReport(stats=stats, iterations=iterations)
