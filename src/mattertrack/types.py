"""Domain types for the two-level moving-matter mixture model.

A scene is modeled as K *clusters* (independently moving entities, each with a
spatial Gaussian and a rigid transform), L *particles* (small Gaussians of
local matter assigned to clusters), and N observed points (position-velocity
pairs, optionally feature-tagged) assigned to particles.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .rng import RngState


class ValidationError(ValueError):
    """Invalid argument or model configuration; message names the field."""


class NumericalDomainError(ArithmeticError):
    """Raised when a required matrix factorization fails (non-PD input)."""


def check_dim(dim: int) -> int:
    if dim not in (2, 3):
        raise ValidationError(f"dim must be 2 or 3, got {dim!r}")
    return int(dim)


def _as_floats(x, name: str, shape: tuple | None = None) -> np.ndarray:
    arr = np.array(x, dtype=np.float64)
    if shape is not None and arr.shape != shape:
        raise ValidationError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite")
    return arr


def _is_spd(mat: np.ndarray, name: str) -> None:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"{name} must be square, got {mat.shape}")
    if not np.allclose(mat, mat.T, atol=1e-10):
        raise ValidationError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise ValidationError(f"{name} must be positive definite") from None


@dataclass(frozen=True)
class Observations:
    """A frame of N point observations in columnar form.

    ``positions`` and ``velocities`` are (N, D); ``features`` is (N, F) or
    None.  Feature presence is all-or-nothing within a frame.
    """

    positions: np.ndarray
    velocities: np.ndarray
    features: np.ndarray | None = None

    def __post_init__(self):
        pos = _as_floats(self.positions, "positions")
        vel = _as_floats(self.velocities, "velocities")
        if pos.ndim != 2:
            raise ValidationError(f"positions must be (N, D), got {pos.shape}")
        check_dim(pos.shape[1])
        if vel.shape != pos.shape:
            raise ValidationError(
                f"velocities shape {vel.shape} does not match positions {pos.shape}"
            )
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "velocities", vel)
        if self.features is not None:
            feat = _as_floats(self.features, "features")
            if feat.ndim != 2 or feat.shape[0] != pos.shape[0]:
                raise ValidationError(
                    f"features must be (N, F) with N={pos.shape[0]}, got {feat.shape}"
                )
            object.__setattr__(self, "features", feat)

    def __len__(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def feature_dim(self) -> int | None:
        return None if self.features is None else self.features.shape[1]

    def take(self, idx: np.ndarray) -> "Observations":
        feat = None if self.features is None else self.features[idx]
        return Observations(self.positions[idx], self.velocities[idx], feat)


@dataclass(frozen=True)
class HyperParams:
    """Fixed priors and noise scales of the generative model.

    ``alpha`` / ``beta`` may be scalars (symmetric Dirichlet) or full
    concentration vectors.  Degrees of freedom are floored to D + 2 on
    construction so Inverse-Wishart means exist.
    """

    alpha: float | np.ndarray
    beta: float | np.ndarray
    mu_H_prior: np.ndarray
    sigma2_mu_H: float
    Psi_H: np.ndarray
    nu_H: float
    Psi_B: np.ndarray
    nu_B: float
    sigma2_V: float
    Psi_V: np.ndarray
    nu_V: float
    s2: float
    kappa_vmf: float
    theta_max: float
    sigma2_F: float | None = None
    p_outlier: float = 0.0
    outlier_gamma_shape: float = 2.0
    outlier_gamma_rate: float = 1.0

    def __post_init__(self):
        for name in ("mu_H_prior",):
            object.__setattr__(self, name, _as_floats(getattr(self, name), name))
        for psi, nu in (("Psi_H", "nu_H"), ("Psi_B", "nu_B"), ("Psi_V", "nu_V")):
            mat = _as_floats(getattr(self, psi), psi)
            object.__setattr__(self, psi, mat)
            floor = mat.shape[0] + 2
            object.__setattr__(self, nu, max(float(getattr(self, nu)), float(floor)))
        for name in ("alpha", "beta"):
            val = getattr(self, name)
            if not np.isscalar(val):
                object.__setattr__(self, name, _as_floats(val, name))

    @classmethod
    def default(cls, dim: int) -> "HyperParams":
        check_dim(dim)
        return cls(
            alpha=1.0,
            beta=1.0,
            mu_H_prior=np.zeros(dim),
            sigma2_mu_H=25.0,
            Psi_H=np.eye(dim),
            nu_H=dim + 3.0,
            Psi_B=0.1 * np.eye(dim),
            nu_B=dim + 3.0,
            sigma2_V=0.01,
            Psi_V=0.01 * np.eye(dim),
            nu_V=dim + 3.0,
            s2=1.0,
            kappa_vmf=5.0,
            theta_max=math.pi / 4,
        )

    def alpha_vec(self, K: int) -> np.ndarray:
        return self._conc(self.alpha, K, "alpha")

    def beta_vec(self, L: int) -> np.ndarray:
        return self._conc(self.beta, L, "beta")

    @staticmethod
    def _conc(val, size: int, name: str) -> np.ndarray:
        if np.isscalar(val):
            vec = np.full(size, float(val))
        else:
            vec = np.asarray(val, dtype=np.float64)
            if vec.shape != (size,):
                raise ValidationError(f"{name} must have length {size}, got {vec.shape}")
        if np.any(vec <= 0):
            raise ValidationError(f"{name} entries must be positive")
        return vec

    def validate(self, dim: int) -> None:
        check_dim(dim)
        if self.mu_H_prior.shape != (dim,):
            raise ValidationError(f"mu_H_prior must have shape ({dim},)")
        for name in ("sigma2_mu_H", "sigma2_V", "s2"):
            if not float(getattr(self, name)) > 0:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}")
        if self.kappa_vmf < 0:
            raise ValidationError(f"kappa_vmf must be non-negative, got {self.kappa_vmf}")
        if not 0 < self.theta_max <= math.pi:
            raise ValidationError(f"theta_max must be in (0, pi], got {self.theta_max}")
        for psi, nu in (("Psi_H", "nu_H"), ("Psi_B", "nu_B"), ("Psi_V", "nu_V")):
            mat = getattr(self, psi)
            if mat.shape != (dim, dim):
                raise ValidationError(f"{psi} must have shape ({dim}, {dim})")
            _is_spd(mat, psi)
            if getattr(self, nu) < dim + 2:
                raise ValidationError(f"{nu} must be at least dim + 2")
        if self.sigma2_F is not None and not self.sigma2_F > 0:
            raise ValidationError(f"sigma2_F must be positive, got {self.sigma2_F}")
        if not 0 <= self.p_outlier < 1:
            raise ValidationError(f"p_outlier must be in [0, 1), got {self.p_outlier}")
        if self.p_outlier > 0:
            for name in ("outlier_gamma_shape", "outlier_gamma_rate"):
                if not float(getattr(self, name)) > 0:
                    raise ValidationError(f"{name} must be positive")
        self._conc(self.alpha, 1 if np.isscalar(self.alpha) else len(self.alpha), "alpha")
        self._conc(self.beta, 1 if np.isscalar(self.beta) else len(self.beta), "beta")

    def replace(self, **kw) -> "HyperParams":
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True)
class Assignments:
    """Point-to-particle and particle-to-cluster assignment vectors.

    ``point_to_particle`` entries equal to L (one past the last particle)
    denote the outlier component.
    """

    point_to_particle: np.ndarray
    particle_to_cluster: np.ndarray

    def __post_init__(self):
        z_b = np.asarray(self.point_to_particle, dtype=np.int64)
        z_h = np.asarray(self.particle_to_cluster, dtype=np.int64)
        object.__setattr__(self, "point_to_particle", z_b)
        object.__setattr__(self, "particle_to_cluster", z_h)

    def validate(self, N: int, L: int, K: int) -> None:
        z_b, z_h = self.point_to_particle, self.particle_to_cluster
        if z_b.shape != (N,):
            raise ValidationError(f"point_to_particle must have shape ({N},)")
        if z_h.shape != (L,):
            raise ValidationError(f"particle_to_cluster must have shape ({L},)")
        if z_b.size and (z_b.min() < 0 or z_b.max() > L):
            raise ValidationError("point_to_particle entries must lie in [0, L]")
        if z_h.size and (z_h.min() < 0 or z_h.max() >= K):
            raise ValidationError("particle_to_cluster entries must lie in [0, K)")


@dataclass(frozen=True)
class ModelState:
    """Full latent state of the model.

    Value semantics: arrays are never mutated in place; every update builds a
    new state.  ``rng`` is the deterministic stream cursor, so a dumped state
    resumes bit-identically.
    """

    dim: int
    mu_B: np.ndarray       # (L, D) particle spatial means
    Sigma_B: np.ndarray    # (L, D, D) particle spatial covariances
    vel: np.ndarray        # (L, D) particle velocity means
    Sigma_V: np.ndarray    # (L, D, D) particle velocity covariances
    pi_B: np.ndarray       # (L,) particle mixture weights
    mu_H: np.ndarray       # (K, D) cluster spatial means
    Sigma_H: np.ndarray    # (K, D, D) cluster spatial covariances
    rot: np.ndarray        # (K, D, D) cluster rotations
    trans: np.ndarray      # (K, D) cluster translations
    pi_H: np.ndarray       # (K,) cluster mixture weights
    assignments: Assignments
    rng: RngState
    feat: np.ndarray | None = None   # (L, F) particle feature means

    def __post_init__(self):
        check_dim(self.dim)
        d = self.dim
        L = self.mu_B.shape[0]
        K = self.mu_H.shape[0]
        if not L >= K >= 1:
            raise ValidationError(f"need L >= K >= 1, got L={L}, K={K}")
        shapes = {
            "mu_B": (L, d), "Sigma_B": (L, d, d), "vel": (L, d),
            "Sigma_V": (L, d, d), "pi_B": (L,),
            "mu_H": (K, d), "Sigma_H": (K, d, d), "rot": (K, d, d),
            "trans": (K, d), "pi_H": (K,),
        }
        for name, shape in shapes.items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValidationError(f"{name} must have shape {shape}, got {arr.shape}")
            object.__setattr__(self, name, arr)
        if self.feat is not None:
            feat = np.asarray(self.feat, dtype=np.float64)
            if feat.ndim != 2 or feat.shape[0] != L:
                raise ValidationError(f"feat must be (L, F), got {feat.shape}")
            object.__setattr__(self, "feat", feat)
        self.assignments.validate(self.assignments.point_to_particle.shape[0], L, K)

    # -- convenience accessors -------------------------------------------------

    @property
    def L(self) -> int:
        return self.mu_B.shape[0]

    @property
    def K(self) -> int:
        return self.mu_H.shape[0]

    @property
    def N(self) -> int:
        return self.assignments.point_to_particle.shape[0]

    @property
    def z_B(self) -> np.ndarray:
        return self.assignments.point_to_particle

    @property
    def z_H(self) -> np.ndarray:
        return self.assignments.particle_to_cluster

    @property
    def outlier_index(self) -> int:
        return self.L

    def replace(self, **kw) -> "ModelState":
        return dataclasses.replace(self, **kw)

    def validate(self) -> None:
        """Deep invariant check (simplex weights, SPD covariances, rotations)."""
        for name in ("pi_B", "pi_H"):
            pi = getattr(self, name)
            if np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-12:
                raise ValidationError(f"{name} must be a probability simplex")
        for name in ("Sigma_B", "Sigma_V", "Sigma_H"):
            for i, mat in enumerate(getattr(self, name)):
                _is_spd(mat, f"{name}[{i}]")
        eye = np.eye(self.dim)
        for k in range(self.K):
            R = self.rot[k]
            if not np.allclose(R.T @ R, eye, atol=1e-9):
                raise ValidationError(f"rot[{k}] is not orthogonal")
            if abs(np.linalg.det(R) - 1.0) > 1e-9:
                raise ValidationError(f"rot[{k}] must have determinant +1")
        for name in ("mu_B", "vel", "mu_H", "trans", "Sigma_B", "Sigma_V", "Sigma_H"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValidationError(f"{name} must be finite")
