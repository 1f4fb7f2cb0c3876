"""Domain types for the two-level moving-matter mixture model.

A scene is modeled as K *clusters* (independently moving entities, each with a
spatial Gaussian and a rigid transform), L *particles* (small Gaussians of
local matter assigned to clusters), and N observed points (position-velocity
pairs, optionally feature-tagged) assigned to particles.  A ``ModelState``
holds both label vectors itself: ``z_B`` (point to particle) and ``z_H``
(particle to cluster).
"""
from __future__ import annotations

import dataclasses
import math
import numbers
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
    try:
        arr = np.array(x, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be an array of numbers") from None
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite")
    if shape is not None and arr.shape != shape:
        raise ValidationError(f"{name} must have shape {shape}")
    return arr


def is_int(x) -> bool:
    """Whether ``x`` is an integer, which a bool is not."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_real(x) -> bool:
    """Whether ``x`` is a finite real number, which a bool is not."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def _as_float(x, name: str, ok=lambda v: True, want: str = "a finite number") -> float:
    """``x`` as a float if it is a finite real number that passes ``ok``; a
    ``ValidationError`` naming ``name`` otherwise."""
    if not (is_real(x) and ok(x)):
        raise ValidationError(f"{name} must be {want}, got {x!r}")
    return float(x)


def _positive(x, name: str) -> float:
    return _as_float(x, name, lambda v: v > 0, "a positive number")


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

    def take(self, idx: np.ndarray) -> "Observations":
        feat = None if self.features is None else self.features[idx]
        return Observations(self.positions[idx], self.velocities[idx], feat)


@dataclass(frozen=True)
class HyperParams:
    """Fixed priors and noise scales of the generative model.

    ``alpha`` / ``beta`` may be scalars (symmetric Dirichlet) or full
    concentration vectors.  D is the length of ``mu_H_prior``.  Construction
    checks every field, raising a ``ValidationError`` that names it: each is
    a finite number (never a bool) or array of the right shape and range,
    and each ``Psi_*`` is symmetric positive definite.  Degrees of freedom
    are then floored to D + 2 so Inverse-Wishart means exist.
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
        def put(name, value):
            object.__setattr__(self, name, value)

        mu = _as_floats(self.mu_H_prior, "mu_H_prior")
        if mu.shape not in ((2,), (3,)):
            raise ValidationError(f"mu_H_prior must have shape (2,) or (3,), got {mu.shape}")
        put("mu_H_prior", mu)
        dim = mu.shape[0]
        for psi, nu in (("Psi_H", "nu_H"), ("Psi_B", "nu_B"), ("Psi_V", "nu_V")):
            mat = _as_floats(getattr(self, psi), psi, (dim, dim))
            _is_spd(mat, psi)
            put(psi, mat)
            put(nu, max(_as_float(getattr(self, nu), nu), dim + 2.0))
        for name in ("sigma2_mu_H", "sigma2_V", "s2", "outlier_gamma_shape",
                     "outlier_gamma_rate"):
            put(name, _positive(getattr(self, name), name))
        put("kappa_vmf", _as_float(self.kappa_vmf, "kappa_vmf", lambda v: v >= 0,
                                   "a non-negative number"))
        put("theta_max", _as_float(self.theta_max, "theta_max", lambda v: 0 < v <= math.pi,
                                   "a number in (0, pi]"))
        if self.sigma2_F is not None:
            put("sigma2_F", _positive(self.sigma2_F, "sigma2_F"))
        put("p_outlier", _as_float(self.p_outlier, "p_outlier", lambda v: 0 <= v < 1,
                                   "a number in [0, 1)"))
        for name in ("alpha", "beta"):
            val = getattr(self, name)
            if isinstance(val, (list, tuple, np.ndarray)):
                vec = _as_floats(val, name)
                if vec.ndim != 1 or np.any(vec <= 0):
                    raise ValidationError(f"{name} must be a positive number or a vector "
                                          f"of them, got {vec.tolist()}")
                put(name, vec)
            else:
                put(name, _positive(val, name))

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
        if isinstance(val, float):
            return np.full(size, val)
        if val.shape != (size,):
            raise ValidationError(f"{name} must have length {size}, got {val.shape}")
        return val

    @property
    def dim(self) -> int:
        """D: the length of ``mu_H_prior``, whose shape every matrix field follows."""
        return self.mu_H_prior.shape[0]

    def replace(self, **kw) -> "HyperParams":
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True)
class ModelState:
    """Full latent state of the model.

    Value semantics: arrays are never mutated in place; every update builds a
    new state.  ``z_B`` entries equal to L (one past the last particle) denote
    the outlier component.  ``rng`` is the deterministic stream cursor, so a
    dumped state resumes bit-identically.
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
    z_B: np.ndarray        # (N,) point-to-particle labels, int64
    z_H: np.ndarray        # (L,) particle-to-cluster labels, int64
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
        z_b = np.asarray(self.z_B, dtype=np.int64)
        z_h = np.asarray(self.z_H, dtype=np.int64)
        if z_b.ndim != 1:
            raise ValidationError(f"z_B must have shape (N,), got {z_b.shape}")
        if z_h.shape != (L,):
            raise ValidationError(f"z_H must have shape ({L},), got {z_h.shape}")
        if z_b.size and (z_b.min() < 0 or z_b.max() > L):
            raise ValidationError("z_B entries must lie in [0, L]")
        if z_h.size and (z_h.min() < 0 or z_h.max() >= K):
            raise ValidationError("z_H entries must lie in [0, K)")
        object.__setattr__(self, "z_B", z_b)
        object.__setattr__(self, "z_H", z_h)

    # -- convenience accessors -------------------------------------------------

    @property
    def L(self) -> int:
        return self.mu_B.shape[0]

    @property
    def K(self) -> int:
        return self.mu_H.shape[0]

    @property
    def N(self) -> int:
        return len(self.z_B)

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
