"""Shared domain types: parameter boxes, time grids, snapshot matrices, noise.

All floating-point data is stored and manipulated in 64-bit. Types are
treated as immutable after construction; operations are pure functions
and take RNG seeds explicitly (no global RNG state).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParameterDomain",
    "TimeGrid",
    "SnapshotMatrix",
    "NoiseSpec",
    "inject_noise",
    "relative_param_error",
]


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-d float64 array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} entries must be finite")
    return v


@dataclass(frozen=True)
class ParameterDomain:
    """Box of admissible design parameters: lower[i] < upper[i] elementwise."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = as_vector(self.lower, "lower")
        hi = as_vector(self.upper, "upper")
        if lo.shape != hi.shape:
            raise ValueError("lower/upper length mismatch")
        if not np.all(lo < hi):
            raise ValueError("domain requires lower[i] < upper[i] for all i")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def ndim(self) -> int:
        return self.lower.size

    def validate(self, mu) -> np.ndarray:
        mu = as_vector(mu, "mu")
        if mu.size != self.ndim:
            raise ValueError(f"expected {self.ndim} parameters, got {mu.size}")
        return mu

    def contains(self, mu, tol: float = 0.0) -> bool:
        mu = self.validate(mu)
        return bool(np.all(mu >= self.lower - tol) and np.all(mu <= self.upper + tol))

    def clamp(self, mu) -> np.ndarray:
        # The same values as np.clip, at a fraction of its call overhead;
        # the optimizers clamp every point they evaluate.
        return np.minimum(np.maximum(self.validate(mu), self.lower), self.upper)

    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n uniform draws from the box, shape (n, ndim)."""
        return rng.uniform(self.lower, self.upper, size=(n, self.ndim))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_n = n*dt on [0, t_final] with dt = t_final/steps."""

    t_final: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not (self.t_final > 0.0 and np.isfinite(self.t_final)):
            raise ValueError("t_final must be positive and finite")

    @property
    def dt(self) -> float:
        return self.t_final / self.steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.steps + 1)


@dataclass(frozen=True)
class SnapshotMatrix:
    """Trajectory with row n holding the state at t_n; (steps+1) x n_state.

    ``mu`` is the generating parameter; it is None for merged training
    matrices that mix several trajectories.
    """

    data: np.ndarray
    grid: TimeGrid
    mu: np.ndarray | None = None

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise ValueError(f"snapshot data must be 2-d, got shape {data.shape}")
        if data.shape[0] != self.grid.steps + 1:
            raise ValueError(
                f"snapshot has {data.shape[0]} rows, grid expects {self.grid.steps + 1}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("snapshot entries must be finite")
        object.__setattr__(self, "data", data)
        if self.mu is not None:
            object.__setattr__(self, "mu", as_vector(self.mu, "mu"))

    @property
    def n_state(self) -> int:
        return self.data.shape[1]

    def final_state(self) -> np.ndarray:
        return self.data[-1]


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian noise level (dimensionless ratio) and RNG seed."""

    ratio: float
    seed: int = 0

    def __post_init__(self):
        if self.ratio < 0.0:
            raise ValueError("noise ratio must be >= 0")


def inject_noise(
    snapshots: SnapshotMatrix, spec: NoiseSpec, scale: str = "rms"
) -> SnapshotMatrix:
    """Return a copy with i.i.d. zero-mean Gaussian noise added entrywise.

    The noise standard deviation is ``ratio * rms(data)`` for the default
    "rms" scale, i.e. sigma = ratio * ||U||_F / sqrt(#entries). The
    "frobenius" scale uses sigma = ratio * ||U||_F, which is rarely what
    noisy-data experiments mean but is kept selectable. Deterministic for
    a fixed seed; ratio 0 returns an identical copy.
    """
    if scale not in ("rms", "frobenius"):
        raise ValueError(f"unknown noise scale {scale!r}")
    if spec.ratio == 0.0:
        return SnapshotMatrix(snapshots.data.copy(), snapshots.grid, snapshots.mu)
    fro = float(np.linalg.norm(snapshots.data))
    sigma = spec.ratio * fro
    if scale == "rms":
        sigma /= np.sqrt(snapshots.data.size)
    rng = np.random.default_rng(spec.seed)
    noisy = snapshots.data + rng.normal(0.0, sigma, size=snapshots.data.shape)
    return SnapshotMatrix(noisy, snapshots.grid, snapshots.mu)


def relative_param_error(mu_hat, mu_star) -> float:
    """||mu_hat - mu_star||_2 / ||mu_star||_2."""
    mu_hat = as_vector(mu_hat, "mu_hat")
    mu_star = as_vector(mu_star, "mu_star")
    if mu_hat.shape != mu_star.shape:
        raise ValueError("parameter vectors must have equal length")
    denom = float(np.linalg.norm(mu_star))
    if denom == 0.0:
        raise ZeroDivisionError("reference parameter vector has zero norm")
    return float(np.linalg.norm(mu_hat - mu_star) / denom)
