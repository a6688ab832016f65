"""Latent dynamics identification: weak-form least squares and a
strong-form (differentiate-then-regress) baseline.

The weak form multiplies dz/dt = W^T theta(z) by compactly supported test
functions and integrates by parts, so no derivatives of the (possibly
noisy) data are ever taken:

    -integral(phidot_m z) = integral(phi_m theta(z)) W,   m = 1..M.

Integrals are approximated with the trapezoidal rule. Test functions are
piecewise-polynomial bumps phi(t) = (1 - s^2)^p with s = (t - t_c)/(r*dt),
supported on r grid points either side of the center; for p >= 2 both phi
and phidot vanish at the support endpoints, which is what makes the
integration by parts boundary-term free.

The strong-form baseline differentiates the trajectory with second-order
finite differences and regresses the derivatives onto the library. No
sparsity is enforced in either fit; the solve is a rank-revealing
least-squares (minimum-norm on deficiency).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import TimeGrid
from .features import FeatureLibrary

__all__ = [
    "TestFunctionBasis",
    "IdentifiedDynamics",
    "build_test_functions",
    "wendy_fit",
    "sindy_fit",
]


@dataclass(frozen=True)
class TestFunctionBasis:
    """Rows hold phi_m and phidot_m sampled on the grid, quadrature applied.

    Each (phi, phidot) row pair is scaled by 1/||phi_m Q||_2 so rows enter
    the least squares with comparable weight.
    """

    phi: np.ndarray  # (M, N+1)
    phi_dot: np.ndarray  # (M, N+1)
    support_radius: int
    degree: int
    grid: TimeGrid

    @property
    def count(self) -> int:
        return self.phi.shape[0]


def build_test_functions(
    grid: TimeGrid, count: int = 200, radius_frac: float = 0.1, degree: int = 3
) -> TestFunctionBasis:
    """Uniformly centered bump test functions with supports inside [0, T]."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if degree < 2:
        raise ValueError("degree must be >= 2 so phidot vanishes at support ends")
    n = grid.steps
    radius = max(2, int(round(radius_frac * n)))
    if 2 * radius > n:
        raise ValueError(
            f"support radius {radius} grid points does not fit in {n} steps"
        )
    dt = grid.dt
    half_width = radius * dt
    t = grid.times()
    if count == 1:
        centers = np.array([0.5 * grid.t_final])
    else:
        centers = np.linspace(half_width, grid.t_final - half_width, count)

    s = (t[None, :] - centers[:, None]) / half_width
    inside = np.abs(s) < 1.0
    base = np.where(inside, 1.0 - s**2, 0.0)
    phi = base**degree
    phi_dot = np.where(inside, -2.0 * degree * s / half_width * base ** (degree - 1), 0.0)

    quad = np.full(n + 1, dt)
    quad[0] = quad[-1] = 0.5 * dt
    phi = phi * quad
    phi_dot = phi_dot * quad
    norms = np.linalg.norm(phi, axis=1, keepdims=True)
    return TestFunctionBasis(phi / norms, phi_dot / norms, radius, degree, grid)


@dataclass(frozen=True)
class IdentifiedDynamics:
    """Coefficient matrix W (size J x d) for dz/dt = W^T theta(z)."""

    coefficients: np.ndarray
    library: FeatureLibrary

    def __post_init__(self):
        w = np.asarray(self.coefficients, dtype=float)
        expected = (self.library.size, self.library.dim)
        if w.shape != expected:
            raise ValueError(f"coefficients shape {w.shape}, expected {expected}")
        if not np.all(np.isfinite(w)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", w)


def _as_trajectories(z, library: FeatureLibrary, n_rows: int | None = None):
    trajs = [z] if isinstance(z, np.ndarray) else list(z)
    out = []
    for traj in trajs:
        traj = np.asarray(traj, dtype=float)
        if traj.ndim != 2 or traj.shape[1] != library.dim:
            raise ValueError(
                f"trajectory shape {traj.shape} incompatible with library dim {library.dim}"
            )
        if n_rows is not None and traj.shape[0] != n_rows:
            raise ValueError(
                f"trajectory has {traj.shape[0]} rows, expected {n_rows}"
            )
        out.append(traj)
    if not out:
        raise ValueError("no trajectories given")
    return out


def _solve_lstsq(g: np.ndarray, b: np.ndarray, library: FeatureLibrary):
    w, _, rank, _ = np.linalg.lstsq(g, b, rcond=None)
    if rank < library.size:
        warnings.warn(
            f"rank-deficient regression ({rank} < {library.size}); "
            "returning the minimum-norm solution",
            stacklevel=3,
        )
    return IdentifiedDynamics(w, library)


def weak_system(z: np.ndarray, library: FeatureLibrary, basis: TestFunctionBasis):
    """(G, B) for one trajectory: G = Phi Theta(Z), B = -Phidot Z."""
    return basis.phi @ library.evaluate(z), -basis.phi_dot @ z


def wendy_fit(z, library: FeatureLibrary, basis: TestFunctionBasis) -> IdentifiedDynamics:
    """Weak-form ordinary least squares fit of the latent coefficients.

    ``z`` is a single (N+1) x d trajectory or a sequence of them sharing
    the basis grid; rows of G, B from all trajectories are stacked before
    the solve.
    """
    trajs = _as_trajectories(z, library, n_rows=basis.grid.steps + 1)
    blocks = [weak_system(traj, library, basis) for traj in trajs]
    g = np.vstack([blk[0] for blk in blocks])
    b = np.vstack([blk[1] for blk in blocks])
    return _solve_lstsq(g, b, library)


def _finite_difference_derivative(z: np.ndarray, dt: float) -> np.ndarray:
    """Second-order derivative estimate: central interior, one-sided ends."""
    zdot = np.empty_like(z)
    zdot[1:-1] = (z[2:] - z[:-2]) / (2.0 * dt)
    zdot[0] = (-3.0 * z[0] + 4.0 * z[1] - z[2]) / (2.0 * dt)
    zdot[-1] = (3.0 * z[-1] - 4.0 * z[-2] + z[-3]) / (2.0 * dt)
    return zdot


def sindy_fit(z, library: FeatureLibrary, grid: TimeGrid) -> IdentifiedDynamics:
    """Strong-form baseline: regress finite-differenced derivatives on theta."""
    if grid.steps < 2:
        raise ValueError("need at least 2 steps for second-order differences")
    trajs = _as_trajectories(z, library, n_rows=grid.steps + 1)
    g = np.vstack([library.evaluate(traj) for traj in trajs])
    b = np.vstack([_finite_difference_derivative(traj, grid.dt) for traj in trajs])
    return _solve_lstsq(g, b, library)
