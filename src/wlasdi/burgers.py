"""Full-order model for the 1-D inviscid Burgers benchmark.

Periodic domain, one-sided first-order spatial differences, backward Euler
in time. The implicit step residual is

    r_n(u_n) = u_n - u_{n-1} + dt * u_n * (D u_n) = 0,

with D the selected one-sided difference operator, solved by Newton
iteration with the analytic Jacobian

    dr_n/du_n = I + dt * (diag(D u_n) + diag(u_n) D),   dr_n/du_{n-1} = -I.

The initial condition is two Gaussian pulses parameterized by
mu = [a1, w1, a2, w2] (amplitudes and widths, centers fixed at x = +/-5).
Objective gradients for the final-state mismatch f = ||u_N - target||_2^2
are provided both by forward (direct) sensitivity propagation and by the
backward adjoint recursion; the two are exact gradients of the same
discrete objective and must agree to roundoff.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .core import ParameterDomain, SnapshotMatrix, TimeGrid, as_vector
from .sensitivity import GradientResult

__all__ = [
    "BurgersConfig",
    "NewtonConvergenceError",
    "BENCHMARK_DOMAIN",
    "initial_condition",
    "initial_condition_gradient",
    "fom_step",
    "fom_solve",
    "fom_step_jacobians",
    "fom_gradient_direct",
    "fom_gradient_adjoint",
]

# Benchmark parameter box: [a1, w1, a2, w2].
BENCHMARK_DOMAIN = ParameterDomain(
    lower=np.array([0.7, 0.9, 0.7, 0.9]),
    upper=np.array([0.9, 1.1, 0.9, 1.1]),
)

_PULSE_CENTERS = (5.0, -5.0)


class NewtonConvergenceError(RuntimeError):
    def __init__(self, step: int, iterations: int, residual_norm: float):
        self.step = step
        self.iterations = iterations
        self.residual_norm = residual_norm
        super().__init__(
            f"Newton failed at step {step}: ||r||_inf = {residual_norm:.3e} "
            f"after {iterations} iterations"
        )


@dataclass(frozen=True)
class BurgersConfig:
    x_min: float = -10.0
    x_max: float = 10.0
    dx: float = 0.02
    grid: TimeGrid = field(default_factory=lambda: TimeGrid(1.0, 1000))
    upwind: str = "forward"  # one-sided difference direction: "forward" or "backward"
    newton_tol: float = 1e-10
    newton_max_iter: int = 50

    def __post_init__(self):
        n = (self.x_max - self.x_min) / self.dx
        if abs(n - round(n)) > 1e-9 * max(1.0, abs(n)):
            raise ValueError("(x_max - x_min)/dx must be an integer (periodic grid)")
        if self.upwind not in ("forward", "backward"):
            raise ValueError(f"unknown difference direction {self.upwind!r}")
        if not self.newton_tol > 0.0:
            raise ValueError("newton_tol must be positive")
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be >= 1")

    @property
    def n_points(self) -> int:
        return int(round((self.x_max - self.x_min) / self.dx))

    def mesh(self) -> np.ndarray:
        # Periodic grid: x_max is identified with x_min and not stored.
        return self.x_min + self.dx * np.arange(self.n_points)


def initial_condition(mu, cfg: BurgersConfig) -> np.ndarray:
    """Two-pulse profile g(mu) sampled on the periodic mesh."""
    mu = as_vector(mu, "mu")
    if mu.size != 4:
        raise ValueError("expected mu = [a1, w1, a2, w2]")
    a1, w1, a2, w2 = mu
    if w1 <= 0.0 or w2 <= 0.0:
        raise ValueError("pulse widths must be positive")
    x = cfg.mesh()
    c1, c2 = _PULSE_CENTERS
    return a1 * np.exp(-((x - c1) ** 2) / (2.0 * w1**2)) + a2 * np.exp(
        -((x - c2) ** 2) / (2.0 * w2**2)
    )


def initial_condition_gradient(mu, i: int, cfg: BurgersConfig) -> np.ndarray:
    """Analytic partial derivative of the initial profile w.r.t. mu[i]."""
    mu = as_vector(mu, "mu")
    a1, w1, a2, w2 = mu
    x = cfg.mesh()
    c1, c2 = _PULSE_CENTERS
    if i == 0:
        return np.exp(-((x - c1) ** 2) / (2.0 * w1**2))
    if i == 1:
        return a1 * ((x - c1) ** 2 / w1**3) * np.exp(-((x - c1) ** 2) / (2.0 * w1**2))
    if i == 2:
        return np.exp(-((x - c2) ** 2) / (2.0 * w2**2))
    if i == 3:
        return a2 * ((x - c2) ** 2 / w2**3) * np.exp(-((x - c2) ** 2) / (2.0 * w2**2))
    raise IndexError(f"parameter index {i} out of range for 4 parameters")


def _difference(u: np.ndarray, cfg: BurgersConfig) -> np.ndarray:
    if cfg.upwind == "forward":
        return (np.roll(u, -1) - u) / cfg.dx
    return (u - np.roll(u, 1)) / cfg.dx


def _step_jacobian(u: np.ndarray, cfg: BurgersConfig) -> sp.csc_matrix:
    """dr/du at the state u: I + dt*(diag(Du) + diag(u) D), sparse."""
    n = u.size
    dt = cfg.grid.dt
    du = _difference(u, cfg)
    rows = np.concatenate([np.arange(n), np.arange(n)])
    if cfg.upwind == "forward":
        diag = 1.0 + dt * du - dt * u / cfg.dx
        off = dt * u / cfg.dx
        cols = np.concatenate([np.arange(n), np.arange(1, n + 1) % n])
    else:
        diag = 1.0 + dt * du + dt * u / cfg.dx
        off = -dt * u / cfg.dx
        cols = np.concatenate([np.arange(n), np.arange(-1, n - 1) % n])
    data = np.concatenate([diag, off])
    return sp.csc_matrix((data, (rows, cols)), shape=(n, n))


def residual(u_next: np.ndarray, u_prev: np.ndarray, cfg: BurgersConfig) -> np.ndarray:
    return u_next - u_prev + cfg.grid.dt * u_next * _difference(u_next, cfg)


def fom_step(u_prev: np.ndarray, cfg: BurgersConfig, step: int = 0) -> np.ndarray:
    """Advance one backward-Euler step by Newton iteration on the residual."""
    u = np.asarray(u_prev, dtype=float).copy()
    for it in range(cfg.newton_max_iter + 1):
        r = residual(u, u_prev, cfg)
        rnorm = float(np.max(np.abs(r)))
        if not np.isfinite(rnorm):
            raise NewtonConvergenceError(step, it, rnorm)
        if rnorm <= cfg.newton_tol:
            return u
        if it == cfg.newton_max_iter:
            raise NewtonConvergenceError(step, it, rnorm)
        u -= splu(_step_jacobian(u, cfg)).solve(r)
    raise NewtonConvergenceError(step, cfg.newton_max_iter, rnorm)


def fom_solve(mu, cfg: BurgersConfig) -> SnapshotMatrix:
    """Full trajectory from the parameterized initial condition."""
    mu = as_vector(mu, "mu")
    n_steps = cfg.grid.steps
    states = np.empty((n_steps + 1, cfg.n_points))
    states[0] = initial_condition(mu, cfg)
    for n in range(1, n_steps + 1):
        states[n] = fom_step(states[n - 1], cfg, step=n)
    return SnapshotMatrix(states, cfg.grid, mu)


def fom_step_jacobians(u_prev, u_next, cfg: BurgersConfig):
    """(dr_n/du_n, dr_n/du_{n-1}) for one accepted step, as sparse matrices."""
    u_next = np.asarray(u_next, dtype=float)
    j_n = _step_jacobian(u_next, cfg)
    j_prev = -sp.identity(u_next.size, format="csc")
    return j_n, j_prev


def _objective(u_final: np.ndarray, target: np.ndarray) -> float:
    return float(np.sum((u_final - target) ** 2))


def fom_gradient_direct(mu, cfg: BurgersConfig, target) -> GradientResult:
    """Forward sensitivity propagation of df/dmu for f = ||u_N - target||^2."""
    mu = as_vector(mu, "mu")
    target = as_vector(target, "target")
    traj = fom_solve(mu, cfg)
    n_steps = cfg.grid.steps

    # du_0/dmu columns; the n = 0 residual Jacobian is the identity.
    sens = np.column_stack(
        [initial_condition_gradient(mu, i, cfg) for i in range(mu.size)]
    )
    n_solves = mu.size
    for n in range(1, n_steps + 1):
        lu = splu(_step_jacobian(traj.data[n], cfg))
        sens = lu.solve(sens)
        n_solves += mu.size
    dfdu = 2.0 * (traj.data[-1] - target)
    grad = dfdu @ sens
    return GradientResult(
        value=_objective(traj.data[-1], target),
        gradient=grad,
        method="fom_direct",
        n_linear_solves=n_solves,
        n_residual_solves=n_steps,
    )


def fom_gradient_adjoint(mu, cfg: BurgersConfig, target) -> GradientResult:
    """Backward adjoint recursion for the same discrete objective."""
    mu = as_vector(mu, "mu")
    target = as_vector(target, "target")
    traj = fom_solve(mu, cfg)
    n_steps = cfg.grid.steps

    dfdu = 2.0 * (traj.data[-1] - target)
    lam = splu(_step_jacobian(traj.data[-1], cfg)).solve(dfdu, trans="T")
    n_solves = 1
    # Only the one-step back-coupling dr_{n+1}/du_n = -I is nonzero, so
    # lambda_n solves J_n^T lambda_n = lambda_{n+1}.
    for n in range(n_steps - 1, 0, -1):
        lam = splu(_step_jacobian(traj.data[n], cfg)).solve(lam, trans="T")
        n_solves += 1
    lam0 = lam  # dr_0/du_0 = I
    n_solves += 1
    grad = np.array(
        [lam0 @ initial_condition_gradient(mu, i, cfg) for i in range(mu.size)]
    )
    return GradientResult(
        value=_objective(traj.data[-1], target),
        gradient=grad,
        method="fom_adjoint",
        n_linear_solves=n_solves,
        n_residual_solves=n_steps,
    )
