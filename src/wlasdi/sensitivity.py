"""Objective gradients through the latent surrogate.

Both drivers compute the exact gradient of the same discrete objective and
must agree to roundoff; they differ only in cost structure. The direct
recursion propagates dz_n/dmu forward in time, one d x d "solve" per step
and per parameter component; the adjoint recursion runs one backward pass
of multipliers independent of the parameter count. For explicit
Runge-Kutta residuals drtilde_n/dz_n is the identity, so each solve is an
identity application; the counters tally them anyway so the cost scaling
contract stays visible. Both sweeps take the step partials from one
``rom.StepOperator``; for a degree-1 library dz_n/dz_{n-1} = M is one
constant matrix and both sweeps are constant-matrix recursions.

Objectives are pluggable through three methods (duck typed):

    active_indices(n_steps) -> iterable of time levels with df/du_n != 0
    state_gradient(n, u_n)  -> row vector df/du_n at an active level
    mu_gradient(mu)         -> the explicit df/dmu term

The built-in TargetMismatch is f = ||u_N - target||_2^2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rom import (
    LatentModel,
    StepOperator,
    integrate_latent,
    latent_initial,
    latent_initial_sensitivity,
)

__all__ = [
    "GradientResult",
    "TargetMismatch",
    "reduced_direct_gradient",
    "reduced_adjoint_gradient",
    "fd_gradient",
    "surrogate_objective",
]


@dataclass(frozen=True)
class GradientResult:
    """Objective value, gradient, and the cost of producing them."""

    value: float
    gradient: np.ndarray
    method: str
    n_linear_solves: int = 0
    n_residual_solves: int = 0

    def __post_init__(self):
        g = np.asarray(self.gradient, dtype=float)
        if not np.all(np.isfinite(g)):
            raise ValueError("gradient entries must be finite")
        object.__setattr__(self, "gradient", g)


@dataclass(frozen=True)
class TargetMismatch:
    """Final-state mismatch f = ||u_N - target||_2^2."""

    target: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float))

    def value(self, u_final: np.ndarray) -> float:
        return float(np.sum((u_final - self.target) ** 2))

    def active_indices(self, n_steps: int):
        return (n_steps,)

    def state_gradient(self, n: int, u_n: np.ndarray) -> np.ndarray:
        return 2.0 * (u_n - self.target)

    def mu_gradient(self, mu: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(mu, dtype=float))


def _objective_rows(model: LatentModel, objective, z: np.ndarray):
    """Pulled-back objective rows (df/du_n) nabla G_de at active levels."""
    n_steps = model.grid.steps
    rows = {}
    for n in objective.active_indices(n_steps):
        u_n = model.decode_state(z[n])
        rows[n] = model.output_pullback(objective.state_gradient(n, u_n))
    return rows


def _forward(model: LatentModel, mu):
    """Step operator with parameter tangents, and the trajectory it steps."""
    mu = np.asarray(mu, dtype=float)
    w = model.provider.coefficients(mu)
    dw = (
        model.provider.coefficient_gradients(mu)
        if model.provider.parameter_dependent
        else None
    )
    op = StepOperator(model, w, dw)
    return mu, op, op.trajectory(latent_initial(model, mu))


def reduced_direct_gradient(model: LatentModel, mu, objective) -> GradientResult:
    """Forward propagation of the latent sensitivities dz_n/dmu."""
    mu, op, z = _forward(model, mu)
    n_steps = model.grid.steps
    rows = _objective_rows(model, objective, z)

    grad = np.asarray(objective.mu_gradient(mu), dtype=float).copy()
    sens = latent_initial_sensitivity(model, mu)  # dz_0/dmu, identity "solve"
    n_solves = mu.size
    if 0 in rows:
        grad += rows[0] @ sens
    for n in range(1, n_steps + 1):
        jac, jac_mu = op.linearize(z[n - 1])
        sens = jac @ sens
        if jac_mu is not None:
            sens += jac_mu
        n_solves += mu.size
        if n in rows:
            grad += rows[n] @ sens
    return GradientResult(
        value=objective.value(model.decode_state(z[n_steps])),
        gradient=grad,
        method="reduced_direct",
        n_linear_solves=n_solves,
        n_residual_solves=n_steps,
    )


def reduced_adjoint_gradient(model: LatentModel, mu, objective) -> GradientResult:
    """Backward multiplier recursion; cost independent of the parameter count."""
    mu, op, z = _forward(model, mu)
    n_steps = model.grid.steps
    rows = _objective_rows(model, objective, z)

    grad = np.asarray(objective.mu_gradient(mu), dtype=float).copy()
    lam = rows.get(n_steps, np.zeros(model.state_dim)).copy()  # identity "solve"
    n_solves = 1
    for n in range(n_steps - 1, -1, -1):
        jac, jac_mu = op.linearize(z[n])
        # -lambda_{n+1}^T drtilde_{n+1}/dmu accumulates into the gradient.
        if jac_mu is not None:
            grad += lam @ jac_mu
        lam = rows.get(n, 0.0) + lam @ jac
        n_solves += 1
    # n = 0 residual: drtilde_0/dmu = -(initial sensitivity).
    grad += lam @ latent_initial_sensitivity(model, mu)
    return GradientResult(
        value=objective.value(model.decode_state(z[n_steps])),
        gradient=grad,
        method="reduced_adjoint",
        n_linear_solves=n_solves,
        n_residual_solves=n_steps,
    )


def surrogate_objective(model: LatentModel, objective):
    """Scalar callable mu -> f(decode(z_N(mu))) for optimizers and FD checks."""

    def evaluate(mu) -> float:
        z = integrate_latent(model, np.asarray(mu, dtype=float))
        return objective.value(model.decode_state(z[-1]))

    return evaluate


def fd_gradient(evaluate, mu, h: float = 1e-6) -> GradientResult:
    """Central finite differences of a scalar evaluator (the gradient oracle)."""
    if h <= 0.0:
        raise ValueError("step size must be positive")
    mu = np.asarray(mu, dtype=float)
    grad = np.empty(mu.size)
    for i in range(mu.size):
        up, down = mu.copy(), mu.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (evaluate(up) - evaluate(down)) / (2.0 * h)
    return GradientResult(
        value=float(evaluate(mu)),
        gradient=grad,
        method="finite_difference",
        n_residual_solves=2 * mu.size + 1,
    )
