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

Objectives are pluggable through these methods (duck typed):

    active_indices(n_steps) -> iterable of time levels with df/du_n != 0
    state_gradient(n, u_n)  -> row vector df/du_n at an active level
    mu_gradient(mu)         -> the explicit df/dmu term
    value(u_N)              -> f at the final state (``SurrogateObjective``)
    values(U_N)             -> optional: f at each row of a block of final
                               states (m, n_state); ``value`` row by row
                               stands in for it when it is missing

The built-in TargetMismatch is f = ||u_N - target||_2^2.

``SurrogateObjective`` is what the optimizers call. For a step map that
does not depend on mu and an objective active only at the final level, it
evaluates f and its gradient through the final-time propagator S^N with no
time loop, and f for a whole block of parameters with one product;
everywhere else it runs the trajectory and the adjoint sweep.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rom import (
    _BLOWUP_FACTOR,
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
    "SurrogateObjective",
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

    def values(self, u_final: np.ndarray) -> np.ndarray:
        """f for each row of a block of final states (m, n_state)."""
        return np.sum((u_final - self.target) ** 2, axis=1)

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


class SurrogateObjective:
    """mu -> f(decode(z_N(mu))) and its gradient, for optimizers and FD checks.

    When the step map does not depend on mu (degree-1 library and a
    constant W) and f is active only at the final level N, the final state
    is z_N = P z_0(mu) + p with [P p; 0 1] = S^N (``StepOperator.propagator``,
    built on the first call). Then f is one encode, one matvec and one
    decode, and the gradient is df/dmu + row_N P dz_0/dmu. That path is
    taken only if c = max_n ||S^n||_inf is at most half the blow-up factor:
    then no state of any trajectory can leave the guard band
    ``_BLOWUP_FACTOR * max(1, |z_0|_inf)`` (the half leaves room for the
    roundoff of the stepped trajectory). Otherwise, and for every other
    model or objective, f integrates the trajectory and the gradient runs
    the adjoint sweep, so a blow-up raises ``LatentBlowupError`` at the same
    step as ``integrate_latent``.

    ``values(mus)`` evaluates f for a block of parameter rows; on the
    propagator path the block costs one encode, one product and one decode.
    """

    def __init__(self, model: LatentModel, objective):
        self.model = model
        self.objective = objective
        n_steps = model.grid.steps
        self._final_time = (
            model.library.degree == 1
            and not model.provider.parameter_dependent
            and tuple(objective.active_indices(n_steps)) == (n_steps,)
        )
        self._final_map = None

    def _propagator(self, mu: np.ndarray):
        """(P, p), built on first use, or None if the certificate fails."""
        if self._final_map is None:
            op = StepOperator(self.model, self.model.provider.coefficients(mu))
            power, bound = op.propagator()
            if not bound <= 0.5 * _BLOWUP_FACTOR:
                self._final_time = False
                return None
            d = self.model.state_dim
            self._final_map = (power[:d, :d], power[:d, d])
        return self._final_map

    def _final_state(self, mu: np.ndarray):
        """z_N from the propagator, or None where the sweeps must run."""
        if not self._final_time:
            return None
        z0 = latent_initial(self.model, mu)
        if not np.all(np.isfinite(z0)):
            return None
        final_map = self._propagator(mu)
        if final_map is None:
            return None
        p_mat, p_vec = final_map
        return p_mat @ z0 + p_vec

    def __call__(self, mu) -> float:
        mu = np.asarray(mu, dtype=float)
        z_final = self._final_state(mu)
        if z_final is None:
            z_final = integrate_latent(self.model, mu)[-1]
        return self.objective.value(self.model.decode_state(z_final))

    def values(self, mus) -> np.ndarray:
        """f at each row of ``mus`` (m, n_mu), shape (m,).

        On the propagator path the block is one encode, one product
        Z_0 P^T + p, one decode and the objective's row-wise ``values``
        (its ``value`` per row if it has none); each entry agrees with
        ``__call__`` to roundoff. Every other model, and every row whose z_0
        is not finite, is evaluated row by row by ``__call__``, so a
        blow-up raises ``LatentBlowupError`` with the step and norm of the
        scalar call.
        """
        mus = np.asarray(mus, dtype=float)
        if mus.ndim != 2:
            raise ValueError(f"expected a block of parameter rows, got shape {mus.shape}")
        out = np.empty(len(mus))
        stepped = range(len(mus))
        if self._final_time and len(mus):
            z0 = latent_initial(self.model, mus)
            finite = np.all(np.isfinite(z0), axis=1)
            final_map = self._propagator(mus[0]) if finite.any() else None
            if final_map is not None:
                p_mat, p_vec = final_map
                u_final = self.model.decode_state(z0[finite] @ p_mat.T + p_vec)
                score = getattr(self.objective, "values", None)
                if score is None:
                    out[finite] = [self.objective.value(u) for u in u_final]
                else:
                    out[finite] = score(u_final)
                stepped = np.flatnonzero(~finite)
        for k in stepped:
            out[k] = self(mus[k])
        return out

    def gradient(self, mu) -> np.ndarray:
        mu = np.asarray(mu, dtype=float)
        model, objective = self.model, self.objective
        z_final = self._final_state(mu)
        if z_final is None:
            return reduced_adjoint_gradient(model, mu, objective).gradient
        n_steps = model.grid.steps
        u_final = model.decode_state(z_final)
        row = model.output_pullback(objective.state_gradient(n_steps, u_final))
        grad = np.asarray(objective.mu_gradient(mu), dtype=float) + (
            row @ self._final_map[0]
        ) @ latent_initial_sensitivity(model, mu)
        # GradientResult rejects a non-finite gradient, as the sweeps do.
        return GradientResult(objective.value(u_final), grad, "final_time").gradient


def surrogate_objective(model: LatentModel, objective) -> SurrogateObjective:
    """Scalar callable mu -> f(decode(z_N(mu))), with ``.gradient(mu)`` and
    the block evaluation ``.values(mus)``."""
    return SurrogateObjective(model, objective)


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
