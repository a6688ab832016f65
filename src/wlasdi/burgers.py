"""Full-order model for the 1-D inviscid Burgers benchmark.

Periodic domain, one-sided first-order spatial differences, backward Euler
in time. The implicit step residual is

    r_n(u_n) = u_n - u_{n-1} + dt * u_n * (D u_n) = 0,

with D the selected one-sided difference operator, solved by Newton
iteration with the analytic Jacobian

    dr_n/du_n = I + dt * (diag(D u_n) + diag(u_n) D),   dr_n/du_{n-1} = -I.

On the periodic grid this Jacobian is cyclic bidiagonal: a bidiagonal band
B (lower for backward differences, upper for forward) plus one corner entry
c at (p, q) = (0, n-1) or (n-1, 0). Every linear solve with it, or with its
transpose, is one banded triangular solve (LAPACK ``dtbtrs``) on the
right-hand sides [rhs, c e_p] followed by the Sherman-Morrison correction

    x = y - z * y_q / (1 + z_q),   y = B^{-1} rhs,   z = B^{-1} c e_p

(Golub & Van Loan, Matrix Computations, sections 2.1.4 and 4.3), so a
Newton iteration, a direct-sensitivity step and an adjoint step each cost
O(n). Several trajectories advance through one Newton loop: their bands
are stacked into one solve with zero coupling between the blocks, and a
trajectory that has converged is left out of later updates, so each one is
bit-identical to its own single solve.

The initial condition is two Gaussian pulses parameterized by
mu = [a1, w1, a2, w2] (amplitudes and widths, centers fixed at x = +/-5).
Objective gradients for the final-state mismatch f = ||u_N - target||_2^2
are provided both by forward (direct) sensitivity propagation and by the
backward adjoint recursion; the two are exact gradients of the same
discrete objective and must agree to roundoff.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .core import SnapshotMatrix, TimeGrid, as_vector
from .sensitivity import GradientResult

__all__ = [
    "BurgersConfig",
    "NewtonConvergenceError",
    "initial_condition",
    "initial_condition_gradient",
    "fom_step",
    "fom_solve",
    "fom_solve_batch",
    "fom_gradient_direct",
    "fom_gradient_adjoint",
]

_PULSE_CENTERS = (5.0, -5.0)


class NewtonConvergenceError(RuntimeError):
    def __init__(self, step: int, iterations: int, residual_norm: float, mu=None):
        self.step = step
        self.iterations = iterations
        self.residual_norm = residual_norm
        self.mu = mu
        where = "" if mu is None else f" for mu = {[float(v) for v in mu]}"
        super().__init__(
            f"Newton failed at step {step}{where}: ||r||_inf = {residual_norm:.3e} "
            f"after {iterations} iterations"
        )


@dataclass(frozen=True)
class BurgersConfig:
    x_min: float = -10.0
    x_max: float = 10.0
    dx: float = 0.02
    grid: TimeGrid = field(default_factory=lambda: TimeGrid(1.0, 1000))
    # One-sided difference direction. "backward" is upwind for the
    # rightward-moving pulses; "forward" diverges at the benchmark grid.
    upwind: str = "backward"
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


@functools.lru_cache(maxsize=8)
def _pulse_exponents(cfg: BurgersConfig) -> np.ndarray:
    """-(x - c_k)^2 on the mesh for the two pulse centers, (2, n_points),
    read-only; computed once per configuration."""
    exponents = -((cfg.mesh() - np.array(_PULSE_CENTERS)[:, None]) ** 2)
    exponents.flags.writeable = False
    return exponents


def initial_condition(mu, cfg: BurgersConfig) -> np.ndarray:
    """Two-pulse profile g(mu) sampled on the periodic mesh.

    ``mu`` is one parameter vector (4,) or a block of them (m, 4), which
    gives the profiles as rows (m, n_points), each bit-equal to its single
    call. Every row is validated.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.ndim not in (1, 2) or mu.shape[-1] != 4:
        raise ValueError("expected mu = [a1, w1, a2, w2], or rows of them")
    if not np.isfinite(mu).all():
        raise ValueError("mu entries must be finite")
    rows = np.atleast_2d(mu)
    widths = rows[:, 1::2].tolist()
    if any(w <= 0.0 for pair in widths for w in pair):
        raise ValueError("pulse widths must be positive")
    # Widths are squared by the C library's pow, as float64 scalars square;
    # an array's ** multiplies, which differs from it in the last bit for
    # some widths. Axes (row, pulse, point).
    var = 2.0 * np.array([[w**2 for w in pair] for pair in widths])[..., None]
    g = rows[:, 0::2, None] * np.exp(_pulse_exponents(cfg) / var)
    g = g[:, 0] + g[:, 1]
    return g if mu.ndim == 2 else g[0]


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
    """Periodic one-sided difference along the last axis."""
    d = np.empty_like(u)
    if cfg.upwind == "forward":
        np.subtract(u[..., 1:], u[..., :-1], out=d[..., :-1])
        np.subtract(u[..., :1], u[..., -1:], out=d[..., -1:])
    else:
        np.subtract(u[..., 1:], u[..., :-1], out=d[..., 1:])
        np.subtract(u[..., :1], u[..., -1:], out=d[..., :1])
    d /= cfg.dx
    return d


def _jacobian_parts(u: np.ndarray, cfg: BurgersConfig):
    """Diagonal and off-diagonal of dr/du = I + dt*(diag(Du) + diag(u) D).

    Backward differences put ``off[i]`` at (i, i-1), forward ones at
    (i, i+1); on the periodic grid one of them is the corner.
    """
    dt = cfg.grid.dt
    du = _difference(u, cfg)
    if cfg.upwind == "forward":
        off = dt * u / cfg.dx
        return 1.0 + dt * du - off, off
    return 1.0 + dt * du + dt * u / cfg.dx, -dt * u / cfg.dx


def _cyclic_solve(u, cfg: BurgersConfig, rhs, trans: bool = False) -> np.ndarray:
    """Solve J x = rhs (J^T x = rhs if ``trans``), J the step Jacobian at u.

    ``u`` is one state (n,) or K states (K, n); ``rhs`` has K*n rows in any
    shape, e.g. (K, n) or (n, m), and the solution comes back in that shape.
    The K systems are one ``dtbtrs`` call on their stacked bands. A state
    whose band has an exactly zero pivot gets a NaN block.
    """
    u = np.atleast_2d(u)
    k, n = u.shape
    diag, off = _jacobian_parts(u, cfg)
    singular = ~diag.all(axis=1)
    if singular.any():
        diag[singular] = 1.0  # solve the other blocks; these become NaN below
    # LAPACK band storage, kd = 1: the diagonal, and J[j+1, j] (lower) or
    # J[j-1, j] (upper) at column j; 0 where column j crosses into the next
    # block, so the stacked systems do not couple.
    band = np.zeros((k, n))
    ab = np.empty((2, k * n), order="F")
    if cfg.upwind == "backward":
        band[:, :-1] = off[:, 1:]
        ab[0], ab[1] = diag.ravel(), band.ravel()
        uplo, p, q = "L", 0, n - 1
    else:
        band[:, 1:] = off[:, :-1]
        ab[0], ab[1] = band.ravel(), diag.ravel()
        uplo, p, q = "U", n - 1, 0
    corner = off[:, p]  # J = B + c e_p e_q^T, and J^T = B^T + c e_q e_p^T
    if trans:
        p, q = q, p
    m = rhs.size // (k * n)
    b = np.zeros((k * n, m + 1), order="F")
    b[:, :m] = rhs.reshape(k * n, m)
    b[p::n, m] = corner
    x, info = dtbtrs(ab, b, uplo=uplo, trans="T" if trans else "N", overwrite_b=1)
    if info != 0:
        raise ValueError(f"dtbtrs rejected argument {-info}")
    x = x.reshape(k, n, m + 1)
    y, z = x[..., :m], x[..., m:]
    sol = y - z * (y[:, q : q + 1] / (1.0 + z[:, q : q + 1]))
    sol[singular] = np.nan
    return sol.reshape(rhs.shape)


def residual(u_next: np.ndarray, u_prev: np.ndarray, cfg: BurgersConfig) -> np.ndarray:
    return u_next - u_prev + cfg.grid.dt * u_next * _difference(u_next, cfg)


def _newton(u_prev: np.ndarray, cfg: BurgersConfig, step: int, mus=None) -> np.ndarray:
    """One backward-Euler step of the K states ``u_prev`` (K, n) by Newton.

    A state leaves the iteration once its residual meets the tolerance. The
    first state whose residual or update is not finite, or that has not
    converged after ``newton_max_iter`` updates, raises
    NewtonConvergenceError with its own iteration count and residual.
    """
    u = np.array(u_prev, dtype=float)
    active = np.arange(len(u))

    def fail(it, rnorm, bad):
        i = int(np.argmax(bad))
        mu = None if mus is None else mus[active[i]]
        return NewtonConvergenceError(step, it, float(rnorm[i]), mu)

    for it in range(cfg.newton_max_iter + 1):
        ua = u[active]
        r = residual(ua, u_prev[active], cfg)
        rnorm = np.max(np.abs(r), axis=1)
        pending = rnorm > cfg.newton_tol
        bad = ~np.isfinite(rnorm) | (pending & (it == cfg.newton_max_iter))
        if bad.any():
            raise fail(it, rnorm, bad)
        if not pending.all():
            active, ua, r, rnorm = active[pending], ua[pending], r[pending], rnorm[pending]
            if active.size == 0:
                return u
        delta = _cyclic_solve(ua, cfg, r)
        bad = ~np.isfinite(delta).all(axis=1)
        if bad.any():
            raise fail(it, rnorm, bad)
        u[active] = ua - delta
    raise AssertionError("unreachable: the last iteration returns or raises")


def fom_step(u_prev: np.ndarray, cfg: BurgersConfig, step: int = 0) -> np.ndarray:
    """Advance one backward-Euler step by Newton iteration on the residual."""
    return _newton(np.asarray(u_prev, dtype=float)[None], cfg, step)[0]


def fom_solve_batch(mus, cfg: BurgersConfig) -> list[SnapshotMatrix]:
    """Trajectories for several parameters, advanced through one Newton loop.

    Each is bit-identical to the single solve ``fom_solve(mu, cfg)``.
    """
    mus = [as_vector(mu, "mu") for mu in mus]
    if not mus:
        return []
    states = np.empty((len(mus), cfg.grid.steps + 1, cfg.n_points))
    states[:, 0] = initial_condition(np.stack(mus), cfg)
    for n in range(1, cfg.grid.steps + 1):
        states[:, n] = _newton(states[:, n - 1], cfg, n, mus)
    return [SnapshotMatrix(s, cfg.grid, mu) for s, mu in zip(states, mus)]


def fom_solve(mu, cfg: BurgersConfig) -> SnapshotMatrix:
    """Full trajectory from the parameterized initial condition."""
    return fom_solve_batch([mu], cfg)[0]


def _objective(u_final: np.ndarray, target: np.ndarray) -> float:
    return float(np.sum((u_final - target) ** 2))


def _trajectory(mu: np.ndarray, cfg: BurgersConfig, traj) -> SnapshotMatrix:
    """``traj`` if it is the solve at (mu, cfg), or a new solve if it is None."""
    if traj is None:
        return fom_solve(mu, cfg)
    if (
        traj.mu is None
        or not np.array_equal(traj.mu, mu)
        or traj.grid != cfg.grid
        or traj.data.shape != (cfg.grid.steps + 1, cfg.n_points)
    ):
        mu_stored = None if traj.mu is None else traj.mu.tolist()
        raise ValueError(
            f"trajectory is for mu={mu_stored}, {traj.grid}, shape {traj.data.shape}; "
            f"requested mu={mu.tolist()}, {cfg.grid}, {cfg.n_points} points"
        )
    return traj


def fom_gradient_direct(
    mu, cfg: BurgersConfig, target, traj: SnapshotMatrix | None = None
) -> GradientResult:
    """Forward sensitivity propagation of df/dmu for f = ||u_N - target||^2.

    ``traj`` is the trajectory ``fom_solve(mu, cfg)`` if the caller has it
    already; it is solved otherwise.
    """
    mu = as_vector(mu, "mu")
    target = as_vector(target, "target")
    traj = _trajectory(mu, cfg, traj)
    n_steps = cfg.grid.steps

    # du_0/dmu columns; the n = 0 residual Jacobian is the identity.
    sens = np.column_stack(
        [initial_condition_gradient(mu, i, cfg) for i in range(mu.size)]
    )
    n_solves = mu.size
    for n in range(1, n_steps + 1):
        sens = _cyclic_solve(traj.data[n], cfg, sens)
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


def fom_gradient_adjoint(
    mu, cfg: BurgersConfig, target, traj: SnapshotMatrix | None = None
) -> GradientResult:
    """Backward adjoint recursion for the same discrete objective; ``traj``
    as in ``fom_gradient_direct``."""
    mu = as_vector(mu, "mu")
    target = as_vector(target, "target")
    traj = _trajectory(mu, cfg, traj)
    n_steps = cfg.grid.steps

    dfdu = 2.0 * (traj.data[-1] - target)
    lam = _cyclic_solve(traj.data[-1], cfg, dfdu, trans=True)
    n_solves = 1
    # Only the one-step back-coupling dr_{n+1}/du_n = -I is nonzero, so
    # lambda_n solves J_n^T lambda_n = lambda_{n+1}.
    for n in range(n_steps - 1, 0, -1):
        lam = _cyclic_solve(traj.data[n], cfg, lam, trans=True)
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
