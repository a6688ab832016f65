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
transpose, is one banded triangular solve (LAPACK ``dtbtrs``) followed by
the Sherman-Morrison correction

    x = y - z * y_q / (1 + z_q),   y = B^{-1} rhs,   z = B^{-1} c e_p

(Golub & Van Loan, Matrix Computations, sections 2.1.4 and 4.3), so a
Newton update, a direct-sensitivity step and an adjoint step each cost
O(n). ``_StepFactors`` holds the band, the spike z and 1 + z_q of K stacked
states, so that each solve after it is built is one ``dtbtrs`` and the
correction.

Newton starts step 1 from u_0 and every later step from the linear
extrapolation 2 u_{n-1} - u_{n-2} (Hairer & Wanner, Solving ODEs II,
section IV.8); on smooth stretches of the trajectory one update then meets
the tolerance, where a start from u_{n-1} takes two. Each iteration takes
one difference D u and derives both the residual and the Jacobian band
from it. Several trajectories advance through one Newton loop: their bands
are stacked into one solve with zero coupling between the blocks, and a
trajectory that has converged is left out of later updates, so each one is
bit-identical to its own single solve. The gradient sweeps build the
factors of all N stored states at once (one vectorised Jacobian pass and
one stacked spike solve), which holds memory of about three trajectories
while a gradient runs.

The initial condition is two Gaussian pulses parameterized by
mu = [a1, w1, a2, w2] (amplitudes and widths, centers fixed at x = +/-5).
Objective gradients for the final-state mismatch f = ||u_N - target||_2^2
are provided both by forward (direct) sensitivity propagation and by the
backward adjoint recursion; the two are exact gradients of the same
discrete objective and must agree to roundoff.
"""
from __future__ import annotations

import functools
import math
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
    if mu.shape == (4,):
        # One vector, checked as floats: array checks would cost several
        # times the two exps.
        a1, w1, a2, w2 = mu.tolist()
        if not all(map(math.isfinite, (a1, w1, a2, w2))):
            raise ValueError("mu entries must be finite")
        if w1 <= 0.0 or w2 <= 0.0:
            raise ValueError("pulse widths must be positive")
        exponents = _pulse_exponents(cfg)
        return a1 * np.exp(exponents[0] / (2.0 * w1**2)) + a2 * np.exp(
            exponents[1] / (2.0 * w2**2)
        )
    if mu.ndim != 2 or mu.shape[-1] != 4:
        raise ValueError("expected mu = [a1, w1, a2, w2], or rows of them")
    if not np.isfinite(mu).all():
        raise ValueError("mu entries must be finite")
    widths = mu[:, 1::2].tolist()
    if any(w <= 0.0 for pair in widths for w in pair):
        raise ValueError("pulse widths must be positive")
    # Widths are squared by the C library's pow, as float64 scalars square;
    # an array's ** multiplies, which differs from it in the last bit for
    # some widths. Axes (row, pulse, point).
    var = 2.0 * np.array([[w**2 for w in pair] for pair in widths])[..., None]
    g = mu[:, 0::2, None] * np.exp(_pulse_exponents(cfg) / var)
    return g[:, 0] + g[:, 1]


def initial_condition_gradient(mu, i: int, cfg: BurgersConfig) -> np.ndarray:
    """Analytic partial derivative of the initial profile w.r.t. mu[i].

    All four partials at one mu come from one pair of exps and are cached
    for the last mu and ``cfg``, so the four calls of one gradient pay for
    one pass. The returned array is read-only.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (4,):
        raise ValueError(f"expected mu = [a1, w1, a2, w2], got shape {mu.shape}")
    # Keyed by the bytes, so that -0.0 and 0.0 stay apart.
    partials = _pulse_partials(mu.tobytes(), cfg)
    if i not in range(4):
        raise IndexError(f"parameter index {i} out of range for 4 parameters")
    return partials[i]


@functools.lru_cache(maxsize=1)
def _pulse_partials(key: bytes, cfg: BurgersConfig) -> tuple:
    """(dg/da1, dg/dw1, dg/da2, dg/dw2), each read-only, at the mu whose
    float64 bytes are ``key``; refuses a non-finite mu (never cached)."""
    mu = np.frombuffer(key).tolist()
    if not all(map(math.isfinite, mu)):
        raise ValueError("mu entries must be finite")
    partials = []
    for amplitude, width, exponent in zip(mu[0::2], mu[1::2], _pulse_exponents(cfg)):
        pulse = np.exp(exponent / (2.0 * width**2))  # exponent = -(x - c_k)^2
        partials += [pulse, amplitude * (-exponent / width**3) * pulse]
    for partial in partials:
        partial.flags.writeable = False
    return tuple(partials)


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


def _jacobian_parts(u: np.ndarray, du: np.ndarray, cfg: BurgersConfig):
    """Diagonal and off-diagonal of dr/du = I + dt*(diag(Du) + diag(u) D),
    given ``du`` = D u.

    Backward differences put ``off[i]`` at (i, i-1), forward ones at
    (i, i+1); on the periodic grid one of them is the corner.
    """
    dt = cfg.grid.dt
    off = dt * u / cfg.dx
    if cfg.upwind == "forward":
        return 1.0 + dt * du - off, off
    return 1.0 + dt * du + off, -off


class _StepFactors:
    """Solves with the step Jacobians J_k = dr/du at K stacked states u
    (K, n), or with their transposes if ``trans``.

    Built once, it holds the LAPACK band of the K bidiagonal parts B_k
    (zero coupling between the blocks), the Sherman-Morrison spikes
    z_k = B_k^{-1} c_k e_p from one stacked solve, and 1 + z_q. A solve is
    then one ``dtbtrs`` and the correction. A state whose band has an
    exactly zero pivot solves to a NaN block. ``du`` is D u if the caller
    has it.
    """

    def __init__(self, u, cfg: BurgersConfig, trans: bool = False, du=None):
        u = np.atleast_2d(u)
        k, n = u.shape
        diag, off = _jacobian_parts(u, _difference(u, cfg) if du is None else du, cfg)
        self.singular = ~diag.all(axis=1)
        diag[self.singular] = 1.0  # solve the other blocks; these become NaN
        # LAPACK band storage, kd = 1: the diagonal, and J[j+1, j] (lower) or
        # J[j-1, j] (upper) at column j; 0 where column j crosses into the
        # next block, so the stacked systems do not couple. Axes of the view
        # ``band``: (row of ab, state, point).
        self.ab = np.empty((2, k * n), order="F")
        band = self.ab.reshape(2, k, n)
        if cfg.upwind == "backward":
            band[0], band[1, :, :-1], band[1, :, -1] = diag, off[:, 1:], 0.0
            self.uplo, p, q = "L", 0, n - 1
        else:
            band[1], band[0, :, 1:], band[0, :, 0] = diag, off[:, :-1], 0.0
            self.uplo, p, q = "U", n - 1, 0
        corner = off[:, p]  # J = B + c e_p e_q^T, and J^T = B^T + c e_q e_p^T
        if trans:
            p, q = q, p
        self.trans, self.q = "T" if trans else "N", q
        spike = np.zeros((k, n))
        spike[:, p] = corner
        self.z = self._tbtrs(self.ab, spike.reshape(k * n, 1)).reshape(k, n)
        self.denom = 1.0 + self.z[:, q]

    def _tbtrs(self, ab, b):
        x, info = dtbtrs(ab, b, uplo=self.uplo, trans=self.trans, overwrite_b=1)
        if info != 0:
            raise ValueError(f"dtbtrs rejected argument {-info}")
        return x

    def solve(self, rhs, state: int | None = None) -> np.ndarray:
        """x with J x = rhs for every state, or for ``state`` alone.

        ``rhs`` has K*n rows (n for one state) in any shape, e.g. (K, n) or
        (n, m), and the solution comes back in that shape. It is solved in
        place, without a copy, when its rows are Fortran-contiguous, so the
        caller's ``rhs`` may be overwritten.
        """
        n = self.z.shape[1]
        rows = slice(None) if state is None else slice(state, state + 1)
        ab = self.ab if state is None else self.ab[:, state * n : (state + 1) * n]
        z, denom = self.z[rows], self.denom[rows]
        y = self._tbtrs(ab, rhs.reshape(len(z) * n, -1)).reshape(len(z), n, -1)
        q = self.q
        y -= z[..., None] * (y[:, q : q + 1] / denom[:, None, None])
        y[self.singular[rows]] = np.nan
        return y.reshape(rhs.shape)


def residual(
    u_next: np.ndarray, u_prev: np.ndarray, cfg: BurgersConfig, du=None
) -> np.ndarray:
    """r_n(u_next) for the step from u_prev; ``du`` is D u_next if known."""
    if du is None:
        du = _difference(u_next, cfg)
    return u_next - u_prev + cfg.grid.dt * u_next * du


def _newton(
    u_prev: np.ndarray, u_start: np.ndarray, cfg: BurgersConfig, step: int, mus=None
) -> np.ndarray:
    """One backward-Euler step of the K states ``u_prev`` (K, n) by Newton,
    starting from ``u_start``.

    Each iteration takes one difference D u and derives both the residual
    and the Jacobian band from it. A state leaves the iteration once its
    residual meets the tolerance. The first state whose residual or update
    is not finite, or that has not converged after ``newton_max_iter``
    updates, raises NewtonConvergenceError with its own iteration count and
    residual.
    """
    u = np.array(u_start, dtype=float)
    active = np.arange(len(u))

    def fail(it, rnorm, bad):
        i = int(np.argmax(bad))
        mu = None if mus is None else mus[active[i]]
        return NewtonConvergenceError(step, it, float(rnorm[i]), mu)

    for it in range(cfg.newton_max_iter + 1):
        ua = u[active]
        du = _difference(ua, cfg)
        r = residual(ua, u_prev[active], cfg, du)
        rnorm = np.max(np.abs(r), axis=1)
        pending = rnorm > cfg.newton_tol
        bad = ~np.isfinite(rnorm) | (pending & (it == cfg.newton_max_iter))
        if bad.any():
            raise fail(it, rnorm, bad)
        if not pending.any():
            return u
        if not pending.all():
            active, ua, du, r, rnorm = (a[pending] for a in (active, ua, du, r, rnorm))
        delta = _StepFactors(ua, cfg, du=du).solve(r)
        bad = ~np.isfinite(delta).all(axis=1)
        if bad.any():
            raise fail(it, rnorm, bad)
        u[active] = ua - delta
    raise AssertionError("unreachable: the last iteration returns or raises")


def fom_step(u_prev: np.ndarray, cfg: BurgersConfig, step: int = 0) -> np.ndarray:
    """Advance one backward-Euler step by Newton iteration on the residual,
    starting from ``u_prev``."""
    u_prev = np.asarray(u_prev, dtype=float)[None]
    return _newton(u_prev, u_prev, cfg, step)[0]


def fom_solve_batch(mus, cfg: BurgersConfig) -> list[SnapshotMatrix]:
    """Trajectories for several parameters, advanced through one Newton loop.

    Newton starts step 1 from u_0 and every later step n from the linear
    extrapolation 2 u_{n-1} - u_{n-2} of the trajectory's own states. Each
    trajectory is bit-identical to the single solve ``fom_solve(mu, cfg)``.
    """
    mus = [as_vector(mu, "mu") for mu in mus]
    if not mus:
        return []
    states = np.empty((len(mus), cfg.grid.steps + 1, cfg.n_points))
    states[:, 0] = initial_condition(np.stack(mus), cfg)
    for n in range(1, cfg.grid.steps + 1):
        start = states[:, 0] if n == 1 else 2.0 * states[:, n - 1] - states[:, n - 2]
        states[:, n] = _newton(states[:, n - 1], start, cfg, n, mus)
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

    # du_0/dmu columns, Fortran-ordered so that each step solves them in
    # place; the n = 0 residual Jacobian is the identity.
    sens = np.asfortranarray(
        np.column_stack([initial_condition_gradient(mu, i, cfg) for i in range(mu.size)])
    )
    factors = _StepFactors(traj.data[1:], cfg)
    for n in range(n_steps):
        sens = factors.solve(sens, n)
    n_solves = mu.size * (n_steps + 1)
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
    factors = _StepFactors(traj.data[1:], cfg, trans=True)
    # Only the one-step back-coupling dr_{n+1}/du_n = -I is nonzero, so
    # lambda_n solves J_n^T lambda_n = lambda_{n+1}, from J_N^T lambda_N = dfdu.
    lam = dfdu
    for n in range(n_steps - 1, -1, -1):
        lam = factors.solve(lam, n)
    n_solves = n_steps + 1  # and dr_0/du_0 = I gives lambda_0 = lambda_1
    grad = np.array([lam @ initial_condition_gradient(mu, i, cfg) for i in range(mu.size)])
    return GradientResult(
        value=_objective(traj.data[-1], target),
        gradient=grad,
        method="fom_adjoint",
        n_linear_solves=n_solves,
        n_residual_solves=n_steps,
    )
