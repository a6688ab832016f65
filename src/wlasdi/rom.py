"""Latent-space prediction: explicit Runge-Kutta integration of identified
dynamics plus the residual partial derivatives needed for sensitivities.

With stages

    k_1 = W^T theta(z),
    k_j = W^T theta(z + dt * sum_{i<j} a_ji k_i),

a step reads z_n = z_{n-1} + dt * sum_j b_j k_j, and the step residual

    rtilde_n = z_n - z_{n-1} - dt * sum_j b_j k_j(z_{n-1})

vanishes identically on integrated trajectories. Its partials follow from
the product and chain rules applied through the stage recursion:

    dk_j/dz   = W^T grad_theta(y_j) (I + dt * sum_{i<j} a_ji dk_i/dz)
    dk_j/dmu  = dW^T/dmu theta(y_j) + W^T grad_theta(y_j) dt sum a_ji dk_i/dmu

where y_j is the stage argument. drtilde_n/dz_n = I for any explicit
scheme, drtilde_n/dz_{n-1} = -I - dt sum b_j dk_j/dz, and
drtilde_n/dmu = -dt sum b_j dk_j/dmu. The n = 0 residual pins the encoded
initial condition: rtilde_0 = z_0 - encode(g(mu)) (with the parameter block
appended in the augmented formulation).

``StepOperator`` packages one step and these partials at a frozen W(mu).
For a degree-1 library the step is affine and both are built once per
W(mu) rather than once per step.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import SnapshotMatrix, TimeGrid
from .features import FeatureLibrary
from .pod import LinearReducer
from .providers import CoefficientProvider

__all__ = [
    "ButcherTableau",
    "LatentModel",
    "LatentBlowupError",
    "rk_step",
    "StepOperator",
    "integrate_latent",
    "predict_full",
    "latent_initial",
    "latent_initial_sensitivity",
    "stage_derivatives",
    "reduced_residual_partials",
    "step_residual",
]

_BLOWUP_FACTOR = 1e6


class LatentBlowupError(RuntimeError):
    def __init__(self, step: int, norm: float):
        self.step = step
        self.norm = norm
        super().__init__(f"latent state blew up at step {step} (|z|_inf = {norm:.3e})")


@dataclass(frozen=True)
class ButcherTableau:
    """Coefficients (a, b) of an explicit Runge-Kutta scheme."""

    a: np.ndarray  # (s, s), strictly lower triangular
    b: np.ndarray  # (s,)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != (a.shape[0],):
            raise ValueError("tableau shapes must be (s, s) and (s,)")
        if np.any(np.triu(a) != 0.0):
            raise ValueError("explicit tableau requires a strictly lower triangular")
        if abs(np.sum(b) - 1.0) > 1e-12:
            raise ValueError("tableau weights must sum to 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def stages(self) -> int:
        return self.b.size

    @classmethod
    def rk4(cls) -> "ButcherTableau":
        a = np.zeros((4, 4))
        a[1, 0] = 0.5
        a[2, 1] = 0.5
        a[3, 2] = 1.0
        return cls(a, np.array([1.0, 2.0, 2.0, 1.0]) / 6.0)

    @classmethod
    def euler(cls) -> "ButcherTableau":
        return cls(np.zeros((1, 1)), np.array([1.0]))

    @classmethod
    def heun(cls) -> "ButcherTableau":
        a = np.zeros((2, 2))
        a[1, 0] = 1.0
        return cls(a, np.array([0.5, 0.5]))

    @classmethod
    def named(cls, name: str) -> "ButcherTableau":
        try:
            return {"rk4": cls.rk4, "euler": cls.euler, "heun": cls.heun}[name]()
        except KeyError:
            raise ValueError(f"unknown tableau {name!r}") from None


@dataclass(frozen=True)
class LatentModel:
    """Everything needed to predict full states from a parameter vector.

    ``initial_state`` maps mu to the full-order initial condition g(mu) and
    ``initial_state_gradient`` to its analytic partials dg/dmu_i, decoupling
    the latent machinery from any particular full-order model.
    """

    reducer: LinearReducer
    library: FeatureLibrary
    provider: CoefficientProvider
    grid: TimeGrid
    initial_state: Callable[[np.ndarray], np.ndarray]
    initial_state_gradient: Callable[[np.ndarray, int], np.ndarray]
    tableau: ButcherTableau = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.tableau is None:
            object.__setattr__(self, "tableau", ButcherTableau.rk4())
        if self.library.latent_dim != self.reducer.latent_dim:
            raise ValueError("library latent_dim does not match the reducer")
        if self.provider.augmented != self.library.augmented:
            raise ValueError("provider/library augmentation flags disagree")
        if self.provider.shape != (self.library.size, self.library.dim):
            raise ValueError(
                f"provider shape {self.provider.shape} incompatible with library "
                f"({self.library.size}, {self.library.dim})"
            )

    @property
    def augmented(self) -> bool:
        return self.library.augmented

    @property
    def state_dim(self) -> int:
        """Dimension of the integrated latent state."""
        return self.library.dim

    def output_pullback(self, row_u: np.ndarray) -> np.ndarray:
        """Map a full-state gradient row through the decoder Jacobian.

        Only the latent block of the augmented state feeds the decoder, so
        the parameter block of the result is zero.
        """
        row = np.zeros(self.state_dim)
        row[: self.reducer.latent_dim] = row_u @ self.reducer.basis
        return row

    def decode_state(self, v: np.ndarray) -> np.ndarray:
        return self.reducer.decode(v[..., : self.reducer.latent_dim])


def latent_initial(model: LatentModel, mu) -> np.ndarray:
    """Encoded initial condition, with mu appended in the augmented case."""
    mu = np.asarray(mu, dtype=float)
    z0 = model.reducer.encode(model.initial_state(mu))
    if model.augmented:
        return np.concatenate([z0, mu])
    return z0


def latent_initial_sensitivity(model: LatentModel, mu) -> np.ndarray:
    """d(latent initial)/dmu, shape (state_dim, n_mu).

    The latent block is encoder_jacobian @ dg/dmu_i; the augmented block is
    the identity (the parameter enters the state verbatim).
    """
    mu = np.asarray(mu, dtype=float)
    enc = model.reducer.encoder_jacobian()
    cols = [enc @ model.initial_state_gradient(mu, i) for i in range(mu.size)]
    sens = np.column_stack(cols)
    if model.augmented:
        sens = np.vstack([sens, np.eye(mu.size)])
    return sens


def rk_step(model: LatentModel, w: np.ndarray, z_prev: np.ndarray):
    """One explicit RK step; returns (z_next, stage_args, stage_values)."""
    a, b = model.tableau.a, model.tableau.b
    dt = model.grid.dt
    wt = w.T
    ys, ks = [], []
    for j in range(model.tableau.stages):
        y = z_prev.copy()
        for i in range(j):
            if a[j, i] != 0.0:
                y += (dt * a[j, i]) * ks[i]
        k = wt @ model.library.evaluate(y)
        ys.append(y)
        ks.append(k)
    z_next = z_prev + dt * (b @ np.asarray(ks))
    return z_next, ys, ks


class StepOperator:
    """One explicit RK step z_n = step(z_{n-1}) at a frozen W(mu), with its
    linearization, built once per W(mu).

    With a degree-1 library W^T theta(z) = c + A z is affine, and so is the
    step: z_n = M z_{n-1} + m, where [M m; 0 1] is the RK stability
    polynomial of H = [[A, c], [0, 0]]. It is built by running the tableau's
    own stage recursion on the (d+1) x (d+1) identity, and d[M m]/dmu_p by
    pushing dH_p (H assembled from dW/dmu_p) through the same recursion.
    Then dz_n/dz_{n-1} = M for every n, and the partial dz_n/dmu_p is
    dM_p z_{n-1} + dm_p. Degree-2 libraries step through ``rk_step`` and
    linearize through ``reduced_residual_partials`` at each state.
    """

    def __init__(self, model: LatentModel, w: np.ndarray, dw: np.ndarray | None = None):
        self.model = model
        self.w = w
        self.dw = dw
        self.affine = model.library.degree == 1
        if self.affine:
            d = model.state_dim
            step, tangent = _affine_stage_recursion(model, w, dw)
            self.matrix = step[:d, :d]
            self.offset = step[:d, d]
            self._dmatrix = None if tangent is None else tangent[:, :d, :d]
            self._doffset = None if tangent is None else tangent[:, :d, d]

    def advance(self, z_prev: np.ndarray) -> np.ndarray:
        if self.affine:
            return self.matrix @ z_prev + self.offset
        return rk_step(self.model, self.w, z_prev)[0]

    def linearize(self, z_prev: np.ndarray):
        """(dz_n/dz_{n-1} (d, d), partial dz_n/dmu (d, n_mu) or None) at z_{n-1}.

        These are -drtilde_n/dz_{n-1} and -drtilde_n/dmu.
        """
        if self.affine:
            if self._dmatrix is None:
                return self.matrix, None
            return self.matrix, (self._dmatrix @ z_prev + self._doffset).T
        _, dr_dz_prev, dr_dmu = reduced_residual_partials(
            self.model, self.w, self.dw, z_prev
        )
        return -dr_dz_prev, None if dr_dmu is None else -dr_dmu

    def trajectory(self, z0: np.ndarray) -> np.ndarray:
        """States (steps+1, d) from z0; raises LatentBlowupError at the first
        step whose sup norm leaves the guard band."""
        steps = self.model.grid.steps
        out = np.empty((steps + 1, z0.size))
        out[0] = z0
        guard = _BLOWUP_FACTOR * max(1.0, float(np.max(np.abs(z0))))
        z = z0
        # No per-step check: past the guard the recursion only overflows,
        # so the first step over it is found afterwards.
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(1, steps + 1):
                z = self.advance(z)
                out[n] = z
            norms = np.max(np.abs(out[1:]), axis=1)
        bad = np.flatnonzero(~(norms <= guard))
        if bad.size:
            raise LatentBlowupError(int(bad[0]) + 1, float(norms[bad[0]]))
        return out

    def spectrum(self) -> dict:
        """Spectral radius of M and max Re(eig(A)) of an affine step."""
        if not self.affine:
            raise ValueError("the step spectrum needs a degree-1 library")
        radius = np.max(np.abs(np.linalg.eigvals(self.matrix)))
        growth = np.max(np.linalg.eigvals(self.w[1:].T).real)
        return {"step_spectral_radius": float(radius), "max_real_eig": float(growth)}


def _homogeneous(w: np.ndarray) -> np.ndarray:
    """H = [[A, c], [0, 0]] for W^T [1; z] = c + A z, over leading axes of w."""
    d = w.shape[-1]
    h = np.zeros(w.shape[:-2] + (d + 1, d + 1))
    h[..., :d, :d] = np.swapaxes(w[..., 1:, :], -1, -2)
    h[..., :d, d] = w[..., 0, :]
    return h


def _affine_stage_recursion(model: LatentModel, w: np.ndarray, dw: np.ndarray | None):
    """[M m; 0 1] and, when dw is given, its tangents (n_mu, d+1, d+1).

    K_j = H (I + dt sum_{i<j} a_ji K_i), S = I + dt sum_j b_j K_j; the
    tangent recursion differentiates each product with respect to H.
    """
    a, b = model.tableau.a, model.tableau.b
    dt = model.grid.dt
    h = _homogeneous(w)
    dh = None if dw is None else _homogeneous(dw)
    eye = np.eye(h.shape[0])
    step = eye.copy()
    tangent = None if dh is None else np.zeros_like(dh)
    ks, dks = [], []
    for j in range(model.tableau.stages):
        y = eye.copy()
        dy = None if dh is None else np.zeros_like(dh)
        for i in range(j):
            if a[j, i] != 0.0:
                y += (dt * a[j, i]) * ks[i]
                if dh is not None:
                    dy += (dt * a[j, i]) * dks[i]
        ks.append(h @ y)
        step += (dt * b[j]) * ks[j]
        if dh is not None:
            dks.append(dh @ y + h @ dy)
            tangent += (dt * b[j]) * dks[j]
    return step, tangent


def integrate_latent(model: LatentModel, mu, w: np.ndarray | None = None) -> np.ndarray:
    """Latent trajectory (steps+1, state_dim); W(mu) is frozen over the horizon."""
    mu = np.asarray(mu, dtype=float)
    if w is None:
        w = model.provider.coefficients(mu)
    return StepOperator(model, w).trajectory(latent_initial(model, mu))


def predict_full(model: LatentModel, mu) -> SnapshotMatrix:
    """Integrate the latent dynamics and decode every time level."""
    z = integrate_latent(model, mu)
    return SnapshotMatrix(model.decode_state(z), model.grid, np.asarray(mu, float))


def step_residual(model: LatentModel, w: np.ndarray, z_prev, z_next) -> np.ndarray:
    """rtilde_n evaluated at a pair of consecutive states."""
    advanced, _, _ = rk_step(model, w, np.asarray(z_prev, float))
    return np.asarray(z_next, float) - advanced


def stage_derivatives(
    model: LatentModel,
    w: np.ndarray,
    dw: np.ndarray | None,
    z_prev: np.ndarray,
):
    """Stage partials at one step: (dk/dz (s,d,d), dk/dmu (s,d,n_mu) or None)."""
    a = model.tableau.a
    dt = model.grid.dt
    s = model.tableau.stages
    d = model.state_dim
    wt = w.T
    lib = model.library

    dk_dz = np.empty((s, d, d))
    dk_dmu = None if dw is None else np.empty((s, d, dw.shape[0]))
    ks = []
    for j in range(s):
        y = z_prev + dt * (a[j, :j] @ np.asarray(ks)) if j else z_prev
        theta = lib.evaluate(y)
        ks.append(wt @ theta)
        grad = wt @ lib.jacobian(y)  # (d, d)
        dy_dz = np.eye(d)
        for i in range(j):
            if a[j, i] != 0.0:
                dy_dz += (dt * a[j, i]) * dk_dz[i]
        dk_dz[j] = grad @ dy_dz
        if dw is not None:
            term = np.einsum("pjd,j->dp", dw, theta)  # dW^T/dmu theta(y_j)
            dy_dmu = np.zeros((d, dw.shape[0]))
            for i in range(j):
                if a[j, i] != 0.0:
                    dy_dmu += (dt * a[j, i]) * dk_dmu[i]
            dk_dmu[j] = term + grad @ dy_dmu
    return dk_dz, dk_dmu


def reduced_residual_partials(
    model: LatentModel,
    w: np.ndarray,
    dw: np.ndarray | None,
    z_prev: np.ndarray,
):
    """Partials of rtilde_n (n >= 1) taken at its left state z_{n-1}.

    Returns (drtilde/dz_n, drtilde/dz_{n-1}, drtilde/dmu); the first is the
    identity for every explicit scheme and drtilde/dmu is None when the
    provider has exactly zero parameter sensitivity.
    """
    b = model.tableau.b
    dt = model.grid.dt
    dk_dz, dk_dmu = stage_derivatives(model, w, dw, z_prev)
    d = model.state_dim
    dr_dz_next = np.eye(d)
    dr_dz_prev = -np.eye(d) - dt * np.einsum("j,jab->ab", b, dk_dz)
    dr_dmu = None
    if dk_dmu is not None:
        dr_dmu = -dt * np.einsum("j,jab->ab", b, dk_dmu)
    return dr_dz_next, dr_dz_prev, dr_dmu
