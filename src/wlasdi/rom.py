"""Latent-space prediction: explicit Runge-Kutta integration of identified
dynamics and the step linearization needed for sensitivities.

One explicit RK step from y_0 runs the stage recursion

    y_j = y_0 + dt * sum_{i<j} a_ji k_i,   k_j = f(y_j),
    step = y_0 + sum_j (dt * b_j) k_j,

and pushes a forward tangent through the same sums: the tangent of y_j is
the tangent of y_0 plus dt * sum_{i<j} a_ji times the stage tangents, and
the field supplies the tangent of k_j. ``StepOperator`` runs it with one of
two fields at a frozen W(mu):

* degree-1 library: f(Y) = H Y on (d+1) x (d+1) matrices, with
  H = [[A, c], [0, 0]] from W^T [1; z] = c + A z and tangent
  dH_p Y + H dY_p. From Y_0 = I and a zero tangent the step is the affine
  map [M m; 0 1] and its mu-derivative, built once per W(mu).
* degree-2 library: f(y) = W^T theta(y) on the state, with tangent
  W^T grad_theta(y) T + [0 | dW^T/dmu theta(y)]. Seeded with
  T_0 = [I_d | 0], the step tangent is [dz_n/dz_{n-1} | dz_n/dmu].

With the step residual rtilde_n = z_n - step(z_{n-1}), the sensitivity
sweeps use drtilde_n/dz_n = I and the negated step tangent for
drtilde_n/dz_{n-1} and drtilde_n/dmu. The n = 0 residual pins the encoded
initial condition: rtilde_0 = z_0 - encode(g(mu)) (with the parameter block
appended in the augmented formulation).
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
    "StepOperator",
    "integrate_latent",
    "predict_full",
    "latent_initial",
    "latent_initial_sensitivity",
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

    ``initial_state`` maps mu to the full-order initial condition g(mu), and
    a block of parameter rows (m, n_mu) to the rows g(mu_k) (m, n_state);
    ``initial_state_gradient`` maps mu to the analytic partials dg/dmu_i.
    This decouples the latent machinery from any particular full-order model.
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
    """Encoded initial condition, with mu appended in the augmented case.

    A block of parameter rows (m, n_mu) gives the rows (m, state_dim).
    """
    mu = np.asarray(mu, dtype=float)
    z0 = model.reducer.encode(model.initial_state(mu))
    if model.augmented:
        return np.concatenate([z0, mu], axis=-1)
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


class StepOperator:
    """One explicit RK step z_n = step(z_{n-1}) at a frozen W(mu), with its
    linearization.

    With a degree-1 library W^T theta(z) = c + A z is affine, and so is the
    step: z_n = M z_{n-1} + m, where [M m; 0 1] is the RK stability
    polynomial of H = [[A, c], [0, 0]]. The stage recursion builds it once
    per W(mu) from the (d+1) x (d+1) identity, and d[M m]/dmu_p from the
    tangent dH_p (H assembled from dW/dmu_p). Then dz_n/dz_{n-1} = M for
    every n, and the partial dz_n/dmu_p is dM_p z_{n-1} + dm_p. A degree-2
    library runs the recursion on the state at each step.
    """

    def __init__(self, model: LatentModel, w: np.ndarray, dw: np.ndarray | None = None):
        self.model = model
        self.w = w
        self.dw = dw
        self.affine = model.library.degree == 1
        if self.affine:
            d = model.state_dim
            h = _homogeneous(w)
            dh = None if dw is None else _homogeneous(dw)

            def field(y, ty):
                return h @ y, None if ty is None else dh @ y + h @ ty

            step, tangent = _stage_recursion(
                model, np.eye(d + 1), None if dh is None else np.zeros_like(dh), field
            )
            self._affine_step = step
            self.matrix = step[:d, :d]
            self.offset = step[:d, d]
            self._dmatrix = None if tangent is None else tangent[:, :d, :d]
            self._doffset = None if tangent is None else tangent[:, :d, d]

    def _field(self, y, ty):
        """W^T theta(y) and, for ty = [dy/dz | dy/dmu], its tangent."""
        theta = self.model.library.evaluate(y)
        k = self.w.T @ theta
        if ty is None:
            return k, None
        tk = self.w.T @ self.model.library.jacobian(y) @ ty
        if self.dw is not None:
            tk[:, self.model.state_dim :] += np.einsum("pjd,j->dp", self.dw, theta)
        return k, tk

    def advance(self, z_prev: np.ndarray) -> np.ndarray:
        if self.affine:
            return self.matrix @ z_prev + self.offset
        return _stage_recursion(self.model, z_prev, None, self._field)[0]

    def linearize(self, z_prev: np.ndarray):
        """(dz_n/dz_{n-1} (d, d), partial dz_n/dmu (d, n_mu) or None) at z_{n-1}.

        These are -drtilde_n/dz_{n-1} and -drtilde_n/dmu.
        """
        if self.affine:
            if self._dmatrix is None:
                return self.matrix, None
            return self.matrix, (self._dmatrix @ z_prev + self._doffset).T
        d = self.model.state_dim
        n_mu = 0 if self.dw is None else self.dw.shape[0]
        _, tangent = _stage_recursion(self.model, z_prev, np.eye(d, d + n_mu), self._field)
        return tangent[:, :d], None if self.dw is None else tangent[:, d:]

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

    def propagator(self):
        """(S^N, max_{n<=N} ||S^n||_inf) for the affine step S = [M m; 0 1]
        over the grid's N steps.

        z_N = P z_0 + p for [P p; 0 1] = S^N. The norm bounds every state of
        every trajectory: |z_n|_inf <= ||S^n||_inf max(1, |z_0|_inf). The
        powers come from batched doubling: with S^0..S^k known,
        S^{k+i} = S^i S^k for i = 1..min(k, N-k), so about log2(N) batched
        products build all of them.
        """
        if not self.affine:
            raise ValueError("the step propagator needs a degree-1 library")
        steps = self.model.grid.steps
        pw = np.empty((steps + 1,) + self._affine_step.shape)
        pw[0] = np.eye(self._affine_step.shape[0])
        pw[1] = self._affine_step
        k = 1
        with np.errstate(over="ignore", invalid="ignore"):
            while k < steps:
                j = min(k, steps - k)
                np.matmul(pw[1 : 1 + j], pw[k], out=pw[k + 1 : k + 1 + j])
                k += j
            bound = float(np.max(np.sum(np.abs(pw), axis=-1)))
        # Powers that overflow (inf, then inf * 0 = nan) are unbounded.
        return pw[steps].copy(), np.inf if np.isnan(bound) else bound

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


def _stage_recursion(model: LatentModel, y0: np.ndarray, ty0, field):
    """One explicit RK step from y0, with the tangent ty0 pushed through it.

    ``field(y, ty)`` returns the stage value k = f(y) and its tangent, which
    is None when ``ty0`` is None. Returns (step, tangent of the step or None).
    """
    a, b = model.tableau.a, model.tableau.b
    dt = model.grid.dt
    step = y0.copy()
    tstep = None if ty0 is None else ty0.copy()
    ks, tks = [], []
    for j in range(model.tableau.stages):
        y = y0.copy()
        ty = None if ty0 is None else ty0.copy()
        for i in range(j):
            if a[j, i] != 0.0:
                y += (dt * a[j, i]) * ks[i]
                if ty is not None:
                    ty += (dt * a[j, i]) * tks[i]
        k, tk = field(y, ty)
        ks.append(k)
        tks.append(tk)
        step += (dt * b[j]) * k
        if tstep is not None:
            tstep += (dt * b[j]) * tk
    return step, tstep


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
