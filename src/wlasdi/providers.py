"""Parametric coefficient operators: W(mu) and its mu-derivatives.

Five strategies are available.

* global: one stacked fit over all trajectories; W is mu-independent and
  every parameter sensitivity is exactly zero.
* implicit: the latent state is augmented with mu itself, one global W is
  fit for the augmented dynamics; again dW/dmu = 0 exactly, parameter
  dependence enters through the augmented initial condition.
* rbf and gp: two presets of one Gaussian-kernel interpolant of the
  vectorized per-trajectory coefficient matrices, with the closed-form
  kernel gradient. rbf has no nugget and is exact at the training
  parameters. gp adds a relative nugget of 1e-8: it is the predictive mean
  of independent Gaussian processes per coefficient entry with a
  squared-exponential kernel, whose amplitude cancels.
* convex: inverse-squared Mahalanobis-distance weights (convex, summing
  to one), with quotient-rule gradients. At a training parameter the
  limit value W^(k) is returned; the gradient there falls back to a
  one-sided finite difference since the closed form is singular.

Every provider exposes ``state()``, from which ``save_provider`` writes a
bundle and ``from_state`` rebuilds the provider when it is loaded.
"""
from __future__ import annotations

import abc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as wio

__all__ = [
    "TrainingCoefficients",
    "CoefficientProvider",
    "GlobalCoefficients",
    "ImplicitCoefficients",
    "KernelCoefficients",
    "ConvexCoefficients",
    "fit_rbf",
    "fit_convex",
    "fit_gp",
    "save_provider",
    "load_provider",
]


@dataclass(frozen=True)
class TrainingCoefficients:
    """Per-trajectory coefficient matrices W^(k) at training parameters."""

    params: np.ndarray  # (K, n_mu)
    coeffs: np.ndarray  # (K, J, d)

    def __post_init__(self):
        p = np.atleast_2d(np.asarray(self.params, dtype=float))
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 3:
            raise ValueError("coeffs must have shape (K, J, d)")
        if p.shape[0] != c.shape[0]:
            raise ValueError("params and coeffs must list the same K entries")
        object.__setattr__(self, "params", p)
        object.__setattr__(self, "coeffs", c)

    @property
    def count(self) -> int:
        return self.params.shape[0]


class CoefficientProvider(abc.ABC):
    """Strategy object producing W(mu) and dW/dmu_i."""

    strategy: str = ""
    augmented: bool = False
    parameter_dependent: bool = True

    @property
    @abc.abstractmethod
    def shape(self) -> tuple[int, int]:
        """Shape (J, d) of the coefficient matrix."""

    @abc.abstractmethod
    def coefficients(self, mu) -> np.ndarray:
        """W(mu), shape (J, d)."""

    @abc.abstractmethod
    def coefficient_gradients(self, mu) -> np.ndarray:
        """dW/dmu stacked over components, shape (len(mu), J, d)."""

    @abc.abstractmethod
    def state(self) -> tuple[np.ndarray, np.ndarray | None, dict]:
        """(payload, training parameters or None, hyperparameters).

        The payload is W (J, d) for a parameter-independent provider and
        the training coefficients (K, J, d) otherwise.
        """

    @classmethod
    @abc.abstractmethod
    def from_state(cls, strategy, payload, params, hyperparameters):
        """Inverse of ``state``; raises KeyError for a missing hyperparameter."""


class _ConstantCoefficients(CoefficientProvider):
    parameter_dependent = False

    def __init__(self, w: np.ndarray):
        self._w = np.asarray(w, dtype=float)
        if self._w.ndim != 2:
            raise ValueError("coefficient matrix must be 2-d")

    @property
    def shape(self) -> tuple[int, int]:
        return self._w.shape

    def coefficients(self, mu) -> np.ndarray:
        return self._w

    def coefficient_gradients(self, mu) -> np.ndarray:
        mu = np.asarray(mu, dtype=float)
        return np.zeros((mu.size,) + self._w.shape)

    def state(self):
        return self._w, None, {}

    @classmethod
    def from_state(cls, strategy, payload, params, hyperparameters):
        return cls(payload)


class GlobalCoefficients(_ConstantCoefficients):
    strategy = "global"
    augmented = False


class ImplicitCoefficients(_ConstantCoefficients):
    strategy = "implicit"
    augmented = True


def augment_latents(latents, params) -> list[np.ndarray]:
    """Append each trajectory's constant parameter vector to its rows."""
    params = np.atleast_2d(np.asarray(params, dtype=float))
    trajs = [latents] if isinstance(latents, np.ndarray) else list(latents)
    if len(trajs) != params.shape[0]:
        raise ValueError("one parameter vector per trajectory required")
    out = []
    for traj, mu in zip(trajs, params):
        traj = np.asarray(traj, dtype=float)
        out.append(np.hstack([traj, np.tile(mu, (traj.shape[0], 1))]))
    return out


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt(np.sum(diff**2, axis=-1))


class KernelCoefficients(CoefficientProvider):
    """Gaussian-kernel interpolant of values sampled at training parameters.

    V(mu) = sum_k exp(-eps^2 |mu - mu_k|^2) alpha_k, where the weights solve
    (exp(-(eps |mu_k - mu_l|)^2) + nugget I) alpha = V. ``values`` has shape
    (K, ...) and V(mu) the trailing shape. ``strategy`` names the preset,
    which fixes the nugget and, when ``epsilon`` is None, the shape parameter:

    * rbf: no nugget; eps = 1 / median pairwise distance.
    * gp: nugget 1e-8; eps = 1 / (sqrt(2) * mean nearest-neighbour distance).
      This is the predictive mean of a Gaussian process with kernel
      a * exp(-r^2 / (2 l^2)), l = 1 / (sqrt(2) eps), and jitter 1e-8 * a:
      the amplitude a cancels.
    """

    #: strategy -> (nugget, c, length): the default eps is 1 / (c * length),
    #: where length maps the (K, K-1) distances of each training parameter
    #: to the others to a length (1 for a single training parameter)
    PRESETS = {
        "rbf": (0.0, 1.0, np.median),
        "gp": (1e-8, np.sqrt(2.0), lambda others: np.mean(np.min(others, axis=1))),
    }

    def __init__(self, params, values, strategy: str, epsilon: float | None = None):
        params = np.atleast_2d(np.asarray(params, dtype=float))
        values = np.asarray(values, dtype=float)
        count = params.shape[0]
        if values.shape[:1] != (count,):
            raise ValueError("one value per training parameter required")
        self.strategy = strategy
        self.nugget, factor, length = self.PRESETS[strategy]
        self._params = params
        self._values = values
        dists = _pairwise_distances(params)
        others = dists[~np.eye(count, dtype=bool)].reshape(count, count - 1)
        if self.nugget == 0.0 and np.any(others == 0.0):
            raise ValueError("duplicate training parameters")
        if epsilon is None:
            epsilon = 1.0 / (factor * (length(others) if count > 1 else 1.0))
        self.epsilon = float(epsilon)
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(
                f"kernel shape parameter must be positive and finite, got {self.epsilon}"
            )
        kernel = np.exp(-((self.epsilon * dists) ** 2))
        kernel[np.diag_indices(count)] += self.nugget
        self._alphas = np.linalg.solve(kernel, values.reshape(count, -1))

    @property
    def shape(self) -> tuple[int, int]:
        return self._values.shape[1:]

    def _kernel_row(self, mu) -> tuple[np.ndarray, np.ndarray]:
        mu = np.asarray(mu, dtype=float)
        diff = mu[None, :] - self._params
        r2 = np.sum(diff**2, axis=1)
        return np.exp(-(self.epsilon**2) * r2), diff

    def coefficients(self, mu) -> np.ndarray:
        k, _ = self._kernel_row(mu)
        return (k @ self._alphas).reshape(self.shape)

    def coefficient_gradients(self, mu) -> np.ndarray:
        # phi'(r)/r = -2 eps^2 phi(r) for the Gaussian kernel; the r -> 0
        # limit is finite so no special casing is needed.
        k, diff = self._kernel_row(mu)
        weights = (-2.0 * self.epsilon**2) * k[:, None] * diff  # (K, n_mu)
        grads = weights.T @ self._alphas  # (n_mu, J*d)
        return grads.reshape((diff.shape[1],) + self.shape)

    def state(self):
        return self._values, self._params, {"epsilon": self.epsilon}

    @classmethod
    def from_state(cls, strategy, payload, params, hyperparameters):
        return cls(params, payload, strategy, hyperparameters["epsilon"])


class ConvexCoefficients(CoefficientProvider):
    strategy = "convex"
    augmented = False

    #: squared Mahalanobis distance below which a query point is treated
    #: as coinciding with a training parameter
    _EXACT_TOL = 1e-24

    def __init__(self, tc: TrainingCoefficients):
        if tc.count < 2:
            raise ValueError("convex interpolation needs at least 2 training points")
        self._params = tc.params
        self._coeffs = tc.coeffs
        cov = np.cov(tc.params.T, ddof=1)
        cov = np.atleast_2d(cov)
        n_mu = tc.params.shape[1]
        trace = float(np.trace(cov))
        if trace <= 0.0:
            raise ValueError("degenerate training parameter covariance")
        jitter = 1e-10 * trace / n_mu
        if np.min(np.linalg.eigvalsh(cov)) <= jitter:
            cov = cov + jitter * np.eye(n_mu)
        if np.min(np.linalg.eigvalsh(cov)) <= 0.0:
            raise ValueError("training parameter covariance is singular")
        self._cov_inv = np.linalg.inv(cov)

    @property
    def shape(self) -> tuple[int, int]:
        return self._coeffs.shape[1:]

    def _mahalanobis_sq(self, mu) -> tuple[np.ndarray, np.ndarray]:
        mu = np.asarray(mu, dtype=float)
        diff = mu[None, :] - self._params  # (K, n_mu)
        sdiff = diff @ self._cov_inv
        return np.sum(sdiff * diff, axis=1), sdiff

    def weights(self, mu) -> np.ndarray:
        r2, _ = self._mahalanobis_sq(mu)
        hit = r2 <= self._EXACT_TOL
        if np.any(hit):
            w = np.zeros_like(r2)
            w[np.argmin(r2)] = 1.0
            return w
        inv = 1.0 / r2
        return inv / np.sum(inv)

    def coefficients(self, mu) -> np.ndarray:
        return np.einsum("k,kjd->jd", self.weights(mu), self._coeffs)

    def coefficient_gradients(self, mu) -> np.ndarray:
        mu = np.asarray(mu, dtype=float)
        r2, sdiff = self._mahalanobis_sq(mu)
        if np.any(r2 <= self._EXACT_TOL):
            # The closed form is singular exactly at a training parameter;
            # substitute a one-sided finite difference.
            h = 1e-7
            base = self.coefficients(mu)
            grads = np.empty((mu.size,) + self.shape)
            for i in range(mu.size):
                shifted = mu.copy()
                shifted[i] += h
                grads[i] = (self.coefficients(shifted) - base) / h
            return grads
        inv = 1.0 / r2
        total = np.sum(inv)
        # d(r_j^-2)/dmu_i = -2 (S^-1 (mu - mu_j))_i / r_j^4
        dinv = -2.0 * sdiff * inv[:, None] ** 2  # (K, n_mu)
        dtotal = np.sum(dinv, axis=0)  # (n_mu,)
        dbeta = dinv / total - np.outer(inv, dtotal) / total**2  # (K, n_mu)
        return np.einsum("kp,kjd->pjd", dbeta, self._coeffs)

    def state(self):
        return self._coeffs, self._params, {}

    @classmethod
    def from_state(cls, strategy, payload, params, hyperparameters):
        return cls(TrainingCoefficients(params, payload))


def fit_rbf(tc: TrainingCoefficients, epsilon: float | None = None) -> KernelCoefficients:
    return KernelCoefficients(tc.params, tc.coeffs, "rbf", epsilon)


def fit_convex(tc: TrainingCoefficients) -> ConvexCoefficients:
    return ConvexCoefficients(tc)


def fit_gp(tc: TrainingCoefficients, lengthscale: float | None = None) -> KernelCoefficients:
    if lengthscale is None:
        return KernelCoefficients(tc.params, tc.coeffs, "gp")
    if lengthscale <= 0.0:
        raise ValueError("lengthscale must be positive")
    return KernelCoefficients(tc.params, tc.coeffs, "gp", 1.0 / (np.sqrt(2.0) * lengthscale))


#: strategy -> provider class, for load_provider
_PROVIDERS = {
    "global": GlobalCoefficients,
    "implicit": ImplicitCoefficients,
    "rbf": KernelCoefficients,
    "convex": ConvexCoefficients,
    "gp": KernelCoefficients,
}


def save_provider(provider: CoefficientProvider, prefix) -> None:
    """Persist a provider as <prefix>.coeffs.bin (+ .params.bin) and metadata."""
    prefix = Path(prefix)
    payload, params, hyperparameters = provider.state()
    meta = {"kind": "coefficient_provider", "strategy": provider.strategy,
            "shape": list(provider.shape)}
    if params is None:
        wio.write_matrix(f"{prefix}.coeffs.bin", payload, meta)
        return
    meta["hyperparameters"] = hyperparameters
    wio.write_matrix(f"{prefix}.coeffs.bin", payload.reshape(len(params), -1), meta)
    wio.write_matrix(f"{prefix}.params.bin", params, {"kind": "provider_params"})


def load_provider(prefix) -> CoefficientProvider:
    prefix = Path(prefix)
    payload, meta = wio.read_matrix(f"{prefix}.coeffs.bin", with_meta=True)
    if meta.get("kind") != "coefficient_provider":
        raise wio.ConsistencyError(f"{prefix}: not a provider bundle")
    strategy = meta.get("strategy")
    if strategy not in _PROVIDERS:
        raise wio.ConsistencyError(f"{prefix}: unknown strategy {strategy!r}")
    cls = _PROVIDERS[strategy]
    params = None
    if cls.parameter_dependent:
        params = wio.read_matrix(f"{prefix}.params.bin")
        payload = payload.reshape((params.shape[0],) + tuple(meta["shape"]))
    try:
        return cls.from_state(strategy, payload, params, meta.get("hyperparameters", {}))
    except KeyError as exc:
        raise wio.ConsistencyError(
            f"{prefix}: {strategy} provider bundle lacks hyperparameter {exc.args[0]!r}"
        ) from None
