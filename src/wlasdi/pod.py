"""Linear compression: orthonormal basis from snapshot data (POD).

The basis columns are the leading right singular vectors of the stacked
snapshot matrix (rows are states). The decomposition is taken on whichever
side is cheaper: a Gram-matrix eigendecomposition when there are more
snapshots than state entries (method of snapshots on the state side), and
a thin SVD otherwise. Each basis column's sign is fixed so its
largest-magnitude entry is positive, which makes the fit deterministic
across platforms.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SnapshotMatrix
from . import io as wio

__all__ = ["LinearReducer", "pod_fit", "load_reducer"]


@dataclass(frozen=True)
class LinearReducer:
    """Encoder/decoder pair z = basis^T (u - mean), u = mean + basis z."""

    basis: np.ndarray  # (n_state, latent_dim), orthonormal columns
    mean: np.ndarray | None = None

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2:
            raise ValueError("basis must be a 2-d matrix")
        gram_err = np.max(np.abs(b.T @ b - np.eye(b.shape[1])))
        if gram_err > 1e-10:
            raise ValueError(f"basis columns not orthonormal (err {gram_err:.2e})")
        object.__setattr__(self, "basis", b)
        if self.mean is not None:
            object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))

    @property
    def n_state(self) -> int:
        return self.basis.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.basis.shape[1]

    def encode(self, u: np.ndarray) -> np.ndarray:
        """Project state(s) onto the latent space; rows may be batched."""
        u = np.asarray(u, dtype=float)
        if self.mean is not None:
            u = u - self.mean
        return u @ self.basis

    def decode(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        u = z @ self.basis.T
        if self.mean is not None:
            u = u + self.mean
        return u

    def decoder_jacobian(self) -> np.ndarray:
        """Constant Jacobian of decode: the basis matrix (n_state x latent)."""
        return self.basis

    def encoder_jacobian(self) -> np.ndarray:
        """Constant Jacobian of encode: basis^T (latent x n_state)."""
        return self.basis.T

    def save(self, path) -> None:
        meta = {
            "kind": "linear_reducer",
            "latent_dim": self.latent_dim,
            "centered": self.mean is not None,
            "mean": None if self.mean is None else [float(v) for v in self.mean],
        }
        wio.write_matrix(path, self.basis, meta)


def load_reducer(path) -> LinearReducer:
    basis, meta = wio.read_matrix(path, with_meta=True)
    if meta.get("kind") != "linear_reducer":
        raise wio.ConsistencyError(f"{path}: not a reducer file")
    mean = meta.get("mean")
    return LinearReducer(basis, None if mean is None else np.asarray(mean, float))


def _stack(training) -> np.ndarray:
    if isinstance(training, SnapshotMatrix):
        return training.data
    if isinstance(training, np.ndarray):
        return training
    mats = [t.data if isinstance(t, SnapshotMatrix) else np.asarray(t) for t in training]
    return np.vstack(mats)


def _fix_signs(basis: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(basis), axis=0)
    flip = basis[idx, np.arange(basis.shape[1])] < 0.0
    basis[:, flip] *= -1.0
    return basis


def pod_fit(
    training,
    energy: float | None = None,
    latent_dim: int | None = None,
    center: bool = False,
) -> LinearReducer:
    """Fit an orthonormal basis capturing the requested singular-value energy.

    Exactly one of ``energy`` (fraction of total squared singular values,
    in (0, 1]) or ``latent_dim`` (fixed mode count) selects the basis size.
    ``training`` may be an array with state rows, a SnapshotMatrix, or a
    sequence of either (stacked row-wise).
    """
    if (energy is None) == (latent_dim is None):
        raise ValueError("specify exactly one of energy= or latent_dim=")
    if energy is not None and not (0.0 < energy <= 1.0):
        raise ValueError("energy fraction must be in (0, 1]")
    a = np.asarray(_stack(training), dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("training data must be a nonempty 2-d matrix")
    mean = None
    if center:
        mean = a.mean(axis=0)
        a = a - mean

    m, n = a.shape
    if m >= n:
        # Method of snapshots on the cheaper side: eigendecompose A^T A.
        gram = a.T @ a
        evals, evecs = np.linalg.eigh(gram)
        order = np.argsort(evals)[::-1]
        sv_sq = np.clip(evals[order], 0.0, None)
        basis_full = evecs[:, order]
    else:
        _, s, vt = np.linalg.svd(a, full_matrices=False)
        sv_sq = s**2
        basis_full = vt.T

    total = float(np.sum(sv_sq))
    if total == 0.0:
        raise ValueError("training data has zero energy")
    if latent_dim is not None:
        if not (1 <= latent_dim <= min(m, n)):
            raise ValueError(f"latent_dim must be in [1, {min(m, n)}]")
        k = latent_dim
    else:
        frac = np.cumsum(sv_sq) / total
        k = int(np.searchsorted(frac, energy - 1e-14) + 1)
        k = min(k, min(m, n))
    # Do not keep numerically null directions.
    rank = int(np.sum(sv_sq > (1e-13**2) * sv_sq[0]))
    if k > rank:
        k = max(rank, 1)
    basis = _fix_signs(basis_full[:, :k].copy())
    return LinearReducer(basis, mean)
