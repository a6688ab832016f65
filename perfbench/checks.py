"""Output checks made apart from the wlasdi code paths they judge.

Every check returns a list of failure messages; an empty list is a pass.
The checks recompute what they can in plain numpy (the backward-Euler
residual, the stored file layout, the parameter error, central
differences) and otherwise test properties the method must have (the
discrete maximum principle, direct == adjoint). None of them compares
against stored output of an earlier run.
"""
from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

# Paper gates on the recovered parameters, re-scored on the noise-free FOM.
E2_MAX_CLEAN_PERCENT = 1.0
F_TRUE_MAX_CLEAN = 0.01
E2_MAX_NOISY_PERCENT = 2.5
# Gradient agreement: direct vs adjoint, and either vs central differences.
CROSS_TOL = 1e-10
FD_TOL = 1e-4
FD_STEP = 1e-6
# Stored states may miss the residual by the Newton tolerance plus roundoff.
RESIDUAL_FACTOR = 2.0

_HEADER = struct.Struct("<4sIQQ")


def read_wlsd(path) -> tuple[np.ndarray, dict]:
    """Parse a WLSD matrix file and its JSON sidecar with numpy alone."""
    raw = Path(path).read_bytes()
    magic, version, rows, cols = _HEADER.unpack_from(raw)
    if magic != b"WLSD" or version != 1:
        raise ValueError(f"{path}: not a version-1 WLSD file")
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    if data.size != rows * cols:
        raise ValueError(f"{path}: payload has {data.size} values, header {rows}x{cols}")
    meta = json.loads(Path(str(path) + ".meta.json").read_text())
    return data.reshape(rows, cols), meta


def backward_euler_residual(states: np.ndarray, dt: float, dx: float, upwind: str):
    """Per-step max |u_n - u_{n-1} + dt u_n D u_n| for n >= 1."""
    u_next, u_prev = states[1:], states[:-1]
    if upwind == "backward":
        du = (u_next - np.roll(u_next, 1, axis=1)) / dx
    else:
        du = (np.roll(u_next, -1, axis=1) - u_next) / dx
    return np.max(np.abs(u_next - u_prev + dt * u_next * du), axis=1)


def check_trajectory(states, dt, dx, upwind, newton_tol) -> list[str]:
    """Backward-Euler residual and the discrete maximum principle."""
    failures = []
    tol = RESIDUAL_FACTOR * newton_tol
    res = backward_euler_residual(states, dt, dx, upwind)
    if not np.all(res <= tol):
        n = int(np.argmax(res))
        failures.append(f"residual {res[n]:.3e} > {tol:.1e} at step {n + 1}")
    hi, lo = states.max(axis=1), states.min(axis=1)
    if not np.all(np.diff(hi) <= tol):
        failures.append(f"max_x u grows by {np.max(np.diff(hi)):.3e}")
    if not np.all(np.diff(lo) >= -tol):
        failures.append(f"min_x u falls by {-np.min(np.diff(lo)):.3e}")
    return failures


def relative_difference(a, b) -> float:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), np.finfo(float).tiny))


def check_agree(label, a, b, tol) -> list[str]:
    rel = relative_difference(a, b)
    return [] if rel <= tol else [f"{label}: relative difference {rel:.3e} > {tol:.0e}"]


def central_differences(evaluate, mu, h: float = FD_STEP) -> np.ndarray:
    mu = np.asarray(mu, float)
    grad = np.empty(mu.size)
    for i in range(mu.size):
        step = np.zeros(mu.size)
        step[i] = h
        grad[i] = (evaluate(mu + step) - evaluate(mu - step)) / (2.0 * h)
    return grad


def check_gradients(direct, adjoint, fd) -> list[str]:
    return (
        check_agree("direct vs adjoint", direct, adjoint, CROSS_TOL)
        + check_agree("adjoint vs central differences", adjoint, fd, FD_TOL)
        + check_agree("direct vs central differences", direct, fd, FD_TOL)
    )


def e2_percent(mu_hat, mu_star) -> float:
    mu_hat, mu_star = np.asarray(mu_hat, float), np.asarray(mu_star, float)
    return float(100.0 * np.linalg.norm(mu_hat - mu_star) / np.linalg.norm(mu_star))


def check_recovery(mu_hat, mu_star, f_true, noisy: bool) -> list[str]:
    """The paper's gates on a recovered parameter re-scored on the clean FOM."""
    e2 = e2_percent(mu_hat, mu_star)
    if noisy:
        return [] if e2 <= E2_MAX_NOISY_PERCENT else [f"E2 {e2:.3f}% > {E2_MAX_NOISY_PERCENT}%"]
    failures = [] if e2 <= E2_MAX_CLEAN_PERCENT else [f"E2 {e2:.3f}% > {E2_MAX_CLEAN_PERCENT}%"]
    if not f_true <= F_TRUE_MAX_CLEAN:
        failures.append(f"f_true {f_true:.3e} > {F_TRUE_MAX_CLEAN}")
    return failures


def check_below(label, smaller, larger) -> list[str]:
    return [] if smaller < larger else [f"{label}: {smaller:.4g} is not below {larger:.4g}"]


def check_orthonormal(basis) -> list[str]:
    basis = np.asarray(basis, float)
    err = float(np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1]))))
    return [] if err <= 1e-10 else [f"POD basis not orthonormal ({err:.2e})"]
