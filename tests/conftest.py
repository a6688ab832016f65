"""Shared builders for synthetic latent models used across test modules."""
import numpy as np
import pytest

from wlasdi.core import TimeGrid
from wlasdi.features import FeatureLibrary
from wlasdi.pod import LinearReducer
from wlasdi.providers import (
    GlobalCoefficients,
    ImplicitCoefficients,
    TrainingCoefficients,
    fit_rbf,
)
from wlasdi.rom import ButcherTableau, LatentModel


def identity_model(w, grid, z0, tableau=None, degree=1):
    """Latent model over R^d with an identity encoder and fixed coefficients.

    The initial condition is the constant z0 regardless of mu (one row per
    row of a parameter block), so only the latent integration machinery is
    exercised.
    """
    w = np.asarray(w, dtype=float)
    d = w.shape[1]
    z0 = np.asarray(z0, dtype=float)
    lib = FeatureLibrary(latent_dim=d, degree=degree)
    return LatentModel(
        reducer=LinearReducer(np.eye(d)),
        library=lib,
        provider=GlobalCoefficients(w),
        grid=grid,
        initial_state=lambda mu: np.broadcast_to(z0, np.shape(mu)[:-1] + (d,)).copy(),
        initial_state_gradient=lambda mu, i: np.zeros(d),
        tableau=tableau or ButcherTableau.rk4(),
    )


def reference_rk_step(model, w, z):
    """One explicit RK step of dz/dt = W^T theta(z), written out stage by stage.

    The oracle for ``StepOperator.advance``: it sums the stages in the same
    order, so on a degree-2 library the two agree bit for bit.
    """
    a, b = model.tableau.a, model.tableau.b
    dt = model.grid.dt
    z = np.asarray(z, dtype=float)
    z_next = z.copy()
    ks = []
    for j in range(model.tableau.stages):
        y = z.copy()
        for i in range(j):
            if a[j, i] != 0.0:
                y += (dt * a[j, i]) * ks[i]
        ks.append(w.T @ model.library.evaluate(y))
        z_next += (dt * b[j]) * ks[j]
    return z_next


def smooth_initial_map(n_state, n_mu, seed=0):
    """A smooth synthetic g(mu) with its analytic partial derivatives.

    g maps one parameter vector, or a block of them as rows, like
    ``LatentModel.initial_state``.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_state, n_mu)) / np.sqrt(n_mu)
    b = rng.normal(size=(n_mu, n_mu))
    base = rng.normal(size=n_state) * 0.1

    def g(mu):
        return base + np.tanh(np.asarray(mu, float) @ b.T) @ a.T

    def dg(mu, i):
        h = b @ np.asarray(mu, float)
        return a @ ((1.0 - np.tanh(h) ** 2) * b[:, i])

    return g, dg


def toy_model(
    n_state=12,
    latent_dim=3,
    n_mu=2,
    n_steps=40,
    degree=2,
    provider_kind="rbf",
    tableau=None,
    seed=0,
):
    """Small fully synthetic latent model with nontrivial mu-dependence."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(n_state, latent_dim)))
    reducer = LinearReducer(basis)
    g, dg = smooth_initial_map(n_state, n_mu, seed=seed + 1)

    if provider_kind in ("rbf", "convex", "gp"):
        lib = FeatureLibrary(latent_dim=latent_dim, degree=degree)
        k = 5
        params = rng.uniform(0.0, 1.0, size=(k, n_mu))
        # mildly contracting random coefficient matrices keep integration tame
        coeffs = 0.3 * rng.normal(size=(k, lib.size, lib.dim))
        coeffs[:, 1 : 1 + lib.dim, :] -= 0.5 * np.eye(lib.dim)[None]
        tc = TrainingCoefficients(params, coeffs)
        if provider_kind == "rbf":
            provider = fit_rbf(tc)
        elif provider_kind == "convex":
            from wlasdi.providers import fit_convex

            provider = fit_convex(tc)
        else:
            from wlasdi.providers import fit_gp

            provider = fit_gp(tc)
    elif provider_kind == "global":
        lib = FeatureLibrary(latent_dim=latent_dim, degree=degree)
        w = 0.3 * rng.normal(size=(lib.size, lib.dim))
        w[1 : 1 + lib.dim] -= 0.5 * np.eye(lib.dim)
        provider = GlobalCoefficients(w)
    elif provider_kind == "implicit":
        lib = FeatureLibrary(latent_dim=latent_dim, degree=degree, n_mu=n_mu)
        w = 0.3 * rng.normal(size=(lib.size, lib.dim))
        w[1 : 1 + lib.dim] -= 0.5 * np.eye(lib.dim)
        provider = ImplicitCoefficients(w)
    else:
        raise ValueError(provider_kind)

    return LatentModel(
        reducer=reducer,
        library=lib,
        provider=provider,
        grid=TimeGrid(1.0, n_steps),
        initial_state=g,
        initial_state_gradient=dg,
        tableau=tableau or ButcherTableau.rk4(),
    )


@pytest.fixture
def toy_model_factory():
    return toy_model
