import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import expm

from wlasdi import io as wio
from wlasdi.core import TimeGrid
from wlasdi.features import FeatureLibrary
from wlasdi.providers import (
    GlobalCoefficients,
    ImplicitCoefficients,
    TrainingCoefficients,
    augment_latents,
    fit_convex,
    fit_gp,
    fit_rbf,
    load_provider,
    save_provider,
)
from wlasdi.weakform import build_test_functions, wendy_fit


@pytest.fixture(scope="module")
def training_coefficients():
    rng = np.random.default_rng(42)
    params = rng.uniform(0.0, 1.0, size=(6, 2))
    coeffs = rng.normal(size=(6, 4, 3))
    return TrainingCoefficients(params, coeffs)


def fd_provider_gradient(provider, mu, h=1e-6):
    grads = []
    for i in range(mu.size):
        up, down = mu.copy(), mu.copy()
        up[i] += h
        down[i] -= h
        grads.append((provider.coefficients(up) - provider.coefficients(down)) / (2 * h))
    return np.asarray(grads)


def check_gradient_against_fd(provider, mu, rtol=1e-5):
    analytic = provider.coefficient_gradients(mu)
    fd = fd_provider_gradient(provider, mu)
    scale = max(np.max(np.abs(fd)), 1e-12)
    assert np.max(np.abs(analytic - fd)) <= rtol * scale


class TestGlobalAndImplicit:
    def linear_trajectories(self, a, z0s, grid):
        return [np.array([expm(a * t) @ z0 for t in grid.times()]) for z0 in z0s]

    def test_single_trajectory_equals_wendy(self):
        rng = np.random.default_rng(0)
        grid = TimeGrid(1.0, 400)
        z = np.cumsum(rng.normal(size=(401, 2)), axis=0) * 0.01
        lib = FeatureLibrary(latent_dim=2, degree=1)
        basis = build_test_functions(grid)
        provider = GlobalCoefficients(wendy_fit([z], lib, basis).coefficients)
        ref = wendy_fit(z, lib, basis).coefficients
        assert_array_equal(provider.coefficients(np.zeros(3)), ref)

    def test_gradients_exactly_zero(self):
        rng = np.random.default_rng(1)
        grid = TimeGrid(1.0, 300)
        z = rng.normal(size=(301, 2))
        lib = FeatureLibrary(latent_dim=2, degree=1)
        provider = GlobalCoefficients(
            wendy_fit([z], lib, build_test_functions(grid)).coefficients
        )
        mu = np.array([0.3, 0.7, -0.2])
        assert_array_equal(provider.coefficient_gradients(mu),
                           np.zeros((3, lib.size, lib.dim)))
        assert not provider.parameter_dependent

    def test_shared_dynamics_recovered_from_two_trajectories(self):
        rng = np.random.default_rng(2)
        a = np.array([[-1.0, 0.4], [-0.3, -0.8]])
        grid = TimeGrid(2.0, 1500)
        trajs = self.linear_trajectories(a, rng.normal(size=(2, 2)), grid)
        lib = FeatureLibrary(latent_dim=2, degree=1)
        provider = GlobalCoefficients(
            wendy_fit(trajs, lib, build_test_functions(grid)).coefficients
        )
        w_true = np.vstack([np.zeros(2), a.T])
        assert np.max(np.abs(provider.coefficients(np.zeros(1)) - w_true)) <= 1e-3

    def test_implicit_augments_and_learns_constant_mu_block(self):
        # dz/dt = -mu z for scalar z and mu: on the augmented state the
        # learned dynamics should keep the mu component essentially frozen.
        grid = TimeGrid(1.0, 1000)
        t = grid.times()
        params = np.array([[0.5], [1.0], [1.5]])
        latents = [np.exp(-mu[0] * t)[:, None] for mu in params]
        lib = FeatureLibrary(latent_dim=1, degree=2, n_mu=1)
        basis = build_test_functions(grid)
        provider = ImplicitCoefficients(
            wendy_fit(augment_latents(latents, params), lib, basis).coefficients
        )
        assert provider.augmented
        w = provider.coefficients(params[0])
        for traj, mu in zip(augment_latents(latents, params), params):
            rates = lib.evaluate(traj) @ w  # (N+1, 2): [dz/dt, dmu/dt]
            z_scale = np.max(np.abs(rates[:, 0]))
            assert np.max(np.abs(rates[:, 1])) <= 1e-2 * z_scale
        assert_array_equal(provider.coefficient_gradients(params[0]),
                           np.zeros((1,) + provider.shape))


class TestRBF:
    def test_interpolates_training_points(self, training_coefficients):
        provider = fit_rbf(training_coefficients)
        for mu, w in zip(training_coefficients.params, training_coefficients.coeffs):
            assert np.max(np.abs(provider.coefficients(mu) - w)) <= 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_fd(self, training_coefficients, seed):
        provider = fit_rbf(training_coefficients)
        mu = np.random.default_rng(seed).uniform(0.2, 0.8, size=2)
        check_gradient_against_fd(provider, mu)

    def test_single_point_gradient_zero_at_center(self):
        tc = TrainingCoefficients(np.array([[0.4, 0.6]]),
                                  np.random.default_rng(0).normal(size=(1, 2, 2)))
        provider = fit_rbf(tc, epsilon=1.3)
        assert_allclose(provider.coefficients(np.array([0.4, 0.6])), tc.coeffs[0],
                        atol=1e-12)
        assert_allclose(provider.coefficient_gradients(np.array([0.4, 0.6])),
                        np.zeros((2, 2, 2)), atol=1e-12)

    def test_duplicate_points_rejected(self):
        params = np.array([[0.1, 0.1], [0.1, 0.1]])
        with pytest.raises(ValueError):
            fit_rbf(TrainingCoefficients(params, np.zeros((2, 1, 1))))

    def test_reproduces_training_trajectories_end_to_end(self):
        # per-trajectory fits of a parametric linear system, interpolated
        # by the provider, must reproduce each training trajectory when
        # integrated from its own initial condition
        from wlasdi.pod import LinearReducer
        from wlasdi.rom import LatentModel, integrate_latent

        a0 = np.array([[-0.8, 0.9], [-0.9, -0.6]])
        a1 = np.array([[0.4, 0.0], [0.0, -0.5]])
        grid = TimeGrid(2.0, 1000)
        t = grid.times()
        params = np.linspace(0.0, 1.0, 5)[:, None]
        z0 = np.array([1.0, -0.5])
        lib = FeatureLibrary(latent_dim=2, degree=1)
        basis = build_test_functions(grid)
        trajs, coeffs = [], []
        for (mu,) in params:
            a = a0 + mu * a1
            traj = np.array([expm(a * s) @ z0 for s in t])
            trajs.append(traj)
            coeffs.append(wendy_fit(traj, lib, basis).coefficients)
        provider = fit_rbf(TrainingCoefficients(params, np.stack(coeffs)))
        model = LatentModel(
            reducer=LinearReducer(np.eye(2)),
            library=lib,
            provider=provider,
            grid=grid,
            initial_state=lambda mu: np.broadcast_to(z0, np.shape(mu)[:-1] + (2,)).copy(),
            initial_state_gradient=lambda mu, i: np.zeros(2),
        )
        for (mu,), traj in zip(params, trajs):
            z = integrate_latent(model, np.array([mu]))
            err = np.linalg.norm(z - traj) / np.linalg.norm(traj)
            assert err <= 1e-3


class TestConvex:
    def test_weights_sum_to_one(self, training_coefficients):
        provider = fit_convex(training_coefficients)
        rng = np.random.default_rng(7)
        for _ in range(10):
            w = provider.weights(rng.uniform(-0.5, 1.5, size=2))
            assert np.all(w >= 0.0)
            assert abs(np.sum(w) - 1.0) <= 1e-12

    def test_exact_at_training_points(self, training_coefficients):
        provider = fit_convex(training_coefficients)
        for mu, w in zip(training_coefficients.params, training_coefficients.coeffs):
            assert_array_equal(provider.coefficients(mu), w)

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_fd(self, training_coefficients, seed):
        provider = fit_convex(training_coefficients)
        mu = np.random.default_rng(100 + seed).uniform(0.2, 0.8, size=2)
        check_gradient_against_fd(provider, mu)

    def test_gradient_at_training_point_is_finite(self, training_coefficients):
        provider = fit_convex(training_coefficients)
        g = provider.coefficient_gradients(training_coefficients.params[0])
        assert np.all(np.isfinite(g))

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_convex(TrainingCoefficients(np.array([[0.0, 0.0]]),
                                            np.zeros((1, 1, 1))))

    def test_identical_points_degenerate(self):
        params = np.zeros((3, 2))
        with pytest.raises(ValueError):
            fit_convex(TrainingCoefficients(params, np.ones((3, 1, 1))))

    def test_degenerate_covariance_jittered(self):
        # collinear parameters give a singular covariance; jitter keeps the
        # Mahalanobis metric usable
        params = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
        provider = fit_convex(TrainingCoefficients(params, np.ones((3, 1, 1))))
        w = provider.coefficients(np.array([0.25, 0.3]))
        assert np.isfinite(w).all()


class TestGP:
    def test_near_interpolation_at_training_points(self, training_coefficients):
        provider = fit_gp(training_coefficients)
        scale = np.max(np.abs(training_coefficients.coeffs))
        for mu, w in zip(training_coefficients.params, training_coefficients.coeffs):
            assert np.max(np.abs(provider.coefficients(mu) - w)) <= 1e-6 * scale

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_fd(self, training_coefficients, seed):
        provider = fit_gp(training_coefficients)
        mu = np.random.default_rng(200 + seed).uniform(0.2, 0.8, size=2)
        check_gradient_against_fd(provider, mu)

    def test_single_point_stationary_gradient(self):
        tc = TrainingCoefficients(np.array([[0.3, 0.3]]),
                                  np.random.default_rng(1).normal(size=(1, 2, 2)))
        provider = fit_gp(tc, lengthscale=0.5)
        g = provider.coefficient_gradients(np.array([0.3, 0.3]))
        assert_allclose(g, np.zeros((2, 2, 2)), atol=1e-12)

    def test_bad_lengthscale(self, training_coefficients):
        with pytest.raises(ValueError):
            fit_gp(training_coefficients, lengthscale=-1.0)

    @pytest.mark.parametrize("lengthscale", [None, 0.5])
    def test_matches_closed_form_gp_mean(self, training_coefficients, lengthscale):
        # SE-kernel GP predictive mean m(mu) = k(mu)^T (K + jitter I)^-1 Y with
        # k = a exp(-r^2 / (2 l^2)) and jitter 1e-8 a; the amplitude a is
        # arbitrary because it cancels. Default l: mean nearest-neighbour
        # distance of the training parameters.
        params, coeffs = training_coefficients.params, training_coefficients.coeffs
        count = params.shape[0]
        r = np.linalg.norm(params[:, None] - params[None], axis=-1)
        ell = lengthscale
        if ell is None:
            ell = np.mean(np.min(r + np.diag(np.full(count, np.inf)), axis=1))
        amplitude = 3.7
        gram = amplitude * np.exp(-(r**2) / (2 * ell**2))
        weights = np.linalg.solve(gram + 1e-8 * amplitude * np.eye(count),
                                  coeffs.reshape(count, -1))
        provider = fit_gp(training_coefficients, lengthscale)
        for mu in np.random.default_rng(300).uniform(-0.2, 1.2, size=(20, 2)):
            diff = params - mu  # (K, n_mu)
            k = amplitude * np.exp(-np.sum(diff**2, axis=1) / (2 * ell**2))
            w_ref = (k @ weights).reshape(provider.shape)
            g_ref = ((k[:, None] * diff / ell**2).T @ weights).reshape(
                (2,) + provider.shape)
            w, g = provider.coefficients(mu), provider.coefficient_gradients(mu)
            assert np.max(np.abs(w - w_ref)) <= 1e-12 * np.max(np.abs(w_ref))
            assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))


class TestSerialization:
    @pytest.mark.parametrize("strategy", ["global", "implicit", "rbf", "convex", "gp"])
    def test_round_trip(self, tmp_path, training_coefficients, strategy):
        rng = np.random.default_rng(0)
        if strategy in ("global", "implicit"):
            w = rng.normal(size=(4, 3))
            provider = (GlobalCoefficients(w) if strategy == "global"
                        else ImplicitCoefficients(w))
        elif strategy == "rbf":
            provider = fit_rbf(training_coefficients)
        elif strategy == "convex":
            provider = fit_convex(training_coefficients)
        else:
            provider = fit_gp(training_coefficients)
        prefix = tmp_path / "prov"
        save_provider(provider, prefix)
        back = load_provider(prefix)
        assert back.strategy == provider.strategy
        assert back.shape == provider.shape
        mu = rng.uniform(0.2, 0.8, size=2)
        assert_allclose(back.coefficients(mu), provider.coefficients(mu), atol=1e-13)
        assert_allclose(back.coefficient_gradients(mu),
                        provider.coefficient_gradients(mu), atol=1e-13)


    def test_gp_bundle_without_kernel_shape_parameter_rejected(
        self, tmp_path, training_coefficients
    ):
        # the bundle layout of the earlier GP provider (lengthscale,
        # amplitude, jitter) must not load as a kernel with guessed epsilon
        tc = training_coefficients
        prefix = tmp_path / "prov"
        meta = {"kind": "coefficient_provider", "strategy": "gp",
                "shape": list(tc.coeffs.shape[1:]),
                "hyperparameters": {"lengthscale": 0.3, "amplitude": 1.0, "jitter": 1e-8}}
        wio.write_matrix(f"{prefix}.coeffs.bin", tc.coeffs.reshape(tc.count, -1), meta)
        wio.write_matrix(f"{prefix}.params.bin", tc.params, {"kind": "provider_params"})
        with pytest.raises(wio.ConsistencyError, match="'epsilon'"):
            load_provider(prefix)

    def test_unknown_strategy_rejected(self, tmp_path):
        prefix = tmp_path / "prov"
        wio.write_matrix(f"{prefix}.coeffs.bin", np.zeros((2, 2)),
                         {"kind": "coefficient_provider", "strategy": "spline",
                          "shape": [2, 2]})
        with pytest.raises(wio.ConsistencyError, match="spline"):
            load_provider(prefix)


class TestTrainingCoefficients:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            TrainingCoefficients(np.zeros((3, 2)), np.zeros((2, 4, 3)))
