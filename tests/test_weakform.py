import numpy as np
import pytest
from numpy.testing import assert_allclose

from wlasdi.core import TimeGrid
from wlasdi.features import FeatureLibrary
from wlasdi.weakform import (
    build_test_functions,
    sindy_fit,
    weak_system,
    wendy_fit,
)


class TestTestFunctions:
    def test_support_endpoints_vanish(self):
        grid = TimeGrid(1.0, 500)
        basis = build_test_functions(grid, count=40, radius_frac=0.1, degree=3)
        # Outside-of-support entries are exactly zero, and the functions
        # decay continuously into them (p >= 2 kills phi and phidot).
        for row, drow in zip(basis.phi, basis.phi_dot):
            support = np.nonzero(row)[0]
            lo, hi = support[0], support[-1]
            if lo > 0:
                assert row[lo - 1] == 0.0 and drow[lo - 1] == 0.0
            if hi < row.size - 1:
                assert row[hi + 1] == 0.0 and drow[hi + 1] == 0.0

    def test_rows_unit_norm(self):
        grid = TimeGrid(2.0, 400)
        basis = build_test_functions(grid, count=17, radius_frac=0.15, degree=4)
        assert_allclose(np.linalg.norm(basis.phi, axis=1), np.ones(17))

    def test_constant_trajectory_weak_lhs_near_zero(self):
        # integral of phidot vanishes for compactly supported bumps, so the
        # weak left side of a constant trajectory is zero up to quadrature.
        grid = TimeGrid(1.0, 1000)
        basis = build_test_functions(grid, count=50, radius_frac=0.1, degree=3)
        z = 0.7 * np.ones(grid.steps + 1)
        b = -(basis.phi_dot @ z)
        assert np.max(np.abs(b)) <= 1e-3 * np.max(np.abs(z))

    def test_integration_by_parts_identity_linear_ramp(self):
        # For z(t) = t: -integral(phidot t) = integral(phi); trapezoidal
        # quadrature reproduces it to ~1e-5 relative at this resolution.
        grid = TimeGrid(1.0, 1000)
        basis = build_test_functions(grid, count=50, radius_frac=0.1, degree=3)
        t = grid.times()
        lhs = -(basis.phi_dot @ t)
        rhs = basis.phi @ np.ones_like(t)
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) <= 1e-4

    def test_support_must_fit(self):
        with pytest.raises(ValueError):
            build_test_functions(TimeGrid(1.0, 10), count=5, radius_frac=0.9)

    def test_degree_below_two_rejected(self):
        with pytest.raises(ValueError):
            build_test_functions(TimeGrid(1.0, 100), count=5, degree=1)


class TestWendyFit:
    def test_exponential_decay_recovery(self):
        grid = TimeGrid(5.0, 1000)
        z = np.exp(-grid.times())[:, None]
        lib = FeatureLibrary(latent_dim=1, degree=1)
        basis = build_test_functions(grid)
        w = wendy_fit(z, lib, basis).coefficients
        assert abs(w[0, 0]) <= 1e-4          # constant term
        assert abs(w[1, 0] - (-1.0)) <= 1e-4  # linear term

    def test_constant_trajectory_near_zero_coefficients(self):
        grid = TimeGrid(1.0, 300)
        z = np.full((301, 2), [1.3, -0.4])
        lib = FeatureLibrary(latent_dim=2, degree=1)
        basis = build_test_functions(grid, count=30)
        with pytest.warns(UserWarning, match="rank-deficient"):
            dyn = wendy_fit(z, lib, basis)
        # B ~ 0 up to quadrature, so the fitted vector field is ~ 0 on the data.
        rhs = lib.evaluate(z[0]) @ dyn.coefficients
        assert np.max(np.abs(rhs)) <= 1e-6

    def test_linear_system_recovery(self):
        # Trajectories generated exactly by dz/dt = A z; weak-form fit
        # recovers the coefficients to quadrature accuracy.
        from scipy.linalg import expm

        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        a = a - 1.5 * np.eye(3) * np.max(np.abs(np.linalg.eigvals(a)).real)
        grid = TimeGrid(2.0, 2000)
        z0 = rng.normal(size=3)
        z = np.array([expm(a * t) @ z0 for t in grid.times()])
        lib = FeatureLibrary(latent_dim=3, degree=1)
        basis = build_test_functions(grid)
        dyn = wendy_fit(z, lib, basis)
        w_true = np.vstack([np.zeros(3), a.T])
        err = np.max(np.abs(dyn.coefficients - w_true)) / np.max(np.abs(w_true))
        assert err <= 1e-3
        g, b = weak_system(z, lib, basis)
        assert np.linalg.norm(b - g @ w_true) / np.linalg.norm(b) <= 1e-3

    def test_multi_trajectory_stacking(self):
        from scipy.linalg import expm

        rng = np.random.default_rng(1)
        a = -np.eye(2) + 0.3 * rng.normal(size=(2, 2))
        grid = TimeGrid(1.0, 500)
        lib = FeatureLibrary(latent_dim=2, degree=1)
        basis = build_test_functions(grid)
        trajs = [
            np.array([expm(a * t) @ z0 for t in grid.times()])
            for z0 in rng.normal(size=(3, 2))
        ]
        dyn = wendy_fit(trajs, lib, basis)
        w_true = np.vstack([np.zeros(2), a.T])
        assert np.max(np.abs(dyn.coefficients - w_true)) <= 1e-3

    def test_data_side_linearity(self):
        rng = np.random.default_rng(2)
        grid = TimeGrid(1.0, 200)
        z = rng.normal(size=(201, 2))
        lib = FeatureLibrary(latent_dim=2, degree=1)
        basis = build_test_functions(grid, count=40)
        _, b1 = weak_system(z, lib, basis)
        _, b2 = weak_system(2.5 * z, lib, basis)
        assert_allclose(b2, 2.5 * b1, rtol=1e-13)

    def test_rank_deficiency_warns_minimum_norm(self):
        grid = TimeGrid(1.0, 100)
        z = np.zeros((101, 2))  # all-zero data: G has a zero block
        lib = FeatureLibrary(latent_dim=2, degree=1)
        basis = build_test_functions(grid, count=20)
        with pytest.warns(UserWarning, match="rank-deficient"):
            dyn = wendy_fit(z, lib, basis)
        assert_allclose(dyn.coefficients, np.zeros((3, 2)))

    def test_shape_validation(self):
        grid = TimeGrid(1.0, 100)
        basis = build_test_functions(grid, count=10)
        lib = FeatureLibrary(latent_dim=2, degree=1)
        with pytest.raises(ValueError):
            wendy_fit(np.zeros((50, 2)), lib, basis)  # wrong row count
        with pytest.raises(ValueError):
            wendy_fit(np.zeros((101, 3)), lib, basis)  # wrong width


class TestSindyFit:
    def test_exponential_decay_recovery(self):
        grid = TimeGrid(5.0, 1000)
        z = np.exp(-grid.times())[:, None]
        lib = FeatureLibrary(latent_dim=1, degree=1)
        w = sindy_fit(z, lib, grid).coefficients
        # second-order differences: O(dt^2) truncation
        assert abs(w[1, 0] - (-1.0)) <= 1e-4
        assert abs(w[0, 0]) <= 1e-4

    def test_constant_trajectory_zero_field(self):
        grid = TimeGrid(1.0, 100)
        z = np.full((101, 2), [0.5, -1.0])
        lib = FeatureLibrary(latent_dim=2, degree=1)
        with pytest.warns(UserWarning, match="rank-deficient"):
            dyn = sindy_fit(z, lib, grid)
        rhs = lib.evaluate(z[0]) @ dyn.coefficients
        assert np.max(np.abs(rhs)) <= 1e-10

    def test_needs_three_points(self):
        lib = FeatureLibrary(latent_dim=1, degree=1)
        with pytest.raises(ValueError):
            sindy_fit(np.zeros((2, 1)), lib, TimeGrid(1.0, 1))


class TestNoiseRobustness:
    def test_weak_beats_strong_under_noise(self):
        # 20% rms noise on the exponential-decay trajectory, 5 seeds:
        # the weak-form fit's median coefficient error must be smaller.
        grid = TimeGrid(5.0, 1000)
        z = np.exp(-grid.times())[:, None]
        sigma = 0.2 * np.linalg.norm(z) / np.sqrt(z.size)
        lib = FeatureLibrary(latent_dim=1, degree=1)
        basis = build_test_functions(grid)
        w_true = np.array([[0.0], [-1.0]])
        errs_weak, errs_strong = [], []
        for seed in range(5):
            noisy = z + np.random.default_rng(seed).normal(0, sigma, z.shape)
            w = wendy_fit(noisy, lib, basis).coefficients
            s = sindy_fit(noisy, lib, grid).coefficients
            errs_weak.append(np.max(np.abs(w - w_true)))
            errs_strong.append(np.max(np.abs(s - w_true)))
        assert np.median(errs_weak) < np.median(errs_strong)
