import dataclasses
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.sparse.linalg import splu

from wlasdi.core import TimeGrid
from wlasdi.burgers import (
    BurgersConfig,
    NewtonConvergenceError,
    _StepFactors,
    fom_gradient_adjoint,
    fom_gradient_direct,
    fom_solve,
    fom_solve_batch,
    fom_step,
    initial_condition,
    initial_condition_gradient,
    residual,
)
from wlasdi.sensitivity import fd_gradient

MU_TARGET = np.array([0.75, 1.05, 0.85, 0.95])
# the grid of the benchmark's runs (perfbench), at the default tolerance
BENCH_GRID = BurgersConfig(dx=0.05, grid=TimeGrid(1.0, 150))


def fom_step_jacobians(u_prev, u_next, cfg):
    """(dr_n/du_n, dr_n/du_{n-1}) for one step, as sparse matrices, from
    the definition dr_n/du_n = I + dt (diag(D u_n) + diag(u_n) D) with D
    the periodic one-sided difference matrix; the reference for
    ``_StepFactors``."""
    u_next = np.asarray(u_next, dtype=float)
    n = u_next.size
    shift = 1 if cfg.upwind == "forward" else -1
    neighbour = sp.csc_matrix(
        (np.ones(n), (np.arange(n), (np.arange(n) + shift) % n)), shape=(n, n)
    )
    eye = sp.identity(n, format="csc")
    d = (neighbour - eye) / cfg.dx if shift == 1 else (eye - neighbour) / cfg.dx
    j_n = eye + cfg.grid.dt * (sp.diags(d @ u_next) + sp.diags(u_next) @ d)
    return sp.csc_matrix(j_n), -eye


def coarse_config(**kwargs):
    defaults = dict(dx=0.1, grid=TimeGrid(0.3, 30), upwind="backward",
                    newton_tol=1e-13)
    defaults.update(kwargs)
    return BurgersConfig(**defaults)


class TestInitialCondition:
    def test_zero_amplitudes(self):
        cfg = coarse_config()
        assert_array_equal(initial_condition([0, 1, 0, 1], cfg), np.zeros(cfg.n_points))

    def test_peak_values(self):
        cfg = BurgersConfig()  # dx = 0.02: x = 5 and x = 6 are grid points
        g = initial_condition([1.0, 1.0, 0.0, 1.0], cfg)
        x = cfg.mesh()
        assert g[np.argmin(np.abs(x - 5.0))] == pytest.approx(1.0, abs=1e-15)
        assert g[np.argmin(np.abs(x - 6.0))] == pytest.approx(np.exp(-0.5), rel=1e-12)

    def test_two_pulse_profile(self):
        cfg = BurgersConfig()
        g = initial_condition([0.7, 1.1, 0.9, 0.9], cfg)
        x = cfg.mesh()
        assert g[np.argmin(np.abs(x - 5.0))] == pytest.approx(0.7, abs=1e-6)
        assert g[np.argmin(np.abs(x + 5.0))] == pytest.approx(0.9, abs=1e-6)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            initial_condition([0.5, -1.0, 0.5, 1.0], coarse_config())

    @pytest.mark.parametrize("width", [0.0, -0.0, -1.0])
    @pytest.mark.parametrize("column", [1, 3])
    def test_nonpositive_width_in_either_pulse_rejected(self, column, width):
        mu = [0.5, 1.0, 0.5, 1.0]
        mu[column] = width
        with pytest.raises(ValueError, match="widths must be positive"):
            initial_condition(mu, coarse_config())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", range(4))
    def test_non_finite_entry_rejected(self, column, value):
        mu = np.array([0.5, 1.0, 0.5, 1.0])
        mu[column] = value
        with pytest.raises(ValueError, match="must be finite"):
            initial_condition(mu, coarse_config())
        mus = np.tile([0.5, 1.0, 0.5, 1.0], (3, 1))
        mus[1] = mu
        with pytest.raises(ValueError, match="must be finite"):
            initial_condition(mus, coarse_config())

    def test_block_rows_equal_single_calls(self):
        cfg = BurgersConfig(dx=0.05)
        rng = np.random.default_rng(5)
        mus = rng.uniform([0.0, 0.5, 0.0, 0.5], [1.0, 1.5, 1.0, 1.5], size=(400, 4))
        # widths whose squares by pow and by multiplication round apart
        mus[0, 1], mus[1, 3] = 0.91996, 0.50904
        assert all(w**2 != w * w for w in (0.91996, 0.50904))
        block = initial_condition(mus, cfg)
        assert block.shape == (400, cfg.n_points)
        x = cfg.mesh()
        for mu, row in zip(mus, block):
            assert_array_equal(row, initial_condition(mu, cfg))
            # the profile as float64 scalars compute it, which the cached
            # snapshots and their keys were made with
            a1, w1, a2, w2 = mu
            pulses = a1 * np.exp(-((x - 5.0) ** 2) / (2.0 * w1**2)) + a2 * np.exp(
                -((x + 5.0) ** 2) / (2.0 * w2**2)
            )
            assert_array_equal(row, pulses)

    @pytest.mark.parametrize("column", [1, 3])
    def test_nonpositive_width_in_any_row_rejected(self, column):
        mus = np.tile([0.5, 1.0, 0.5, 1.0], (3, 1))
        mus[2, column] = 0.0
        with pytest.raises(ValueError, match="widths must be positive"):
            initial_condition(mus, coarse_config())

    @pytest.mark.parametrize("shape", [(3,), (2, 5), (1, 2, 4), (), (5,)])
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="expected mu"):
            initial_condition(np.ones(shape), coarse_config())

    def test_grid_must_close(self):
        with pytest.raises(ValueError):
            BurgersConfig(x_min=0.0, x_max=1.0, dx=0.3)


class TestInitialConditionGradient:
    def test_amplitude_partial_is_unit_pulse(self):
        cfg = coarse_config()
        dg = initial_condition_gradient([0.0, 1.0, 0.0, 1.0], 0, cfg)
        assert_allclose(dg, initial_condition([1.0, 1.0, 0.0, 1.0], cfg), atol=1e-15)

    def test_width_partial_vanishes_with_amplitude(self):
        cfg = coarse_config()
        dg = initial_condition_gradient([0.0, 1.0, 0.0, 1.0], 3, cfg)
        assert_array_equal(dg, np.zeros(cfg.n_points))

    @pytest.mark.parametrize("i", range(4))
    def test_matches_finite_differences(self, i):
        cfg = coarse_config()
        mu = np.array([0.8, 1.0, 0.85, 0.95])
        h = 1e-6
        up, down = mu.copy(), mu.copy()
        up[i] += h
        down[i] -= h
        fd = (initial_condition(up, cfg) - initial_condition(down, cfg)) / (2 * h)
        dg = initial_condition_gradient(mu, i, cfg)
        assert np.max(np.abs(dg - fd)) <= 1e-6 * max(np.max(np.abs(fd)), 1e-12)

    def test_index_out_of_range(self):
        for i in (4, -1):
            with pytest.raises(IndexError):
                initial_condition_gradient([1, 1, 1, 1], i, coarse_config())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", range(4))
    def test_non_finite_mu_rejected(self, column, value):
        mu = np.array([0.8, 1.0, 0.85, 0.95])
        mu[column] = value
        for i in range(4):
            with pytest.raises(ValueError, match="must be finite"):
                initial_condition_gradient(mu, i, coarse_config())

    def test_bit_equal_to_closed_form(self):
        # the four partials as float64 scalars and mesh arrays compute them
        cfg = BurgersConfig(dx=0.05)
        x = cfg.mesh()
        rng = np.random.default_rng(11)
        mus = rng.uniform([0.0, 0.5, 0.0, 0.5], [1.0, 1.5, 1.0, 1.5], size=(50, 4))
        mus[0, 1], mus[1, 3] = 0.91996, 0.50904  # pow and x*x round apart
        for mu in mus:
            a1, w1, a2, w2 = mu
            closed_form = [
                np.exp(-((x - 5.0) ** 2) / (2.0 * w1**2)),
                a1 * ((x - 5.0) ** 2 / w1**3) * np.exp(-((x - 5.0) ** 2) / (2.0 * w1**2)),
                np.exp(-((x + 5.0) ** 2) / (2.0 * w2**2)),
                a2 * ((x + 5.0) ** 2 / w2**3) * np.exp(-((x + 5.0) ** 2) / (2.0 * w2**2)),
            ]
            for i, expected in enumerate(closed_form):
                assert_array_equal(initial_condition_gradient(mu, i, cfg), expected)

    def test_interleaved_mu_and_configs_bit_equal_to_closed_form(self):
        # the cache holds one (mu, cfg); alternating between two of each must
        # never hand back another point's partials
        configs = [BurgersConfig(dx=0.05), coarse_config()]
        mus = np.random.default_rng(12).uniform(
            [0.0, 0.5, 0.0, 0.5], [1.0, 1.5, 1.0, 1.5], size=(2, 4)
        )
        mus[1, 0] = -0.0  # -0.0 and 0.0 are cached apart
        calls = [(mu, cfg, i) for i in (3, 0, 2, 1) for cfg in configs for mu in mus]
        calls.append((np.array([0.0, *mus[1, 1:]]), configs[1], 1))
        for mu, cfg, i in calls:
            x = cfg.mesh()
            center = 5.0 if i < 2 else -5.0
            amplitude, width = mu[2 * (i // 2)], mu[2 * (i // 2) + 1]
            pulse = np.exp(-((x - center) ** 2) / (2.0 * width**2))
            expected = pulse if i % 2 == 0 else (
                amplitude * ((x - center) ** 2 / width**3) * pulse
            )
            got = initial_condition_gradient(mu, i, cfg)
            assert_array_equal(got, expected)
            assert np.signbit(got).tolist() == np.signbit(expected).tolist()

    def test_cached_partials_are_read_only(self):
        cfg = coarse_config()
        mu = [0.8, 1.0, 0.85, 0.95]
        for i in range(4):
            dg = initial_condition_gradient(mu, i, cfg)
            assert not dg.flags.writeable
            with pytest.raises(ValueError):
                dg[0] = 1.0
        assert_array_equal(
            initial_condition_gradient(mu, 0, cfg), initial_condition([1.0, 1.0, 0.0, 1.0], cfg)
        )

    @pytest.mark.parametrize("shape", [(3,), (5,), (1, 4)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="expected mu"):
            initial_condition_gradient(np.ones(shape), 0, coarse_config())


def picard_step(u_prev, cfg, tol=1e-14, max_iter=500):
    """Independent fixed-point oracle for the implicit step residual."""
    from wlasdi.burgers import _difference

    u = u_prev.copy()
    for _ in range(max_iter):
        u_new = u_prev - cfg.grid.dt * u * _difference(u, cfg)
        if np.max(np.abs(u_new - u)) <= tol:
            return u_new
        u = u_new
    raise RuntimeError("picard iteration did not converge")


class TestStep:
    def test_zero_fixed_point(self):
        cfg = coarse_config()
        out = fom_step(np.zeros(cfg.n_points), cfg)
        assert_array_equal(out, np.zeros(cfg.n_points))

    @pytest.mark.parametrize("upwind", ["forward", "backward"])
    def test_constant_fixed_point(self, upwind):
        cfg = coarse_config(upwind=upwind)
        c = 0.37 * np.ones(cfg.n_points)
        assert_allclose(fom_step(c, cfg), c, atol=1e-12)

    @pytest.mark.parametrize("upwind", ["forward", "backward"])
    def test_against_picard_oracle(self, upwind):
        cfg = BurgersConfig(upwind=upwind)  # benchmark resolution, one step
        u0 = initial_condition([0.7, 1.1, 0.9, 0.9], cfg)
        u_newton = fom_step(u0, cfg)
        u_picard = picard_step(u0, cfg)
        assert np.max(np.abs(u_newton - u_picard)) <= 1e-9

    def test_converged_residual_below_tol(self):
        cfg = coarse_config(newton_tol=1e-11)
        u0 = initial_condition(MU_TARGET, cfg)
        u1 = fom_step(u0, cfg)
        assert np.max(np.abs(residual(u1, u0, cfg))) <= 1e-11

    def test_newton_failure_carries_residual(self):
        cfg = coarse_config(newton_max_iter=1, newton_tol=1e-16)
        u0 = initial_condition(MU_TARGET, cfg)
        with pytest.raises(NewtonConvergenceError) as exc:
            fom_step(u0, cfg)
        assert exc.value.residual_norm > 0.0

    def test_singular_band_raises_newton_error(self):
        # dx = 0.5, dt = 0.25: a lone -1 makes its Jacobian diagonal
        # 1 + dt*(-1 - 0)/dx + dt*(-1)/dx exactly 0 at the first iteration
        cfg = BurgersConfig(x_min=0.0, x_max=4.0, dx=0.5, grid=TimeGrid(1.0, 4))
        u0 = np.zeros(cfg.n_points)
        u0[3] = -1.0
        diag = fom_step_jacobians(u0, u0, cfg)[0].diagonal()
        assert diag[3] == 0.0
        with pytest.raises(NewtonConvergenceError) as exc:
            fom_step(u0, cfg, step=7)
        assert (exc.value.step, exc.value.iterations) == (7, 0)
        assert exc.value.residual_norm == 0.5  # |dt * u * Du| at the -1


class TestStepFactors:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 24),
        k=st.sampled_from([1, 3]),
        m=st.sampled_from([1, 4]),
        upwind=st.sampled_from(["forward", "backward"]),
        trans=st.booleans(),
        scale=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_sparse_lu(self, n, k, m, upwind, trans, scale, seed):
        cfg = BurgersConfig(x_min=0.0, x_max=0.5 * n, dx=0.5,
                            grid=TimeGrid(1.0, 20), upwind=upwind)
        rng = np.random.default_rng(seed)
        u = scale * rng.uniform(-1.0, 1.0, size=(k, n))
        rhs = rng.normal(size=(k, n, m))
        factors = _StepFactors(u, cfg, trans=trans)
        x = factors.solve(rhs.copy())
        for j in range(k):
            lu = splu(fom_step_jacobians(u[j], u[j], cfg)[0])
            ref = lu.solve(rhs[j], trans="T" if trans else "N")
            assert np.max(np.abs(x[j] - ref)) <= 1e-12 * np.max(np.abs(ref))
            # one state of the stack, in place on a Fortran-ordered rhs
            alone = np.asfortranarray(rhs[j])
            assert_array_equal(factors.solve(alone, j), x[j])
            assert np.shares_memory(factors.solve(alone, j), alone)

    def test_one_singular_state_leaves_the_others(self):
        cfg = BurgersConfig(x_min=0.0, x_max=4.0, dx=0.5, grid=TimeGrid(1.0, 4))
        good = np.linspace(-0.3, 0.4, cfg.n_points)
        bad = np.zeros(cfg.n_points)
        bad[3] = -1.0  # zero pivot, as in TestStep
        rhs = np.ones((3, cfg.n_points))
        for trans in (False, True):
            factors = _StepFactors(np.stack([good, bad, good]), cfg, trans=trans)
            x = factors.solve(rhs.copy())
            assert np.isnan(x[1]).all()
            alone = _StepFactors(good, cfg, trans=trans).solve(rhs[0].copy())
            assert_array_equal(x[0], alone)
            assert_array_equal(x[2], alone)
            assert np.isnan(factors.solve(rhs[1].copy(), 1)).all()
            assert_array_equal(factors.solve(rhs[2].copy(), 2), alone)


class TestBatch:
    def test_rows_equal_single_solves(self):
        # zero amplitude converges at once, the others after different
        # iteration counts: masking must not change any row
        cfg = coarse_config()
        mus = [MU_TARGET, [0.0, 1.0, 0.0, 1.0], [0.9, 0.9, 0.7, 1.1]]
        batch = fom_solve_batch(mus, cfg)
        for mu, snap in zip(mus, batch):
            assert_array_equal(snap.data, fom_solve(mu, cfg).data)
            assert_array_equal(snap.mu, mu)

    def test_empty_batch(self):
        assert fom_solve_batch([], coarse_config()) == []

    def test_failure_names_first_failing_trajectory(self):
        cfg = coarse_config(newton_max_iter=1, newton_tol=1e-16)
        mus = [[0.0, 1.0, 0.0, 1.0], MU_TARGET, [0.9, 0.9, 0.7, 1.1]]
        with pytest.raises(NewtonConvergenceError) as exc:
            fom_solve_batch(mus, cfg)
        with pytest.raises(NewtonConvergenceError) as single:
            fom_solve(MU_TARGET, cfg)
        assert_array_equal(exc.value.mu, MU_TARGET)
        assert "mu = [0.75, 1.05, 0.85, 0.95]" in str(exc.value)
        assert (exc.value.step, exc.value.iterations) == (1, 1)
        assert exc.value.residual_norm == single.value.residual_norm


class TestStepJacobians:
    def test_identity_at_zero(self):
        cfg = coarse_config()
        j_n, j_prev = fom_step_jacobians(np.zeros(cfg.n_points), np.zeros(cfg.n_points), cfg)
        assert_allclose(j_n.toarray(), np.eye(cfg.n_points))

    def test_prev_jacobian_is_minus_identity(self):
        cfg = coarse_config()
        rng = np.random.default_rng(0)
        u = rng.normal(size=cfg.n_points)
        _, j_prev = fom_step_jacobians(u, u, cfg)
        assert_array_equal(j_prev.toarray(), -np.eye(cfg.n_points))

    @pytest.mark.parametrize("upwind", ["forward", "backward"])
    def test_matches_fd_jacobian(self, upwind):
        cfg = BurgersConfig(x_min=0.0, x_max=2.0, dx=0.1, grid=TimeGrid(0.1, 10),
                            upwind=upwind)
        rng = np.random.default_rng(1)
        u_prev = rng.normal(size=cfg.n_points)
        u_next = rng.normal(size=cfg.n_points)
        j_n, _ = fom_step_jacobians(u_prev, u_next, cfg)
        n = cfg.n_points
        fd = np.empty((n, n))
        h = 1e-7
        for k in range(n):
            up, down = u_next.copy(), u_next.copy()
            up[k] += h
            down[k] -= h
            fd[:, k] = (residual(up, u_prev, cfg) - residual(down, u_prev, cfg)) / (2 * h)
        err = np.max(np.abs(j_n.toarray() - fd)) / np.max(np.abs(fd))
        assert err <= 1e-6


class TestSolve:
    def test_zero_amplitude_trajectory(self):
        cfg = coarse_config()
        snap = fom_solve([0.0, 1.0, 0.0, 1.0], cfg)
        assert_array_equal(snap.data, np.zeros_like(snap.data))

    def test_shapes_and_metadata(self):
        cfg = coarse_config()
        snap = fom_solve(MU_TARGET, cfg)
        assert snap.data.shape == (31, cfg.n_points)
        assert snap.grid == cfg.grid
        assert_array_equal(snap.mu, MU_TARGET)

    def test_rows_satisfy_step_residual(self):
        cfg = coarse_config()
        snap = fom_solve(MU_TARGET, cfg)
        for n in range(1, 6):
            r = residual(snap.data[n], snap.data[n - 1], cfg)
            assert np.max(np.abs(r)) <= cfg.newton_tol

    def test_first_order_self_convergence(self):
        # Backward Euler: halving dt halves the time-stepping error.
        cfg = dict(dx=0.05, upwind="backward", newton_tol=1e-13)
        mu = [0.7, 1.1, 0.9, 0.9]
        finals = {}
        for n_steps in (100, 200, 400):
            c = BurgersConfig(grid=TimeGrid(0.5, n_steps), **cfg)
            finals[n_steps] = fom_solve(mu, c).data[-1]
        ratio = np.linalg.norm(finals[100] - finals[200]) / np.linalg.norm(
            finals[200] - finals[400]
        )
        assert ratio == pytest.approx(2.0, rel=0.25)

    def test_bench_grid_needs_one_newton_update_per_step(self):
        # steps after the first start from the extrapolation 2 u_{n-1} - u_{n-2}
        cfg = BENCH_GRID
        updates = []
        solve = _StepFactors.solve

        def counting(self, rhs, state=None):
            updates.append(len(self.z))
            return solve(self, rhs, state)

        with mock.patch.object(_StepFactors, "solve", counting):
            snap = fom_solve(MU_TARGET, cfg)
        assert sum(updates) <= cfg.grid.steps + 1
        for n in range(1, cfg.grid.steps + 1):
            r = residual(snap.data[n], snap.data[n - 1], cfg)
            assert np.max(np.abs(r)) <= cfg.newton_tol

    def test_bench_grid_trajectory_near_tight_tolerance_solve(self):
        mu = np.array([0.7, 1.1, 0.9, 0.9])
        u = fom_solve(mu, BENCH_GRID).data
        tight = fom_solve(mu, dataclasses.replace(BENCH_GRID, newton_tol=1e-14)).data
        assert np.max(np.abs(u - tight)) <= 1e-7 * np.max(np.abs(tight))

    def test_forward_differencing_unstable_at_benchmark_scale(self):
        # Downwind differencing of the rightward-moving pulses diverges on
        # the fine benchmark grid; the upwind direction is the stable one.
        cfg = BurgersConfig(upwind="forward")
        with pytest.raises(NewtonConvergenceError):
            fom_solve([0.7, 1.1, 0.9, 0.9], cfg)


@pytest.fixture(scope="module")
def setup():
    cfg = coarse_config()
    target = fom_solve(MU_TARGET, cfg).data[-1]
    return cfg, target


class TestGradients:
    def test_gradient_zero_at_minimizer(self, setup):
        cfg, target = setup
        res = fom_gradient_adjoint(MU_TARGET, cfg, target)
        assert res.value == pytest.approx(0.0, abs=1e-20)
        assert np.max(np.abs(res.gradient)) <= 1e-8

    def test_zero_amplitudes_zero_target(self, setup):
        cfg, _ = setup
        res = fom_gradient_direct([0.0, 1.0, 0.0, 1.0], cfg, np.zeros(cfg.n_points))
        assert_array_equal(res.gradient, np.zeros(4))

    def test_direct_matches_adjoint(self, setup):
        cfg, target = setup
        mu = np.array([0.8, 1.0, 0.8, 1.0])
        d = fom_gradient_direct(mu, cfg, target)
        a = fom_gradient_adjoint(mu, cfg, target)
        diff = np.max(np.abs(d.gradient - a.gradient)) / np.max(np.abs(a.gradient))
        assert diff <= 1e-10
        assert d.value == pytest.approx(a.value, rel=1e-12)

    def test_matches_finite_differences(self, setup):
        cfg, target = setup
        mu = np.array([0.8, 1.0, 0.8, 1.0])
        res = fom_gradient_adjoint(mu, cfg, target)
        fd = fd_gradient(
            lambda mus: [np.sum((s.data[-1] - target) ** 2) for s in fom_solve_batch(mus, cfg)],
            mu, h=1e-6, block=True,
        )
        assert fd.value == res.value
        for i in range(4):
            assert abs(res.gradient[i] - fd.gradient[i]) <= 1e-5 * abs(fd.gradient[i])

    def test_factors_built_once_equal_step_by_step(self, setup):
        # the reference builds a one-state factor at every step
        cfg, target = setup
        mu = np.array([0.8, 1.0, 0.8, 1.0])
        traj = fom_solve(mu, cfg)
        dfdu = 2.0 * (traj.data[-1] - target)
        sens = np.column_stack([initial_condition_gradient(mu, i, cfg) for i in range(4)])
        for state in traj.data[1:]:
            sens = _StepFactors(state, cfg).solve(sens)
        lam = dfdu.copy()
        for state in traj.data[:0:-1]:
            lam = _StepFactors(state, cfg, trans=True).solve(lam)
        adjoint = [lam @ initial_condition_gradient(mu, i, cfg) for i in range(4)]
        assert_array_equal(fom_gradient_direct(mu, cfg, target, traj).gradient, dfdu @ sens)
        assert_array_equal(fom_gradient_adjoint(mu, cfg, target, traj).gradient, adjoint)

    def test_solved_trajectory_gives_the_same_bits(self, setup):
        cfg, target = setup
        mu = np.array([0.8, 1.0, 0.8, 1.0])
        traj = fom_solve(mu, cfg)
        for gradient in (fom_gradient_direct, fom_gradient_adjoint):
            with mock.patch("wlasdi.burgers.fom_solve", side_effect=AssertionError):
                passed = gradient(mu, cfg, target, traj)
            solved = gradient(mu, cfg, target)
            assert_array_equal(passed.gradient, solved.gradient)
            assert passed.value == solved.value

    def test_mismatched_trajectory_refused(self, setup):
        cfg, target = setup
        mu = np.array([0.8, 1.0, 0.8, 1.0])
        traj = fom_solve(mu, cfg)
        finer = coarse_config(dx=0.05)
        longer = coarse_config(grid=TimeGrid(0.3, 31))
        cases = [
            (mu + [0.0, 0.0, 0.0, 1e-12], cfg, target),
            (mu, finer, np.zeros(finer.n_points)),
            (mu, longer, target),
        ]
        for gradient in (fom_gradient_direct, fom_gradient_adjoint):
            for other_mu, other_cfg, other_target in cases:
                with pytest.raises(ValueError, match="trajectory is for"):
                    gradient(other_mu, other_cfg, other_target, traj)

    def test_solve_counters(self, setup):
        cfg, target = setup
        mu = np.array([0.8, 1.0, 0.8, 1.0])
        n = cfg.grid.steps
        d = fom_gradient_direct(mu, cfg, target)
        a = fom_gradient_adjoint(mu, cfg, target)
        assert d.n_linear_solves == (n + 1) * 4
        assert a.n_linear_solves == n + 1
