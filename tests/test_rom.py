import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import expm

from wlasdi.core import TimeGrid
from wlasdi.rom import (
    ButcherTableau,
    LatentBlowupError,
    StepOperator,
    integrate_latent,
    latent_initial,
    latent_initial_sensitivity,
    predict_full,
    reduced_residual_partials,
    rk_step,
    stage_derivatives,
    step_residual,
)

from conftest import identity_model, toy_model


def linear_w(a):
    """Degree-1 coefficient matrix for dz/dt = a z."""
    a = np.atleast_2d(a)
    return np.vstack([np.zeros(a.shape[0]), a.T])


class TestTableau:
    def test_rk4_consistency(self):
        tab = ButcherTableau.rk4()
        assert tab.stages == 4
        assert np.sum(tab.b) == pytest.approx(1.0)

    def test_explicit_enforced(self):
        with pytest.raises(ValueError):
            ButcherTableau(np.eye(2), np.array([0.5, 0.5]))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ButcherTableau(np.zeros((2, 2)), np.array([0.5, 0.6]))

    def test_named(self):
        assert ButcherTableau.named("euler").stages == 1
        assert ButcherTableau.named("heun").stages == 2
        with pytest.raises(ValueError):
            ButcherTableau.named("rk99")


class TestRKStep:
    def test_zero_coefficients_freeze_state(self):
        model = identity_model(np.zeros((3, 2)), TimeGrid(1.0, 10), np.zeros(2))
        z = np.array([0.3, -0.8])
        z_next, _, _ = rk_step(model, np.zeros((3, 2)), z)
        assert_array_equal(z_next, z)

    def test_scalar_decay_hand_value(self):
        # dz/dt = -z, z0 = 1, dt = 0.1, one RK4 step equals the quartic
        # Taylor polynomial 1 - h + h^2/2 - h^3/6 + h^4/24 = 0.9048375.
        w = linear_w([[-1.0]])
        model = identity_model(w, TimeGrid(0.1, 1), np.ones(1))
        z_next, _, _ = rk_step(model, w, np.ones(1))
        assert z_next[0] == pytest.approx(0.9048375, abs=1e-15)

    def test_euler_tableau(self):
        w = linear_w([[-1.0]])
        model = identity_model(w, TimeGrid(0.1, 1), np.ones(1),
                               tableau=ButcherTableau.euler())
        z_next, _, _ = rk_step(model, w, np.ones(1))
        assert z_next[0] == pytest.approx(0.9, abs=1e-15)

    def test_fourth_order_convergence(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        a -= (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(3)
        z0 = rng.normal(size=3)
        exact = expm(a) @ z0
        errs = []
        for n in (10, 20, 40):
            model = identity_model(linear_w(a), TimeGrid(1.0, n), z0)
            z = integrate_latent(model, np.zeros(1))
            errs.append(np.linalg.norm(z[-1] - exact))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for order in orders:
            assert abs(order - 4.0) <= 0.3


class TestIntegrate:
    def test_zero_dynamics_constant_trajectory(self):
        z0 = np.array([0.4, -1.2])
        model = identity_model(np.zeros((3, 2)), TimeGrid(1.0, 25), z0)
        z = integrate_latent(model, np.zeros(1))
        assert_array_equal(z, np.tile(z0, (26, 1)))

    def test_blowup_guard(self):
        # dz/dt = +40 z over [0,1] overflows the 1e6 guard
        model = identity_model(linear_w([[40.0]]), TimeGrid(1.0, 200), np.ones(1))
        with pytest.raises(LatentBlowupError) as exc:
            integrate_latent(model, np.zeros(1))
        assert exc.value.step > 0

    def test_residual_zero_on_integrated_trajectory(self):
        model = toy_model(provider_kind="global", n_steps=30)
        mu = np.array([0.4, 0.6])
        w = model.provider.coefficients(mu)
        z = integrate_latent(model, mu)
        worst = 0.0
        for n in range(1, model.grid.steps + 1):
            r = step_residual(model, w, z[n - 1], z[n])
            worst = max(worst, np.max(np.abs(r)))
        assert worst <= 1e-14 * max(1.0, np.max(np.abs(z)))


def rk_trajectory(model, mu):
    """The oracle: repeated rk_step with the blow-up guard of integrate_latent."""
    w = model.provider.coefficients(mu)
    z = [latent_initial(model, mu)]
    guard = 1e6 * max(1.0, np.max(np.abs(z[0])))
    for n in range(1, model.grid.steps + 1):
        z.append(rk_step(model, w, z[-1])[0])
        norm = np.max(np.abs(z[-1]))
        if not norm <= guard:
            return np.asarray(z[:-1]), (n, norm)
    return np.asarray(z), None


def rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestStepOperator:
    @pytest.mark.parametrize("tableau", ["euler", "heun", "rk4"])
    @pytest.mark.parametrize("kind", ["global", "implicit", "rbf"])
    def test_affine_trajectory_matches_rk_step(self, tableau, kind):
        model = toy_model(provider_kind=kind, degree=1, n_steps=40, seed=11,
                          tableau=ButcherTableau.named(tableau))
        mu = np.array([0.4, 0.6])
        assert StepOperator(model, model.provider.coefficients(mu)).affine
        expected, blowup = rk_trajectory(model, mu)
        assert blowup is None
        assert rel_err(integrate_latent(model, mu), expected) <= 1e-12

    @pytest.mark.parametrize("tableau", ["euler", "heun", "rk4"])
    def test_affine_linearization_matches_residual_partials(self, tableau):
        model = toy_model(provider_kind="rbf", degree=1, seed=6,
                          tableau=ButcherTableau.named(tableau))
        mu = np.array([0.35, 0.65])
        w = model.provider.coefficients(mu)
        dw = model.provider.coefficient_gradients(mu)
        op = StepOperator(model, w, dw)
        z = 0.3 * np.random.default_rng(5).normal(size=3)
        jac, jac_mu = op.linearize(z)
        _, dr_dz_prev, dr_dmu = reduced_residual_partials(model, w, dw, z)
        assert_allclose(jac, -dr_dz_prev, rtol=0, atol=1e-14)
        assert_allclose(jac_mu, -dr_dmu, rtol=0, atol=1e-14)
        assert_allclose(op.advance(z), rk_step(model, w, z)[0], rtol=0, atol=1e-14)

    def test_degree_two_takes_stage_recursion(self):
        model = toy_model(provider_kind="rbf", degree=2, n_steps=20, seed=3)
        mu = np.array([0.4, 0.6])
        assert not StepOperator(model, model.provider.coefficients(mu)).affine
        expected, _ = rk_trajectory(model, mu)
        assert_array_equal(integrate_latent(model, mu), expected)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_blowup_step_matches_general_loop(self, degree):
        lib_size = 2 if degree == 1 else 3
        w = np.zeros((lib_size, 1))
        w[1, 0] = 40.0  # dz/dt = 40 z leaves the 1e6 guard band mid-horizon
        model = identity_model(w, TimeGrid(1.0, 200), np.ones(1), degree=degree)
        _, (step, norm) = rk_trajectory(model, np.zeros(1))
        with pytest.raises(LatentBlowupError) as exc:
            integrate_latent(model, np.zeros(1))
        assert exc.value.step == step
        assert exc.value.norm == pytest.approx(norm, rel=1e-12)

    def test_spectrum_of_scalar_decay(self):
        # RK4 on dz/dt = -z: M is the quartic stability polynomial at -dt
        w = linear_w([[-1.0]])
        model = identity_model(w, TimeGrid(0.1, 1), np.ones(1))
        spec = StepOperator(model, w).spectrum()
        assert spec["step_spectral_radius"] == pytest.approx(0.9048375, abs=1e-15)
        assert spec["max_real_eig"] == pytest.approx(-1.0, abs=1e-15)

    def test_spectrum_needs_degree_one(self):
        model = toy_model(provider_kind="global", degree=2)
        with pytest.raises(ValueError):
            StepOperator(model, model.provider.coefficients(np.zeros(2))).spectrum()


class TestLatentInitial:
    def test_plain_initial_is_encoded_state(self):
        model = toy_model(provider_kind="global")
        mu = np.array([0.3, 0.5])
        v0 = latent_initial(model, mu)
        assert_allclose(v0, model.reducer.encode(model.initial_state(mu)))

    def test_augmented_appends_mu(self):
        model = toy_model(provider_kind="implicit")
        mu = np.array([0.3, 0.5])
        v0 = latent_initial(model, mu)
        assert v0.size == model.state_dim
        assert_array_equal(v0[-2:], mu)

    def test_augmented_sensitivity_mu_block_is_identity(self):
        model = toy_model(provider_kind="implicit")
        sens = latent_initial_sensitivity(model, np.array([0.3, 0.5]))
        assert_array_equal(sens[-2:, :], np.eye(2))

    @pytest.mark.parametrize("kind", ["global", "implicit"])
    def test_sensitivity_matches_fd(self, kind):
        model = toy_model(provider_kind=kind)
        mu = np.array([0.45, 0.55])
        sens = latent_initial_sensitivity(model, mu)
        h = 1e-6
        for i in range(2):
            up, down = mu.copy(), mu.copy()
            up[i] += h
            down[i] -= h
            fd = (latent_initial(model, up) - latent_initial(model, down)) / (2 * h)
            assert np.max(np.abs(sens[:, i] - fd)) <= 1e-6


class TestStageDerivatives:
    def test_zero_coefficients(self):
        model = toy_model(provider_kind="rbf", degree=2)
        mu = np.array([0.4, 0.5])
        dw = model.provider.coefficient_gradients(mu)
        w = np.zeros(model.provider.shape)
        z = np.array([0.2, -0.1, 0.3])
        dk_dz, dk_dmu = stage_derivatives(model, w, dw, z)
        assert_array_equal(dk_dz, np.zeros_like(dk_dz))
        # with W = 0 the stage arguments never move: dk_j/dmu = dW^T theta(z)
        theta = model.library.evaluate(z)
        expected = np.einsum("pjd,j->dp", dw, theta)
        for j in range(model.tableau.stages):
            assert_allclose(dk_dmu[j], expected, atol=1e-14)

    def test_zero_gradient_provider_skips_mu_block(self):
        model = toy_model(provider_kind="global")
        w = model.provider.coefficients(np.zeros(2))
        _, dk_dmu = stage_derivatives(model, w, None, np.array([0.1, 0.2, 0.3]))
        assert dk_dmu is None

    def test_stage_jacobian_matches_fd(self):
        rng = np.random.default_rng(3)
        a = 0.5 * rng.normal(size=(3, 3))
        w = linear_w(a)
        model = identity_model(w, TimeGrid(1.0, 20), np.zeros(3))
        z = rng.normal(size=3)
        dk_dz, _ = stage_derivatives(model, w, None, z)
        h = 1e-6
        for j in range(4):
            fd = np.empty((3, 3))
            for c in range(3):
                up, down = z.copy(), z.copy()
                up[c] += h
                down[c] -= h
                _, _, ks_up = rk_step(model, w, up)
                _, _, ks_down = rk_step(model, w, down)
                fd[:, c] = (ks_up[j] - ks_down[j]) / (2 * h)
            assert np.max(np.abs(dk_dz[j] - fd)) <= 1e-6


class TestResidualPartials:
    def test_next_state_jacobian_is_identity(self):
        model = toy_model(provider_kind="global")
        w = model.provider.coefficients(np.zeros(2))
        dr_dz, _, _ = reduced_residual_partials(model, w, None, np.zeros(3))
        assert_array_equal(dr_dz, np.eye(3))

    def test_zero_gradient_provider_has_no_mu_partial(self):
        model = toy_model(provider_kind="global")
        w = model.provider.coefficients(np.zeros(2))
        _, _, dr_dmu = reduced_residual_partials(model, w, None, np.zeros(3))
        assert dr_dmu is None

    def test_prev_state_jacobian_matches_fd_of_step_map(self):
        model = toy_model(provider_kind="global", degree=2, seed=5)
        mu = np.array([0.2, 0.8])
        w = model.provider.coefficients(mu)
        rng = np.random.default_rng(4)
        z = 0.3 * rng.normal(size=3)
        _, dr_dz_prev, _ = reduced_residual_partials(model, w, None, z)
        h = 1e-6
        fd = np.empty((3, 3))
        for c in range(3):
            up, down = z.copy(), z.copy()
            up[c] += h
            down[c] -= h
            z_up, _, _ = rk_step(model, w, up)
            z_down, _, _ = rk_step(model, w, down)
            fd[:, c] = (z_up - z_down) / (2 * h)
        # rtilde_n = z_n - step(z_{n-1}), so drtilde/dz_prev = -dstep/dz.
        assert np.max(np.abs(dr_dz_prev + fd)) <= 1e-6

    def test_mu_partial_matches_fd_through_frozen_w(self):
        model = toy_model(provider_kind="rbf", degree=2, seed=6)
        mu = np.array([0.35, 0.65])
        w = model.provider.coefficients(mu)
        dw = model.provider.coefficient_gradients(mu)
        rng = np.random.default_rng(5)
        z = 0.3 * rng.normal(size=3)
        _, _, dr_dmu = reduced_residual_partials(model, w, dw, z)
        h = 1e-6
        for i in range(2):
            up, down = mu.copy(), mu.copy()
            up[i] += h
            down[i] -= h
            z_up, _, _ = rk_step(model, model.provider.coefficients(up), z)
            z_down, _, _ = rk_step(model, model.provider.coefficients(down), z)
            fd = -(z_up - z_down) / (2 * h)
            assert np.max(np.abs(dr_dmu[:, i] - fd)) <= 1e-6


class TestPredictFull:
    def test_decodes_latent_block_only(self):
        model = toy_model(provider_kind="implicit", n_steps=15)
        mu = np.array([0.4, 0.6])
        snap = predict_full(model, mu)
        z = integrate_latent(model, mu)
        assert snap.data.shape == (16, 12)
        assert_allclose(snap.data, model.reducer.decode(z[:, :3]))

    def test_round_trip_on_basis_spanned_data(self):
        model = toy_model(provider_kind="global", n_steps=10)
        rng = np.random.default_rng(6)
        u = model.reducer.basis @ rng.normal(size=3)
        back = model.reducer.decode(model.reducer.encode(u))
        assert np.max(np.abs(back - u)) <= 1e-12
