import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import expm

from wlasdi.burgers import BurgersConfig, initial_condition
from wlasdi.core import TimeGrid
from wlasdi.rom import (
    ButcherTableau,
    LatentBlowupError,
    StepOperator,
    integrate_latent,
    latent_initial,
    latent_initial_sensitivity,
    predict_full,
)

from conftest import identity_model, reference_rk_step, toy_model


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
        z_next = StepOperator(model, np.zeros((3, 2))).advance(z)
        assert_array_equal(z_next, z)

    def test_scalar_decay_hand_value(self):
        # dz/dt = -z, z0 = 1, dt = 0.1, one RK4 step equals the quartic
        # Taylor polynomial 1 - h + h^2/2 - h^3/6 + h^4/24 = 0.9048375.
        w = linear_w([[-1.0]])
        model = identity_model(w, TimeGrid(0.1, 1), np.ones(1))
        z_next = StepOperator(model, w).advance(np.ones(1))
        assert z_next[0] == pytest.approx(0.9048375, abs=1e-15)

    def test_euler_tableau(self):
        w = linear_w([[-1.0]])
        model = identity_model(w, TimeGrid(0.1, 1), np.ones(1),
                               tableau=ButcherTableau.euler())
        z_next = StepOperator(model, w).advance(np.ones(1))
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
            r = z[n] - reference_rk_step(model, w, z[n - 1])
            worst = max(worst, np.max(np.abs(r)))
        assert worst <= 1e-14 * max(1.0, np.max(np.abs(z)))


def rk_trajectory(model, mu):
    """The oracle: repeated reference steps with the blow-up guard of
    integrate_latent."""
    w = model.provider.coefficients(mu)
    z = [latent_initial(model, mu)]
    guard = 1e6 * max(1.0, np.max(np.abs(z[0])))
    for n in range(1, model.grid.steps + 1):
        z.append(reference_rk_step(model, w, z[-1]))
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
        # The reference step is affine in z and a polynomial of degree
        # s <= 4 in W, so a unit difference in z and the five-point stencil
        # along dW/dmu_p differentiate it exactly, up to roundoff.
        model = toy_model(provider_kind="rbf", degree=1, seed=6,
                          tableau=ButcherTableau.named(tableau))
        mu = np.array([0.35, 0.65])
        w = model.provider.coefficients(mu)
        dw = model.provider.coefficient_gradients(mu)
        op = StepOperator(model, w, dw)
        z = 0.3 * np.random.default_rng(5).normal(size=3)
        jac, jac_mu = op.linearize(z)
        exact = np.column_stack([
            (reference_rk_step(model, w, z + e) - reference_rk_step(model, w, z - e)) / 2
            for e in np.eye(3)
        ])
        assert_allclose(jac, exact, rtol=0, atol=1e-14)
        for p in range(2):
            f = {e: reference_rk_step(model, w + e * dw[p], z) for e in (-2, -1, 1, 2)}
            exact = (f[-2] - 8 * f[-1] + 8 * f[1] - f[2]) / 12
            assert_allclose(jac_mu[:, p], exact, rtol=0, atol=1e-14)
        assert_allclose(op.advance(z), reference_rk_step(model, w, z), rtol=0, atol=1e-14)

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

    @pytest.mark.parametrize("steps", [1, 2, 7, 40])
    @pytest.mark.parametrize("kind", ["global", "implicit"])
    def test_propagator_is_last_power_and_bounds_all(self, kind, steps):
        model = toy_model(provider_kind=kind, degree=1, n_steps=steps, seed=11)
        op = StepOperator(model, model.provider.coefficients(np.zeros(2)))
        d = model.state_dim
        s = np.eye(d + 1)
        s[:d, :d], s[:d, d] = op.matrix, op.offset
        powers = [np.linalg.matrix_power(s, n) for n in range(steps + 1)]
        power, bound = op.propagator()
        assert rel_err(power, powers[-1]) <= 1e-13
        norms = [np.max(np.sum(np.abs(p), axis=1)) for p in powers]
        assert bound == pytest.approx(max(norms), rel=1e-13)
        # the bound covers the states of an integrated trajectory
        mu = np.array([0.4, 0.6])
        z = integrate_latent(model, mu)
        z0 = np.max(np.abs(z[0]))
        assert np.max(np.abs(z)) <= bound * max(1.0, z0) * (1 + 1e-12)

    @pytest.mark.parametrize("rate", [40.0, 4000.0])
    def test_propagator_of_growing_step(self, rate):
        # dz/dt = rate z: ||S^n|| = R(rate dt)^n for the RK4 stability
        # polynomial R; at rate 4000 the powers overflow and the bound is inf
        model = identity_model(linear_w([[rate]]), TimeGrid(1.0, 200), np.ones(1))
        _, bound = StepOperator(model, linear_w([[rate]])).propagator()
        x = rate / 200
        with np.errstate(over="ignore"):
            expected = np.float64(1 + x + x**2 / 2 + x**3 / 6 + x**4 / 24) ** 200
        assert bound == pytest.approx(expected, rel=1e-12)

    def test_propagator_needs_degree_one(self):
        model = toy_model(provider_kind="global", degree=2)
        with pytest.raises(ValueError):
            StepOperator(model, model.provider.coefficients(np.zeros(2))).propagator()

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

    @pytest.mark.parametrize("kind", ["global", "implicit"])
    def test_block_rows_equal_single_calls(self, kind):
        # the two-pulse profile maps blocks row by row exactly; 400 points
        # are enough for a matrix product to round its rows differently
        burgers = BurgersConfig(dx=0.05)
        model = dataclasses.replace(
            toy_model(n_state=400, latent_dim=9, n_mu=4, provider_kind=kind),
            initial_state=lambda mu: initial_condition(mu, burgers),
        )
        mus = np.random.default_rng(3).uniform([0.7, 0.9, 0.7, 0.9], [0.9, 1.1, 0.9, 1.1],
                                               size=(20, 4))
        block = latent_initial(model, mus)
        assert block.shape == (20, model.state_dim)
        for mu, row in zip(mus, block):
            assert_array_equal(row, latent_initial(model, mu))

    @pytest.mark.parametrize("kind", ["global", "implicit"])
    def test_sensitivity_bit_equal_to_stacked_columns(self, kind):
        model = toy_model(provider_kind=kind)
        mu = np.array([0.45, 0.55])
        enc = model.reducer.encoder_jacobian()
        stacked = np.column_stack([enc @ model.initial_state_gradient(mu, i) for i in range(2)])
        if model.augmented:
            stacked = np.vstack([stacked, np.eye(2)])
        assert_array_equal(latent_initial_sensitivity(model, mu), stacked)

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


PROVIDERS = ["global", "implicit", "rbf", "gp", "convex"]


def fd_step_jacobians(model, mu, z, h=1e-6):
    """Central differences of one step in z at W(mu), and in mu through W."""
    def advance(m, v):
        return StepOperator(model, model.provider.coefficients(m)).advance(v)

    jac = [(advance(mu, z + h * e) - advance(mu, z - h * e)) / (2 * h)
           for e in np.eye(z.size)]
    jac_mu = [(advance(mu + h * e, z) - advance(mu - h * e, z)) / (2 * h)
              for e in np.eye(mu.size)]
    return np.column_stack(jac), np.column_stack(jac_mu)


step_cases = given(
    degree=st.sampled_from([1, 2]),
    tableau=st.sampled_from(["euler", "heun", "rk4"]),
    kind=st.sampled_from(PROVIDERS),
    seed=st.integers(0, 2**16),
)


class TestStageDerivatives:
    def test_zero_coefficients(self):
        model = toy_model(provider_kind="rbf", degree=2)
        mu = np.array([0.4, 0.5])
        dw = model.provider.coefficient_gradients(mu)
        w = np.zeros(model.provider.shape)
        z = np.array([0.2, -0.1, 0.3])
        jac, jac_mu = StepOperator(model, w, dw).linearize(z)
        assert_array_equal(jac, np.eye(3))
        # with W = 0 the stage arguments never move: every stage has
        # dk_j/dmu = dW^T theta(z), and the weights sum to one
        theta = model.library.evaluate(z)
        expected = model.grid.dt * np.einsum("pjd,j->dp", dw, theta)
        assert_allclose(jac_mu, expected, atol=1e-14)

    def test_zero_gradient_provider_skips_mu_block(self):
        model = toy_model(provider_kind="global")
        w = model.provider.coefficients(np.zeros(2))
        _, jac_mu = StepOperator(model, w).linearize(np.array([0.1, 0.2, 0.3]))
        assert jac_mu is None


class TestResidualPartials:
    def test_zero_gradient_provider_has_no_mu_partial(self):
        model = toy_model(provider_kind="global", degree=1)
        w = model.provider.coefficients(np.zeros(2))
        _, jac_mu = StepOperator(model, w).linearize(np.zeros(3))
        assert jac_mu is None

    @settings(max_examples=40, deadline=None)
    @step_cases
    def test_prev_state_jacobian_matches_fd_of_step_map(self, degree, tableau, kind, seed):
        model = toy_model(provider_kind=kind, degree=degree, seed=seed,
                          tableau=ButcherTableau.named(tableau))
        rng = np.random.default_rng(seed)
        mu = rng.uniform(0.2, 0.8, size=2)
        z = 0.3 * rng.normal(size=model.state_dim)
        op = StepOperator(model, model.provider.coefficients(mu))
        jac, _ = op.linearize(z)
        fd, _ = fd_step_jacobians(model, mu, z)
        assert np.max(np.abs(jac - fd)) <= 1e-6

    @settings(max_examples=40, deadline=None)
    @step_cases
    def test_mu_partial_matches_fd_through_frozen_w(self, degree, tableau, kind, seed):
        model = toy_model(provider_kind=kind, degree=degree, seed=seed,
                          tableau=ButcherTableau.named(tableau))
        rng = np.random.default_rng(seed)
        mu = rng.uniform(0.2, 0.8, size=2)
        z = 0.3 * rng.normal(size=model.state_dim)
        op = StepOperator(model, model.provider.coefficients(mu),
                          model.provider.coefficient_gradients(mu))
        _, jac_mu = op.linearize(z)
        _, fd = fd_step_jacobians(model, mu, z)
        assert np.max(np.abs(jac_mu - fd)) <= 1e-6


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
