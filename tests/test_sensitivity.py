import dataclasses
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from wlasdi.rom import (
    _BLOWUP_FACTOR,
    ButcherTableau,
    LatentBlowupError,
    StepOperator,
    integrate_latent,
    predict_full,
)
from wlasdi.sensitivity import (
    GradientResult,
    TargetMismatch,
    fd_gradient,
    reduced_adjoint_gradient,
    reduced_direct_gradient,
    surrogate_objective,
)

from conftest import toy_model

PROVIDERS = ["global", "implicit", "rbf", "convex", "gp"]


def rel_diff(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)


@pytest.fixture(scope="module")
def models_and_targets():
    out = {}
    for kind in PROVIDERS:
        model = toy_model(provider_kind=kind, n_steps=40, seed=11)
        target = predict_full(model, np.array([0.52, 0.48])).data[-1]
        out[kind] = (model, TargetMismatch(target))
    return out


class TestCrossChecks:
    @pytest.mark.parametrize("kind", PROVIDERS)
    def test_direct_equals_adjoint(self, models_and_targets, kind):
        model, objective = models_and_targets[kind]
        rng = np.random.default_rng(0)
        for _ in range(3):
            mu = rng.uniform(0.2, 0.8, size=2)
            d = reduced_direct_gradient(model, mu, objective)
            a = reduced_adjoint_gradient(model, mu, objective)
            assert rel_diff(d.gradient, a.gradient) <= 1e-10
            assert d.value == pytest.approx(a.value, rel=1e-13)

    @pytest.mark.parametrize("kind", PROVIDERS)
    def test_matches_finite_differences(self, models_and_targets, kind):
        model, objective = models_and_targets[kind]
        evaluate = surrogate_objective(model, objective)
        rng = np.random.default_rng(1)
        for _ in range(2):
            mu = rng.uniform(0.25, 0.75, size=2)
            a = reduced_adjoint_gradient(model, mu, objective)
            fd = fd_gradient(evaluate, mu, h=1e-6)
            assert rel_diff(a.gradient, fd.gradient) <= 1e-5

    def test_gradient_zero_at_self_target(self, models_and_targets):
        model, _ = models_and_targets["rbf"]
        mu = np.array([0.52, 0.48])
        objective = TargetMismatch(predict_full(model, mu).data[-1])
        res = reduced_adjoint_gradient(model, mu, objective)
        assert res.value <= 1e-20
        assert np.max(np.abs(res.gradient)) <= 1e-8

    def test_zero_mismatch_gives_zero_multipliers(self, models_and_targets):
        model, _ = models_and_targets["global"]
        mu = np.array([0.4, 0.6])
        objective = TargetMismatch(predict_full(model, mu).data[-1])
        res = reduced_adjoint_gradient(model, mu, objective)
        assert_allclose(res.gradient, np.zeros(2), atol=1e-12)

    def test_zero_grad_provider_all_mu_flow_through_initial_residual(
        self, models_and_targets
    ):
        # For dW/dmu = 0 the only mu-dependence is the encoded initial
        # condition, so direct and adjoint must agree with an FD that only
        # perturbs the initial state. Checked implicitly by direct==adjoint
        # plus the FD check; here assert the structural zero.
        model, objective = models_and_targets["implicit"]
        assert not model.provider.parameter_dependent
        mu = np.array([0.3, 0.7])
        d = reduced_direct_gradient(model, mu, objective)
        a = reduced_adjoint_gradient(model, mu, objective)
        assert rel_diff(d.gradient, a.gradient) <= 1e-10


@pytest.fixture(scope="module")
def degree_one_models():
    out = {}
    for kind in PROVIDERS:
        model = toy_model(provider_kind=kind, degree=1, n_steps=40, seed=11)
        target = predict_full(model, np.array([0.52, 0.48])).data[-1]
        out[kind] = (model, TargetMismatch(target))
    return out


class TestAffinePath:
    """Degree-1 models take the constant-matrix recursions."""

    @pytest.mark.parametrize("kind", PROVIDERS)
    def test_direct_equals_adjoint_and_fd(self, degree_one_models, kind):
        model, objective = degree_one_models[kind]
        assert StepOperator(model, model.provider.coefficients(np.zeros(2))).affine
        evaluate = surrogate_objective(model, objective)
        rng = np.random.default_rng(0)
        for _ in range(2):
            mu = rng.uniform(0.25, 0.75, size=2)
            d = reduced_direct_gradient(model, mu, objective)
            a = reduced_adjoint_gradient(model, mu, objective)
            assert rel_diff(d.gradient, a.gradient) <= 1e-10
            fd = fd_gradient(evaluate, mu, h=1e-6)
            assert rel_diff(a.gradient, fd.gradient) <= 1e-5


class TestCostCounters:
    def test_scaling_contract(self, models_and_targets):
        model, objective = models_and_targets["rbf"]
        n = model.grid.steps
        mu = np.array([0.5, 0.5])
        d = reduced_direct_gradient(model, mu, objective)
        a = reduced_adjoint_gradient(model, mu, objective)
        assert d.n_linear_solves == (n + 1) * mu.size
        assert a.n_linear_solves == n + 1
        assert a.n_linear_solves < d.n_linear_solves

    def test_direct_cost_grows_with_parameter_count(self):
        for n_mu, expected in ((1, 41), (3, 123)):
            model = toy_model(provider_kind="global", n_mu=n_mu, n_steps=40)
            target = predict_full(model, 0.5 * np.ones(n_mu)).data[-1]
            res = reduced_direct_gradient(
                model, 0.4 * np.ones(n_mu), TargetMismatch(target)
            )
            assert res.n_linear_solves == expected


class TestFDGradient:
    def test_quadratic_exact(self):
        c = np.array([0.3, -0.7, 1.1])
        evaluate = lambda mu: float(np.sum((np.asarray(mu) - c) ** 2))
        res = fd_gradient(evaluate, np.zeros(3), h=1e-6)
        assert_allclose(res.gradient, -2.0 * c, atol=1e-8)
        assert res.method == "finite_difference"
        assert res.n_residual_solves == 7

    def test_h_sweep_v_curve(self, models_and_targets):
        # FD error against the analytic gradient dips near h = 1e-6: the
        # truncation-dominated h=1e-4 and roundoff-dominated h=1e-8 ends
        # are both worse.
        model, objective = models_and_targets["global"]
        mu = np.array([0.45, 0.55])
        exact = reduced_adjoint_gradient(model, mu, objective).gradient
        evaluate = surrogate_objective(model, objective)
        errs = {
            h: rel_diff(fd_gradient(evaluate, mu, h=h).gradient, exact)
            for h in (1e-4, 1e-6, 1e-8)
        }
        assert errs[1e-6] <= errs[1e-4]
        assert errs[1e-6] <= errs[1e-8]

    def test_bad_h(self):
        with pytest.raises(ValueError):
            fd_gradient(lambda mu: 0.0, np.zeros(2), h=0.0)


class TestGradientResult:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            GradientResult(1.0, np.array([np.nan]), "reduced_direct")


@functools.lru_cache(maxsize=None)
def final_time_case(kind, degree, tableau):
    """A toy model and a target its trajectories do not reach."""
    model = toy_model(provider_kind=kind, degree=degree, n_steps=40, seed=11,
                      tableau=ButcherTableau.named(tableau))
    u = predict_full(model, np.array([0.52, 0.48])).data[-1]
    offset = np.random.default_rng(4).normal(size=u.size)
    return model, TargetMismatch(u + 0.5 * np.sqrt(np.mean(u**2)) * offset)


def no_time_loop(*args, **kwargs):
    raise AssertionError("the final-time path stepped through time")


mus = st.tuples(
    st.floats(0.05, 0.95, allow_nan=False), st.floats(0.05, 0.95, allow_nan=False)
).map(np.array)


class TestFinalTimePropagator:
    """Constant-W degree-1 models evaluate f and its gradient through S^N;
    everything else keeps the trajectory and the adjoint sweep."""

    @pytest.mark.parametrize("tableau", ["euler", "heun", "rk4"])
    @pytest.mark.parametrize("kind", ["global", "implicit"])
    @settings(max_examples=15, deadline=None)
    @given(mu=mus)
    def test_matches_adjoint_sweep(self, kind, tableau, mu):
        model, objective = final_time_case(kind, 1, tableau)
        ref = reduced_adjoint_gradient(model, mu, objective)
        evaluate = surrogate_objective(model, objective)
        with mock.patch.object(StepOperator, "trajectory", no_time_loop):
            f, g = evaluate(mu), evaluate.gradient(mu)
        assert abs(f - ref.value) <= 1e-11 * abs(ref.value)
        assert rel_diff(g, ref.gradient) <= 1e-11

    @pytest.mark.parametrize(
        "kind, degree",
        [("rbf", 1), ("gp", 1), ("convex", 1), ("rbf", 2), ("gp", 2),
         ("convex", 2), ("global", 2), ("implicit", 2)],
    )
    @settings(max_examples=5, deadline=None)
    @given(mu=mus)
    def test_other_models_keep_the_sweeps(self, kind, degree, mu):
        model, objective = final_time_case(kind, degree, "rk4")
        evaluate = surrogate_objective(model, objective)
        z = integrate_latent(model, mu)
        assert evaluate(mu) == objective.value(model.decode_state(z[-1]))
        assert_array_equal(
            evaluate.gradient(mu), reduced_adjoint_gradient(model, mu, objective).gradient
        )

    def test_objective_active_before_the_end_keeps_the_sweeps(self):
        model, objective = final_time_case("global", 1, "rk4")
        n = model.grid.steps

        class TwoLevels(TargetMismatch):
            def active_indices(self, n_steps):
                return (n_steps // 2, n_steps)

        two = TwoLevels(objective.target)
        mu = np.array([0.3, 0.6])
        evaluate = surrogate_objective(model, two)
        z = integrate_latent(model, mu)
        assert evaluate(mu) == two.value(model.decode_state(z[n]))
        assert_array_equal(
            evaluate.gradient(mu), reduced_adjoint_gradient(model, mu, two).gradient
        )

    @pytest.mark.parametrize("tableau", ["euler", "heun", "rk4"])
    @pytest.mark.parametrize("kind", ["global", "implicit"])
    @settings(max_examples=15, deadline=None)
    @given(block=st.lists(mus, min_size=1, max_size=8).map(np.array))
    def test_block_matches_rows(self, kind, tableau, block):
        model, objective = final_time_case(kind, 1, tableau)
        evaluate = surrogate_objective(model, objective)
        with mock.patch.object(StepOperator, "trajectory", no_time_loop):
            values = evaluate.values(block)
            rows = np.array([evaluate(mu) for mu in block])
        assert values.shape == (len(block),)
        assert np.all(np.abs(values - rows) <= 1e-13 * np.abs(rows))

    def test_block_scores_rows_by_value_without_values(self):
        model, objective = final_time_case("global", 1, "rk4")

        class FinalOnly:  # the objective protocol without ``values``
            target = objective.target
            value = TargetMismatch.value
            active_indices = TargetMismatch.active_indices

        block = np.array([[0.3, 0.6], [0.5, 0.4], [0.7, 0.2]])
        assert not hasattr(FinalOnly(), "values")
        values = surrogate_objective(model, FinalOnly()).values(block)
        assert_array_equal(values, surrogate_objective(model, objective).values(block))

    @pytest.mark.parametrize(
        "kind, degree",
        [("rbf", 1), ("gp", 1), ("convex", 1), ("rbf", 2), ("gp", 2),
         ("convex", 2), ("global", 2), ("implicit", 2)],
    )
    def test_block_of_other_models_steps_each_row(self, kind, degree):
        model, objective = final_time_case(kind, degree, "rk4")
        block = np.random.default_rng(6).uniform(0.05, 0.95, size=(4, 2))
        values = surrogate_objective(model, objective).values(block)
        for mu, value in zip(block, values):
            z = integrate_latent(model, mu)
            assert value == objective.value(model.decode_state(z[-1]))

    def test_block_row_with_non_finite_initial_state_steps(self):
        # the propagator would return NaN for that row; stepping it raises
        model, objective = final_time_case("global", 1, "rk4")
        g = model.initial_state

        def initial_state(mu):
            return np.where(np.asarray(mu)[..., :1] == 0.5, np.nan, g(mu))

        model = dataclasses.replace(model, initial_state=initial_state)
        block = np.array([[0.3, 0.6], [0.5, 0.4], [0.7, 0.2]])
        evaluate = surrogate_objective(model, objective)
        with pytest.raises(LatentBlowupError) as ref:
            evaluate(block[1])
        with pytest.raises(LatentBlowupError) as exc:
            evaluate.values(block)
        assert exc.value.step == ref.value.step == 1
        assert np.isnan(exc.value.norm) and np.isnan(ref.value.norm)
        assert_allclose(
            evaluate.values(block[[0, 2]]), [evaluate(block[0]), evaluate(block[2])],
            rtol=1e-13,
        )

    @pytest.mark.parametrize("kind", ["global", "implicit"])
    def test_blowup_as_loud_as_integration(self, kind):
        # dz/dt gains +30 z: the powers of S exceed the guard factor and the
        # trajectory leaves the guard band, at the same step on every path
        model, objective = final_time_case(kind, 1, "rk4")
        w = model.provider.coefficients(np.zeros(2)).copy()
        w[1 : 1 + model.state_dim] += 30.0 * np.eye(model.state_dim)
        model = dataclasses.replace(model, provider=type(model.provider)(w))
        assert StepOperator(model, w).propagator()[1] > _BLOWUP_FACTOR
        mu = np.array([0.4, 0.6])
        with pytest.raises(LatentBlowupError) as ref:
            integrate_latent(model, mu)
        evaluate = surrogate_objective(model, objective)
        for call in (evaluate, evaluate.gradient):
            with pytest.raises(LatentBlowupError) as exc:
                call(mu)
            assert (exc.value.step, exc.value.norm) == (ref.value.step, ref.value.norm)
        block = np.array([mu, [0.2, 0.9]])
        with pytest.raises(LatentBlowupError) as exc:
            surrogate_objective(model, objective).values(block)
        assert (exc.value.step, exc.value.norm) == (ref.value.step, ref.value.norm)
