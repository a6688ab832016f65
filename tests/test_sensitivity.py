import numpy as np
import pytest
from numpy.testing import assert_allclose

from wlasdi.rom import StepOperator, predict_full
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
