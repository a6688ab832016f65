import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from wlasdi.core import ParameterDomain
from wlasdi.optimize import (
    OptProblem,
    bfgs_minimize,
    differential_evolution,
    nelder_mead_minimize,
    rbf_objective_surrogate,
)


def quadratic_problem(center, lo=-2.0, hi=2.0, n=4):
    c = np.asarray(center, dtype=float)
    dom = ParameterDomain(np.full(n, lo), np.full(n, hi))
    return OptProblem(
        domain=dom,
        evaluate=lambda x: float(np.sum((x - c) ** 2)),
        gradient=lambda x: 2.0 * (np.asarray(x) - c),
        x0=dom.center(),
    )


def rosenbrock(x):
    x = np.asarray(x)
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


def rosenbrock_grad(x):
    x = np.asarray(x)
    return np.array(
        [
            -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - x[0] ** 2),
        ]
    )


class TestBFGS:
    def test_quadratic_in_few_iterations(self):
        c = np.array([0.3, -0.5, 1.0, 0.2])
        res = bfgs_minimize(quadratic_problem(c))
        assert res.converged
        assert np.max(np.abs(res.mu_hat - c)) <= 1e-8
        assert len(res.trace) - 1 <= 3

    def test_superlinear_iteration_bound_on_quadratics(self):
        rng = np.random.default_rng(0)
        for _ in range(3):
            c = rng.uniform(-1.0, 1.0, size=4)
            res = bfgs_minimize(quadratic_problem(c))
            assert len(res.trace) - 1 <= 4 + 2

    def test_rosenbrock(self):
        dom = ParameterDomain([-2.0, -2.0], [2.0, 2.0])
        problem = OptProblem(dom, rosenbrock, rosenbrock_grad,
                             x0=np.array([-1.2, 1.0]))
        res = bfgs_minimize(problem, max_iter=100, grad_tol=1e-10)
        assert np.max(np.abs(res.mu_hat - 1.0)) <= 1e-6
        assert len(res.trace) - 1 <= 100

    def test_requires_gradient(self):
        problem = quadratic_problem(np.zeros(2), n=2)
        problem.gradient = None
        with pytest.raises(ValueError):
            bfgs_minimize(problem)

    def test_result_inside_domain(self):
        # minimizer outside the box: iterates are clamped+penalized and the
        # reported optimum sits inside
        c = np.array([5.0, 5.0])
        dom = ParameterDomain([-1.0, -1.0], [1.0, 1.0])
        problem = OptProblem(
            dom,
            lambda x: float(np.sum((x - c) ** 2)),
            lambda x: 2.0 * (np.asarray(x) - c),
        )
        res = bfgs_minimize(problem)
        assert dom.contains(res.mu_hat)
        assert_allclose(res.mu_hat, [1.0, 1.0], atol=1e-6)

    def test_counter_integrity(self):
        calls = {"f": 0, "g": 0}

        def f(x):
            calls["f"] += 1
            return float(np.sum(np.asarray(x) ** 2))

        def g(x):
            calls["g"] += 1
            return 2.0 * np.asarray(x)

        dom = ParameterDomain([-1.0] * 3, [1.0] * 3)
        res = bfgs_minimize(OptProblem(dom, f, g, x0=np.full(3, 0.5)))
        assert res.n_func == calls["f"]
        assert res.n_grad == calls["g"]

    def test_plateau_stops_line_search(self):
        # f is flat while its gradient is not, and fx + c*alpha*slope rounds
        # to fx: no trial point strictly lowers f, so the search fails after
        # max_backtracks evaluations instead of stepping for max_iter rounds
        dom = ParameterDomain([-2.0] * 4, [2.0] * 4)
        problem = OptProblem(dom, lambda x: 1e8, lambda x: np.full(4, 1e-3))
        res = bfgs_minimize(problem, max_iter=200, max_backtracks=40)
        assert not res.converged
        assert res.n_func <= 1 + 40
        assert res.n_grad == 1
        assert_array_equal(res.mu_hat, dom.center())

    def test_failed_line_search_stops_at_step_floor(self):
        # |p| = 1 and |x0| = 4: alpha = 1, 1/2, ..., 2^-23 are tried, and
        # 2^-24 * |p| = sqrt(eps) * |x0| ends the search before 40 halvings
        dom = ParameterDomain([-8.0] * 4, [8.0] * 4)
        problem = OptProblem(dom, lambda x: 1e8, lambda x: np.full(4, 0.5),
                             x0=np.full(4, 2.0))
        res = bfgs_minimize(problem, max_iter=200, max_backtracks=40)
        assert not res.converged
        assert res.n_func == 1 + 24
        assert res.n_grad == 1


class TestNelderMead:
    def test_quadratic_bowl(self):
        c = np.array([0.25, -0.4])
        dom = ParameterDomain([-2.0, -2.0], [2.0, 2.0])
        problem = OptProblem(dom, lambda x: float(np.sum((x - c) ** 2)))
        res = nelder_mead_minimize(problem, tol=1e-10)
        assert res.converged
        assert np.max(np.abs(res.mu_hat - c)) <= 1e-6

    def test_deterministic_across_runs(self):
        dom = ParameterDomain([-2.0, -2.0], [2.0, 2.0])
        problem = OptProblem(dom, rosenbrock, x0=np.array([-1.0, 1.0]))
        a = nelder_mead_minimize(problem, tol=1e-9, max_iter=2000)
        b = nelder_mead_minimize(problem, tol=1e-9, max_iter=2000)
        assert_array_equal(a.mu_hat, b.mu_hat)
        assert a.n_func == b.n_func

    def test_iteration_cap_returns_best(self):
        dom = ParameterDomain([-2.0, -2.0], [2.0, 2.0])
        problem = OptProblem(dom, rosenbrock, x0=np.array([-1.0, 1.0]))
        res = nelder_mead_minimize(problem, tol=1e-16, max_iter=5)
        assert not res.converged
        assert dom.contains(res.mu_hat)

    def test_counter_integrity(self):
        calls = [0]

        def f(x):
            calls[0] += 1
            return float(np.sum(np.asarray(x) ** 2))

        dom = ParameterDomain([-1.0] * 2, [1.0] * 2)
        res = nelder_mead_minimize(OptProblem(dom, f), tol=1e-8)
        assert res.n_func == calls[0]
        assert res.n_grad == 0


class TestDifferentialEvolution:
    def test_sphere(self):
        dom = ParameterDomain([-3.0, -3.0], [3.0, 3.0])
        problem = OptProblem(dom, lambda x: float(np.sum(np.asarray(x) ** 2)),
                             x0=np.array([2.0, -2.0]))
        res = differential_evolution(problem, pop=20, seed=1, max_gen=100)
        assert res.f_hat <= 1e-4

    def test_seed_determinism(self):
        dom = ParameterDomain([-3.0, -3.0], [3.0, 3.0])
        problem = OptProblem(dom, rosenbrock)
        a = differential_evolution(problem, pop=16, seed=7, max_gen=40)
        b = differential_evolution(problem, pop=16, seed=7, max_gen=40)
        c = differential_evolution(problem, pop=16, seed=8, max_gen=40)
        assert_array_equal(a.mu_hat, b.mu_hat)
        assert a.f_hat == b.f_hat
        assert np.any(a.mu_hat != c.mu_hat)

    def test_population_floor(self):
        dom = ParameterDomain([-1.0], [1.0])
        problem = OptProblem(dom, lambda x: float(x[0] ** 2))
        with pytest.raises(ValueError):
            differential_evolution(problem, pop=3)

    def test_results_inside_domain(self):
        dom = ParameterDomain([-0.5, -0.5], [0.5, 0.5])
        problem = OptProblem(dom, lambda x: float(np.sum((np.asarray(x) - 2) ** 2)))
        res = differential_evolution(problem, pop=12, seed=3, max_gen=30)
        assert dom.contains(res.mu_hat)


class TestRBFObjectiveSurrogate:
    def test_exact_at_training_points(self):
        rng = np.random.default_rng(0)
        mus = rng.uniform(0.0, 1.0, size=(9, 3))
        fs = rng.normal(size=9)
        evaluate = rbf_objective_surrogate(mus, fs)
        for mu, f in zip(mus, fs):
            assert evaluate(mu) == pytest.approx(f, abs=1e-8)

    def test_duplicate_training_points_rejected(self):
        mus = np.array([[0.2, 0.2], [0.2, 0.2]])
        with pytest.raises(ValueError):
            rbf_objective_surrogate(mus, [1.0, 2.0])

    def test_smoke_optimization_recovers_sampled_minimum(self):
        # surrogate of a quadratic sampled on a grid: optimizing it lands
        # near the true minimizer
        c = np.array([0.55, 0.45])
        grid = np.array([[a, b] for a in np.linspace(0, 1, 5)
                         for b in np.linspace(0, 1, 5)])
        fs = [float(np.sum((g - c) ** 2)) for g in grid]
        evaluate = rbf_objective_surrogate(grid, fs)
        dom = ParameterDomain([0.0, 0.0], [1.0, 1.0])
        res = nelder_mead_minimize(OptProblem(dom, evaluate), tol=1e-10)
        assert np.max(np.abs(res.mu_hat - c)) <= 0.02


class TestOptProblem:
    def test_x0_must_be_inside(self):
        dom = ParameterDomain([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            OptProblem(dom, lambda x: 0.0, x0=np.array([2.0, 0.5]))

    def test_default_x0_is_center(self):
        dom = ParameterDomain([0.0, 2.0], [1.0, 4.0])
        problem = OptProblem(dom, lambda x: 0.0)
        assert_allclose(problem.x0, [0.5, 3.0])


class TestStopReason:
    """Every optimizer says why it stopped; ``converged`` follows from it."""

    def test_bfgs_gradient(self):
        res = bfgs_minimize(quadratic_problem(np.array([0.3, -0.5, 1.0, 0.2])))
        assert (res.stop_reason, res.converged) == ("gradient", True)

    def test_bfgs_line_search(self):
        dom = ParameterDomain([-2.0] * 4, [2.0] * 4)
        problem = OptProblem(dom, lambda x: 1e8, lambda x: np.full(4, 1e-3))
        res = bfgs_minimize(problem)
        assert (res.stop_reason, res.converged) == ("line_search", False)

    def test_bfgs_max_iter(self):
        dom = ParameterDomain([-2.0, -2.0], [2.0, 2.0])
        problem = OptProblem(dom, rosenbrock, rosenbrock_grad, x0=np.array([-1.2, 1.0]))
        res = bfgs_minimize(problem, max_iter=3)
        assert (res.stop_reason, res.converged) == ("max_iter", False)

    def test_nelder_mead_tolerance_and_max_iter(self):
        dom = ParameterDomain([-2.0, -2.0], [2.0, 2.0])
        problem = OptProblem(dom, rosenbrock, x0=np.array([-1.0, 1.0]))
        res = nelder_mead_minimize(problem, tol=1e-6, max_iter=2000)
        assert (res.stop_reason, res.converged) == ("tolerance", True)
        res = nelder_mead_minimize(problem, tol=1e-16, max_iter=5)
        assert (res.stop_reason, res.converged) == ("max_iter", False)

    def test_differential_evolution_max_gen(self):
        dom = ParameterDomain([-1.0, -1.0], [1.0, 1.0])
        problem = OptProblem(dom, lambda x: float(np.sum(np.asarray(x) ** 2)))
        res = differential_evolution(problem, pop=6, seed=0, max_gen=3)
        assert res.stop_reason == "max_gen"
