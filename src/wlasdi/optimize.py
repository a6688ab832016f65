"""Optimizers over a box-constrained objective: quasi-Newton BFGS with a
backtracking Armijo line search, a Nelder-Mead simplex, differential
evolution, and a radial-basis interpolant of the objective itself (the
cheap derivative-free baseline).

Box bounds are enforced by clamping every trial point into the box before
evaluation and adding a quadratic penalty rho * dist(x, box)^2 to the
wrapped objective, so interior minimizers are unaffected and iterates can
never report a point outside the box.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import ParameterDomain
from .providers import KernelCoefficients

__all__ = [
    "OptProblem",
    "OptResult",
    "bfgs_minimize",
    "nelder_mead_minimize",
    "differential_evolution",
    "rbf_objective_surrogate",
]


@dataclass
class OptProblem:
    domain: ParameterDomain
    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    x0: np.ndarray | None = None
    # f at each row of a block (m, n) -> (m,), equal to ``evaluate`` row by
    # row up to roundoff; optimizers that evaluate blocks fall back to
    # ``evaluate`` when it is None.
    evaluate_many: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.x0 is None:
            self.x0 = self.domain.center()
        self.x0 = self.domain.validate(self.x0)
        if not self.domain.contains(self.x0):
            raise ValueError("x0 must lie inside the domain")


@dataclass
class OptResult:
    mu_hat: np.ndarray
    f_hat: float
    n_func: int = 0
    n_grad: int = 0
    wall_seconds: float = 0.0
    converged: bool = False
    trace: list = field(default_factory=list)
    # Why the run ended: "gradient", "line_search" or "max_iter" (BFGS),
    # "tolerance" or "max_iter" (Nelder-Mead), "max_gen" (DE).
    stop_reason: str = ""


class _Counted:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def _penalized(problem: OptProblem, fn: _Counted, rho: float):
    dom = problem.domain

    def wrapped(x):
        xc = dom.clamp(x)
        return fn(xc) + rho * float(np.sum((x - xc) ** 2))

    return wrapped


def _penalized_grad(problem: OptProblem, gn: _Counted, rho: float):
    dom = problem.domain

    def wrapped(x):
        xc = dom.clamp(x)
        g = np.asarray(gn(xc), dtype=float).copy()
        outside = x != xc
        g[outside] = 0.0  # clamp has zero derivative in clipped components
        return g + 2.0 * rho * (x - xc)

    return wrapped


def bfgs_minimize(
    problem: OptProblem,
    grad_tol: float = 1e-8,
    max_iter: int = 200,
    armijo_c: float = 1e-4,
    backtrack: float = 0.5,
    max_backtracks: int = 40,
) -> OptResult:
    """BFGS with backtracking Armijo line search and clamp-plus-penalty bounds.

    A step is accepted only if it strictly lowers f and meets the Armijo
    test; if no backtrack does before the step shrinks to
    sqrt(eps) * max(1, |x|), the search stops and returns the best iterate
    with ``converged`` false.
    """
    if problem.gradient is None:
        raise ValueError("bfgs_minimize requires a gradient callable")
    t0 = time.perf_counter()
    fn = _Counted(problem.evaluate)
    gn = _Counted(problem.gradient)
    x = problem.x0.copy()
    f0 = fn(x)
    rho = 1e3 * abs(f0) + 1.0
    f = _penalized(problem, fn, rho)
    g = _penalized_grad(problem, gn, rho)

    n = x.size
    hess_inv = np.eye(n)
    fx = f0
    gx = g(x)
    trace = [(x.copy(), fx)]
    stop_reason = "max_iter"
    best_x, best_f = x.copy(), fx

    for _ in range(max_iter):
        if np.max(np.abs(gx)) <= grad_tol:
            stop_reason = "gradient"
            break
        p = -hess_inv @ gx
        slope = float(gx @ p)
        if slope >= 0.0:  # reset on a non-descent direction
            hess_inv = np.eye(n)
            p = -gx
            slope = float(gx @ p)
        alpha = 1.0
        f_new = None
        # Steps shorter than this move x by less than f can resolve.
        min_step = np.sqrt(np.finfo(float).eps) * max(1.0, np.linalg.norm(x))
        p_norm = np.linalg.norm(p)
        for _ in range(max_backtracks):
            trial = x + alpha * p
            f_trial = f(trial)
            # Strict decrease as well: once fx + c*alpha*slope rounds to fx,
            # Armijo alone accepts steps that do not lower f at all.
            if f_trial < fx and f_trial <= fx + armijo_c * alpha * slope:
                f_new = f_trial
                break
            alpha *= backtrack
            if alpha * p_norm <= min_step:
                break
        if f_new is None:
            stop_reason = "line_search"  # return the best iterate
            break
        x_new = x + alpha * p
        g_new = g(x_new)
        s = x_new - x
        y = g_new - gx
        sy = float(s @ y)
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            rho_k = 1.0 / sy
            v = np.eye(n) - rho_k * np.outer(s, y)
            hess_inv = v @ hess_inv @ v.T + rho_k * np.outer(s, s)
        x, fx, gx = x_new, f_new, g_new
        trace.append((problem.domain.clamp(x), fx))
        if fx < best_f:
            best_x, best_f = x.copy(), fx
    else:
        if np.max(np.abs(gx)) <= grad_tol:
            stop_reason = "gradient"

    if fx < best_f:
        best_x, best_f = x, fx
    return OptResult(
        mu_hat=problem.domain.clamp(best_x),
        f_hat=float(best_f),
        n_func=fn.calls,
        n_grad=gn.calls,
        wall_seconds=time.perf_counter() - t0,
        converged=stop_reason == "gradient",
        trace=trace,
        stop_reason=stop_reason,
    )


def nelder_mead_minimize(
    problem: OptProblem,
    tol: float = 1e-8,
    max_iter: int = 5000,
    initial_step: float = 0.05,
) -> OptResult:
    """Simplex search with reflection/expansion/contraction/shrink.

    Trial points are clamped into the box before evaluation; the stored
    vertices are the clamped points so the simplex never leaves the box.
    Converged once the simplex diameter drops below ``tol``.
    """
    t0 = time.perf_counter()
    fn = _Counted(problem.evaluate)
    dom = problem.domain
    n = problem.x0.size

    simplex = [problem.x0.copy()]
    widths = dom.upper - dom.lower
    for i in range(n):
        v = problem.x0.copy()
        v[i] += initial_step * widths[i]
        simplex.append(dom.clamp(v))
    simplex = np.asarray(simplex)
    values = np.array([fn(v) for v in simplex])

    stop_reason = "max_iter"
    trace = []
    for _ in range(max_iter):
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]
        trace.append((simplex[0].copy(), float(values[0])))
        diameter = np.max(np.linalg.norm(simplex[1:] - simplex[0], axis=1))
        if diameter <= tol:
            stop_reason = "tolerance"
            break
        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]

        reflected = dom.clamp(centroid + (centroid - worst))
        f_r = fn(reflected)
        if f_r < values[0]:
            expanded = dom.clamp(centroid + 2.0 * (centroid - worst))
            f_e = fn(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            if f_r < values[-1]:
                contracted = dom.clamp(centroid + 0.5 * (reflected - centroid))
            else:
                contracted = dom.clamp(centroid + 0.5 * (worst - centroid))
            f_c = fn(contracted)
            if f_c < min(f_r, values[-1]):
                simplex[-1], values[-1] = contracted, f_c
            else:
                for i in range(1, n + 1):
                    simplex[i] = dom.clamp(simplex[0] + 0.5 * (simplex[i] - simplex[0]))
                    values[i] = fn(simplex[i])

    best = int(np.argmin(values))
    trace.append((simplex[best].copy(), float(values[best])))
    return OptResult(
        mu_hat=dom.clamp(simplex[best]),
        f_hat=float(values[best]),
        n_func=fn.calls,
        n_grad=0,
        wall_seconds=time.perf_counter() - t0,
        converged=stop_reason == "tolerance",
        trace=trace,
        stop_reason=stop_reason,
    )


def differential_evolution(
    problem: OptProblem,
    pop: int = 20,
    f_weight: float = 0.7,
    crossover: float = 0.9,
    seed: int = 0,
    max_gen: int = 100,
) -> OptResult:
    """DE/current-to-best/1/bin with bound clipping and generation-synchronous
    updates.

    Member i's mutant is x_i + F (x_best - x_i) + F (x_r1 - x_r2), clipped
    to the box, with x_best the best member of the previous generation and
    r1, r2 distinct and other than i (SciPy's ``currenttobest1bin``). Every
    trial of a generation is built from the previous generation's
    population, as in SciPy's ``updating="deferred"``. The donors, the
    crossover mask and the forced component j_rand are drawn for the whole
    population at once, and each generation is one call of
    ``problem.evaluate_many`` (``problem.evaluate`` row by row if that is
    None). A trial replaces its target if it is no worse. ``n_func`` counts
    rows, pop * (max_gen + 1). Bit-deterministic for a fixed seed.
    """
    if pop < 4:
        raise ValueError("population must be >= 4")
    if not 0.0 < f_weight <= 2.0:
        raise ValueError(f"f_weight must be in (0, 2], got {f_weight}")
    if not 0.0 <= crossover <= 1.0:
        raise ValueError(f"crossover must be in [0, 1], got {crossover}")
    if max_gen < 0:
        raise ValueError(f"max_gen must be >= 0, got {max_gen}")
    t0 = time.perf_counter()
    dom = problem.domain
    rng = np.random.default_rng(seed)
    n = problem.x0.size
    rows = np.arange(pop)

    def evaluate(block):
        if problem.evaluate_many is None:
            return np.array([problem.evaluate(x) for x in block], dtype=float)
        return np.asarray(problem.evaluate_many(block), dtype=float).reshape(pop)

    population = dom.sample(rng, pop)
    population[0] = problem.x0
    values = evaluate(population)

    trace = []
    for _ in range(max_gen):
        # Each row's first two in a random order of the other members.
        keys = rng.random((pop, pop))
        keys[rows, rows] = np.inf
        r1, r2 = np.argsort(keys, axis=1)[:, :2].T
        x_best = population[np.argmin(values)]
        mutants = population + f_weight * (x_best - population + population[r1] - population[r2])
        mutants = np.clip(mutants, dom.lower, dom.upper)
        mask = rng.random((pop, n)) < crossover
        mask[rows, rng.integers(n, size=pop)] = True
        trials = np.where(mask, mutants, population)
        f_trials = evaluate(trials)
        better = f_trials <= values
        population[better] = trials[better]
        values[better] = f_trials[better]
        gen_best = int(np.argmin(values))
        trace.append((population[gen_best].copy(), float(values[gen_best])))

    best = int(np.argmin(values))
    return OptResult(
        mu_hat=dom.clamp(population[best]),
        f_hat=float(values[best]),
        n_func=pop * (max_gen + 1),
        n_grad=0,
        wall_seconds=time.perf_counter() - t0,
        converged=True,
        trace=trace,
        stop_reason="max_gen",
    )


def rbf_objective_surrogate(training_mus, training_fs):
    """Gaussian RBF interpolant of scalar objective samples.

    Exact at the training parameters; returns a callable evaluator meant to
    be handed to a derivative-free optimizer.
    """
    fs = np.asarray(training_fs, dtype=float).reshape(-1)
    interpolant = KernelCoefficients(training_mus, fs, "rbf")

    def evaluate(mu) -> float:
        return float(interpolant.coefficients(mu))

    return evaluate
