"""End-to-end acceptance suite at full benchmark scale.

Each test covers one numbered exit criterion and prints a single
PASS line with the measured values once its assertions hold. Run with

    pytest tests/test_acceptance.py -v -s

The full-order training set (16 trajectories of shape 1001 x 1000) is
generated once per session and shared by every criterion.
"""
import time

import numpy as np
import pytest
from scipy.linalg import expm

from wlasdi.burgers import (
    BurgersConfig,
    fom_gradient_adjoint,
    fom_gradient_direct,
    fom_solve_batch,
)
from wlasdi.core import TimeGrid
from wlasdi.features import FeatureLibrary
from wlasdi.pipeline import (
    ExperimentConfig,
    compute_target,
    evaluate_recovery,
    generate_training_data,
    measure_speedup,
    optimize_surrogate,
    rbf_objective_baseline,
    train_surrogate,
    training_parameters,
)
from wlasdi.pod import pod_fit
from wlasdi.providers import (
    GlobalCoefficients,
    ImplicitCoefficients,
    TrainingCoefficients,
    augment_latents,
    fit_convex,
    fit_gp,
    fit_rbf,
)
from wlasdi.optimize import OptProblem, nelder_mead_minimize
from wlasdi.rom import StepOperator, integrate_latent
from wlasdi.sensitivity import (
    TargetMismatch,
    fd_gradient,
    reduced_adjoint_gradient,
    reduced_direct_gradient,
    surrogate_objective,
)
from wlasdi.weakform import build_test_functions, sindy_fit, wendy_fit

from conftest import reference_rk_step, toy_model


def report(criterion: int, message: str) -> None:
    print(f"\n[acceptance criterion {criterion}] PASS: {message}")

def rel(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300))


@pytest.fixture(scope="session")
def bench(tmp_path_factory):
    cache = tmp_path_factory.mktemp("bench_cache")
    cfg = ExperimentConfig()
    snapshots = generate_training_data(cfg, cache)
    target = compute_target(cfg, cache)
    return {"cfg": cfg, "snapshots": snapshots, "target": target, "cache": cache}


@pytest.fixture(scope="session")
def wlasdi_noise_free(bench):
    return train_surrogate(bench["cfg"], bench["snapshots"], noise_ratio=0.0)


def test_criterion_1_noise_free_inverse_problem(bench, wlasdi_noise_free):
    cfg, target = bench["cfg"], bench["target"]
    trained = wlasdi_noise_free
    assert trained.train_seconds <= 300.0

    # latent dimension comes from the 99.99% singular-value energy rule
    # applied to the noise-free training set (pinned in the config)
    energy_pick = pod_fit([s.data for s in bench["snapshots"]], energy=0.9999)
    assert energy_pick.latent_dim == trained.latent_dim == 9

    # coefficient matrix shape for the degree-1 augmented library
    n_z = trained.latent_dim
    assert trained.model.provider.shape == (1 + n_z + 4, n_z + 4)

    # learned dynamics keep the parameter block essentially frozen
    lib = trained.model.library
    w = trained.model.provider.coefficients(cfg.target_mu)
    latents = [trained.model.reducer.encode(s.data) for s in bench["snapshots"]]
    for traj in augment_latents(latents, training_parameters(cfg))[:4]:
        rates = lib.evaluate(traj) @ w
        assert np.max(np.abs(rates[:, n_z:])) <= 1e-2 * np.max(np.abs(rates[:, :n_z]))

    res = optimize_surrogate(trained.model, target, cfg, "bfgs")
    assert res.wall_seconds <= 60.0
    score = evaluate_recovery(cfg, res.mu_hat, target, bench["cache"])
    assert score["E2_percent"] <= 1.0
    assert score["f_true"] <= 0.01
    report(
        1,
        f"E2 = {score['E2_percent']:.4f}% (<= 1.0%), f_true = {score['f_true']:.5f} "
        f"(<= 0.01), N_z = {n_z}, train {trained.train_seconds:.1f}s, "
        f"optimize {res.wall_seconds:.1f}s with {res.n_grad} gradient evals",
    )


def _noisy_medians(bench, ratio):
    cfg, target = bench["cfg"], bench["target"]
    e2 = {"wlasdi": [], "lasdi": []}
    for seed in cfg.noise_seeds:
        for method, ident in (("wlasdi", "weak"), ("lasdi", "strong")):
            trained = train_surrogate(
                cfg, bench["snapshots"], ratio, seed, identification=ident
            )
            res = optimize_surrogate(trained.model, target, cfg, "bfgs")
            score = evaluate_recovery(cfg, res.mu_hat, target, bench["cache"])
            e2[method].append(score["E2_percent"])
    return {k: float(np.median(v)) for k, v in e2.items()}, e2


def test_criterion_2_twenty_percent_noise(bench):
    medians, raw = _noisy_medians(bench, 0.2)
    assert medians["wlasdi"] <= 1.5
    assert medians["wlasdi"] < medians["lasdi"]
    report(
        2,
        f"20% noise over {len(raw['wlasdi'])} seeds: median WLaSDI E2 = "
        f"{medians['wlasdi']:.3f}% (<= 1.5%), median LaSDI E2 = "
        f"{medians['lasdi']:.3f}% (weak < strong)",
    )


def test_criterion_3_forty_percent_noise(bench):
    cfg, target = bench["cfg"], bench["target"]
    medians, raw = _noisy_medians(bench, 0.4)
    assert medians["wlasdi"] <= 2.5
    assert medians["wlasdi"] <= 0.5 * medians["lasdi"]

    baseline_e2 = []
    for seed in cfg.noise_seeds:
        evaluator, _ = rbf_objective_baseline(
            cfg, bench["snapshots"], target, 0.4, seed
        )
        res = nelder_mead_minimize(
            OptProblem(cfg.domain, evaluator, x0=cfg.domain.center()),
            **cfg.optimizers["nelder_mead"],
        )
        score = evaluate_recovery(cfg, res.mu_hat, target, bench["cache"])
        baseline_e2.append(score["E2_percent"])
    baseline = float(np.median(baseline_e2))
    assert baseline > medians["wlasdi"]
    report(
        3,
        f"40% noise: median WLaSDI E2 = {medians['wlasdi']:.3f}% (<= 2.5%), "
        f"median LaSDI E2 = {medians['lasdi']:.3f}% (weak <= half), "
        f"objective-interpolation baseline E2 = {baseline:.3f}% (worse)",
    )


def test_criterion_4_speedup(bench, wlasdi_noise_free):
    cfg = bench["cfg"]
    timing = measure_speedup(cfg, wlasdi_noise_free.model, repeats=3)
    assert timing["speedup"] >= 10.0
    report(
        4,
        f"median of 3: full-order solve {timing['fom_s'] * 1e3:.0f} ms, "
        f"surrogate prediction {timing['rom_s'] * 1e3:.0f} ms, "
        f"speedup {timing['speedup']:.1f}x (>= 10x)",
    )


def test_criterion_5_gradient_correctness(bench, wlasdi_noise_free):
    t0 = time.perf_counter()
    cfg, target = bench["cfg"], bench["target"]
    model = wlasdi_noise_free.model
    objective = TargetMismatch(target)
    evaluate = surrogate_objective(model, objective)
    rng = np.random.default_rng(2024)

    # (a) reduced direct vs adjoint at 5 random interior parameters, and
    # (b) each against central differences at benchmark scale
    worst_cross, worst_fd_bench = 0.0, 0.0
    for mu in cfg.domain.sample(rng, 5):
        d = reduced_direct_gradient(model, mu, objective)
        a = reduced_adjoint_gradient(model, mu, objective)
        worst_cross = max(worst_cross, rel(d.gradient, a.gradient))
        fd = fd_gradient(evaluate, mu, h=1e-6)
        worst_fd_bench = max(
            worst_fd_bench,
            rel(a.gradient, fd.gradient),
            rel(d.gradient, fd.gradient),
        )
    assert worst_cross <= 1e-10
    assert worst_fd_bench <= 1e-4

    # (b) 3-dimensional synthetic latent model at the tighter tolerance
    synth = toy_model(latent_dim=3, n_mu=3, n_steps=40, provider_kind="rbf", seed=3)
    synth_target = TargetMismatch(
        synth.decode_state(integrate_latent(synth, np.array([0.5, 0.5, 0.5]))[-1])
    )
    synth_eval = surrogate_objective(synth, synth_target)
    worst_fd_synth = 0.0
    for _ in range(5):
        mu = rng.uniform(0.2, 0.8, size=3)
        d = reduced_direct_gradient(synth, mu, synth_target)
        a = reduced_adjoint_gradient(synth, mu, synth_target)
        fd = fd_gradient(synth_eval, mu, h=1e-6)
        assert rel(d.gradient, a.gradient) <= 1e-10
        worst_fd_synth = max(worst_fd_synth, rel(a.gradient, fd.gradient))
    assert worst_fd_synth <= 1e-5

    # (c) full-order direct vs adjoint vs finite differences at benchmark
    # discretization; the FD oracle needs a Newton tolerance well below h^2
    fom_cfg = BurgersConfig(upwind="backward", newton_tol=1e-13)
    mu = np.array([0.8, 1.0, 0.8, 1.0])
    fd_obj = lambda mus: [
        np.sum((s.final_state() - target) ** 2) for s in fom_solve_batch(mus, fom_cfg)
    ]
    fom_d = fom_gradient_direct(mu, fom_cfg, target)
    fom_a = fom_gradient_adjoint(mu, fom_cfg, target)
    fom_fd = fd_gradient(fd_obj, mu, h=1e-6, block=True)
    fom_cross = rel(fom_d.gradient, fom_a.gradient)
    fom_vs_fd = max(rel(fom_a.gradient, fom_fd.gradient),
                    rel(fom_d.gradient, fom_fd.gradient))
    assert fom_cross <= 1e-10
    assert fom_vs_fd <= 1e-5

    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    report(
        5,
        f"reduced direct/adjoint {worst_cross:.1e} (<=1e-10), vs FD "
        f"{worst_fd_bench:.1e} bench / {worst_fd_synth:.1e} synthetic; "
        f"FOM direct/adjoint {fom_cross:.1e}, vs FD {fom_vs_fd:.1e}; "
        f"{elapsed:.0f}s (<= 120s)",
    )


def test_criterion_6_wendy_recovery_oracle(bench):
    t0 = time.perf_counter()
    grid = TimeGrid(5.0, 1000)
    z = np.exp(-grid.times())[:, None]
    lib = FeatureLibrary(latent_dim=1, degree=1)
    basis = build_test_functions(grid)
    w = wendy_fit(z, lib, basis).coefficients
    lin_err, const_err = abs(w[1, 0] + 1.0), abs(w[0, 0])
    assert lin_err <= 1e-4
    assert const_err <= 1e-4

    sigma = 0.2 * np.linalg.norm(z) / np.sqrt(z.size)
    w_true = np.array([[0.0], [-1.0]])
    weak_errs, strong_errs = [], []
    for seed in range(5):
        noisy = z + np.random.default_rng(seed).normal(0.0, sigma, z.shape)
        weak_errs.append(np.max(np.abs(wendy_fit(noisy, lib, basis).coefficients - w_true)))
        strong_errs.append(np.max(np.abs(sindy_fit(noisy, lib, grid).coefficients - w_true)))
    med_weak, med_strong = np.median(weak_errs), np.median(strong_errs)
    assert med_weak < med_strong
    elapsed = time.perf_counter() - t0
    report(
        6,
        f"noiseless recovery: linear {lin_err:.2e}, constant {const_err:.2e} "
        f"(<= 1e-4); 20% noise medians: weak {med_weak:.3f} < strong "
        f"{med_strong:.3f}; {elapsed:.1f}s",
    )


def test_criterion_7_provider_suite():
    rng = np.random.default_rng(77)
    params = rng.uniform(0.0, 1.0, size=(6, 2))
    coeffs = rng.normal(size=(6, 4, 3))
    tc = TrainingCoefficients(params, coeffs)
    providers = {
        "rbf": (fit_rbf(tc), 1e-8),
        "gp": (fit_gp(tc), 1e-6),
        "convex": (fit_convex(tc), 0.0),
    }
    scale = np.max(np.abs(coeffs))
    for name, (provider, tol) in providers.items():
        for mu, w in zip(params, coeffs):
            err = np.max(np.abs(provider.coefficients(mu) - w))
            assert err <= max(tol * scale, tol), f"{name} interpolation"

    worst = 0.0
    h = 1e-6
    for name, (provider, _) in providers.items():
        for mu in rng.uniform(0.15, 0.85, size=(10, 2)):
            analytic = provider.coefficient_gradients(mu)
            fd = np.empty_like(analytic)
            for i in range(2):
                up, down = mu.copy(), mu.copy()
                up[i] += h
                down[i] -= h
                fd[i] = (provider.coefficients(up) - provider.coefficients(down)) / (2 * h)
            err = np.max(np.abs(analytic - fd)) / max(np.max(np.abs(fd)), 1e-12)
            worst = max(worst, err)
            assert err <= 1e-5, f"{name} gradient vs FD"

    # global and implicit providers return exactly zero sensitivities
    grid = TimeGrid(1.0, 400)
    t = grid.times()
    latents = [np.exp(-m * t)[:, None] for m in (0.5, 1.0, 1.5)]
    basis = build_test_functions(grid)
    glob = GlobalCoefficients(
        wendy_fit(latents, FeatureLibrary(1, degree=1), basis).coefficients
    )
    impl = ImplicitCoefficients(
        wendy_fit(
            augment_latents(latents, np.array([[0.5], [1.0], [1.5]])),
            FeatureLibrary(1, degree=2, n_mu=1),
            basis,
        ).coefficients
    )
    for provider, n_mu in ((glob, 3), (impl, 1)):
        grads = provider.coefficient_gradients(np.zeros(n_mu))
        assert np.all(grads == 0.0)
    report(
        7,
        f"rbf/gp/convex interpolate training coefficients; analytic dW/dmu vs "
        f"FD worst {worst:.1e} (<= 1e-5) at 10 interior points each; "
        f"global/implicit gradients exactly zero",
    )


def test_criterion_8_integrator_suite():
    # observed RK4 order on a linear system against the exact exponential
    rng = np.random.default_rng(88)
    a = rng.normal(size=(3, 3))
    a -= (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(3)
    z0 = rng.normal(size=3)
    exact = expm(a) @ z0
    from conftest import identity_model

    w = np.vstack([np.zeros(3), a.T])
    errs = []
    for n in (10, 20, 40):
        model = identity_model(w, TimeGrid(1.0, n), z0)
        errs.append(np.linalg.norm(integrate_latent(model, np.zeros(1))[-1] - exact))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(abs(o - 4.0) <= 0.3 for o in orders)

    # integrated trajectories satisfy their residuals against the
    # reference step at working precision
    model = toy_model(provider_kind="rbf", degree=2, n_steps=30, seed=8)
    mu = np.array([0.45, 0.55])
    w_mu = model.provider.coefficients(mu)
    z = integrate_latent(model, mu, w_mu)
    res_worst = max(
        np.max(np.abs(z[n] - reference_rk_step(model, w_mu, z[n - 1])))
        for n in range(1, 31)
    )
    assert res_worst <= 1e-13 * max(1.0, np.max(np.abs(z)))

    # step partials against central differences of the step, in the state
    # at W(mu) and in mu through a frozen W
    dw = model.provider.coefficient_gradients(mu)
    zp = z[10]
    jac, jac_mu = StepOperator(model, w_mu, dw).linearize(zp)
    h = 1e-6
    worst = 0.0
    op = StepOperator(model, w_mu)
    for c in range(3):
        up, down = zp.copy(), zp.copy()
        up[c] += h
        down[c] -= h
        fd_z = (op.advance(up) - op.advance(down)) / (2 * h)
        worst = max(worst, np.max(np.abs(jac[:, c] - fd_z)))
    for i in range(2):
        up, down = mu.copy(), mu.copy()
        up[i] += h
        down[i] -= h
        fd_mu = (
            StepOperator(model, model.provider.coefficients(up)).advance(zp)
            - StepOperator(model, model.provider.coefficients(down)).advance(zp)
        ) / (2 * h)
        worst = max(worst, np.max(np.abs(jac_mu[:, i] - fd_mu)))
    assert worst <= 1e-6
    report(
        8,
        f"RK4 observed orders {orders[0]:.2f}, {orders[1]:.2f} (4 +/- 0.3); "
        f"max residual on integrated trajectory {res_worst:.1e}; "
        f"step partials vs FD worst {worst:.1e} (<= 1e-6)",
    )


def test_derivative_free_optimizers_recover_parameters(bench, wlasdi_noise_free):
    # not a numbered criterion: the simplex and evolutionary optimizers
    # find the same surrogate minimizer as the gradient path (E2 <= 1%
    # noise-free), at a higher evaluation cost
    cfg, target = bench["cfg"], bench["target"]
    for optimizer in ("nelder_mead", "de"):
        res = optimize_surrogate(wlasdi_noise_free.model, target, cfg, optimizer)
        score = evaluate_recovery(cfg, res.mu_hat, target, bench["cache"])
        assert score["E2_percent"] <= 1.0, optimizer


def test_full_scale_snapshot_round_trip(bench, tmp_path):
    # not a numbered criterion: bit-exact persistence of a real
    # benchmark-resolution trajectory
    from wlasdi import io as wio

    snap = bench["snapshots"][0]
    assert snap.data.shape == (1001, 1000)
    path = tmp_path / "traj.bin"
    wio.write_snapshot(snap, path)
    back = wio.read_snapshot(path)
    assert float(np.linalg.norm(back.data - snap.data)) == 0.0


def test_criterion_9_out_of_scope_benchmarks_documented():
    # The kinetic-plasma and radiative-transfer experiments need external
    # production solvers and cluster-scale budgets; the property suites in
    # criteria 5-8 cover the machinery those runs would exercise.
    report(
        9,
        "plasma two-stream and radiative-transfer benchmarks are excluded "
        "at desk scale by design; covered by the property suites above",
    )
