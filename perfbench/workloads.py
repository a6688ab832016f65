"""The benchmark's workloads over the wlasdi pipeline.

Every run goes through the same five stages of the paper's cost story:

    offline       cold training data (16 + 1 Burgers solves written to a
                  fresh snapshot cache), a reload of that cache, and three
                  surrogate trainings (weak/0%, weak/40%, strong/40%)
    fom_gradient  one full-order direct and one adjoint gradient
    bfgs          BFGS with reduced adjoint gradients on the weak/0% and
                  weak/40% surrogates, plus reduced direct and adjoint
                  gradients at seeded points
    nelder_mead   Nelder-Mead on the weak/0% surrogate and on the
                  rbf-objective baseline
    de            differential evolution on the weak/0% surrogate

A workload names its own stages; they share ``--seconds`` of timed work.
Every other stage is timed for ``ONCE_SECONDS``; every stage makes at least
``MIN_PASSES`` passes, so each run still reports every end-to-end metric; for
``inverse-gradient`` the set-up is the first pass of the offline stage. The
stages are interleaved so that each one's passes spread over the whole run,
and every timed metric is the fastest of the run's samples: the host's
cores switch between a fast and a slow speed for seconds at a time, and the
fastest of passes made seconds apart is the one pass that met no slow
phase. Checks run after each pass, outside its timed region, and a check
that fails counts its operation as failed.

The untraced stages call the pipeline's entry points, as a user does. The
traced stages drive the same work through the layers' public functions in
the order ``train_surrogate`` and ``optimize_surrogate`` use them, with a
span around every call, and are checked against the pipeline's results.
"""
from __future__ import annotations

import dataclasses
import resource
import shutil
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from wlasdi import io as wio
from wlasdi.burgers import (
    BurgersConfig,
    fom_gradient_adjoint,
    fom_gradient_direct,
    fom_solve,
    initial_condition,
    initial_condition_gradient,
)
from wlasdi.core import NoiseSpec, TimeGrid, inject_noise
from wlasdi.features import FeatureLibrary
from wlasdi.optimize import (
    OptProblem,
    bfgs_minimize,
    differential_evolution,
    nelder_mead_minimize,
    rbf_objective_surrogate,
)
from wlasdi.pipeline import (
    ExperimentConfig,
    compute_target,
    evaluate_recovery,
    generate_training_data,
    optimize_surrogate,
    rbf_objective_baseline,
    train_surrogate,
    training_parameters,
)
from wlasdi.pod import pod_fit
from wlasdi.providers import ImplicitCoefficients, augment_latents
from wlasdi.rom import ButcherTableau, LatentModel, integrate_latent, predict_full
from wlasdi.sensitivity import (
    TargetMismatch,
    reduced_adjoint_gradient,
    reduced_direct_gradient,
)
from wlasdi.weakform import build_test_functions, sindy_fit, wendy_fit

import checks
from tracing import NullTracer, Tracer

STAGES = ("offline", "fom_gradient", "bfgs", "nelder_mead", "de")
WORKLOADS = {
    "offline-train": ("offline", "fom_gradient"),
    "inverse-gradient": ("bfgs",),
}
END_TO_END = {
    "setup_s": "s",
    "offline_s": "s",
    "fom_gradient_s": "s",
    "bfgs_clean_s": "s",
    "bfgs_noisy_s": "s",
    "nelder_mead_s": "s",
    "de_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "burgers.fom_solve_s": "s",
    "burgers.fom_solve_calls": "count",
    "burgers.fom_gradient_direct_s": "s",
    "burgers.fom_gradient_adjoint_s": "s",
    "io.write_snapshot_s": "s",
    "io.read_snapshot_s": "s",
    "io.bytes_written": "bytes",
    "core.inject_noise_s": "s",
    "pod.pod_fit_s": "s",
    "pod.encode_s": "s",
    "weakform.build_test_functions_s": "s",
    "weakform.wendy_fit_s": "s",
    "weakform.sindy_fit_s": "s",
    "pipeline.generate_training_data_s": "s",
    "pipeline.train_surrogate_s": "s",
    "rom.integrate_latent_s": "s",
    "rom.integrate_latent_calls": "count",
    "providers.coefficients_s": "s",
    "optimize.objective_s": "s",
    "sensitivity.reduced_adjoint_gradient_s": "s",
    "sensitivity.reduced_direct_gradient_s": "s",
    "sensitivity.reduced_adjoint_gradient_calls": "count",
    "optimize.gradient_s": "s",
    "optimize.bfgs_n_func": "count",
    "optimize.bfgs_n_grad": "count",
    "optimize.bfgs_useful_ratio": "ratio",
    "optimize.nelder_mead_n_func": "count",
    "optimize.de_n_func": "count",
    "optimize.self_s": "s",
    "pipeline.evaluate_recovery_s": "s",
    "trace.overhead_s": "s",
}
# Stage spans whose figure is their whole duration, not their self time.
_INCLUSIVE = (
    "pipeline.generate_training_data_s",
    "pipeline.train_surrogate_s",
    "pipeline.evaluate_recovery_s",
    "optimize.objective_s",
    "optimize.gradient_s",
)
_OPTIMIZER_SPANS = (
    "optimize.bfgs_minimize_s",
    "optimize.nelder_mead_minimize_s",
    "optimize.differential_evolution_s",
)

# The bench's own noise seed. BFGS's iteration count on the noisy surrogate
# depends on the noise draw, so it stays fixed rather than following --seed.
NOISE_SEED = 101
WEAK_CLEAN, WEAK_NOISY, STRONG_NOISY = ("weak", 0.0), ("weak", 0.4), ("strong", 0.4)
TRAIN_CELLS = (WEAK_CLEAN, WEAK_NOISY, STRONG_NOISY)
N_GRADIENT_POINTS = 2
# Every stage is timed at least this often in a run, so that each metric
# is the fastest of passes made seconds apart.
MIN_PASSES = 2
# A stage outside the workload's own also goes on until it has been timed
# this long, so that its fastest pass is drawn from a few seconds of work.
ONCE_SECONDS = 3.0
WLSD_HEADER_BYTES = 24


def bench_config() -> ExperimentConfig:
    """The default experiment on a 400-point, 150-step Burgers grid."""
    return ExperimentConfig(
        burgers=BurgersConfig(dx=0.05, grid=TimeGrid(1.0, 150), upwind="backward")
    )


def build_model(cfg: ExperimentConfig, reducer, library, provider) -> LatentModel:
    burgers = cfg.burgers
    return LatentModel(
        reducer=reducer,
        library=library,
        provider=provider,
        grid=burgers.grid,
        initial_state=lambda mu: initial_condition(mu, burgers),
        initial_state_gradient=lambda mu, i: initial_condition_gradient(mu, i, burgers),
        tableau=ButcherTableau.named(cfg.tableau),
    )


class Ledger:
    """Operations attempted and failed, with the failed checks' messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, op: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(f"{op}: {msg}" for msg in failures)


class Bench:
    def __init__(self, cfg: ExperimentConfig, seed: int, out_dir: Path):
        self.cfg = cfg
        self.out_dir = Path(out_dir)
        self.ledger = Ledger()
        self.tracer = NullTracer()
        self.timings: dict[str, list[float]] = defaultdict(list)
        self.objective = None
        self.snaps = self.target = None
        self.models: dict = {}
        rng = np.random.default_rng(seed)
        self.gradient_points = cfg.domain.sample(rng, N_GRADIENT_POINTS)
        de_opts = dict(cfg.optimizers.get("de", {}), seed=seed)
        self.de_cfg = dataclasses.replace(cfg, optimizers={**cfg.optimizers, "de": de_opts})
        self._caches = 0

    # -- stages ---------------------------------------------------------

    def run_stage(self, stage: str) -> float:
        """Run one stage with its checks; returns the seconds it was timed."""
        return getattr(self, f"_stage_{stage}")()

    def _stage_offline(self) -> float:
        cache = self.out_dir / f"cache{self._caches}"
        self._caches += 1
        t0 = time.perf_counter()
        if self.tracer.enabled:
            snaps, target = self._generate_traced(cache)
            models = {
                cell: self.tracer.call("pipeline.train_surrogate", self._train_traced, snaps, *cell)
                for cell in TRAIN_CELLS
            }
        else:
            generate_training_data(self.cfg, cache)
            target = compute_target(self.cfg, cache)
            snaps = generate_training_data(self.cfg, cache)  # reload from the cache
            models = {
                cell: train_surrogate(
                    self.cfg, snaps, cell[1], NOISE_SEED, identification=cell[0]
                ).model
                for cell in TRAIN_CELLS
            }
        elapsed = time.perf_counter() - t0
        self.timings["offline_s"].append(elapsed)
        self.snaps, self.target, self.models = snaps, target, models
        self.objective = TargetMismatch(target)
        self._check_offline(cache)
        shutil.rmtree(cache, ignore_errors=True)
        return elapsed

    def _stage_fom_gradient(self) -> float:
        cfg, tr = self.cfg, self.tracer
        mu = cfg.domain.center()
        t0 = time.perf_counter()
        direct = tr.call("burgers.fom_gradient_direct", fom_gradient_direct, mu, cfg.burgers, self.target)
        adjoint = tr.call("burgers.fom_gradient_adjoint", fom_gradient_adjoint, mu, cfg.burgers, self.target)
        elapsed = time.perf_counter() - t0
        self.timings["fom_gradient_s"].append(elapsed)
        self.ledger.record(
            "fom-gradient",
            checks.check_agree("FOM direct vs adjoint", direct.gradient, adjoint.gradient, checks.CROSS_TOL),
        )
        return elapsed

    def _stage_bfgs(self) -> float:
        tr, timed = self.tracer, 0.0
        for label, cell in (("clean", WEAK_CLEAN), ("noisy", WEAK_NOISY)):
            t0 = time.perf_counter()
            res = self._optimize(self.models[cell], "bfgs", self.cfg)
            elapsed = time.perf_counter() - t0
            self.timings[f"bfgs_{label}_s"].append(elapsed)
            timed += elapsed
            fs = [f for _, f in res.trace]
            tr.count("optimize.bfgs_n_func", res.n_func)
            tr.count("optimize.bfgs_n_grad", res.n_grad)
            tr.count("optimize.bfgs_useful", sum(b < a for a, b in zip(fs, fs[1:])))
            self._check_recovery(f"bfgs/{label}", res.mu_hat, noisy=label == "noisy")
        for label, cell in (("clean", WEAK_CLEAN), ("noisy", WEAK_NOISY)):
            model = self.models[cell]
            for k, mu in enumerate(self.gradient_points):
                t0 = time.perf_counter()
                direct = tr.call("sensitivity.reduced_direct_gradient", reduced_direct_gradient, model, mu, self.objective)
                adjoint = tr.call("sensitivity.reduced_adjoint_gradient", reduced_adjoint_gradient, model, mu, self.objective)
                timed += time.perf_counter() - t0
                fd = checks.central_differences(self._plain_objective(model), mu)
                self.ledger.record(
                    f"gradient/{label}/{k}",
                    checks.check_gradients(direct.gradient, adjoint.gradient, fd),
                )
        return timed

    def _stage_nelder_mead(self) -> float:
        cfg, tr = self.cfg, self.tracer
        t0 = time.perf_counter()
        res = self._optimize(self.models[WEAK_CLEAN], "nelder_mead", cfg)
        elapsed = time.perf_counter() - t0
        self.timings["nelder_mead_s"].append(elapsed)
        tr.count("optimize.nelder_mead_n_func", res.n_func)
        e2_wlasdi = self._check_recovery("nelder-mead/wlasdi", res.mu_hat, noisy=False)

        opts = cfg.optimizers.get("nelder_mead", {})
        t0 = time.perf_counter()
        if tr.enabled:
            fs = [float(np.sum((s.final_state() - self.target) ** 2)) for s in self.snaps]
            evaluator = tr.call(
                "optimize.rbf_objective_surrogate",
                rbf_objective_surrogate, training_parameters(cfg), fs,
            )
            problem = OptProblem(
                cfg.domain, lambda mu: tr.call("optimize.objective", evaluator, mu),
                x0=cfg.domain.center(),
            )
            res = tr.call("optimize.nelder_mead_minimize", nelder_mead_minimize, problem, **opts)
        else:
            evaluator, _ = rbf_objective_baseline(cfg, self.snaps, self.target, 0.0)
            problem = OptProblem(cfg.domain, evaluator, x0=cfg.domain.center())
            res = nelder_mead_minimize(problem, **opts)
        elapsed += time.perf_counter() - t0
        e2_rbf = checks.e2_percent(res.mu_hat, cfg.target_mu)
        self.ledger.record(
            "nelder-mead/rbf-objective",
            checks.check_below("WLaSDI E2 vs rbf-objective E2", e2_wlasdi, e2_rbf),
        )
        return elapsed

    def _stage_de(self) -> float:
        t0 = time.perf_counter()
        res = self._optimize(self.models[WEAK_CLEAN], "de", self.de_cfg)
        elapsed = time.perf_counter() - t0
        self.timings["de_s"].append(elapsed)
        self.tracer.count("optimize.de_n_func", res.n_func)
        self._check_recovery("de", res.mu_hat, noisy=False)
        return elapsed

    # -- traced paths through the layers' public functions -------------

    def _generate_traced(self, cache: Path):
        tr, cfg = self.tracer, self.cfg
        cache.mkdir(parents=True, exist_ok=True)
        stored = tr.call(
            "pipeline.generate_training_data",
            self._solve_and_store, training_parameters(cfg), cache, "train",
        )
        ((_, target),) = tr.call(
            "pipeline.compute_target", self._solve_and_store, [cfg.target_mu], cache, "target"
        )
        snaps = tr.call(
            "pipeline.generate_training_data",
            lambda: [tr.call("io.read_snapshot", wio.read_snapshot, p) for p, _ in stored],
        )
        return snaps, target.final_state()

    def _solve_and_store(self, mus, cache: Path, stem: str):
        """Solve and write each trajectory; returns (path, snapshot) pairs."""
        tr, out = self.tracer, []
        for k, mu in enumerate(mus):
            snap = tr.call("burgers.fom_solve", fom_solve, mu, self.cfg.burgers)
            path = cache / f"{stem}_{k:02d}.bin"
            tr.call("io.write_snapshot", wio.write_snapshot, snap, path)
            tr.count("io.bytes_written", WLSD_HEADER_BYTES + snap.data.nbytes)
            out.append((path, snap))
        return out

    def _train_traced(self, snaps, identification: str, noise: float) -> LatentModel:
        """``train_surrogate`` for the implicit provider, one layer call at a time."""
        tr, cfg = self.tracer, self.cfg
        if cfg.provider != "implicit":
            raise ValueError("the traced training drives the implicit provider only")
        noisy = list(snaps)
        if noise:
            noisy = [
                tr.call(
                    "core.inject_noise", inject_noise, snap,
                    NoiseSpec(noise, seed=NOISE_SEED * (2**20) + k), scale=cfg.noise_scale,
                )
                for k, snap in enumerate(snaps)
            ]
        reducer = tr.call(
            "pod.pod_fit", pod_fit, noisy, energy=cfg.reducer_energy,
            latent_dim=cfg.reducer_latent_dim, center=cfg.reducer_center,
        )
        latents = [tr.call("pod.encode", reducer.encode, s.data) for s in noisy]
        library = FeatureLibrary(
            latent_dim=reducer.latent_dim, degree=cfg.library_degree, n_mu=cfg.domain.ndim
        )
        augmented = tr.call(
            "providers.augment_latents", augment_latents, latents, training_parameters(cfg)
        )
        if identification == "weak":
            basis = tr.call(
                "weakform.build_test_functions", build_test_functions,
                cfg.burgers.grid, **cfg.test_functions,
            )
            fit = tr.call("weakform.wendy_fit", wendy_fit, augmented, library, basis)
        else:
            fit = tr.call("weakform.sindy_fit", sindy_fit, augmented, library, cfg.burgers.grid)
        return build_model(cfg, reducer, library, ImplicitCoefficients(fit.coefficients))

    def _optimize(self, model: LatentModel, optimizer: str, cfg: ExperimentConfig):
        tr = self.tracer
        if not tr.enabled:
            return optimize_surrogate(model, self.target, cfg, optimizer)
        objective = self.objective

        def evaluate(mu):
            w = tr.call("providers.coefficients", model.provider.coefficients, mu)
            z = tr.call("rom.integrate_latent", integrate_latent, model, mu, w)
            return objective.value(model.decode_state(z[-1]))

        def gradient(mu):
            return tr.call(
                "sensitivity.reduced_adjoint_gradient",
                reduced_adjoint_gradient, model, mu, objective,
            ).gradient

        problem = OptProblem(
            domain=cfg.domain,
            evaluate=lambda mu: tr.call("optimize.objective", evaluate, np.asarray(mu, float)),
            gradient=lambda mu: tr.call("optimize.gradient", gradient, mu),
            x0=cfg.domain.center(),
        )
        minimize = {
            "bfgs": bfgs_minimize,
            "nelder_mead": nelder_mead_minimize,
            "de": differential_evolution,
        }[optimizer]
        opts = cfg.optimizers.get(optimizer, {})
        return tr.call(f"optimize.{minimize.__name__}", minimize, problem, **opts)

    # -- checks ----------------------------------------------------------

    def _plain_objective(self, model: LatentModel):
        target = self.target
        return lambda mu: float(
            np.sum((model.decode_state(integrate_latent(model, mu)[-1]) - target) ** 2)
        )

    def _score(self, mu_hat) -> dict:
        return self.tracer.call(
            "pipeline.evaluate_recovery", evaluate_recovery,
            self.cfg, mu_hat, self.target, self.out_dir / "scores",
        )

    def _check_recovery(self, op: str, mu_hat, noisy: bool) -> float:
        score = self._score(mu_hat)
        e2 = checks.e2_percent(mu_hat, self.cfg.target_mu)
        failures = checks.check_recovery(mu_hat, self.cfg.target_mu, score["f_true"], noisy)
        failures += checks.check_agree("pipeline E2", score["E2_percent"], e2, 1e-9)
        self.ledger.record(op, failures)
        return e2

    def _check_offline(self, cache: Path) -> None:
        cfg, b = self.cfg, self.cfg.burgers
        mus = training_parameters(cfg)
        failures, stored = [], {}
        files = sorted(cache.glob("*.bin"))
        if len(files) != len(mus) + 1:
            failures.append(f"{len(files)} snapshot files, expected {len(mus) + 1}")
        for path in files:
            data, meta = checks.read_wlsd(path)
            stored[tuple(meta["mu"])] = data
            if data.shape != (b.grid.steps + 1, b.n_points):
                failures.append(f"{path.name}: shape {data.shape}")
                continue
            failures += [
                f"{path.name}: {msg}"
                for msg in checks.check_trajectory(data, b.grid.dt, b.dx, b.upwind, b.newton_tol)
            ]
        for mu, snap in zip(mus, self.snaps):
            data = stored.get(tuple(mu))
            if data is None or not np.array_equal(data, snap.data):
                failures.append(f"trajectory at mu={list(mu)} not stored as returned")
        reference = stored.get(tuple(cfg.target_mu))
        if reference is None or not np.array_equal(reference[-1], self.target):
            failures.append("target state not stored as returned")
        self.ledger.record("generate", failures)
        if reference is None:
            return

        if self.tracer.enabled:
            pipeline_models = {
                cell: train_surrogate(cfg, self.snaps, cell[1], NOISE_SEED, identification=cell[0]).model
                for cell in TRAIN_CELLS
            }
        predictions = {
            cell: predict_full(model, cfg.target_mu).data for cell, model in self.models.items()
        }
        errors = {
            cell: checks.relative_difference(pred, reference) for cell, pred in predictions.items()
        }
        for cell, model in self.models.items():
            failures = checks.check_orthonormal(model.reducer.basis)
            if cell == WEAK_NOISY:
                failures += checks.check_below(
                    "weak vs strong trajectory error at 40% noise",
                    errors[WEAK_NOISY], errors[STRONG_NOISY],
                )
            if self.tracer.enabled:
                failures += checks.check_agree(
                    "traced vs pipeline prediction", predictions[cell],
                    predict_full(pipeline_models[cell], cfg.target_mu).data, 1e-10,
                )
            self.ledger.record(f"train/{cell[0]}/{int(round(100 * cell[1]))}", failures)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_schedule(bench: Bench, focal, seconds: float, tracer: Tracer | None, timed):
    """Interleave the stages until each has made its passes.

    Every stage makes ``MIN_PASSES`` passes; the workload's own stages go on
    until they have shared ``seconds`` of timed work, every other stage
    until it has been timed for ``ONCE_SECONDS``. The next pass always
    goes to the stage furthest from done, so each metric's samples spread
    over the whole run. In a traced run each pass of an own stage is
    preceded by an untraced pass, and every traced pass is its own span
    segment. ``timed`` holds the seconds of passes already made (the
    set-up's offline stage); it is extended in place. Returns the untraced
    passes' seconds and the peak resident set once every stage has made its
    first pass: later passes only reuse memory, but the allocator's
    high-water mark keeps creeping with their number, which depends on the
    host's speed.
    """
    budget = {s: seconds / len(focal) if s in focal else ONCE_SECONDS for s in STAGES}
    plain = defaultdict(list)
    rss_mb = None

    def progress(stage):
        share = sum(timed[stage]) / budget[stage] if budget[stage] else 1.0
        return min(len(timed[stage]) / MIN_PASSES, share)

    while True:
        if rss_mb is None and all(timed[s] for s in STAGES):
            rss_mb = peak_rss_mb()
        todo = [s for s in STAGES if progress(s) < 1.0]
        if not todo:
            return plain, rss_mb
        stage = min(todo, key=progress)
        if tracer:
            if stage in focal:
                bench.tracer = NullTracer()
                plain[stage].append(bench.run_stage(stage))
                bench.tracer = tracer
            tracer.segment(f"{stage}-{len(timed[stage])}")
        timed[stage].append(bench.run_stage(stage))


def run_workload(workload, seed, seconds, trace, out_dir, clock, cfg=None) -> dict:
    """Run one workload and return the benchmark's result object.

    ``clock()`` gives seconds since the process started; it times set-up.
    """
    focal = WORKLOADS[workload]
    bench = Bench(cfg or bench_config(), seed, out_dir)
    tracer = Tracer(run_id=f"{workload}-seed{seed}") if trace else None
    if tracer:
        bench.tracer = tracer
    try:
        timed = defaultdict(list)
        if "offline" not in focal:
            if tracer:
                tracer.segment("offline-0")
            timed["offline"].append(bench.run_stage("offline"))
        setup_s = clock()

        plain, rss_mb = _run_schedule(bench, focal, seconds, tracer, timed)

        if tracer:
            summary = tracer.summary()
            values = {}
            for name in PER_LAYER:
                key = name[:-2] + "_incl_s" if name in _INCLUSIVE else name
                values[name] = summary.get(key, 0.0)
            values["optimize.self_s"] = sum(summary.get(n, 0.0) for n in _OPTIMIZER_SPANS)
            n_func = summary.get("optimize.bfgs_n_func", 0.0)
            values["optimize.bfgs_useful_ratio"] = (
                summary.get("optimize.bfgs_useful", 0.0) / n_func if n_func else 0.0
            )
            values["trace.overhead_s"] = sum(
                min(timed[stage]) - min(plain[stage]) for stage in focal
            )
            tracer.write(Path(out_dir) / "trace.json")
            metrics = {n: {"value": values[n], "unit": PER_LAYER[n]} for n in PER_LAYER}
        else:
            values = {name: min(v) for name, v in bench.timings.items()}
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = rss_mb
            metrics = {n: {"value": values[n], "unit": END_TO_END[n]} for n in END_TO_END}
    finally:
        for path in Path(out_dir).glob("cache*"):
            shutil.rmtree(path, ignore_errors=True)
        shutil.rmtree(Path(out_dir) / "scores", ignore_errors=True)
        if Path(out_dir).is_dir() and not any(Path(out_dir).iterdir()):
            Path(out_dir).rmdir()

    ledger = bench.ledger
    return {
        "correct": not ledger.messages,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
        "messages": ledger.messages,
    }
