"""Benchmark harness: training-data generation, surrogate training, inverse
problem optimization, and the noise x method x optimizer bench matrix.

The experiment reproduces an inverse problem for the Burgers model: recover
the initial-condition parameters mu so the state at the final time matches
a target generated at mu_star. Surrogates are trained on a factorial grid
of trajectories, optionally corrupted by additive Gaussian noise, and the
recovered parameters are always re-scored against the noise-free full-order
model (E2 = relative parameter error, f_true = FOM final-state mismatch).
"""
from __future__ import annotations

import csv
import hashlib
import inspect
import itertools
import json
import os
import time
import warnings
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import io as wio
from .burgers import (
    BurgersConfig,
    NewtonConvergenceError,
    fom_solve,
    fom_solve_batch,
    initial_condition,
    initial_condition_gradient,
)
from .core import (
    NoiseSpec,
    ParameterDomain,
    SnapshotMatrix,
    TimeGrid,
    inject_noise,
    relative_param_error,
)
from .features import FeatureLibrary
from .optimize import (
    OptProblem,
    OptResult,
    bfgs_minimize,
    check_options,
    differential_evolution,
    nelder_mead_minimize,
    rbf_objective_surrogate,
)
from .pod import load_reducer, pod_fit
from .providers import (
    GlobalCoefficients,
    ImplicitCoefficients,
    TrainingCoefficients,
    augment_latents,
    fit_convex,
    fit_gp,
    fit_rbf,
    load_provider,
    save_provider,
)
from .rom import (
    ButcherTableau,
    LatentBlowupError,
    LatentModel,
    StepOperator,
    predict_full,
)
from .sensitivity import TargetMismatch, surrogate_objective
from .weakform import build_test_functions, sindy_fit, wendy_fit

__all__ = [
    "ExperimentConfig",
    "TrainedSurrogate",
    "training_parameters",
    "generate_training_data",
    "compute_target",
    "train_surrogate",
    "optimize_surrogate",
    "evaluate_recovery",
    "rbf_objective_baseline",
    "measure_speedup",
    "run_bench",
    "save_model",
    "load_model",
    "REPORT_HEADER",
]

REPORT_HEADER = [
    "noise",
    "method",
    "optimizer",
    "E2_percent",
    "f_true",
    "train_s",
    "opt_s",
    "n_func",
    "n_grad",
]

_MINIMIZERS = {
    "bfgs": bfgs_minimize,
    "nelder_mead": nelder_mead_minimize,
    "de": differential_evolution,
}


@dataclass
class ExperimentConfig:
    burgers: BurgersConfig = field(default_factory=BurgersConfig)
    domain: ParameterDomain = field(
        default_factory=lambda: ParameterDomain(
            [0.7, 0.9, 0.7, 0.9], [0.9, 1.1, 0.9, 1.1]
        )
    )
    training_levels: tuple = ((0.7, 0.9), (0.9, 1.1), (0.7, 0.9), (0.9, 1.1))
    target_mu: np.ndarray = field(
        default_factory=lambda: np.array([0.75, 1.05, 0.85, 0.95])
    )
    noise_ratios: tuple = (0.0, 0.2, 0.4)
    noise_seeds: tuple = (101, 202, 303)
    noise_scale: str = "rms"
    # 9 is what the 99.99% singular-value energy rule selects on the
    # noise-free training set; it is pinned here so noisy runs (whose
    # inflated spectra would fool the energy rule) use the same basis size.
    reducer_energy: float | None = None
    reducer_latent_dim: int | None = 9
    reducer_center: bool = False
    library_degree: int = 1
    provider: str = "implicit"
    identification: str = "weak"
    test_functions: dict = field(
        default_factory=lambda: {"count": 200, "radius_frac": 0.1, "degree": 3}
    )
    tableau: str = "rk4"
    optimizers: dict = field(
        default_factory=lambda: {
            "bfgs": {"grad_tol": 1e-8, "max_iter": 200},
            "nelder_mead": {"tol": 1e-8, "max_iter": 5000},
            "de": {"pop": 20, "max_gen": 60, "seed": 0},
        }
    )
    seed: int = 7

    def __post_init__(self):
        self.target_mu = self.domain.validate(self.target_mu)
        if not self.domain.contains(self.target_mu):
            raise ValueError("target_mu must lie inside the parameter domain")
        if not self.training_levels or any(len(l) == 0 for l in self.training_levels):
            raise ValueError("training grid must be nonempty")
        if len(self.training_levels) != self.domain.ndim:
            raise ValueError("one level list per parameter component required")
        if self.provider not in ("implicit", "global", "rbf", "convex", "gp"):
            raise ValueError(f"unknown provider {self.provider!r}")
        if self.identification not in ("weak", "strong"):
            raise ValueError(f"unknown identification {self.identification!r}")
        if (self.reducer_energy is None) == (self.reducer_latent_dim is None):
            raise ValueError("set exactly one of reducer_energy/reducer_latent_dim")
        for name, opts in self.optimizers.items():
            if name not in _MINIMIZERS:
                raise ValueError(f"unknown optimizer {name!r}")
            accepted = set(inspect.signature(_MINIMIZERS[name]).parameters) - {"problem"}
            if not set(opts) <= accepted:
                raise ValueError(
                    f"unknown {name} options: {sorted(set(opts) - accepted)}"
                )
            check_options(name, **opts)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        raw = dict(raw)
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "burgers" in raw:
            raw["burgers"] = _burgers_from_dict({"t_final": 1.0, "steps": 1000,
                                                 **raw["burgers"]})
        if "domain" in raw:
            raw["domain"] = ParameterDomain(raw["domain"]["lower"], raw["domain"]["upper"])
        return cls(**raw)

    def to_dict(self) -> dict:
        out = {f.name: _plain(getattr(self, f.name)) for f in fields(self)}
        out["burgers"] = _burgers_to_dict(self.burgers)
        return out

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _plain(value):
    """``value`` for JSON: dataclasses as dicts of their fields, tuples and
    arrays as lists."""
    if isinstance(value, (tuple, list, np.ndarray)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    return value


def _burgers_to_dict(b: BurgersConfig) -> dict:
    """The fields in order, the time grid flattened into t_final and steps;
    the key order is part of the bytes of model.json."""
    out = {}
    for name, value in _plain(b).items():
        out.update(value if name == "grid" else {name: value})
    return out


def _burgers_from_dict(raw: dict) -> BurgersConfig:
    b = dict(raw)
    grid = TimeGrid(b.pop("t_final"), b.pop("steps"))
    return BurgersConfig(grid=grid, **b)


def training_parameters(cfg: ExperimentConfig) -> np.ndarray:
    """Factorial grid over the per-parameter level lists, lexicographic."""
    return np.array(list(itertools.product(*cfg.training_levels)), dtype=float)


def _fom_cache_key(cfg: ExperimentConfig, mu: np.ndarray) -> str:
    payload = json.dumps([_burgers_to_dict(cfg.burgers), list(mu)], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _write_atomically(snap: SnapshotMatrix, path: Path) -> None:
    """Write a snapshot so that ``path`` exists only once it is complete.

    The file and its sidecar are written under a temporary name in the same
    directory and renamed into place, the sidecar first.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        wio.write_snapshot(snap, tmp)
        os.replace(wio.sidecar_path(tmp), wio.sidecar_path(path))
        os.replace(tmp, path)
    finally:
        for leftover in (tmp, wio.sidecar_path(tmp)):
            leftover.unlink(missing_ok=True)


def _read_cached(cfg: ExperimentConfig, mu: np.ndarray, path: Path) -> SnapshotMatrix:
    """A cached trajectory, checked against the request its file name hashes."""
    snap = wio.read_snapshot(path)
    if (
        snap.mu is None
        or not np.array_equal(snap.mu, mu)
        or snap.grid != cfg.burgers.grid
        or snap.data.shape[1] != cfg.burgers.n_points
    ):
        mu_stored = None if snap.mu is None else snap.mu.tolist()
        raise wio.ConsistencyError(
            f"{path}: cached trajectory is for mu={mu_stored}, {snap.grid}, "
            f"{snap.data.shape[1]} points; requested mu={mu.tolist()}, "
            f"{cfg.burgers.grid}, {cfg.burgers.n_points} points"
        )
    return snap


def _solve_or_load(cfg: ExperimentConfig, mus, cache_dir: Path | None):
    """Trajectories for ``mus``: cache hits are read, the misses are solved
    as one batch and cached."""
    mus = [np.asarray(mu, float) for mu in mus]
    if cache_dir is None:
        return fom_solve_batch(mus, cfg.burgers)
    paths = [cache_dir / f"fom_{_fom_cache_key(cfg, mu)}.bin" for mu in mus]
    snaps = [
        _read_cached(cfg, mu, p) if p.exists() else None for mu, p in zip(mus, paths)
    ]
    misses = [k for k, snap in enumerate(snaps) if snap is None]
    if misses:
        cache_dir.mkdir(parents=True, exist_ok=True)
    for k, snap in zip(misses, fom_solve_batch([mus[k] for k in misses], cfg.burgers)):
        _write_atomically(snap, paths[k])
        snaps[k] = snap
    return snaps


def generate_training_data(cfg: ExperimentConfig, cache_dir=None) -> list[SnapshotMatrix]:
    """Noise-free training trajectories on the factorial grid, cached on disk."""
    cache = Path(cache_dir) if cache_dir else None
    return _solve_or_load(cfg, training_parameters(cfg), cache)


def compute_target(cfg: ExperimentConfig, cache_dir=None) -> np.ndarray:
    """Noise-free FOM final state at the target parameters."""
    cache = Path(cache_dir) if cache_dir else None
    return _solve_or_load(cfg, [cfg.target_mu], cache)[0].final_state()


def _noisy_copies(
    cfg: ExperimentConfig, snapshots, noise_ratio: float, noise_seed: int
):
    if noise_ratio == 0.0:
        return list(snapshots)
    out = []
    for k, snap in enumerate(snapshots):
        # per-trajectory substream: deterministic in (noise_seed, k)
        spec = NoiseSpec(noise_ratio, seed=noise_seed * (2**20) + k)
        out.append(inject_noise(snap, spec, scale=cfg.noise_scale))
    return out


@dataclass
class TrainedSurrogate:
    model: LatentModel
    latent_dim: int
    train_seconds: float
    identification: str
    provider: str
    noise_ratio: float
    noise_seed: int
    config_hash: str = ""


def train_surrogate(
    cfg: ExperimentConfig,
    snapshots,
    noise_ratio: float = 0.0,
    noise_seed: int | None = None,
    identification: str | None = None,
    provider: str | None = None,
) -> TrainedSurrogate:
    """Compression, dynamics identification, and coefficient-provider fit.

    ``snapshots`` are the noise-free training trajectories; noise is applied
    here so one generation pass serves every (ratio, seed) cell.
    """
    identification = identification or cfg.identification
    provider_kind = provider or cfg.provider
    noise_seed = cfg.noise_seeds[0] if noise_seed is None else noise_seed
    t0 = time.perf_counter()

    noisy = _noisy_copies(cfg, snapshots, noise_ratio, noise_seed)
    reducer = pod_fit(
        noisy,
        energy=cfg.reducer_energy,
        latent_dim=cfg.reducer_latent_dim,
        center=cfg.reducer_center,
    )
    latents = [reducer.encode(s.data) for s in noisy]
    params = training_parameters(cfg)
    grid = cfg.burgers.grid
    n_mu = cfg.domain.ndim if provider_kind == "implicit" else 0
    library = FeatureLibrary(
        latent_dim=reducer.latent_dim, degree=cfg.library_degree, n_mu=n_mu
    )

    if identification == "weak":
        basis = build_test_functions(grid, **cfg.test_functions)
        fit = lambda trajs: wendy_fit(trajs, library, basis).coefficients
    else:
        fit = lambda trajs: sindy_fit(trajs, library, grid).coefficients

    if provider_kind == "implicit":
        prov = ImplicitCoefficients(fit(augment_latents(latents, params)))
    elif provider_kind == "global":
        prov = GlobalCoefficients(fit(latents))
    else:
        coeffs = np.stack([fit([z]) for z in latents])
        tc = TrainingCoefficients(params, coeffs)
        prov = {"rbf": fit_rbf, "convex": fit_convex, "gp": fit_gp}[provider_kind](tc)

    return TrainedSurrogate(
        model=_burgers_latent_model(reducer, library, prov, cfg.burgers, cfg.tableau),
        latent_dim=reducer.latent_dim,
        train_seconds=time.perf_counter() - t0,
        identification=identification,
        provider=provider_kind,
        noise_ratio=noise_ratio,
        noise_seed=noise_seed,
        config_hash=cfg.config_hash(),
    )


def _burgers_latent_model(
    reducer, library: FeatureLibrary, provider, burgers: BurgersConfig, tableau: str
) -> LatentModel:
    """A latent model started from the Burgers initial condition g(mu)."""
    return LatentModel(
        reducer=reducer,
        library=library,
        provider=provider,
        grid=burgers.grid,
        initial_state=lambda mu: initial_condition(mu, burgers),
        initial_state_gradient=lambda mu, i: initial_condition_gradient(mu, i, burgers),
        tableau=ButcherTableau.named(tableau),
    )


def surrogate_problem(
    model: LatentModel, target: np.ndarray, cfg: ExperimentConfig
) -> OptProblem:
    evaluate = surrogate_objective(model, TargetMismatch(target))
    return OptProblem(
        domain=cfg.domain,
        evaluate=evaluate,
        gradient=evaluate.gradient,
        x0=cfg.domain.center(),
        evaluate_many=evaluate.values,
    )


def optimize_surrogate(
    model: LatentModel,
    target: np.ndarray,
    cfg: ExperimentConfig,
    optimizer: str = "bfgs",
) -> OptResult:
    if optimizer not in _MINIMIZERS:
        raise ValueError(f"unknown optimizer {optimizer!r}")
    problem = surrogate_problem(model, target, cfg)
    return _MINIMIZERS[optimizer](problem, **cfg.optimizers.get(optimizer, {}))


def evaluate_recovery(
    cfg: ExperimentConfig, mu_hat, target: np.ndarray, cache_dir=None
) -> dict:
    """Score a recovered parameter against the noise-free full-order model."""
    u_final = _solve_or_load(
        cfg, [mu_hat], Path(cache_dir) if cache_dir else None
    )[0].final_state()
    return {
        "E2_percent": 100.0 * relative_param_error(mu_hat, cfg.target_mu),
        "f_true": float(np.sum((u_final - target) ** 2)),
    }


def rbf_objective_baseline(
    cfg: ExperimentConfig,
    snapshots,
    target: np.ndarray,
    noise_ratio: float = 0.0,
    noise_seed: int | None = None,
):
    """Interpolate the (possibly noisy) training objectives over the domain.

    Returns (evaluator, train_seconds). The objective samples come from the
    same corrupted snapshots the latent surrogates train on, so the baseline
    degrades with noise exactly as the training data does.
    """
    noise_seed = cfg.noise_seeds[0] if noise_seed is None else noise_seed
    t0 = time.perf_counter()
    noisy = _noisy_copies(cfg, snapshots, noise_ratio, noise_seed)
    mus = training_parameters(cfg)
    fs = [float(np.sum((s.final_state() - target) ** 2)) for s in noisy]
    evaluator = rbf_objective_surrogate(mus, fs)
    return evaluator, time.perf_counter() - t0


def measure_speedup(cfg: ExperimentConfig, model: LatentModel, mu=None, repeats=3):
    """Median wall time of one full-order solve vs one surrogate prediction."""
    mu = cfg.target_mu if mu is None else np.asarray(mu, float)
    fom_times, rom_times = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fom_solve(mu, cfg.burgers)
        fom_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        predict_full(model, mu)
        rom_times.append(time.perf_counter() - t0)
    fom_med = float(np.median(fom_times))
    rom_med = float(np.median(rom_times))
    return {"fom_s": fom_med, "rom_s": rom_med, "speedup": fom_med / rom_med}


def _bench_row(cfg, target, cache_dir, noise_ratio, method, optimizer, res, train_s):
    score = evaluate_recovery(cfg, res.mu_hat, target, cache_dir)
    return {
        "noise": noise_ratio,
        "method": method,
        "optimizer": optimizer,
        "E2_percent": score["E2_percent"],
        "f_true": score["f_true"],
        "train_s": train_s,
        "opt_s": res.wall_seconds,
        "n_func": res.n_func,
        "n_grad": res.n_grad,
        "stop_reason": res.stop_reason,
        "mu_hat": list(res.mu_hat),
    }


# Numerical failures a bench cell records and skips; any other exception is
# a defect and ends the run.
_CELL_FAILURES = (
    LatentBlowupError,
    NewtonConvergenceError,
    np.linalg.LinAlgError,
    FloatingPointError,
)


def _bench_cell_rows(cfg, snapshots, target, noise_ratio, noise_seed, cache_dir):
    """One noise level's cells; numerical failures are recorded per cell and
    skipped."""
    rows, errors = [], []
    for method, identification in (("wlasdi", "weak"), ("lasdi", "strong")):
        try:
            trained = train_surrogate(
                cfg, snapshots, noise_ratio, noise_seed, identification=identification
            )
        except _CELL_FAILURES as exc:
            errors.append(
                {"noise": noise_ratio, "method": method,
                 "error": f"train: {type(exc).__name__}: {exc}"}
            )
            continue
        for optimizer in ("nelder_mead", "bfgs"):
            try:
                res = optimize_surrogate(trained.model, target, cfg, optimizer)
                rows.append(
                    _bench_row(cfg, target, cache_dir, noise_ratio, method,
                               optimizer, res, trained.train_seconds)
                )
            except _CELL_FAILURES as exc:
                errors.append(
                    {"noise": noise_ratio, "method": method, "optimizer": optimizer,
                     "error": f"{type(exc).__name__}: {exc}"}
                )
    try:
        evaluator, train_s = rbf_objective_baseline(
            cfg, snapshots, target, noise_ratio, noise_seed
        )
        problem = OptProblem(cfg.domain, evaluator, x0=cfg.domain.center())
        res = nelder_mead_minimize(problem, **cfg.optimizers.get("nelder_mead", {}))
        rows.append(
            _bench_row(cfg, target, cache_dir, noise_ratio, "rbf-objective",
                       "nelder_mead", res, train_s)
        )
    except _CELL_FAILURES as exc:
        errors.append(
            {"noise": noise_ratio, "method": "rbf-objective",
             "error": f"{type(exc).__name__}: {exc}"}
        )
    return rows, errors


def run_bench(cfg: ExperimentConfig, out_dir) -> list[dict]:
    """Noise x {wlasdi, lasdi, rbf-objective} x optimizer matrix.

    Writes report.csv (fixed header), run_meta.json (config + hash + errors)
    and per-noise final-state overlay data. Cell failures are recorded and
    the run continues.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cache_dir = out / "snapshots"
    # the training trajectories and the target in one batch
    *snapshots, target_snap = _solve_or_load(
        cfg, [*training_parameters(cfg), cfg.target_mu], cache_dir
    )
    target = target_snap.final_state()
    wio.write_matrix(
        out / "target.bin",
        target[None, :],
        {"kind": "target_state", "mu": list(cfg.target_mu)},
    )

    rows, errors = [], []
    seed = cfg.noise_seeds[0]
    for ratio in cfg.noise_ratios:
        cell_rows, cell_errors = _bench_cell_rows(
            cfg, snapshots, target, ratio, seed, cache_dir
        )
        rows.extend(cell_rows)
        errors.extend(cell_errors)

    with open(out / "report.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_HEADER, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)

    # final-state overlays for the weak-form gradient-based cells
    x = cfg.burgers.mesh()
    for row in rows:
        if row["method"] == "wlasdi" and row["optimizer"] == "bfgs":
            # evaluate_recovery has already solved and cached this mu_hat
            u_hat = _solve_or_load(cfg, [row["mu_hat"]], cache_dir)[0].final_state()
            overlay = np.column_stack([x, target, u_hat])
            label = f"{int(round(100 * row['noise']))}"
            np.savetxt(
                out / f"overlay_noise{label}.csv",
                overlay,
                delimiter=",",
                header="x,u_target,u_recovered",
                comments="",
            )

    meta = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "noise_seed": seed,
        "errors": errors,
        "rows": rows,
    }
    with open(out / "run_meta.json", "w") as fh:
        json.dump(meta, fh, indent=1)
    return rows


def save_model(trained: TrainedSurrogate, cfg: ExperimentConfig, out_dir) -> None:
    """Persist a trained surrogate bundle (reducer + provider + manifest)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trained.model.reducer.save(out / "reducer.bin")
    save_provider(trained.model.provider, out / "provider")
    manifest = {
        "kind": "latent_model_bundle",
        "burgers": _burgers_to_dict(cfg.burgers),
        "library": {
            "latent_dim": trained.model.library.latent_dim,
            "degree": trained.model.library.degree,
            "n_mu": trained.model.library.n_mu,
        },
        "tableau": cfg.tableau,
        "provider": trained.provider,
        "identification": trained.identification,
        "noise_ratio": trained.noise_ratio,
        "noise_seed": trained.noise_seed,
        "config_hash": trained.config_hash,
    }
    with open(out / "model.json", "w") as fh:
        json.dump(manifest, fh, indent=1)
    # wall-clock metric and diagnostics kept out of the manifest so
    # retraining with the same seed reproduces the model bundle byte for byte
    with open(out / "train_stats.json", "w") as fh:
        json.dump(_train_stats(trained, cfg), fh, indent=1)


def _train_stats(trained: TrainedSurrogate, cfg: ExperimentConfig) -> dict:
    """Training wall time and, for a degree-1 model, the spectrum of its
    RK step map at the domain centre; warns when that map grows states.
    When the step map does not depend on mu, also the bound
    max_n ||S^n||_inf that ``StepOperator.propagator`` certifies the
    final-time objective with."""
    stats = {"train_seconds": trained.train_seconds}
    model = trained.model
    mu = cfg.domain.center()
    op = StepOperator(model, model.provider.coefficients(mu))
    if op.affine:
        stats.update(op.spectrum())
        if not model.provider.parameter_dependent:
            stats["max_step_power_norm"] = op.propagator()[1]
        radius = stats["step_spectral_radius"]
        if radius > 1.0:
            warnings.warn(
                f"identified latent step map has spectral radius {radius:.6f} > 1 "
                f"at the domain centre: predictions grow over the horizon"
            )
    return stats


def load_model(model_dir) -> tuple[LatentModel, dict]:
    model_dir = Path(model_dir)
    with open(model_dir / "model.json") as fh:
        manifest = json.load(fh)
    if manifest.get("kind") != "latent_model_bundle":
        raise wio.ConsistencyError(f"{model_dir}: not a model bundle")
    lib = manifest["library"]
    library = FeatureLibrary(
        latent_dim=lib["latent_dim"], degree=lib["degree"], n_mu=lib["n_mu"]
    )
    model = _burgers_latent_model(
        load_reducer(model_dir / "reducer.bin"),
        library,
        load_provider(model_dir / "provider"),
        _burgers_from_dict(manifest["burgers"]),
        manifest["tableau"],
    )
    return model, manifest
