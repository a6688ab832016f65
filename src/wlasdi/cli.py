"""Command-line front end.

Subcommands: fom-run, train, predict, optimize, bench, gradcheck. A JSON
config file (--config) overrides the built-in benchmark defaults; --out
selects the output directory. Exit codes: 0 success, 1 usage or config
error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io as wio
from .burgers import NewtonConvergenceError, fom_solve
from .core import NoiseSpec, inject_noise
from .pipeline import (
    ExperimentConfig,
    compute_target,
    evaluate_recovery,
    generate_training_data,
    load_model,
    optimize_surrogate,
    run_bench,
    save_model,
    train_surrogate,
)
from .rom import LatentBlowupError, predict_full

USAGE_ERROR, NUMERICAL_ERROR = 1, 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def _parse_mu(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise SystemExit(USAGE_ERROR) from exc


def _load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    with open(path) as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def cmd_fom_run(cfg: ExperimentConfig, args) -> int:
    mu = _parse_mu(args.mu) if args.mu else cfg.target_mu
    snap = fom_solve(mu, cfg.burgers)
    if args.noise > 0.0:
        seed = cfg.seed if args.seed is None else args.seed
        snap = inject_noise(snap, NoiseSpec(args.noise, seed), cfg.noise_scale)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "fom_run.bin"
    wio.write_snapshot(snap, path)
    print(f"wrote {snap.data.shape[0]}x{snap.data.shape[1]} snapshot to {path}")
    return 0


def cmd_train(cfg: ExperimentConfig, args) -> int:
    out = Path(args.out)
    snapshots = generate_training_data(cfg, out / "snapshots")
    trained = train_surrogate(
        cfg,
        snapshots,
        noise_ratio=args.noise,
        noise_seed=args.seed,
        identification="strong" if args.strong_form else None,
    )
    model_dir = out / "model"
    save_model(trained, cfg, model_dir)
    print(
        f"trained {trained.identification}/{trained.provider} surrogate: "
        f"latent dim {trained.latent_dim}, {trained.train_seconds:.2f}s "
        f"-> {model_dir}"
    )
    return 0


def cmd_predict(cfg: ExperimentConfig, args) -> int:
    model, _ = load_model(args.model)
    mu = _parse_mu(args.mu) if args.mu else cfg.target_mu
    snap = predict_full(model, mu)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "prediction.bin"
    wio.write_snapshot(snap, path)
    print(f"wrote prediction to {path}")
    return 0


def cmd_optimize(cfg: ExperimentConfig, args) -> int:
    out = Path(args.out)
    model, manifest = load_model(args.model)
    target = compute_target(cfg, out / "snapshots")
    res = optimize_surrogate(model, target, cfg, optimizer=args.optimizer)
    score = evaluate_recovery(cfg, res.mu_hat, target, out / "snapshots")
    report = {
        "mu_hat": [float(v) for v in res.mu_hat],
        "f_surrogate": res.f_hat,
        "E2_percent": score["E2_percent"],
        "f_true": score["f_true"],
        "n_func": res.n_func,
        "n_grad": res.n_grad,
        "opt_s": res.wall_seconds,
        "converged": res.converged,
        "stop_reason": res.stop_reason,
        "optimizer": args.optimizer,
        "model": manifest.get("identification"),
    }
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "optimize_result.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report, indent=1))
    return 0


def cmd_bench(cfg: ExperimentConfig, args) -> int:
    rows = run_bench(cfg, args.out)
    print(f"wrote {len(rows)} report rows to {Path(args.out) / 'report.csv'}")
    for row in rows:
        print(
            f"  noise={row['noise']:.1f} {row['method']:13s} {row['optimizer']:11s} "
            f"E2={row['E2_percent']:8.4f}%  f_true={row['f_true']:.6f}"
        )
    return 0


def cmd_gradcheck(cfg: ExperimentConfig, args) -> int:
    # FD-vs-adjoint-vs-direct on a coarse full-order configuration and on a
    # small synthetic latent model with parameter-dependent coefficients.
    from .burgers import (
        BurgersConfig,
        fom_gradient_adjoint,
        fom_gradient_direct,
        fom_solve_batch,
    )
    from .core import TimeGrid
    from .sensitivity import (
        TargetMismatch,
        fd_gradient,
        reduced_adjoint_gradient,
        reduced_direct_gradient,
        surrogate_objective,
    )

    def rel(a, b):
        return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))

    failures = []
    coarse = BurgersConfig(
        dx=0.1, grid=TimeGrid(0.3, 30), upwind="backward", newton_tol=1e-13
    )
    target = fom_solve(np.array([0.75, 1.05, 0.85, 0.95]), coarse).final_state()
    mu = np.array([0.8, 1.0, 0.8, 1.0])
    traj = fom_solve(mu, coarse)
    fom_d = fom_gradient_direct(mu, coarse, target, traj)
    fom_a = fom_gradient_adjoint(mu, coarse, target, traj)
    fom_fd = fd_gradient(
        lambda mus: [float(np.sum((s.final_state() - target) ** 2))
                     for s in fom_solve_batch(mus, coarse)],
        mu,
        block=True,
    )
    checks = [
        ("fom direct vs adjoint", rel(fom_d.gradient, fom_a.gradient), 1e-10),
        ("fom adjoint vs fd", rel(fom_a.gradient, fom_fd.gradient), 1e-5),
    ]

    rng = np.random.default_rng(cfg.seed)
    from .features import FeatureLibrary
    from .pod import LinearReducer
    from .providers import TrainingCoefficients, fit_rbf
    from .rom import LatentModel, predict_full as rom_predict

    basis, _ = np.linalg.qr(rng.normal(size=(12, 3)))
    lib = FeatureLibrary(latent_dim=3, degree=2)
    coeffs = 0.3 * rng.normal(size=(5, lib.size, 3))
    coeffs[:, 1:4, :] -= 0.5 * np.eye(3)[None]
    provider = fit_rbf(TrainingCoefficients(rng.uniform(0, 1, size=(5, 2)), coeffs))
    a_map = rng.normal(size=(12, 2))
    model = LatentModel(
        reducer=LinearReducer(basis),
        library=lib,
        provider=provider,
        grid=TimeGrid(1.0, 40),
        initial_state=lambda m: np.tanh(m) @ a_map.T,
        initial_state_gradient=lambda m, i: a_map[:, i] * (1 - np.tanh(m[i]) ** 2),
    )
    objective = TargetMismatch(rom_predict(model, np.array([0.5, 0.5])).data[-1])
    mu2 = np.array([0.4, 0.6])
    rom_d = reduced_direct_gradient(model, mu2, objective)
    rom_a = reduced_adjoint_gradient(model, mu2, objective)
    rom_fd = fd_gradient(surrogate_objective(model, objective), mu2)
    checks += [
        ("reduced direct vs adjoint", rel(rom_d.gradient, rom_a.gradient), 1e-10),
        ("reduced adjoint vs fd", rel(rom_a.gradient, rom_fd.gradient), 1e-5),
    ]

    for name, err, tol in checks:
        status = "ok" if err <= tol else "FAIL"
        if err > tol:
            failures.append(name)
        print(f"{name:28s} max rel err {err:.3e}  (tol {tol:.0e})  {status}")
    return NUMERICAL_ERROR if failures else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="wlasdi", description=__doc__)
    parser.add_argument("--config", help="JSON config file overriding defaults")
    parser.add_argument("--out", default="runs", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fom-run", help="solve the full-order model, write snapshot")
    p.add_argument("--mu", help="comma-separated parameters (default: target)")
    p.add_argument("--noise", type=float, default=0.0)
    p.set_defaults(func=cmd_fom_run)

    p = sub.add_parser("train", help="train a surrogate model bundle")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--strong-form", action="store_true",
                   help="identify dynamics by derivative regression")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict a trajectory with a trained model")
    p.add_argument("--model", required=True, help="model bundle directory")
    p.add_argument("--mu")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("optimize", help="run the inverse problem on a surrogate")
    p.add_argument("--model", required=True)
    p.add_argument("--optimizer", default="bfgs",
                   choices=["bfgs", "nelder_mead", "de"])
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("bench", help="full noise x method x optimizer matrix")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        code = args.func(cfg, args)
    # Numerical errors first: LinAlgError subclasses ValueError.
    except (NewtonConvergenceError, LatentBlowupError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (OSError, json.JSONDecodeError, ValueError, KeyError,
            wio.FormatError, wio.ConsistencyError) as exc:
        print(f"config/usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
