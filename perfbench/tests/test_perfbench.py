"""Fast tests of the benchmark on a coarse Burgers config.

Run from the repository root with ``python -m pytest perfbench/tests``.
They show that every workload passes its checks, that the traced run
reports every per-layer metric, and that each check fails when it is fed a
corrupted output.
"""
import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wlasdi import io as wio
from wlasdi.burgers import BurgersConfig, fom_gradient_adjoint, fom_gradient_direct
from wlasdi.core import TimeGrid
from wlasdi.pipeline import (
    ExperimentConfig,
    compute_target,
    generate_training_data,
    train_surrogate,
)
from wlasdi.rom import integrate_latent
from wlasdi.sensitivity import (
    TargetMismatch,
    reduced_adjoint_gradient,
    reduced_direct_gradient,
)

import checks
import workloads
from tracing import Tracer

RUN_PY = Path(__file__).resolve().parent.parent / "run.py"


def coarse_config() -> ExperimentConfig:
    """200 points x 100 steps, and a differential evolution cut to 252 evaluations."""
    cfg = ExperimentConfig(
        burgers=BurgersConfig(dx=0.1, grid=TimeGrid(1.0, 100), upwind="backward")
    )
    de = {"pop": 12, "max_gen": 20, "seed": 0}
    return dataclasses.replace(cfg, optimizers={**cfg.optimizers, "de": de})


@pytest.fixture(autouse=True)
def one_pass_per_stage(monkeypatch):
    monkeypatch.setattr(workloads, "MIN_PASSES", 1)
    monkeypatch.setattr(workloads, "ONCE_SECONDS", 0.0)


@pytest.fixture(scope="module")
def coarse():
    cfg = coarse_config()
    snaps = generate_training_data(cfg)
    target = compute_target(cfg)
    model = train_surrogate(cfg, snaps, 0.0, workloads.NOISE_SEED).model
    return cfg, snaps, target, model


def run(workload, tmp_path, trace=False, seed=0):
    return workloads.run_workload(
        workload, seed, 0.0, trace, tmp_path / "out", clock=lambda: 1.0, cfg=coarse_config()
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_passes_its_checks(workload, tmp_path):
    result = run(workload, tmp_path)
    assert result["messages"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 14
    assert set(result["metrics"]) == set(workloads.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (tmp_path / "out").exists()  # caches removed, nothing else left


def test_traced_run_reports_every_layer(tmp_path):
    result = run("inverse-gradient", tmp_path, trace=True, seed=4)
    assert result["messages"] == []
    metrics = result["metrics"]
    assert set(metrics) == set(workloads.PER_LAYER)
    assert metrics["burgers.fom_solve_calls"]["value"] == 17
    assert metrics["io.bytes_written"]["value"] == 17 * (24 + 101 * 200 * 8)
    assert metrics["optimize.bfgs_n_func"]["value"] > 0
    assert metrics["optimize.de_n_func"]["value"] == 12 * 21
    for name in ("sensitivity.reduced_adjoint_gradient_s", "rom.integrate_latent_s",
                 "weakform.wendy_fit_s", "optimize.self_s"):
        assert metrics[name]["value"] > 0, name
    assert (tmp_path / "out" / "trace.json").is_file()


def test_failed_check_counts_its_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "E2_MAX_CLEAN_PERCENT", 0.0)
    result = run("inverse-gradient", tmp_path)
    # bfgs/clean, nelder-mead/wlasdi and de miss the tightened gate
    assert result["failed"] == 3 and not result["correct"]
    assert result["attempted"] == 14


def test_tracer_self_time_excludes_children():
    tr = Tracer("t")
    tr.call("outer", lambda: tr.call("inner", lambda: sum(range(20000))))
    outer, inner = tr.spans
    assert inner.parent == 0 and outer.parent is None
    seg = tr.per_segment()["setup"]
    assert seg["outer_s"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start), abs=1e-12
    )
    assert seg["inner_calls"] == 1


def test_perturbed_trajectory_state_fails(coarse, tmp_path):
    cfg, snaps, _, _ = coarse
    b = cfg.burgers
    path = tmp_path / "snap.bin"
    wio.write_snapshot(snaps[3], path)
    data, meta = checks.read_wlsd(path)
    assert np.array_equal(data, snaps[3].data) and meta["mu"] == list(snaps[3].mu)
    args = (b.grid.dt, b.dx, b.upwind, b.newton_tol)
    assert checks.check_trajectory(data, *args) == []
    bad = data.copy()
    bad[40, 120] += 1e-6
    assert any("residual" in m for m in checks.check_trajectory(bad, *args))
    peak = data.copy()
    peak[60] += 1e-3 * (peak[60] == peak[60].max())  # raise the maximum only
    assert any("max_x u grows" in m for m in checks.check_trajectory(peak, *args))


def test_swapped_gradient_component_fails(coarse):
    cfg, _, target, model = coarse
    objective = TargetMismatch(target)
    mu = np.array([0.72, 1.08, 0.88, 0.93])
    direct = reduced_direct_gradient(model, mu, objective).gradient
    adjoint = reduced_adjoint_gradient(model, mu, objective).gradient
    fd = checks.central_differences(
        lambda m: objective.value(model.decode_state(integrate_latent(model, m)[-1])), mu
    )
    assert checks.check_gradients(direct, adjoint, fd) == []
    swapped = adjoint[[1, 0, 2, 3]]
    assert len(checks.check_gradients(direct, swapped, fd)) == 2


def test_out_of_gate_mu_hat_fails(coarse):
    cfg = coarse[0]
    mu_star = cfg.target_mu
    assert checks.check_recovery(mu_star, mu_star, 0.0, noisy=False) == []
    assert checks.check_recovery(1.02 * mu_star, mu_star, 0.0, noisy=False)
    assert checks.check_recovery(1.02 * mu_star, mu_star, 0.0, noisy=True) == []
    assert checks.check_recovery(1.03 * mu_star, mu_star, 0.0, noisy=True)
    assert checks.check_recovery(mu_star, mu_star, 0.02, noisy=False)
    assert checks.check_below("weak vs strong", 0.06, 0.01)


def test_fom_gradient_disagreement_fails(coarse):
    cfg, _, target, _ = coarse
    mu = cfg.domain.center()
    direct = fom_gradient_direct(mu, cfg.burgers, target).gradient
    adjoint = fom_gradient_adjoint(mu, cfg.burgers, target).gradient
    assert checks.check_agree("fom", direct, adjoint, checks.CROSS_TOL) == []
    assert checks.check_agree("fom", direct, adjoint[[0, 2, 1, 3]], checks.CROSS_TOL)


def test_exits_without_result_when_sources_are_missing(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    shutil.copy(RUN_PY, bench_dir / "run.py")
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", "offline-train",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
