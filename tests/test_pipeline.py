import dataclasses
import hashlib
import json
import shutil
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from wlasdi.pipeline import (
    REPORT_HEADER,
    ExperimentConfig,
    compute_target,
    evaluate_recovery,
    generate_training_data,
    load_model,
    optimize_surrogate,
    rbf_objective_baseline,
    run_bench,
    save_model,
    train_surrogate,
    training_parameters,
)
from wlasdi import io as wio
from wlasdi import pipeline
from wlasdi.burgers import BurgersConfig, fom_solve
from wlasdi.core import TimeGrid
from wlasdi.providers import ImplicitCoefficients
from wlasdi.rom import LatentBlowupError, StepOperator, predict_full


def tiny_config(**overrides) -> ExperimentConfig:
    """Coarse, fast experiment used by pipeline/CLI tests."""
    raw = {
        "burgers": {
            "dx": 0.1,
            "t_final": 0.3,
            "steps": 60,
            "upwind": "backward",
            "newton_tol": 1e-12,
        },
        "training_levels": [[0.7, 0.9], [0.9, 1.1], [0.7, 0.9], [0.9, 1.1]],
        "reducer_latent_dim": 5,
        "test_functions": {"count": 40, "radius_frac": 0.1, "degree": 3},
        "optimizers": {
            "bfgs": {"grad_tol": 1e-6, "max_iter": 60},
            "nelder_mead": {"tol": 1e-6, "max_iter": 400},
            "de": {"pop": 8, "max_gen": 10, "seed": 0},
        },
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


@pytest.fixture(scope="module")
def tiny_setup(tmp_path_factory):
    cache = tmp_path_factory.mktemp("fom_cache")
    cfg = tiny_config()
    snaps = generate_training_data(cfg, cache)
    target = compute_target(cfg, cache)
    return cfg, snaps, target, cache


class TestConfig:
    def test_roundtrip_and_hash_stability(self):
        cfg = tiny_config()
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()
        assert again.config_hash() == cfg.config_hash()

    def test_hashes_and_cache_keys_pinned(self):
        # cache files and bundles written by earlier versions stay valid;
        # the second config is the benchmark's (perfbench bench_config)
        default = ExperimentConfig()
        bench = ExperimentConfig(
            burgers=BurgersConfig(dx=0.05, grid=TimeGrid(1.0, 150), upwind="backward")
        )
        assert default.config_hash() == "c6be64c94bfb"
        assert bench.config_hash() == "504422f8ffd2"
        assert pipeline._fom_cache_key(default, default.target_mu) == "78f16b562f5e"
        assert pipeline._fom_cache_key(bench, bench.target_mu) == "4f9f2e2f15a0"
        for cfg in (default, bench):
            assert ExperimentConfig.from_dict(cfg.to_dict()).config_hash() == cfg.config_hash()

    def test_hash_changes_with_config(self):
        a = tiny_config()
        b = tiny_config(reducer_latent_dim=4)
        assert a.config_hash() != b.config_hash()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"not_a_key": 1})

    @pytest.mark.parametrize(
        "optimizers, message",
        [({"lbfgs": {}}, "unknown optimizer 'lbfgs'"),
         ({"nelder_mead": {"no_such_option": 1}}, r"unknown nelder_mead options: \['no_such_option'\]"),
         ({"de": {"problem": None}}, "unknown de options")],
    )
    def test_unknown_optimizer_options_rejected(self, optimizers, message):
        # a bench cell no longer records a TypeError, so the config says it
        with pytest.raises(ValueError, match=message):
            tiny_config(optimizers=optimizers)

    def test_target_must_be_inside_domain(self):
        with pytest.raises(ValueError):
            ExperimentConfig(target_mu=np.array([0.1, 1.0, 0.8, 1.0]))

    def test_training_grid_shape(self):
        cfg = ExperimentConfig()
        mus = training_parameters(cfg)
        assert mus.shape == (16, 4)
        # lexicographic factorial order, first coordinate slowest
        assert_array_equal(mus[0], [0.7, 0.9, 0.7, 0.9])
        assert_array_equal(mus[-1], [0.9, 1.1, 0.9, 1.1])
        assert len(np.unique(mus, axis=0)) == 16


class TestTrainingData:
    def test_stale_cache_hit_is_refused(self, tiny_setup, tmp_path):
        # a trajectory filed under another mu's key is not returned for it
        cfg, _, _, cache = tiny_setup
        stale = tmp_path / "cache"
        stale.mkdir()
        mus = training_parameters(cfg)
        src = cache / f"fom_{pipeline._fom_cache_key(cfg, mus[0])}.bin"
        dst = stale / f"fom_{pipeline._fom_cache_key(cfg, mus[1])}.bin"
        shutil.copy(src, dst)
        shutil.copy(wio.sidecar_path(src), wio.sidecar_path(dst))
        with pytest.raises(wio.ConsistencyError, match="cached trajectory"):
            evaluate_recovery(cfg, mus[1], np.zeros(200), stale)
        # the same file under its own key is a valid hit
        evaluate_recovery(cfg, mus[0], np.zeros(200), cache)

    def test_cache_hit_from_another_grid_is_refused(self, tiny_setup, tmp_path):
        cfg, _, _, _ = tiny_setup
        stale = tmp_path / "cache"
        stale.mkdir()
        mu = cfg.target_mu
        coarse = dataclasses.replace(
            cfg.burgers, grid=TimeGrid(cfg.burgers.grid.t_final, 30)
        )
        dst = stale / f"fom_{pipeline._fom_cache_key(cfg, mu)}.bin"
        wio.write_snapshot(fom_solve(mu, coarse), dst)
        with pytest.raises(wio.ConsistencyError, match="cached trajectory"):
            compute_target(cfg, stale)

    def test_shapes_and_cache(self, tiny_setup, tmp_path):
        cfg, snaps, _, _ = tiny_setup
        assert len(snaps) == 16
        assert snaps[0].data.shape == (61, 200)
        cache = tmp_path / "cache"
        first = generate_training_data(cfg, cache)
        files = sorted(p.name for p in cache.glob("*.bin"))
        second = generate_training_data(cfg, cache)
        assert sorted(p.name for p in cache.glob("*.bin")) == files
        for a, b in zip(first, second):
            assert_array_equal(a.data, b.data)

    def test_batch_generation_matches_single_solves(self, tiny_setup):
        cfg, _, _, _ = tiny_setup
        batch = generate_training_data(cfg, None)
        mus = training_parameters(cfg)
        assert len(batch) == len(mus)
        for mu, snap in zip(mus, batch):
            assert_array_equal(snap.data, fom_solve(mu, cfg.burgers).data)

    def test_interrupted_cache_write_leaves_no_file(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        cache = tmp_path / "cache"
        write = wio.write_matrix

        def write_part_then_fail(path, array, meta=None):
            with open(path, "wb") as fh:
                fh.write(b"WLSD")
            raise OSError("disk full")

        monkeypatch.setattr(wio, "write_matrix", write_part_then_fail)
        with pytest.raises(OSError, match="disk full"):
            compute_target(cfg, cache)
        assert list(cache.iterdir()) == []

        monkeypatch.setattr(wio, "write_matrix", write)
        solved = []
        solve = pipeline.fom_solve_batch
        monkeypatch.setattr(
            pipeline, "fom_solve_batch",
            lambda mus, cfg: solved.extend(mus) or solve(mus, cfg),
        )
        target = compute_target(cfg, cache)
        assert len(solved) == 1
        assert len(list(cache.glob("fom_*.bin"))) == 1
        assert_array_equal(compute_target(cfg, cache), target)
        assert len(solved) == 1


def bundle_digest(path):
    digest = hashlib.sha256()
    for f in sorted(path.rglob("*")):
        if f.is_file() and f.name != "train_stats.json":  # wall time varies
            digest.update(f.name.encode())
            digest.update(f.read_bytes())
    return digest.hexdigest()


class TestTrainSurrogate:
    def test_deterministic_model_bytes(self, tiny_setup, tmp_path):
        cfg, snaps, _, _ = tiny_setup
        a = train_surrogate(cfg, snaps, noise_ratio=0.2, noise_seed=5)
        b = train_surrogate(cfg, snaps, noise_ratio=0.2, noise_seed=5)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        save_model(a, cfg, dir_a)
        save_model(b, cfg, dir_b)
        assert bundle_digest(dir_a) == bundle_digest(dir_b)

    def test_noise_seed_changes_model(self, tiny_setup, tmp_path):
        cfg, snaps, _, _ = tiny_setup
        a = train_surrogate(cfg, snaps, noise_ratio=0.2, noise_seed=5)
        b = train_surrogate(cfg, snaps, noise_ratio=0.2, noise_seed=6)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        save_model(a, cfg, dir_a)
        save_model(b, cfg, dir_b)
        assert bundle_digest(dir_a) != bundle_digest(dir_b)

    def test_strong_form_flag(self, tiny_setup):
        cfg, snaps, _, _ = tiny_setup
        trained = train_surrogate(cfg, snaps, identification="strong")
        assert trained.identification == "strong"
        assert trained.model.provider.strategy == "implicit"

    def test_save_load_round_trip(self, tiny_setup, tmp_path):
        cfg, snaps, _, _ = tiny_setup
        trained = train_surrogate(cfg, snaps)
        save_model(trained, cfg, tmp_path / "model")
        model, manifest = load_model(tmp_path / "model")
        mu = np.array([0.8, 1.0, 0.8, 1.0])
        assert_allclose(
            predict_full(model, mu).data,
            predict_full(trained.model, mu).data,
            atol=1e-12,
        )
        assert manifest["identification"] == "weak"

    @pytest.mark.parametrize("provider", ["global", "rbf", "convex", "gp"])
    def test_save_load_round_trip_per_provider(self, tiny_setup, tmp_path, provider):
        cfg, snaps, _, _ = tiny_setup
        with warnings.catch_warnings():
            # per-trajectory fits on the tiny grid are rank-deficient, and
            # their step maps may grow
            warnings.simplefilter("ignore", UserWarning)
            trained = train_surrogate(cfg, snaps, provider=provider)
            save_model(trained, cfg, tmp_path / "model")
        model, manifest = load_model(tmp_path / "model")
        assert manifest["provider"] == model.provider.strategy == provider
        mu = np.array([0.8, 1.0, 0.8, 1.0])
        assert_array_equal(model.provider.coefficients(mu),
                           trained.model.provider.coefficients(mu))
        assert_array_equal(model.provider.coefficient_gradients(mu),
                           trained.model.provider.coefficient_gradients(mu))
        # per-trajectory fits on the tiny grid blow up when integrated, so
        # the rest of the model is compared part by part
        assert model.library == trained.model.library
        assert model.grid == trained.model.grid
        assert_array_equal(model.reducer.basis, trained.model.reducer.basis)
        assert_array_equal(model.initial_state(mu), trained.model.initial_state(mu))

    def test_train_stats_report_step_spectrum(self, tiny_setup, tmp_path):
        cfg, snaps, _, _ = tiny_setup
        trained = train_surrogate(cfg, snaps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            save_model(trained, cfg, tmp_path / "model")
        stats = json.loads((tmp_path / "model" / "train_stats.json").read_text())
        model = trained.model
        op = StepOperator(model, model.provider.coefficients(cfg.domain.center()))
        assert stats["step_spectral_radius"] == pytest.approx(
            np.max(np.abs(np.linalg.eigvals(op.matrix))), rel=1e-12
        )
        assert np.isfinite(stats["max_real_eig"])
        assert stats["max_step_power_norm"] == op.propagator()[1]
        assert 1.0 <= stats["max_step_power_norm"] < 1e6
        manifest = json.loads((tmp_path / "model" / "model.json").read_text())
        assert "step_spectral_radius" not in manifest
        assert "max_step_power_norm" not in manifest

    def test_train_stats_omit_power_norm_for_mu_dependent_steps(
        self, tiny_setup, tmp_path
    ):
        cfg, snaps, _, _ = tiny_setup
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            trained = train_surrogate(cfg, snaps, provider="rbf")
            save_model(trained, cfg, tmp_path / "model")
        stats = json.loads((tmp_path / "model" / "train_stats.json").read_text())
        assert "step_spectral_radius" in stats
        assert "max_step_power_norm" not in stats

    def test_growing_step_map_warns(self, tiny_setup, tmp_path):
        cfg, snaps, _, _ = tiny_setup
        trained = train_surrogate(cfg, snaps)
        w = trained.model.provider.coefficients(cfg.domain.center()).copy()
        w[1:] += np.eye(w.shape[1])  # shift the linear part: eigenvalues +1
        trained.model = dataclasses.replace(
            trained.model, provider=ImplicitCoefficients(w)
        )
        with pytest.warns(UserWarning, match="spectral radius"):
            save_model(trained, cfg, tmp_path / "model")

    def test_provider_variants_train(self, tiny_setup):
        cfg, snaps, _, _ = tiny_setup
        for provider in ("global", "rbf", "convex", "gp"):
            with warnings.catch_warnings():
                # per-trajectory fits on the tiny grid are rank-deficient
                warnings.simplefilter("ignore", UserWarning)
                trained = train_surrogate(cfg, snaps, provider=provider)
            assert trained.model.provider.strategy == provider


class TestRecoveryScoring:
    def test_exact_recovery_scores_zero(self, tiny_setup):
        cfg, _, target, cache = tiny_setup
        score = evaluate_recovery(cfg, cfg.target_mu, target, cache)
        assert score["E2_percent"] == 0.0
        assert score["f_true"] == pytest.approx(0.0, abs=1e-18)

    def test_rbf_baseline_interpolates_noise_free_objectives(self, tiny_setup):
        cfg, snaps, target, _ = tiny_setup
        evaluator, train_s = rbf_objective_baseline(cfg, snaps, target)
        mus = training_parameters(cfg)
        for mu, snap in zip(mus[:4], snaps[:4]):
            expected = float(np.sum((snap.final_state() - target) ** 2))
            assert evaluator(mu) == pytest.approx(expected, abs=1e-8)
        assert train_s >= 0.0


class TestBench:
    def test_empty_noise_list_writes_header_only(self, tmp_path):
        cfg = tiny_config(noise_ratios=[])
        rows = run_bench(cfg, tmp_path / "bench")
        assert rows == []
        report = (tmp_path / "bench" / "report.csv").read_text().strip()
        assert report == ",".join(REPORT_HEADER)

    def test_cell_failures_recorded_and_run_continues(self, tmp_path, monkeypatch):
        # a numerical failure in the derivative-free optimizer: its cells
        # fail and are logged per cell while the gradient-based cells report
        def blow_up(problem, **opts):
            raise LatentBlowupError(3, 1e9)

        monkeypatch.setattr(pipeline, "nelder_mead_minimize", blow_up)
        monkeypatch.setitem(pipeline._MINIMIZERS, "nelder_mead", blow_up)
        cfg = tiny_config(
            noise_ratios=[0.0],
            optimizers={"bfgs": {"grad_tol": 1e-6, "max_iter": 40}},
        )
        rows = run_bench(cfg, tmp_path / "bench")
        assert {r["optimizer"] for r in rows} == {"bfgs"}
        assert len(rows) == 2  # wlasdi + lasdi gradient cells
        meta = json.loads((tmp_path / "bench" / "run_meta.json").read_text())
        assert len(meta["errors"]) == 3  # two simplex cells + the baseline
        assert all("LatentBlowupError" in e["error"] for e in meta["errors"])

    @pytest.mark.parametrize(
        "error", [LatentBlowupError(3, 1e9), np.linalg.LinAlgError("singular"),
                  FloatingPointError("overflow")],
    )
    def test_numerical_optimizer_failure_is_recorded(self, tmp_path, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(pipeline, "optimize_surrogate", fail)
        rows = run_bench(tiny_config(noise_ratios=[0.0]), tmp_path / "bench")
        assert [r["method"] for r in rows] == ["rbf-objective"]
        meta = json.loads((tmp_path / "bench" / "run_meta.json").read_text())
        assert len(meta["errors"]) == 4  # two methods x two optimizers
        assert all(type(error).__name__ in e["error"] for e in meta["errors"])

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("unexpected keyword argument")

        monkeypatch.setattr(pipeline, "optimize_surrogate", broken)
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_bench(tiny_config(noise_ratios=[0.0]), tmp_path / "bench")
        assert not (tmp_path / "bench" / "report.csv").exists()

    def test_single_noise_cell_matrix(self, tmp_path):
        cfg = tiny_config(noise_ratios=[0.0])
        rows = run_bench(cfg, tmp_path / "bench")
        methods = sorted({(r["method"], r["optimizer"]) for r in rows})
        assert methods == [
            ("lasdi", "bfgs"),
            ("lasdi", "nelder_mead"),
            ("rbf-objective", "nelder_mead"),
            ("wlasdi", "bfgs"),
            ("wlasdi", "nelder_mead"),
        ]
        meta = json.loads((tmp_path / "bench" / "run_meta.json").read_text())
        assert meta["config_hash"] == cfg.config_hash()
        assert meta["errors"] == []
        assert (tmp_path / "bench" / "overlay_noise0.csv").exists()
        assert (tmp_path / "bench" / "target.bin").exists()
        for row in rows:
            assert np.isfinite(row["E2_percent"])
        assert [r["stop_reason"] for r in meta["rows"]] == [r["stop_reason"] for r in rows]
        assert {r["stop_reason"] for r in rows} <= {"gradient", "line_search",
                                                    "max_iter", "tolerance"}

    def test_overlays_reuse_cached_solves(self, tmp_path, monkeypatch):
        # every trajectory solved is of a new mu and lands in the cache: the
        # overlays read the mu_hat solves that evaluate_recovery cached
        solved = []
        solve = pipeline.fom_solve_batch
        monkeypatch.setattr(
            pipeline, "fom_solve_batch",
            lambda mus, cfg: solved.extend(mus) or solve(mus, cfg),
        )
        cfg = tiny_config(noise_ratios=[0.0, 0.2, 0.4])
        rows = run_bench(cfg, tmp_path / "bench")
        cached = list((tmp_path / "bench" / "snapshots").glob("fom_*.bin"))
        assert len(solved) == len(cached)
        assert len(list((tmp_path / "bench").glob("overlay_noise*.csv"))) == 3
        assert len(rows) == 15


class TestOptimizeSurrogate:
    def test_all_optimizers_run(self, tiny_setup):
        cfg, snaps, target, _ = tiny_setup
        trained = train_surrogate(cfg, snaps)
        for optimizer in ("bfgs", "nelder_mead", "de"):
            res = optimize_surrogate(trained.model, target, cfg, optimizer)
            assert cfg.domain.contains(res.mu_hat)

    def test_unknown_optimizer(self, tiny_setup):
        cfg, snaps, target, _ = tiny_setup
        trained = train_surrogate(cfg, snaps)
        with pytest.raises(ValueError):
            optimize_surrogate(trained.model, target, cfg, "sgd")
