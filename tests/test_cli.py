import json

import numpy as np
import pytest

from wlasdi import io as wio
from wlasdi.cli import main
from wlasdi.pipeline import ExperimentConfig, _fom_cache_key, training_parameters

TINY = {
    "burgers": {
        "dx": 0.1,
        "t_final": 0.3,
        "steps": 60,
        "upwind": "backward",
        "newton_tol": 1e-12,
    },
    "reducer_latent_dim": 5,
    "test_functions": {"count": 40, "radius_frac": 0.1, "degree": 3},
    "noise_ratios": [0.0],
    "optimizers": {
        "bfgs": {"grad_tol": 1e-6, "max_iter": 40},
        "nelder_mead": {"tol": 1e-6, "max_iter": 300},
        "de": {"pop": 8, "max_gen": 5, "seed": 0},
    },
}


@pytest.fixture()
def tiny_config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def run(args):
    return main(args)


class TestFomRun:
    def test_writes_snapshot(self, tiny_config_path, tmp_path):
        out = tmp_path / "out"
        code = run(["--config", tiny_config_path, "--out", str(out),
                    "fom-run", "--mu", "0.7,1.1,0.9,0.9"])
        assert code == 0
        snap = wio.read_snapshot(out / "fom_run.bin")
        assert snap.data.shape == (61, 200)
        assert list(snap.mu) == [0.7, 1.1, 0.9, 0.9]

    def test_rerun_byte_identical(self, tiny_config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(["--config", tiny_config_path, "--out", str(out),
                        "fom-run"]) == 0
        assert (out_a / "fom_run.bin").read_bytes() == (out_b / "fom_run.bin").read_bytes()

    def test_zero_amplitude_round_trips(self, tiny_config_path, tmp_path):
        out = tmp_path / "out"
        assert run(["--config", tiny_config_path, "--out", str(out),
                    "fom-run", "--mu", "0,1,0,1"]) == 0
        snap = wio.read_snapshot(out / "fom_run.bin")
        assert np.all(snap.data == 0.0)

    def test_noisy_run_deterministic_per_seed(self, tiny_config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(["--config", tiny_config_path, "--out", str(out),
                        "--seed", "9", "fom-run", "--noise", "0.2"]) == 0
        assert (out_a / "fom_run.bin").read_bytes() == (out_b / "fom_run.bin").read_bytes()


class TestTrainPredictOptimize:
    @pytest.fixture()
    def trained_dir(self, tiny_config_path, tmp_path):
        out = tmp_path / "run"
        code = run(["--config", tiny_config_path, "--out", str(out), "train"])
        assert code == 0
        return out

    def test_train_writes_bundle(self, trained_dir):
        manifest = json.loads((trained_dir / "model" / "model.json").read_text())
        assert manifest["kind"] == "latent_model_bundle"
        assert manifest["identification"] == "weak"
        stats = json.loads((trained_dir / "model" / "train_stats.json").read_text())
        assert stats["train_seconds"] > 0.0

    def test_strong_form_flag(self, tiny_config_path, tmp_path):
        out = tmp_path / "run"
        assert run(["--config", tiny_config_path, "--out", str(out),
                    "train", "--strong-form"]) == 0
        manifest = json.loads((out / "model" / "model.json").read_text())
        assert manifest["identification"] == "strong"

    def test_predict(self, tiny_config_path, trained_dir):
        code = run(["--config", tiny_config_path, "--out", str(trained_dir),
                    "predict", "--model", str(trained_dir / "model"),
                    "--mu", "0.8,1.0,0.8,1.0"])
        assert code == 0
        snap = wio.read_snapshot(trained_dir / "prediction.bin")
        assert snap.data.shape == (61, 200)

    def test_optimize(self, tiny_config_path, trained_dir):
        code = run(["--config", tiny_config_path, "--out", str(trained_dir),
                    "optimize", "--model", str(trained_dir / "model"),
                    "--optimizer", "bfgs"])
        assert code == 0
        report = json.loads((trained_dir / "optimize_result.json").read_text())
        assert set(report) >= {"mu_hat", "E2_percent", "f_true", "n_func", "n_grad"}
        assert len(report["mu_hat"]) == 4
        assert report["stop_reason"] in ("gradient", "line_search", "max_iter")
        assert report["converged"] == (report["stop_reason"] == "gradient")

    @pytest.mark.parametrize(
        "option", [{"crossover": 1.5}, {"f_weight": 0.0}, {"max_gen": -1}]
    )
    def test_bad_de_option_is_a_usage_error(
        self, trained_dir, tmp_path, option, capsys
    ):
        cfg = dict(TINY, optimizers={"de": dict(TINY["optimizers"]["de"], **option)})
        path = tmp_path / "bad_de.json"
        path.write_text(json.dumps(cfg))
        assert run(["--config", str(path), "--out", str(trained_dir), "optimize",
                    "--model", str(trained_dir / "model"), "--optimizer", "de"]) == 1
        assert next(iter(option)) in capsys.readouterr().err

    def test_stale_cached_target_is_a_usage_error(
        self, tiny_config_path, trained_dir, capsys
    ):
        # the target's cache key holds a training trajectory
        cfg = ExperimentConfig.from_dict(TINY)
        cache = trained_dir / "snapshots"
        stale = cache / f"fom_{_fom_cache_key(cfg, training_parameters(cfg)[0])}.bin"
        target = cache / f"fom_{_fom_cache_key(cfg, cfg.target_mu)}.bin"
        for src, dst in ((stale, target),
                         (wio.sidecar_path(stale), wio.sidecar_path(target))):
            dst.write_bytes(src.read_bytes())
        assert run(["--config", tiny_config_path, "--out", str(trained_dir),
                    "optimize", "--model", str(trained_dir / "model")]) == 1
        assert "cached trajectory is for mu=" in capsys.readouterr().err


class TestBenchAndGradcheck:
    def test_bench_empty_noise_header_only(self, tmp_path):
        cfg = dict(TINY)
        cfg["noise_ratios"] = []
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "bench"
        assert run(["--config", str(path), "--out", str(out), "bench"]) == 0
        lines = (out / "report.csv").read_text().strip().splitlines()
        assert lines == ["noise,method,optimizer,E2_percent,f_true,train_s,opt_s,n_func,n_grad"]

    def test_gradcheck_passes(self, tmp_path, capsys):
        assert run(["--out", str(tmp_path), "gradcheck"]) == 0
        captured = capsys.readouterr()
        assert "fom direct vs adjoint" in captured.out
        assert "FAIL" not in captured.out


class TestExitCodes:
    def test_usage_error_is_one(self):
        with pytest.raises(SystemExit) as exc:
            run(["no-such-command"])
        assert exc.value.code == 1

    def test_bad_config_is_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"nope\": 1}")
        assert run(["--config", str(path), "--out", str(tmp_path), "fom-run"]) == 1

    def test_unknown_optimizer_option_is_one(self, tmp_path):
        cfg = dict(TINY, optimizers={"nelder_mead": {"no_such_option": 1}})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert run(["--config", str(path), "--out", str(tmp_path), "bench"]) == 1

    def test_missing_config_file_is_one(self, tmp_path):
        assert run(["--config", str(tmp_path / "absent.json"),
                    "--out", str(tmp_path), "fom-run"]) == 1

    def test_numerical_failure_is_two(self, tmp_path):
        cfg = dict(TINY)
        cfg["burgers"] = dict(cfg["burgers"], newton_max_iter=1, newton_tol=1e-16)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert run(["--config", str(path), "--out", str(tmp_path), "fom-run"]) == 2

    def test_linalg_error_is_two(self, tiny_config_path, tmp_path, monkeypatch):
        # LinAlgError subclasses ValueError, which alone would map to 1
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr("wlasdi.cli.fom_solve", singular)
        assert run(["--config", tiny_config_path, "--out", str(tmp_path),
                    "fom-run"]) == 2

    def test_non_bundle_model_dir_is_one(self, tiny_config_path, tmp_path, capsys):
        model = tmp_path / "m"
        model.mkdir()
        (model / "model.json").write_text(json.dumps({"kind": "x"}))
        assert run(["--config", tiny_config_path, "--out", str(tmp_path / "o"),
                    "predict", "--model", str(model)]) == 1
        assert "not a model bundle" in capsys.readouterr().err

    def test_truncated_reducer_is_one(self, tiny_config_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["--config", tiny_config_path, "--out", str(out), "train"]) == 0
        reducer = out / "model" / "reducer.bin"
        reducer.write_bytes(reducer.read_bytes()[:100])
        assert run(["--config", tiny_config_path, "--out", str(out),
                    "predict", "--model", str(out / "model")]) == 1
        assert "reducer.bin" in capsys.readouterr().err
