import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from wlasdi.core import (
    NoiseSpec,
    ParameterDomain,
    SnapshotMatrix,
    TimeGrid,
    inject_noise,
    relative_param_error,
)
from wlasdi import io as wio


def make_snapshot(data, t_final=1.0, mu=None):
    data = np.asarray(data, dtype=float)
    return SnapshotMatrix(data, TimeGrid(t_final, data.shape[0] - 1), mu)


class TestDomainTypes:
    def test_domain_invariants(self):
        with pytest.raises(ValueError):
            ParameterDomain([0.0, 1.0], [1.0, 1.0])
        dom = ParameterDomain([0.0, -1.0], [1.0, 1.0])
        assert dom.ndim == 2
        assert dom.contains([0.5, 0.0])
        assert not dom.contains([1.5, 0.0])
        assert_allclose(dom.clamp([1.5, -2.0]), [1.0, -1.0])
        assert_allclose(dom.center(), [0.5, 0.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_clamp_refuses_non_finite(self, value):
        dom = ParameterDomain([0.0, -1.0], [1.0, 1.0])
        for k in range(2):
            mu = np.array([0.5, 0.0])
            mu[k] = value
            with pytest.raises(ValueError, match="must be finite"):
                dom.clamp(mu)

    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 1), (1, 2)])
    def test_clamp_refuses_wrong_size(self, shape):
        dom = ParameterDomain([0.0, -1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            dom.clamp(np.zeros(shape))

    def test_domain_sampling_inside(self):
        dom = ParameterDomain([0.7, 0.9, 0.7, 0.9], [0.9, 1.1, 0.9, 1.1])
        pts = dom.sample(np.random.default_rng(0), 50)
        assert pts.shape == (50, 4)
        assert all(dom.contains(p) for p in pts)

    def test_time_grid(self):
        grid = TimeGrid(1.0, 1000)
        assert grid.dt == pytest.approx(1e-3)
        t = grid.times()
        assert t.shape == (1001,)
        assert_allclose(t, np.arange(1001) * grid.dt, atol=1e-15)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 10)

    def test_snapshot_row_count_checked(self):
        with pytest.raises(ValueError):
            SnapshotMatrix(np.zeros((5, 3)), TimeGrid(1.0, 3))
        with pytest.raises(ValueError):
            SnapshotMatrix(np.full((3, 2), np.nan), TimeGrid(1.0, 2))

    def test_noise_spec_ratio_nonnegative(self):
        with pytest.raises(ValueError):
            NoiseSpec(-0.1, 0)


class TestInjectNoise:
    def test_zero_ratio_is_identity(self):
        snap = make_snapshot(np.arange(12.0).reshape(4, 3))
        out = inject_noise(snap, NoiseSpec(0.0, seed=123))
        assert_array_equal(out.data, snap.data)

    def test_seed_reproducible(self):
        snap = make_snapshot(np.ones((4, 3)))
        a = inject_noise(snap, NoiseSpec(0.3, seed=42))
        b = inject_noise(snap, NoiseSpec(0.3, seed=42))
        c = inject_noise(snap, NoiseSpec(0.3, seed=43))
        assert_array_equal(a.data, b.data)
        assert np.any(a.data != c.data)

    def test_rms_scaled_std(self):
        # ratio 0.2 on an all-ones 3x3 matrix: sigma = 0.2 * 3/3 = 0.2.
        # Monte-Carlo estimate over 1e4 draws must land within 20%.
        snap = make_snapshot(np.ones((3, 3)))
        draws = []
        for seed in range(10_000):
            out = inject_noise(snap, NoiseSpec(0.2, seed=seed))
            draws.append(out.data - snap.data)
        std = np.std(np.asarray(draws))
        assert abs(std - 0.2) < 0.2 * 0.2

    def test_frobenius_scale_option(self):
        snap = make_snapshot(np.ones((3, 3)))
        out = inject_noise(snap, NoiseSpec(1e-3, seed=0), scale="frobenius")
        # sigma = 1e-3 * ||U||_F = 3e-3, three times the rms-scaled sigma
        rms = inject_noise(snap, NoiseSpec(1e-3, seed=0), scale="rms")
        assert_allclose(out.data - snap.data, 3.0 * (rms.data - snap.data))

    def test_unknown_scale_rejected(self):
        snap = make_snapshot(np.ones((2, 2)))
        with pytest.raises(ValueError):
            inject_noise(snap, NoiseSpec(0.1, 0), scale="weird")


class TestRelativeParamError:
    def test_identical_vectors(self):
        mu = [0.75, 1.05, 0.85, 0.95]
        assert relative_param_error(mu, mu) == 0.0

    def test_doubling(self):
        mu = np.array([0.3, -0.4, 1.2])
        assert relative_param_error(2 * mu, mu) == pytest.approx(1.0)

    def test_hand_value(self):
        # ||mu*||_2 = sqrt(3.29); error = 0.01 / 1.8138357...
        mu_star = [0.75, 1.05, 0.85, 0.95]
        mu_hat = [0.76, 1.05, 0.85, 0.95]
        assert relative_param_error(mu_hat, mu_star) == pytest.approx(
            0.01 / np.sqrt(3.29), rel=1e-12
        )

    def test_zero_reference_raises(self):
        with pytest.raises(ZeroDivisionError):
            relative_param_error([1.0, 0.0], [0.0, 0.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_rotation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        mu_hat = rng.normal(size=4)
        mu_star = rng.normal(size=4) + 1.0
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        base = relative_param_error(mu_hat, mu_star)
        rotated = relative_param_error(q @ mu_hat, q @ mu_star)
        assert rotated == pytest.approx(base, rel=1e-12)
        assert base >= 0.0


class TestSnapshotIO:
    def test_round_trip_small(self, tmp_path):
        snap = make_snapshot([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]], mu=[0.5, 0.7])
        path = tmp_path / "snap.bin"
        wio.write_snapshot(snap, path)
        back = wio.read_snapshot(path)
        assert_array_equal(back.data, snap.data)
        assert back.grid == snap.grid
        assert_array_equal(back.mu, snap.mu)

    def test_round_trip_none_mu(self, tmp_path):
        snap = make_snapshot(np.random.default_rng(0).normal(size=(6, 4)))
        path = tmp_path / "snap.bin"
        wio.write_snapshot(snap, path)
        assert wio.read_snapshot(path).mu is None

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_random_bits(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(7, 5)) * 10.0 ** rng.integers(-8, 8)
        snap = make_snapshot(data)
        path = tmp_path / f"s{seed}.bin"
        wio.write_snapshot(snap, path)
        diff = np.linalg.norm(wio.read_snapshot(path).data - data)
        assert diff == 0.0

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "bad.bin"
        wio.write_snapshot(make_snapshot(np.ones((2, 2))), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(wio.FormatError):
            wio.read_snapshot(path)

    def test_bad_version_raises(self, tmp_path):
        path = tmp_path / "bad.bin"
        wio.write_snapshot(make_snapshot(np.ones((2, 2))), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(wio.FormatError):
            wio.read_snapshot(path)

    def test_truncated_payload_raises(self, tmp_path):
        path = tmp_path / "bad.bin"
        wio.write_snapshot(make_snapshot(np.ones((2, 2))), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(wio.FormatError):
            wio.read_snapshot(path)

    def test_sidecar_mismatch_raises(self, tmp_path):
        path = tmp_path / "bad.bin"
        wio.write_snapshot(make_snapshot(np.ones((3, 2))), path)
        meta_path = wio.sidecar_path(path)
        meta = meta_path.read_text().replace('"steps": 2', '"steps": 5')
        meta_path.write_text(meta)
        with pytest.raises(wio.ConsistencyError):
            wio.read_snapshot(path)

    def test_generic_matrix_meta(self, tmp_path):
        path = tmp_path / "m.bin"
        wio.write_matrix(path, np.eye(3), {"kind": "test", "n": 3})
        a, meta = wio.read_matrix(path, with_meta=True)
        assert_array_equal(a, np.eye(3))
        assert meta == {"kind": "test", "n": 3}
