import time

import numpy as np
import pytest

from imulab.sensor_model import (
    ArrayRecording,
    GravityModel,
    SensorErrorParams,
    SensorRecording,
    check_unique_ids,
    draw_sensor_params,
    residuals,
    simulate_array,
)


def quiet_params(**kw):
    return SensorErrorParams(**kw)


class TestSimulateArray:
    def test_noiseless_leveled_outputs(self, gravity):
        arr = simulate_array([quiet_params()], gravity, 1.0, 10.0, seed=0)
        rec = arr.recordings[0]
        assert np.all(rec.gyro == 0)
        assert np.allclose(rec.accel, [0, 0, -9.81], atol=0)

    def test_level_axes_of_noiseless_accel_are_positive_zero(self, gravity):
        # Recording bytes depend on the sign of zero: "-0.0" vs "0.0".
        params = quiet_params(bias_accel=[-0.0, -0.0, 0.0])
        accel = simulate_array([params], gravity, 1.0, 10.0, seed=0).recordings[0].accel
        assert np.all(accel[:, :2] == 0)
        assert not np.any(np.signbit(accel[:, :2]))

    def test_pure_bias_gyro(self, gravity):
        bias = np.deg2rad([1.0, 2.0, 3.0])
        arr = simulate_array([quiet_params(bias_gyro=bias)], gravity, 1.0, 10.0, seed=0)
        assert np.allclose(np.rad2deg(arr.recordings[0].gyro), [1, 2, 3], atol=1e-12)

    def test_noise_std_converges(self, gravity):
        # Per-axis sample std should match the configured sigma within 1% at
        # N = 1e6 (Monte-Carlo check of the white-noise generator).
        sigma = np.deg2rad(0.033)
        arr = simulate_array(
            [quiet_params(sigma_gyro=sigma)], gravity, 10000.0, 100.0, seed=3
        )
        std = arr.recordings[0].gyro.std(axis=0, ddof=1)
        assert np.all(np.abs(std / sigma - 1) < 0.01)

    def test_deterministic_given_seed(self, gravity, median_params):
        a = simulate_array([median_params] * 3, gravity, 2.0, 100.0, seed=42)
        b = simulate_array([median_params] * 3, gravity, 2.0, 100.0, seed=42)
        for ra, rb in zip(a.recordings, b.recordings):
            assert np.array_equal(ra.gyro, rb.gyro)
            assert np.array_equal(ra.accel, rb.accel)

    def test_zero_noise_output_constant_in_time(self, gravity):
        p = quiet_params(bias_gyro=[0.1, 0, 0], bias_accel=[0, 0.2, 0])
        arr = simulate_array([p], gravity, 5.0, 20.0, seed=0)
        rec = arr.recordings[0]
        assert np.ptp(rec.gyro, axis=0).max() == 0
        assert np.ptp(rec.accel, axis=0).max() == 0

    def test_cross_sensor_independence(self, gravity):
        p = quiet_params(sigma_gyro=1.0)
        arr = simulate_array([p, p], gravity, 100.0, 100.0, seed=9)
        n = arr.n_samples
        x = arr.recordings[0].gyro[:, 0]
        y = arr.recordings[1].gyro[:, 0]
        rho = np.corrcoef(x, y)[0, 1]
        assert abs(rho) < 5 / np.sqrt(n)

    @pytest.mark.parametrize("duration,rate", [(0.0, 100.0), (-1.0, 100.0), (1.0, 0.0)])
    def test_invalid_duration_rate(self, gravity, duration, rate):
        with pytest.raises(ValueError):
            simulate_array([quiet_params()], gravity, duration, rate, seed=0)

    def test_empty_params_rejected(self, gravity):
        with pytest.raises(ValueError):
            simulate_array([], gravity, 1.0, 100.0, seed=0)

    def test_nonfinite_params_rejected(self):
        with pytest.raises(ValueError):
            SensorErrorParams(bias_gyro=[np.nan, 0, 0])
        with pytest.raises(ValueError):
            SensorErrorParams(sigma_gyro=-1.0)

    def test_bias_walk_injection_drifts(self, gravity):
        p = quiet_params(sigma_gyro_bias=1e-3)
        still = simulate_array([p], gravity, 100.0, 100.0, seed=1)
        walk = simulate_array([p], gravity, 100.0, 100.0, seed=1, inject_bias_walk=True)
        assert np.ptp(still.recordings[0].gyro) == 0
        assert np.ptp(walk.recordings[0].gyro) > 0


class TestResiduals:
    def test_perfect_sensor_zero_residuals(self, gravity):
        arr = simulate_array([quiet_params()], gravity, 1.0, 10.0, seed=0)
        assert np.all(residuals(arr.recordings[0], gravity) == 0)

    def test_bias_offsets_gravity(self, gravity):
        rec = SensorRecording(
            sensor_id="s", rate_hz=1.0, t=np.array([0.0]),
            gyro=np.zeros((1, 3)), accel=np.array([[0.0, 0.0, -9.81 + 0.18]]),
        )
        res = residuals(rec, gravity)
        assert np.allclose(res, [[0, 0, 0, 0, 0, 0.18]], atol=1e-15)

    def test_residual_means_converge_to_biases(self, gravity, median_params):
        arr = simulate_array([median_params], gravity, 100.0, 100.0, seed=5)
        res = residuals(arr.recordings[0], gravity)
        n = arr.n_samples
        tol_g = 3 * median_params.sigma_gyro / np.sqrt(n)
        tol_a = 3 * median_params.sigma_accel / np.sqrt(n)
        assert np.all(np.abs(res[:, :3].mean(axis=0) - median_params.bias_gyro) < tol_g)
        assert np.all(np.abs(res[:, 3:].mean(axis=0) - median_params.bias_accel) < tol_a)

    def test_zero_noise_residuals_exactly_bias(self, gravity):
        p = quiet_params(bias_gyro=[0.01, -0.02, 0.03], bias_accel=[0.1, 0.2, -0.3])
        arr = simulate_array([p], gravity, 1.0, 10.0, seed=0)
        res = residuals(arr.recordings[0], gravity)
        expected = np.concatenate([p.bias_gyro, p.bias_accel])
        assert np.allclose(res, expected, atol=1e-12)


class TestRecordingInvariants:
    def test_nonuniform_spacing_rejected(self):
        with pytest.raises(ValueError):
            SensorRecording(
                sensor_id="s", rate_hz=10.0, t=np.array([0.0, 0.1, 0.25]),
                gyro=np.zeros((3, 3)), accel=np.zeros((3, 3)),
            )

    def test_array_requires_matching_length(self, gravity):
        a = simulate_array([quiet_params()], gravity, 1.0, 10.0, seed=0).recordings[0]
        b = simulate_array([quiet_params()], gravity, 2.0, 10.0, seed=0).recordings[0]
        with pytest.raises(ValueError):
            ArrayRecording((a, b))

    def test_array_rejects_duplicate_sensor_ids(self, gravity):
        a = simulate_array([quiet_params()], gravity, 1.0, 10.0, seed=0).recordings[0]
        with pytest.raises(ValueError, match="duplicate sensor_id 'sensor_00'"):
            ArrayRecording((a, a))

    def test_duplicate_named_is_the_first_listed_twice(self):
        with pytest.raises(ValueError, match="^duplicate sensor_id 'a'$"):
            check_unique_ids(["a", "b", "c", "b", "a"])

    def test_unique_ids_are_checked_in_one_pass(self):
        ids = [f"sensor_{i:06d}" for i in range(10**5)]
        start = time.perf_counter()
        check_unique_ids(ids)
        assert time.perf_counter() - start < 0.5  # one count per id took minutes

    def test_draw_sensor_params_within_ranges(self):
        for p in draw_sensor_params(20, seed=1):
            bg_rms = np.rad2deg(np.linalg.norm(p.bias_gyro) / np.sqrt(3))
            assert 1.987 <= bg_rms <= 2.343
            assert np.deg2rad(0.026) <= p.sigma_gyro <= np.deg2rad(0.038)
