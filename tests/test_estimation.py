import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imulab
from imulab import cli, dataio
from imulab.estimation import (
    _log_window_grid,
    bias_and_noise,
    bias_score,
    db_ratio,
    kde_density,
    rms,
    running_std_profile,
    sort_by_quality,
)
from imulab.sensor_model import SensorErrorParams, SensorRecording, residuals, simulate_array
from oracles import fisher_crlb, variance_of_mean, windowed_kde, wss_check


class TestVarianceOfMean:
    def test_zero_sigma(self):
        assert variance_of_mean(0.0, 10, 2) == 0.0

    def test_table_values(self):
        assert variance_of_mean(0.033, 10**4, 1) == pytest.approx(1.089e-7, rel=1e-3)
        assert variance_of_mean(0.033, 10**4, 10) == pytest.approx(1.089e-8, rel=1e-3)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            variance_of_mean(1.0, 0, 1)

    def test_monte_carlo_variance_law(self, rng):
        # 1000 repetitions, sigma=1, N=100, K=10: Var(mean) near 1/(N*K).
        trials = rng.normal(size=(1000, 100, 10))
        means = trials.mean(axis=(1, 2))
        ratio = means.var(ddof=1) / variance_of_mean(1.0, 100, 10)
        assert 0.8 <= ratio <= 1.2


class TestRunningStdProfile:
    def test_white_noise_slope(self, rng):
        prof = running_std_profile(rng.normal(size=(10**5, 1)))
        keep = (prof.window_ends >= 100)
        slope = np.polyfit(
            np.log10(prof.window_ends[keep]),
            np.log10(prof.std_estimates[keep]), 1
        )[0]
        assert slope == pytest.approx(-0.5, abs=0.02)

    def test_constant_series_zero(self):
        prof = running_std_profile(np.full((1000, 2), 3.3))
        assert np.all(prof.std_estimates == 0)

    def test_k10_vs_k1_ratio(self, rng):
        data = rng.normal(size=(10**4, 10))
        p10 = running_std_profile(data)
        p1 = running_std_profile(data[:, :1])
        ratio = p10.std_estimates[-1] / p1.std_estimates[-1]
        assert ratio == pytest.approx(1 / np.sqrt(10), rel=0.10)

    def test_parallel_profiles(self, rng):
        # The K-averaging gain must be time-free: near-constant ratio across
        # window ends once windows are long enough to stabilise the std.
        data = rng.normal(size=(10**4, 10))
        p10 = running_std_profile(data)
        p1 = running_std_profile(data[:, :1])
        keep = p1.window_ends >= 100
        ratios = p10.std_estimates[keep] / p1.std_estimates[keep]
        assert np.all(np.abs(ratios / ratios.mean() - 1) < 0.15)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            running_std_profile(np.array([[1.0]]))

    def test_window_grid_matches_np_unique(self):
        for n in [*range(2, 20001), 10**5, 3 * 10**5 + 7, 10**6]:
            count = max(2, int(np.log10(n / 2) * 10) + 1)
            want = np.unique(np.round(np.logspace(np.log10(2), np.log10(n), count)).astype(int))
            want = want[(want >= 2) & (want <= n)]
            got = _log_window_grid(n)
            assert got.dtype == want.dtype and np.array_equal(got, want), n

    def test_leaves_numpy_ma_unloaded(self):
        """``np.unique`` imports ``numpy.ma`` (about 14 ms) on its first call;
        each per-k worker of ``estimate`` would pay that."""
        src = str(Path(imulab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import sys, numpy as np; from imulab.estimation import running_std_profile; "
                "running_std_profile(np.random.default_rng(0).normal(size=(10**4, 3))); "
                "print(*sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        modules = set(out.stdout.split())
        assert "imulab.estimation" in modules
        assert "numpy.ma" not in modules


class TestScalarMetrics:
    def test_rms_constant(self):
        assert rms(np.full(5, -2.0)) == pytest.approx(2.0)

    def test_rms_pair(self):
        assert rms(np.array([3.0, 4.0])) == pytest.approx(np.sqrt(12.5))

    def test_rms_gravity(self):
        assert rms(np.array([0, 0, 9.81])) == pytest.approx(5.664, abs=1e-3)

    def test_rms_empty(self):
        with pytest.raises(ValueError):
            rms(np.array([]))

    def test_fisher_crlb_unit(self):
        assert fisher_crlb(1.0, 1) == (1.0, 1.0)

    def test_fisher_crlb_accel(self):
        fisher, crlb = fisher_crlb(0.007, 10**4)
        assert fisher == pytest.approx(2.0408e8, rel=1e-3)
        assert crlb == pytest.approx(4.9e-9, rel=1e-3)

    @given(sigma=st.floats(1e-6, 1e3), n=st.integers(1, 10**6))
    def test_crlb_matches_variance_of_mean(self, sigma, n):
        _, crlb = fisher_crlb(sigma, n)
        assert crlb == pytest.approx(variance_of_mean(sigma, n, 1), rel=1e-12)

    def test_fisher_zero_sigma(self):
        with pytest.raises(ValueError):
            fisher_crlb(0.0, 10)


class TestDbRatio:
    def test_known_values(self):
        assert db_ratio(0.3162) == pytest.approx(-5.0, abs=0.01)
        assert db_ratio(1.0) == 0.0
        assert db_ratio(9e-3) == pytest.approx(-20.5, abs=0.1)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            db_ratio(0.0)

    @given(a=st.floats(1e-6, 1e6), b=st.floats(1e-6, 1e6))
    def test_additive_under_product(self, a, b):
        assert db_ratio(a * b) == pytest.approx(db_ratio(a) + db_ratio(b), abs=1e-9)


class TestKde:
    def test_standard_normal_peak(self, rng):
        x = rng.normal(size=10**5)
        dens = kde_density(x, np.array([0.0]))
        assert dens[0] == pytest.approx(1 / np.sqrt(2 * np.pi), rel=0.05)

    def test_degenerate_sample_peaks_at_value(self):
        grid = np.linspace(-1, 3, 101)
        dens = kde_density(np.full(10, 1.0), grid)
        assert grid[np.argmax(dens)] == pytest.approx(1.0, abs=0.05)

    def test_integrates_to_one(self, rng):
        x = rng.normal(size=5000)
        grid = np.linspace(-8, 8, 2001)
        dens = kde_density(x, grid)
        assert np.all(dens >= 0)
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            kde_density(np.array([1.0]), np.array([0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_rejected(self, rng, bad):
        x = rng.normal(size=100)
        x[17] = bad
        with pytest.raises(ValueError, match="finite"):
            kde_density(x, np.linspace(-3, 3, 11))

    @staticmethod
    def dense_kde(samples, grid, bandwidth=None):
        """Reference: every sample against every grid point."""
        x = np.asarray(samples, dtype=float).ravel()
        if bandwidth is None:
            bandwidth = 1.06 * (x.std(ddof=1) or 1e-12) * x.size ** (-0.2)
        d = (grid[None, :] - x[:, None]) / bandwidth
        return np.exp(-0.5 * d * d).sum(axis=0) / (x.size * bandwidth * np.sqrt(2 * np.pi))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 3000),
        modes=st.integers(1, 4),
        scale=st.floats(1e-6, 1e6),
        offset=st.floats(-1e3, 1e3),
        explicit=st.booleans(),
    )
    def test_matches_dense_sum(self, seed, n, modes, scale, offset, explicit):
        rng = np.random.default_rng(seed)
        x = offset + scale * (rng.normal(size=n) + 8.0 * rng.integers(0, modes, n))
        lo, hi = x.min(), x.max()
        pad = 0.1 * (hi - lo) if hi > lo else 1.0
        grid = np.linspace(lo - pad, hi + pad, 201)
        bandwidth = scale * rng.uniform(0.01, 2.0) if explicit else None
        want = self.dense_kde(x, grid, bandwidth)
        got = kde_density(x, grid, bandwidth)
        assert np.max(np.abs(got - want)) <= 1e-12 * want.max()

    def test_constant_sample_matches_dense_sum(self):
        x = np.full(50, 0.25)
        grid = np.concatenate([np.linspace(-1, 1, 101), [0.25 + 1e-12, 0.25 - 3e-12]])
        want = self.dense_kde(x, grid)
        got = kde_density(x, grid)
        assert want.max() > 0
        assert np.max(np.abs(got - want)) <= 1e-12 * want.max()


@pytest.fixture(scope="module")
def paper_kde_calls(tmp_path_factory):
    """(samples, grid) of each ``kde_density`` call that ``estimate`` makes on
    the seed-7 ``paper`` workload (K=1 and K=10; gyro in deg/s, then accel;
    raw, then calibrated), its per-k jobs run in this process."""
    tmp = tmp_path_factory.mktemp("paper")
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps({
        "seed": 7, "duration_s": 100.0, "rate_hz": 100.0, "sensors": 10,
        "k_grid": [1, 10], "tau_grid": [0.0, 1.0], "out_dir": str(tmp / "run"),
    }))
    calls = []

    def noting(samples, grid):
        calls.append((np.array(samples), np.array(grid)))
        return kde_density(samples, grid)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_POOL_MIN_VALUES", float("inf"))
        patch.setattr(cli, "kde_density", noting)
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        assert cli.main(["estimate", "--config", str(cfg)]) == 0
    return calls


class TestKdeAgainstWindowedSum:
    """``kde_density``'s fast Gauss transform against the direct windowed
    sum it replaced (``oracles.windowed_kde``)."""

    def test_paper_pools(self, paper_kde_calls):
        assert len(paper_kde_calls) == 8
        for samples, grid in paper_kde_calls:
            assert (samples.size, grid.size) == (30_000, 201)
            want = windowed_kde(samples, grid)
            got = kde_density(samples, grid)
            assert np.max(np.abs(got - want)) <= 1e-14 * want.max()

    def test_far_outlier_in_bounded_memory(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=300_000)
        x[1234] = 1e6
        grid = np.concatenate([np.linspace(-5.0, 5.0, 201), 1e6 + np.array([-300.0, 0.0, 0.5])])

        def traced(kde):
            tracemalloc.start()
            try:
                return kde(x, grid), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        want, oracle_peak = traced(windowed_kde)
        got, peak = traced(kde_density)
        assert np.max(np.abs(got - want)) <= 1e-12 * want.max()
        assert peak <= oracle_peak + x.nbytes

    def test_unsorted_non_uniform_points_and_window_edges(self):
        rng = np.random.default_rng(5)
        # Sixty-fourths and a bandwidth of 1/2, so that x + 9h is exact: the
        # edge of the windowed sum's window.
        x = rng.integers(-256, 257, 2000) / 64.0
        h = 0.5
        grid = np.concatenate([rng.uniform(-2.0, 2.0, 60) ** 3,
                               [x.max() + 9 * h, x.min() - 9 * h, x.max() + 9.25 * h]])
        grid = rng.permutation(grid)
        want = windowed_kde(x, grid, h)
        got = kde_density(x, grid, h)
        assert np.max(np.abs(got - want)) <= 1e-12 * want.max()
        order = np.argsort(grid)
        assert np.array_equal(kde_density(x, grid[order], h), got[order])

    def test_bandwidth_below_the_sample_spacing(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=500)
        h = np.diff(np.sort(x)).min() / 10  # cells h/2 wide: one sample each
        grid = rng.permutation(np.concatenate([x + d * h for d in (-3.0, -0.5, 0.0, 1.0, 9.0)]))
        want = windowed_kde(x, grid, h)
        got = kde_density(x, grid, h)
        assert want.max() > 0
        assert np.max(np.abs(got - want)) <= 1e-12 * want.max()


def _biases(arr, gravity) -> dict:
    return {r.sensor_id: bias_and_noise(r, gravity)[0] for r in arr.recordings}


class TestQualityRanking:
    def test_two_sensor_ordering(self, gravity):
        good = SensorErrorParams(bias_gyro=np.deg2rad([2.0, 0, 0]) * np.sqrt(3))
        bad = SensorErrorParams(bias_gyro=np.deg2rad([2.3, 0, 0]) * np.sqrt(3))
        arr = simulate_array([good, bad], gravity, 1.0, 10.0, seed=0)
        scores = sort_by_quality(_biases(arr, gravity))
        assert scores[0][0] == "sensor_01"
        assert scores[0][1] > scores[1][1]

    def test_tie_breaks_on_sensor_id(self, gravity, median_params):
        arr = simulate_array([median_params] * 3, gravity, 1.0, 10.0, seed=0)
        biases = _biases(arr, gravity)
        # Listed in reverse, so only the tie-break can restore the id order.
        scores = sort_by_quality(dict(reversed(biases.items())))
        assert [sid for sid, _ in scores] == ["sensor_00", "sensor_01", "sensor_02"]

    def test_matches_brute_force_order(self, gravity):
        from imulab.sensor_model import draw_sensor_params

        arr = simulate_array(draw_sensor_params(10, 3), gravity, 10.0, 100.0, seed=3)
        biases = _biases(arr, gravity)
        scores = sort_by_quality(biases)
        oracle = sorted(
            arr.recordings,
            key=lambda r: (-bias_score(biases[r.sensor_id]), r.sensor_id),
        )
        assert [sid for sid, _ in scores] == [r.sensor_id for r in oracle]
        assert [s for _, s in scores] == [bias_score(biases[r.sensor_id]) for r in oracle]

    def test_noiseless_score_is_bias_score_of_params(self, gravity):
        from imulab.sensor_model import draw_sensor_params

        params = [
            SensorErrorParams(bias_gyro=p.bias_gyro, bias_accel=p.bias_accel)
            for p in draw_sensor_params(5, 8)
        ]
        arr = simulate_array(params, gravity, 1.0, 100.0, seed=8)
        for p, rec in zip(params, arr.recordings):
            want = bias_score(np.concatenate([p.bias_gyro, p.bias_accel]))
            got = bias_score(bias_and_noise(rec, gravity)[0])
            assert got == pytest.approx(want, rel=1e-12)


class TestEstimateBias:
    def test_noiseless_exact(self, gravity):
        p = SensorErrorParams(bias_accel=[0.1, 0, 0])
        arr = simulate_array([p], gravity, 1.0, 10.0, seed=0)
        bias, _ = bias_and_noise(arr.recordings[0], gravity)
        assert np.allclose(bias, [0, 0, 0, 0.1, 0, 0], atol=1e-14)

    def test_within_3sigma_of_truth(self, gravity, median_params):
        arr = simulate_array([median_params], gravity, 100.0, 100.0, seed=11)
        bias, _ = bias_and_noise(arr.recordings[0], gravity)
        n = arr.n_samples
        assert np.all(
            np.abs(bias[:3] - median_params.bias_gyro)
            < 3 * median_params.sigma_gyro / np.sqrt(n)
        )

    def test_compensation_recenters_residuals(self, gravity, median_params):
        arr = simulate_array([median_params], gravity, 100.0, 100.0, seed=12)
        rec = arr.recordings[0]
        bias, _ = bias_and_noise(rec, gravity)
        recentred = residuals(rec, gravity) - bias
        n = rec.n_samples
        tol = 3 * max(median_params.sigma_gyro, median_params.sigma_accel) / np.sqrt(n)
        assert np.all(np.abs(recentred.mean(axis=0)) < tol)

    def test_single_sample_rejected(self, gravity):
        arr = simulate_array([SensorErrorParams()], gravity, 0.01, 100.0, seed=0)
        with pytest.raises(ValueError, match="at least two samples"):
            bias_and_noise(arr.recordings[0], gravity)


class TestBiasAndNoise:
    def test_bias_is_mean_of_residuals(self, gravity, median_params):
        rec = simulate_array([median_params], gravity, 10.0, 100.0, seed=5).recordings[0]
        bias, noise = bias_and_noise(rec, gravity)
        res = residuals(rec, gravity)
        assert np.array_equal(bias, res.mean(axis=0))  # no axis is constant
        assert np.array_equal(noise, (res - bias).std(axis=0, ddof=1))

    def test_noiseless_axes_have_zero_noise(self, gravity):
        p = SensorErrorParams(bias_gyro=[1e-3, 0, 0], bias_accel=[0.1, 0, 0.2])
        rec = simulate_array([p], gravity, 1.0, 100.0, seed=0).recordings[0]
        _, noise = bias_and_noise(rec, gravity)
        assert np.all(noise == 0)

    @pytest.mark.parametrize("n", [2, 3, 10**4])
    @pytest.mark.parametrize("kind", [
        "random", "constant", "negative_zero", "signed_zeros", "plus_inf", "minus_inf",
        "both_inf", "all_inf"])
    def test_matches_the_row_order_constant_test_bit_for_bit(self, gravity, kind, n):
        rng = np.random.default_rng(n)
        column = {
            "random": rng.normal(size=n) * 1e-3,
            "constant": np.full(n, 0.1),
            "negative_zero": np.full(n, -0.0),
            "signed_zeros": np.where(np.arange(n) % 2, 0.0, -0.0),
        }.get(kind)
        if column is None:
            column = rng.normal(size=n)
            column[n // 2] = -np.inf if kind == "minus_inf" else np.inf
            if kind == "both_inf":
                column[0] = -np.inf
            elif kind == "all_inf":
                column[:] = np.inf
        gyro = np.column_stack([column, rng.normal(size=n), np.full(n, 1e-3)])
        accel = np.column_stack([rng.normal(size=n), np.full(n, 0.3), column])
        rec = SensorRecording("s", 100.0, np.arange(n) / 100.0, gyro, accel)
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = bias_and_noise(rec, gravity), _row_order_bias_and_noise(rec, gravity)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


def _row_order_bias_and_noise(recording, gravity):
    """``bias_and_noise`` with its constant-axis test as first written:
    ``np.ptp`` along axis 0 of the C-order (N, 6) residuals."""
    res = residuals(recording, gravity)
    bias = res.mean(axis=0)
    constant = np.ptp(res, axis=0) == 0
    bias[constant] = res[0, constant]
    return bias, (res - bias).std(axis=0, ddof=1)


class TestWssCheck:
    def test_white_noise_passes(self, rng):
        passes = sum(
            wss_check(rng.normal(size=10**4), alpha=0.01).passed for _ in range(100)
        )
        assert passes >= 95

    def test_ramp_fails_mean_drift(self, rng):
        x = rng.normal(size=10**4) + np.linspace(0, 1, 10**4)
        verdict = wss_check(x, alpha=0.01)
        assert not verdict.passed
        assert verdict.mean_drift_stat > verdict.mean_drift_threshold

    def test_sinusoid_fails_whiteness(self, rng):
        n = 10**4
        x = rng.normal(size=n) + np.sin(2 * np.pi * np.arange(n) / 50)
        verdict = wss_check(x, alpha=0.01)
        assert not verdict.passed
        assert verdict.acf_whiteness_stat > verdict.acf_whiteness_threshold

    def test_short_series_rejected(self, rng):
        with pytest.raises(ValueError):
            wss_check(rng.normal(size=50))
