"""End-to-end acceptance criteria for the sensor-array error toolkit.

Each test covers one headline claim: exact transition/process-noise closed
forms, the variance and scaling laws of sensor averaging (over an ensemble
of seeds for sensors that differ), linearity of mean propagation, estimator
efficiency, stationarity-test calibration, and bit-exact I/O. One PASS/FAIL line is printed per criterion.
"""

import dataclasses

import numpy as np
import pytest

from imulab.dataio import (
    parse_recording_csv,
    recording_stats,
    write_recording_csv,
    write_report,
)
from imulab.estimation import (
    db_ratio,
    running_std_profile,
    sort_by_quality,
    wss_check,
)
from imulab.ins_error_model import (
    NoiseSpectra,
    phi_closed,
    propagate_mean,
    q_closed,
    q_numeric_oracle,
    q_coefficient_audit,
)
from imulab.sensor_model import (
    draw_sensor_params,
    residuals,
    simulate_array,
)
from oracles import fisher_crlb, median_sensor_params, propagate_discrete, variance_of_mean


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _phi_series_oracle(sys_m, tau: float) -> np.ndarray:
    out = np.eye(15)
    term = np.eye(15)
    for i in range(1, 4):
        term = term @ sys_m.F * (tau / i)
        out = out + term
    return out


def test_criterion_01_transition_matrix_exact(sys_m):
    worst = 0.0
    for tau in (0.1, 1.0, 10.0, 100.0):
        closed = phi_closed(sys_m, tau)
        oracle = _phi_series_oracle(sys_m, tau)
        scale = np.abs(oracle).max()
        worst = max(worst, float(np.abs(closed - oracle).max() / scale))
    _verdict(1, "transition matrix exact", worst < 1e-12,
             f"max rel deviation {worst:.2e} < 1e-12")


def test_criterion_02_process_noise_closed_form(sys_m, median_spectra):
    worst = 0.0
    for tau in (0.1, 1.0, 10.0, 100.0):
        closed = q_closed(sys_m, median_spectra, tau)
        oracle = q_numeric_oracle(sys_m, median_spectra, tau)
        worst = max(
            worst,
            float(np.linalg.norm(closed - oracle) / np.linalg.norm(oracle)),
        )
    audit = q_coefficient_audit()
    flagged = {(d["block"], d["term"]) for d in audit["disputed_coefficients"]}
    variant_err = audit["disputed_coefficients"][0]["variant_rel_error"]
    ok = (
        worst < 1e-6
        and ("velocity/velocity", "white accel noise") in flagged
        # The rejected variant must sit orders of magnitude above the
        # quadrature floor that the adopted closed form reaches.
        and variant_err > 1e3 * audit["closed_form_rel_error"]
    )
    _verdict(2, "process noise closed form", ok,
             f"max rel Frobenius {worst:.2e} < 1e-6, disputed term flagged")


def test_criterion_03_discrete_matches_closed_form(sys_m, median_spectra):
    _, covs = propagate_discrete(
        np.zeros(15), np.zeros((15, 15)), sys_m, median_spectra,
        dt=0.01, n_steps=10**4,
    )
    target = q_closed(sys_m, median_spectra, 100.0)
    err = float(np.linalg.norm(covs[-1] - target) / np.linalg.norm(target))
    _verdict(3, "discrete covariance consistency", err < 1e-9,
             f"rel Frobenius {err:.2e} < 1e-9 after 1e4 steps")


def test_criterion_04_variance_law():
    sigma = float(np.deg2rad(0.033))
    n, trials = 10**4, 1000
    rng = np.random.default_rng(2024)
    means = {1: [], 10: []}
    for _ in range(10):  # 100-trial batches keep the working set small
        block = rng.normal(scale=sigma, size=(100, n, 10))
        means[10].append(block.mean(axis=(1, 2)))
        means[1].append(block[:, :, 0].mean(axis=1))
    ratios = {}
    for k in (1, 10):
        emp = np.concatenate(means[k]).var(ddof=1)
        ratios[k] = emp / variance_of_mean(sigma, n, k)
    ok = all(0.8 <= r <= 1.2 for r in ratios.values())
    _verdict(4, "variance law sigma^2/(N*K)", ok,
             f"{trials} trials, var ratios K=1: {ratios[1]:.3f}, "
             f"K=10: {ratios[10]:.3f} in [0.8, 1.2]")


def test_criterion_05_running_std_slopes():
    rng = np.random.default_rng(77)
    data = rng.normal(size=(10**5, 10))
    slopes = {}
    for k in (1, 10):
        prof = running_std_profile(data[:, :k])
        keep = prof.window_ends >= 100
        slopes[k] = np.polyfit(
            np.log10(prof.window_ends[keep]),
            np.log10(prof.std_estimates[keep]), 1,
        )[0]
    gap = abs(slopes[1] - slopes[10])
    ok = (
        abs(slopes[1] + 0.5) < 0.02
        and abs(slopes[10] + 0.5) < 0.02
        and gap < 0.02
    )
    _verdict(5, "log-log slopes -1/2 and parallel", ok,
             f"slopes {slopes[1]:.4f} / {slopes[10]:.4f}, gap {gap:.4f} < 0.02")


def test_criterion_06_improvement_matrix(gravity):
    # Ten sensors sharing the reference-median noise level but with
    # individually drawn biases: the K-ratio then isolates 1/sqrt(K).
    med = median_sensor_params()
    params = [
        dataclasses.replace(
            p,
            sigma_gyro=med.sigma_gyro, sigma_accel=med.sigma_accel,
            sigma_gyro_bias=0.0, sigma_accel_bias=0.0,
        )
        for p in draw_sensor_params(10, seed=606)
    ]
    array = simulate_array(params, gravity, 100.0, 100.0, seed=606)
    res = np.stack([residuals(r, gravity) for r in array.recordings], axis=1)
    n = array.n_samples
    cells = {}
    for k in (1, 10):
        avg = res[:, :k, :].mean(axis=1)
        cal = avg - avg.mean(axis=0)
        cells[k] = {
            "gyro": float(np.sqrt((cal[:, :3].std(axis=0, ddof=1) ** 2).mean())),
            "accel": float(np.sqrt((cal[:, 3:].std(axis=0, ddof=1) ** 2).mean())),
        }
    k_ratios = [cells[10][q] / cells[1][q] for q in ("gyro", "accel")]
    n_ratio = 1.0 / np.sqrt(n)
    k_db = [db_ratio(r) for r in k_ratios]
    n_db = db_ratio(n_ratio)
    ok = (
        all(abs(r - 0.3162) < 0.03 for r in k_ratios)
        and abs(n_ratio - 0.01) < 0.002
        and all(abs(d + 5.0) < 1.0 for d in k_db)
        and abs(n_db + 20.0) < 0.5
    )
    _verdict(6, "N/K improvement matrix", ok,
             f"K-ratios {k_ratios[0]:.4f}/{k_ratios[1]:.4f} ~ 0.3162+-0.03, "
             f"N-ratio {n_ratio:.4f} ~ 0.01, dB {k_db[0]:.2f}/{n_db:.1f}")


def test_criterion_07_array_uncertainty_exact(sys_m, median_spectra):
    q_single = q_closed(sys_m, median_spectra, 100.0)
    q_array = q_closed(sys_m, median_spectra.scaled(1 / 10), 100.0)
    ratio = np.sqrt(np.diag(q_array)[:9] / np.diag(q_single)[:9])
    err = float(np.abs(ratio - 1 / np.sqrt(10)).max())
    _verdict(7, "array covariance 1/sqrt(K)", err < 1e-6,
             f"nine kinematic states, max |ratio - 0.31623| = {err:.2e} < 1e-6")


def test_criterion_08_mean_propagation_linear(sys_m):
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(10):
        biases = rng.normal(scale=0.1, size=(7, 6))
        avg = np.mean(biases, axis=0)
        direct = np.concatenate(propagate_mean(avg[:3], avg[3:], sys_m, 100.0))
        per_sensor = np.mean(
            [np.concatenate(propagate_mean(b[:3], b[3:], sys_m, 100.0))
             for b in biases],
            axis=0,
        )
        scale = np.abs(per_sensor).max()
        worst = max(worst, float(np.abs(direct - per_sensor).max() / scale))
    _verdict(8, "mean propagation linear in bias", worst < 1e-12,
             f"10 random bias sets, max rel deviation {worst:.2e} < 1e-12")


def test_criterion_09_growth_orders(sys_m):
    taus = np.array([10.0, 20.0, 50.0, 100.0])

    def fitted_exponent(values):
        return float(np.polyfit(np.log(taus), np.log(values), 1)[0])

    dp_accel = np.array(
        [propagate_mean([0.18, 0, 0], [0, 0, 0], sys_m, t)[0][0] for t in taus]
    )
    dp_gyro = np.array(
        [propagate_mean([0, 0, 0], [0.03, 0, 0], sys_m, t)[0][1] for t in taus]
    )
    e2 = fitted_exponent(dp_accel)
    e3 = fitted_exponent(np.abs(dp_gyro))
    walk_only = NoiseSpectra(s_gb=1.4e-7)
    q_pp = np.array([q_closed(sys_m, walk_only, t)[0, 0] for t in taus])
    e7 = fitted_exponent(q_pp)
    ok = abs(e2 - 2) < 1e-6 and abs(e3 - 3) < 1e-6 and abs(e7 - 7) < 0.01
    _verdict(9, "tau^2 / tau^3 / tau^7 growth", ok,
             f"exponents {e2:.8f}, {e3:.8f}, {e7:.4f}")


def test_criterion_10_crlb_attainment():
    sigma, n, trials = 0.007, 10**4, 1000
    rng = np.random.default_rng(10)
    means = rng.normal(scale=sigma, size=(trials, n)).mean(axis=1)
    _, crlb = fisher_crlb(sigma, n)
    ratio = float(means.var(ddof=1) / crlb)
    _verdict(10, "sample mean attains CRLB", abs(ratio - 1) < 0.2,
             f"{trials} trials, var/CRLB = {ratio:.3f} in [0.8, 1.2]")


def test_criterion_11_wss_calibration():
    rng = np.random.default_rng(11)
    n, trials = 2000, 500
    t = np.arange(n)
    white = ramp = sine = 0
    for _ in range(trials):
        base = rng.normal(size=n)
        white += wss_check(base, alpha=0.01).passed
        ramp += not wss_check(base + t / n, alpha=0.01).passed
        sine += not wss_check(
            base + 0.5 * np.sin(2 * np.pi * t / 50), alpha=0.01
        ).passed
    ok = white >= 0.95 * trials and ramp >= 0.99 * trials and sine >= 0.99 * trials
    _verdict(11, "stationarity test calibration", ok,
             f"white pass {white}/{trials}, ramp reject {ramp}/{trials}, "
             f"sinusoid reject {sine}/{trials}")


def test_criterion_12_bit_exact_round_trip(gravity, tmp_path):
    rng = np.random.default_rng(12)
    failures = 0
    for case in range(100):
        params = draw_sensor_params(1, seed=int(rng.integers(2**31)))
        arr = simulate_array(params, gravity, 1.0, 100.0,
                             seed=int(rng.integers(2**31)))
        rec = arr.recordings[0]
        rec_path = tmp_path / f"rec{case}.csv"
        write_recording_csv(rec, rec_path)
        back = parse_recording_csv(rec_path, rec.sensor_id, rec.rate_hz)
        rec_ok = (
            np.array_equal(back.t, rec.t)
            and np.array_equal(back.gyro, rec.gyro)
            and np.array_equal(back.accel, rec.accel)
        )
        table = {"a": list(rng.normal(size=20)), "b": list(rng.normal(size=20))}
        dest = tmp_path / f"r{case}.csv"
        write_report(table, "csv", dest)
        lines = dest.read_text().strip().split("\n")[1:]
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines])
        rep_ok = (
            list(parsed[:, 0]) == table["a"] and list(parsed[:, 1]) == table["b"]
        )
        failures += not (rec_ok and rep_ok)
    _verdict(12, "bit-exact I/O round trip", failures == 0,
             f"100 randomized recording+report cases, {failures} failures")


def test_criterion_13_k_ratio_over_an_ensemble_of_seeds(gravity):
    # For each of M seeds, ten drawn sensors (K=10, N=10^4): the measured
    # k_ratio (K=10 cell over K=1 cell, sensors worst first as in
    # ``estimate``) against two per-k predictions, sqrt(sum_{i<=k} s_i^2)/k,
    # from the config sigmas and from each sensor's measured sigma.
    #
    # Standard errors. A cell is the 3-axis RMS of per-axis sample stds, so
    # its relative standard error is se0 = 1/sqrt(6(N-1)). The two cells of
    # the config case share the worst sensor's noise: their errors correlate
    # by rho = s_1^2 / sum s_i^2, and the ratio's relative error has
    # se = se0 sqrt(2(1 - rho)). In the measured-sigma case the K=1 cell is
    # its own prediction, and the K=10 cell differs from its prediction only
    # by the sample cross-covariances of the sensors: se = se0 sqrt(1 - w),
    # w = sum s_i^4 / (sum s_i^2)^2.
    seeds, k = range(40), 10
    errors = {"config": [], "measured": []}
    ses = {"config": [], "measured": []}
    for seed in seeds:
        params = draw_sensor_params(k, seed=1300 + seed)
        array = simulate_array(params, gravity, 100.0, 100.0, seed=1300 + seed)
        n = array.n_samples
        se0 = 1.0 / np.sqrt(6 * (n - 1))
        stats = recording_stats(array, gravity)
        order = [sid for sid, _ in sort_by_quality({s.sensor_id: s.bias for s in stats})]
        index = {r.sensor_id: i for i, r in enumerate(array.recordings)}
        worst_first = [index[sid] for sid in order]
        res = [residuals(array.recordings[i], gravity) for i in worst_first]
        for axes, sigma in ((slice(0, 3), "sigma_gyro"), (slice(3, 6), "sigma_accel")):
            cells = {}
            for kk in (1, k):
                avg = np.mean([r[:, axes] for r in res[:kk]], axis=0)
                cells[kk] = np.sqrt((avg.std(axis=0, ddof=1) ** 2).mean())
            measured = cells[k] / cells[1]
            s2 = np.array([getattr(params[i], sigma) for i in worst_first]) ** 2
            s2_hat = np.array([(stats[i].noise[axes] ** 2).mean() for i in worst_first])
            for name, var in (("config", s2), ("measured", s2_hat)):
                predicted = np.sqrt(var.sum()) / k / np.sqrt(var[0])
                errors[name].append(measured / predicted - 1)
            ses["config"].append(se0 * np.sqrt(2 * (1 - s2[0] / s2.sum())))
            ses["measured"].append(se0 * np.sqrt(1 - (s2 ** 2).sum() / s2.sum() ** 2))
    ok, details = True, []
    for name in errors:
        e, se = np.array(errors[name]), np.array(ses[name])
        z = e / se
        mean_bound = 3 * np.sqrt((se ** 2).mean()) / np.sqrt(e.size)
        ok &= abs(e.mean()) <= mean_bound and 0.7 <= z.std() <= 1.3 and np.abs(z).max() <= 5
        details.append(f"{name} sigma: mean {e.mean():+.4f} (|.| <= {mean_bound:.4f}), "
                       f"std {e.std():.4f} = {z.std():.2f} se in [0.7, 1.3], "
                       f"max {np.abs(e).max():.4f} = {np.abs(z).max():.2f} se <= 5")
    _verdict(13, "k_ratio over an ensemble of seeds", ok,
             f"{2 * len(seeds)} cases; " + "; ".join(details))


def test_criterion_14_k_axis_slope_over_an_ensemble_of_seeds(gravity):
    # Criterion 13's ensemble (seeds 1300-1339, K=10, N=10^4, sensors worst
    # first): the least-squares slope of log(t0 cell) against log k over
    # k = 1..K, the K-axis twin of criterion 5's slope, against the slope of
    # the per-k curve sqrt(sum_{i<=k} s_i^2)/k fitted the same way, from the
    # config sigmas and from each sensor's measured sigma. Sensors that
    # differ put that curve off -1/2 (std 0.035 over these cases), so the
    # ideal slope is not the reference.
    #
    # Bound. A cell is the 3-axis RMS of per-axis sample stds, so a log
    # cell's standard error is at most about se0 = 1/sqrt(6(N-1)) = 0.0041.
    # The slope is w . log(cells), w the fit's weights on log k, so however
    # the cells correlate its standard error is at most se = sum|w_k| se0 =
    # 1.184 * 0.0041 = 0.0048. Over the 80 cases (40 seeds x gyro, accel):
    # |mean| <= 3 se/sqrt(80), std <= se, and no case beyond 5 se.
    seeds, k = range(40), 10
    x = np.log(np.arange(1, k + 1))
    w = (x - x.mean()) / ((x - x.mean()) ** 2).sum()
    errors = {"config": [], "measured": []}
    for seed in seeds:
        params = draw_sensor_params(k, seed=1300 + seed)
        array = simulate_array(params, gravity, 100.0, 100.0, seed=1300 + seed)
        n = array.n_samples
        stats = recording_stats(array, gravity)
        order = [sid for sid, _ in sort_by_quality({s.sensor_id: s.bias for s in stats})]
        index = {r.sensor_id: i for i, r in enumerate(array.recordings)}
        worst_first = [index[sid] for sid in order]
        res = [residuals(array.recordings[i], gravity) for i in worst_first]
        for axes, sigma in ((slice(0, 3), "sigma_gyro"), (slice(3, 6), "sigma_accel")):
            total, cells = np.zeros((n, 3)), []
            for kk, r in enumerate(res, start=1):
                total += r[:, axes]
                cells.append(np.sqrt(((total / kk).std(axis=0, ddof=1) ** 2).mean()))
            measured = w @ np.log(cells)
            s2 = np.array([getattr(params[i], sigma) for i in worst_first]) ** 2
            s2_hat = np.array([(stats[i].noise[axes] ** 2).mean() for i in worst_first])
            for name, var in (("config", s2), ("measured", s2_hat)):
                predicted = w @ np.log(np.sqrt(np.cumsum(var)) / np.arange(1, k + 1))
                errors[name].append(measured - predicted)
    se = np.abs(w).sum() / np.sqrt(6 * (n - 1))
    ok, details = True, []
    for name in errors:
        e = np.array(errors[name])
        mean_bound = 3 * se / np.sqrt(e.size)
        ok &= abs(e.mean()) <= mean_bound and e.std() <= se and np.abs(e).max() <= 5 * se
        details.append(f"{name} sigma: mean {e.mean():+.5f} (|.| <= {mean_bound:.4f}), "
                       f"std {e.std():.4f} <= {se:.4f}, max {np.abs(e).max():.4f} "
                       f"<= {5 * se:.3f}")
    _verdict(14, "K-axis slope over an ensemble of seeds", ok,
             f"{2 * len(seeds)} cases; " + "; ".join(details))
