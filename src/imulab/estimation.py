"""Parametric estimation of stationary sensor errors.

Per-sensor bias and noise estimates, growing-window noise-density profiles,
KDE densities, quality ranking of sensors, and a two-part
wide-sense-stationarity check. The sigma^2/(N*K) variance law and the CRLB
that the estimates are checked against are test oracles, in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .sensor_model import GravityModel, SensorRecording
from .sensor_model import MEMS_ERROR_RANGES, residuals

__all__ = [
    "RunningStdProfile",
    "WssVerdict",
    "running_std_profile",
    "rms",
    "db_ratio",
    "kde_density",
    "sort_by_quality",
    "bias_score",
    "bias_and_noise",
    "wss_check",
]


@dataclass(frozen=True)
class RunningStdProfile:
    """Estimated std of the growing-window mean, on a log grid of window ends."""

    window_ends: np.ndarray
    std_estimates: np.ndarray

    def __post_init__(self):
        we = np.asarray(self.window_ends, dtype=int)
        se = np.asarray(self.std_estimates, dtype=float)
        if we.shape != se.shape:
            raise ValueError("window_ends and std_estimates must have equal length")
        if np.any(se < 0):
            raise ValueError("std estimates must be >= 0")
        object.__setattr__(self, "window_ends", we)
        object.__setattr__(self, "std_estimates", se)


@dataclass(frozen=True)
class WssVerdict:
    mean_drift_stat: float
    acf_whiteness_stat: float
    mean_drift_threshold: float
    acf_whiteness_threshold: float
    passed: bool


# Window ends per decade of ``running_std_profile``'s log grid.
_POINTS_PER_DECADE = 10


def _log_window_grid(n: int) -> np.ndarray:
    """Integer window ends from 2 to n, ~logarithmically spaced."""
    count = max(2, int(np.log10(n / 2) * _POINTS_PER_DECADE) + 1)
    grid = np.unique(np.round(np.logspace(np.log10(2), np.log10(n), count)).astype(int))
    return grid[(grid >= 2) & (grid <= n)]


def running_std_profile(data: np.ndarray) -> RunningStdProfile:
    """Noise density of the growing-window mean of a sensor-averaged series.

    The K columns are averaged per time step; at each window end ``n`` (on a
    log grid) the estimated std of the window mean is s_n / sqrt(n), with s_n
    the sample std of the averaged series over the window. For white noise
    this decays as sigma / sqrt(n*K): slope -1/2 in log-log coordinates, and a
    time-independent 1/sqrt(K) offset between array sizes.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise ValueError("data must be an N x K matrix with N >= 2")
    z = arr.mean(axis=1)
    ends = _log_window_grid(arr.shape[0])
    if np.ptp(z) == 0:
        return RunningStdProfile(window_ends=ends, std_estimates=np.zeros(ends.shape))
    # Running sample std via cumulative first/second moments; centering first
    # avoids cancellation when the series mean dwarfs its spread.
    z = z - z.mean()
    c1 = np.cumsum(z)
    c2 = np.cumsum(z * z)
    n = ends.astype(float)
    var = (c2[ends - 1] - c1[ends - 1] ** 2 / n) / (n - 1)
    std = np.sqrt(np.maximum(var, 0.0)) / np.sqrt(n)
    return RunningStdProfile(window_ends=ends, std_estimates=std)


def rms(values: np.ndarray) -> float:
    """Root mean square, sqrt(mean(x^2))."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("values must be non-empty")
    return float(np.sqrt(np.mean(arr**2)))


def db_ratio(x: float) -> float:
    """Power ratio in decibels, 10*log10(x)."""
    if x <= 0:
        raise ValueError("db_ratio requires a positive argument")
    return 10.0 * np.log10(x)


# Half-width of the KDE summation window in bandwidths: exp(-9^2/2) < 3e-18.
_KDE_WINDOW = 9.0


def kde_density(
    samples: np.ndarray,
    eval_points: np.ndarray,
    bandwidth: float | None = None,
) -> np.ndarray:
    """Gaussian-kernel density estimate evaluated on a grid.

    Default bandwidth is the Silverman-style rule 1.06 * std * N^(-1/5).
    The result integrates to one over a wide enough grid but, like any
    density, may exceed one pointwise.

    Each grid point sums only the samples within ``_KDE_WINDOW`` bandwidths,
    found by binary search in the sorted sample; the kernel beyond that is
    below 3e-18 of its peak, so the result matches the dense sum to rounding.
    """
    x = np.asarray(samples, dtype=float).ravel()
    grid = np.asarray(eval_points, dtype=float).ravel()
    if x.size < 2:
        raise ValueError("need at least two samples")
    if not np.isfinite(x).all():
        raise ValueError("samples must be finite")
    if bandwidth is None:
        s = x.std(ddof=1)
        if s == 0:
            s = 1e-12  # degenerate sample: fall back to a spike
        bandwidth = 1.06 * s * x.size ** (-0.2)
    elif bandwidth <= 0:
        raise ValueError("bandwidth must be > 0")
    x = np.sort(x)
    lo = np.searchsorted(x, grid - _KDE_WINDOW * bandwidth, side="left")
    hi = np.searchsorted(x, grid + _KDE_WINDOW * bandwidth, side="right")
    out = np.empty_like(grid)
    for j, (g, a, b) in enumerate(zip(grid, lo, hi)):
        d = (g - x[a:b]) / bandwidth
        out[j] = np.exp(-0.5 * d * d).sum()
    return out / (x.size * bandwidth * np.sqrt(2 * np.pi))


# Reference medians used to put gyro (rad/s) and accel (m/s^2) biases on a
# comparable scale inside the quality score.
_QUALITY_NORM_GYRO = float(np.deg2rad(MEMS_ERROR_RANGES["gyro_bias_rms_dps"][1]))
_QUALITY_NORM_ACCEL = float(MEMS_ERROR_RANGES["accel_bias_rms"][1])


def bias_score(bias: np.ndarray) -> float:
    """Badness of a six-axis bias (gyro, then accel): RMS of its normalized axes."""
    scaled = np.concatenate(
        [bias[:3] / _QUALITY_NORM_GYRO, bias[3:] / _QUALITY_NORM_ACCEL]
    )
    return rms(scaled)


def sort_by_quality(biases: Mapping[str, np.ndarray]) -> list[tuple[str, float]]:
    """Sensor ids with the ``bias_score`` of their six-axis bias, worst first.

    With sensors sorted this way, a K=1 slice uses the least reliable unit, so
    adding sensors can only improve the pooled estimates. Ties break on
    sensor_id to keep the order deterministic.
    """
    scored = sorted(
        ((bias_score(b), sid) for sid, b in biases.items()),
        key=lambda item: (-item[0], item[1]),
    )
    return [(sid, score) for score, sid in scored]


def bias_and_noise(
    recording: SensorRecording, gravity: GravityModel
) -> tuple[np.ndarray, np.ndarray]:
    """Six-axis bias estimate and per-axis white-noise std around it.

    The bias is the time-mean of the residuals, except that a constant axis
    takes its exact value rather than the rounded mean; the noise is the
    sample std (ddof=1) of the residuals after removing the bias.
    """
    res = residuals(recording, gravity)
    if res.shape[0] < 2:
        raise ValueError("need at least two samples to estimate bias")
    bias = res.mean(axis=0)
    constant = np.ptp(res, axis=0) == 0
    bias[constant] = res[0, constant]
    return bias, (res - bias).std(axis=0, ddof=1)


def wss_check(series: np.ndarray, alpha: float = 0.01, n_lags: int = 20) -> WssVerdict:
    """Two-part wide-sense-stationarity check of a scalar series.

    Mean drift: the split-half mean difference normalized by the pooled
    std, compared against a two-sided Gaussian quantile. Whiteness: a
    Ljung-Box statistic over ``n_lags`` autocorrelation lags against a
    chi-square quantile. Both parts must clear their level-``alpha``
    thresholds for the verdict to pass.
    """
    from scipy import stats as sp_stats  # deferred: slow to import, no CLI stage needs it

    x = np.asarray(series, dtype=float).ravel()
    n = x.size
    if n < 100:
        raise ValueError("need at least 100 samples for a stationarity check")
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")

    half = n // 2
    a, b = x[:half], x[half : 2 * half]
    pooled = np.sqrt((a.var(ddof=1) + b.var(ddof=1)) / 2)
    if pooled == 0:
        drift_stat = 0.0 if a.mean() == b.mean() else np.inf
    else:
        drift_stat = abs(a.mean() - b.mean()) / (pooled * np.sqrt(2.0 / half))
    drift_thresh = float(sp_stats.norm.ppf(1 - alpha / 2))

    z = x - x.mean()
    denom = float(z @ z)
    if denom == 0:
        lb_stat = 0.0
    else:
        acf = np.array([float(z[:-lag] @ z[lag:]) / denom for lag in range(1, n_lags + 1)])
        lb_stat = float(n * (n + 2) * np.sum(acf**2 / (n - np.arange(1, n_lags + 1))))
    lb_thresh = float(sp_stats.chi2.ppf(1 - alpha, df=n_lags))

    return WssVerdict(
        mean_drift_stat=float(drift_stat),
        acf_whiteness_stat=lb_stat,
        mean_drift_threshold=drift_thresh,
        acf_whiteness_threshold=lb_thresh,
        passed=bool(drift_stat < drift_thresh and lb_stat < lb_thresh),
    )
