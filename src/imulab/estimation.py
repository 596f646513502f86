"""Parametric estimation of stationary sensor errors.

Per-sensor bias and noise estimates, growing-window noise-density profiles,
KDE densities and quality ranking of sensors. The sigma^2/(N*K) variance
law, the CRLB that the estimates are checked against and the two-part
wide-sense-stationarity check are test oracles, in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

from .sensor_model import GravityModel, SensorRecording
from .sensor_model import MEMS_ERROR_RANGES, residuals

__all__ = [
    "running_std_profile",
    "rms",
    "db_ratio",
    "kde_density",
    "sort_by_quality",
    "bias_score",
    "bias_and_noise",
]


class RunningStdProfile(NamedTuple):
    """Estimated std (>= 0) of the growing-window mean at each int window end."""

    window_ends: np.ndarray
    std_estimates: np.ndarray


# Window ends per decade of ``running_std_profile``'s log grid.
_POINTS_PER_DECADE = 10


def _log_window_grid(n: int) -> np.ndarray:
    """Integer window ends from 2 to n, ~logarithmically spaced."""
    count = max(2, int(np.log10(n / 2) * _POINTS_PER_DECADE) + 1)
    grid = np.round(np.logspace(np.log10(2), np.log10(n), count)).astype(int)
    # The grid is non-decreasing, so removing adjacent duplicates gives
    # np.unique's result, without the numpy.ma import (about 14 ms) that
    # np.unique makes on its first call.
    grid = grid[np.append(True, np.diff(grid) != 0)]
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
# Cell radius in bandwidths and number of Hermite terms of ``kde_density``'s
# fast Gauss transform; the truncation bound in its docstring fixes both.
_FGT_RADIUS = 0.25
_FGT_TERMS = 16


def kde_density(
    samples: np.ndarray,
    eval_points: np.ndarray,
    bandwidth: float | None = None,
) -> np.ndarray:
    """Gaussian-kernel density estimate evaluated on a grid.

    Default bandwidth is the Silverman-style rule 1.06 * std * N^(-1/5).
    The result integrates to one over a wide enough grid but, like any
    density, may exceed one pointwise.

    The sum over samples is a Hermite fast Gauss transform (Greengard &
    Strain, SIAM J. Sci. Stat. Comput. 12(1):79-94, 1991). The sorted sample
    is cut into cells 2R bandwidths wide, R = ``_FGT_RADIUS``, each centred
    at c, the midpoint of its smallest and largest sample, so that every
    t = (x - c) / h lies within R. A cell keeps the P = ``_FGT_TERMS``
    moments M_n = sum t^n / n!, and a point g sums
    exp(-s^2/2) * sum_n M_n He_n(s), s = (g - c) / h, over the cells whose
    centres lie within ``_KDE_WINDOW`` + R bandwidths of it, so over every
    sample within ``_KDE_WINDOW``; the kernel beyond that is below 3e-18 of
    its peak. By Cramer's inequality, |He_n(s)| exp(-s^2/4) <= 1.0865
    sqrt(n!), so dropping the terms from P on moves each sample's kernel by
    at most 1.0865 R^P / sqrt(P!) / (1 - R / sqrt(P + 1)), about 6e-17 of
    its peak: the result matches the dense sum to rounding. Memory is O(N)
    for the sorted sample and the moments, plus one (points x W) block per
    term, W being the most cells one window holds, about 40: never a
    points x cells or points x samples array, however far the samples
    spread.
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
    n, h = x.size, bandwidth
    x = np.sort(x)
    # Cells: runs of the sorted sample with one floor((x - x[0]) / (2R h)).
    bins = x - x[0]
    bins /= 2 * _FGT_RADIUS * h
    np.floor(bins, out=bins)
    starts = np.append(0, np.flatnonzero(bins[1:] != bins[:-1]) + 1)
    del bins
    counts = np.diff(np.append(starts, n))
    centres = 0.5 * (x[starts] + x[starts + counts - 1])
    t = np.repeat(centres, counts)
    np.subtract(x, t, out=t)
    t /= h
    del x
    moments = np.empty((_FGT_TERMS, centres.size))
    moments[0] = counts
    power = t.copy()
    for k in range(1, _FGT_TERMS):
        moments[k] = np.add.reduceat(power, starts)
        power *= t
    del t, power
    moments[1:] /= np.cumprod(np.arange(1.0, _FGT_TERMS))[:, None]  # 1 / k!

    reach = (_KDE_WINDOW + _FGT_RADIUS) * h
    lo = np.searchsorted(centres, grid - reach, side="left")
    hi = np.searchsorted(centres, grid + reach, side="right")
    cell = lo[:, None] + np.arange((hi - lo).max(initial=0))
    inside = cell < hi[:, None]
    cell = np.where(inside, cell, 0)
    s = (grid[:, None] - centres[cell]) / h
    s[~inside] = 0.0  # padding past a window's last cell, dropped below
    he_prev, he = 1.0, s
    acc = moments[0][cell] + moments[1][cell] * s
    for k in range(1, _FGT_TERMS - 1):
        he_prev, he = he, s * he - k * he_prev  # He_{k+1}
        acc += moments[k + 1][cell] * he
    acc *= np.exp(-0.5 * s * s)
    acc[~inside] = 0.0
    return acc.sum(axis=1) / (n * h * np.sqrt(2 * np.pi))


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
    # One contiguous row per axis: np.ptp over the (N, 6) array's axis 0 reduces
    # six values at a time, ten times slower; max and min do not depend on order.
    constant = np.ptp(np.ascontiguousarray(res.T), axis=1) == 0
    bias[constant] = res[0, constant]
    return bias, (res - bias).std(axis=0, ddof=1)
