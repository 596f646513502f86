"""Synthetic stationary MEMS-IMU measurements.

Measurement model for a stationary, leveled sensor triad pair: gyros read a
constant turn-on bias plus white noise (MEMS gyros cannot resolve Earth
rotation), accelerometers read the negative gravity projection plus bias and
white noise. All internal quantities are SI (rad/s, m/s^2). Degrees appear
only at the edges: ``dataio`` converts a ``deg/s`` manifest's gyro columns on
reading and writes ``dataset_summary``'s gyro figures in deg/s; ``cli`` converts
the config's ``*_dps`` sensor keys and writes the ``*_dps`` fields of its products.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "SensorErrorParams",
    "GravityModel",
    "SensorRecording",
    "ArrayRecording",
    "SimulatedArray",
    "check_unique_ids",
    "MEMS_ERROR_RANGES",
    "draw_sensor_params",
    "simulate_array",
    "residuals",
]

# Time-grid slack for the uniform-spacing invariant, seconds: wide enough for
# timestamps rounded to the microsecond.
_SPACING_TOL = 1e-6


def _as_vec3(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


@dataclass(frozen=True)
class SensorErrorParams:
    """Deterministic and stochastic error parameters of one IMU.

    ``sigma_gyro`` / ``sigma_accel`` are per-sample white-noise standard
    deviations, the same on all three axes.
    ``sigma_gyro_bias`` / ``sigma_accel_bias`` are in-run bias random-walk
    intensities in units of (rad/s)/sqrt(s) and (m/s^2)/sqrt(s); they feed the
    process-noise model and are *not* injected into simulated measurements
    unless explicitly requested (the in-run wander of consumer MEMS units is
    negligible over the ~100 s records considered here).
    """

    bias_gyro: np.ndarray = field(default_factory=lambda: np.zeros(3))
    bias_accel: np.ndarray = field(default_factory=lambda: np.zeros(3))
    sigma_gyro: float = 0.0
    sigma_accel: float = 0.0
    sigma_gyro_bias: float = 0.0
    sigma_accel_bias: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "bias_gyro", _as_vec3(self.bias_gyro, "bias_gyro"))
        object.__setattr__(self, "bias_accel", _as_vec3(self.bias_accel, "bias_accel"))
        for name in ("sigma_gyro", "sigma_accel", "sigma_gyro_bias", "sigma_accel_bias"):
            val = float(getattr(self, name))
            if not np.isfinite(val) or val < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {val}")
            object.__setattr__(self, name, val)


@dataclass(frozen=True)
class GravityModel:
    """Local gravity in a NED navigation frame coinciding with the body frame.

    Down is positive, so the navigation-frame gravity vector is
    ``(0, 0, +g)`` and a perfect leveled accelerometer reads ``(0, 0, -g)``.
    """

    g_magnitude: float = 9.81

    def __post_init__(self):
        g = float(self.g_magnitude)
        if not np.isfinite(g) or g < 0:
            raise ValueError(f"g_magnitude must be finite and >= 0, got {g}")
        object.__setattr__(self, "g_magnitude", g)

    @property
    def nav_gravity(self) -> np.ndarray:
        return np.array([0.0, 0.0, self.g_magnitude])


def _check_time_base(t: np.ndarray, rate_hz: float) -> None:
    """A ``ValueError`` unless the timestamps ``t`` are non-negative, strictly
    increasing and ``1 / rate_hz`` apart to within ``_SPACING_TOL``."""
    if np.any(t < 0):
        raise ValueError("timestamps must be non-negative")
    if t.shape[0] > 1:
        dt = np.diff(t)
        if np.any(dt <= 0):
            raise ValueError("timestamps must be strictly increasing")
        if np.max(np.abs(dt - 1.0 / rate_hz)) > _SPACING_TOL:
            raise ValueError(f"sample spacing inconsistent with {rate_hz} Hz")


@dataclass(frozen=True)
class SensorRecording:
    """Uniformly sampled 6-DoF record of a single sensor, SI units."""

    sensor_id: str
    rate_hz: float
    t: np.ndarray
    gyro: np.ndarray
    accel: np.ndarray

    def __post_init__(self):
        if float(self.rate_hz) <= 0:
            raise ValueError(f"rate_hz must be > 0, got {self.rate_hz}")
        t = np.asarray(self.t, dtype=float)
        gyro = np.asarray(self.gyro, dtype=float)
        accel = np.asarray(self.accel, dtype=float)
        n = t.shape[0]
        if n < 1:
            raise ValueError("recording must contain at least one sample")
        if gyro.shape != (n, 3) or accel.shape != (n, 3):
            raise ValueError("gyro/accel must have shape (N, 3) matching t")
        _check_time_base(t, self.rate_hz)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "gyro", gyro)
        object.__setattr__(self, "accel", accel)

    @property
    def n_samples(self) -> int:
        return self.t.shape[0]


@dataclass(frozen=True)
class ArrayRecording:
    """K time-aligned sensor recordings sharing one sampling grid."""

    recordings: tuple[SensorRecording, ...]

    def __post_init__(self):
        recs = tuple(self.recordings)
        if len(recs) < 1:
            raise ValueError("array must contain at least one recording")
        check_unique_ids([r.sensor_id for r in recs])
        ref = recs[0]
        for r in recs[1:]:
            if r.n_samples != ref.n_samples:
                raise ValueError(
                    f"{r.sensor_id}: {r.n_samples} samples, {ref.sensor_id} has {ref.n_samples}"
                )
            if r.rate_hz != ref.rate_hz:
                raise ValueError(
                    f"{r.sensor_id}: rate {r.rate_hz} Hz, {ref.sensor_id} has {ref.rate_hz} Hz"
                )
            if np.max(np.abs(r.t - ref.t)) > _SPACING_TOL:
                raise ValueError(f"{r.sensor_id}: time base differs from {ref.sensor_id}'s")
        object.__setattr__(self, "recordings", recs)

    @property
    def n_sensors(self) -> int:
        return len(self.recordings)

    @property
    def n_samples(self) -> int:
        return self.recordings[0].n_samples

    @property
    def rate_hz(self) -> float:
        return self.recordings[0].rate_hz


def check_unique_ids(ids: Sequence[str]) -> None:
    """Raise a ``ValueError`` naming the first of ``ids`` that is listed twice."""
    counts = Counter(ids)
    for sid in ids:
        if counts[sid] > 1:
            raise ValueError(f"duplicate sensor_id {sid!r}")


# Min / median / max error spread of a ten-unit consumer-grade MEMS array
# sampled at 100 Hz (RMS over the three axes; gyro entries in deg/s, accel in
# m/s^2). Used to draw representative synthetic sensors.
MEMS_ERROR_RANGES = {
    "gyro_bias_rms_dps": (1.987, 2.164, 2.343),
    "gyro_noise_rms_dps": (0.026, 0.033, 0.038),
    "accel_bias_rms": (0.176, 0.181, 0.197),
    "accel_noise_rms": (0.007, 0.007, 0.009),
}

# In-run bias wander accumulates about a tenth of the turn-on bias over 100 s,
# i.e. sigma_bias_walk * sqrt(100) = 0.1 * bias_rms.
_INRUN_FRACTION_PER_100S = 0.1


def _inrun_intensity(bias_rms: float) -> float:
    return _INRUN_FRACTION_PER_100S * bias_rms / np.sqrt(100.0)


def draw_sensor_params(count: int, seed: int) -> list[SensorErrorParams]:
    """Draw ``count`` sensors spanning the reference MEMS error ranges.

    Per-sensor RMS targets are sampled uniformly inside the min/max bounds of
    ``MEMS_ERROR_RANGES``; bias directions are drawn isotropically with the
    magnitude set so the 3-axis RMS hits the target (|b| = rms * sqrt(3)).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng([int(seed), 0x5EED])
    out = []
    for _ in range(count):
        bg_rms = np.deg2rad(rng.uniform(*_minmax("gyro_bias_rms_dps")))
        sg = np.deg2rad(rng.uniform(*_minmax("gyro_noise_rms_dps")))
        ba_rms = rng.uniform(*_minmax("accel_bias_rms"))
        sa = rng.uniform(*_minmax("accel_noise_rms"))
        out.append(
            SensorErrorParams(
                bias_gyro=_random_direction(rng) * bg_rms * np.sqrt(3.0),
                bias_accel=_random_direction(rng) * ba_rms * np.sqrt(3.0),
                sigma_gyro=sg,
                sigma_accel=sa,
                sigma_gyro_bias=_inrun_intensity(bg_rms),
                sigma_accel_bias=_inrun_intensity(ba_rms),
            )
        )
    return out


def _minmax(key: str) -> tuple[float, float]:
    lo, _, hi = MEMS_ERROR_RANGES[key]
    return lo, hi


def _random_direction(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class SimulatedArray:
    """K stationary sensors on a shared time grid, each drawn only when it
    is asked for: ``simulate_array``'s array, one recording at a time.

    The time grid is built, and checked by a recording's spacing rule, on
    construction. ``recording(k)`` draws sensor k from its own RNG stream,
    keyed on ``(seed, k)``, so it has the same samples in whatever order,
    how often and in whichever process it is drawn. ``inject_bias_walk``
    adds the in-run bias random walk to the measurements (off by default;
    the intensities normally only parameterise Q).
    """

    params: tuple[SensorErrorParams, ...]
    gravity: GravityModel
    duration_s: float
    rate_hz: float
    seed: int
    inject_bias_walk: bool = False
    t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.params:
            raise ValueError("params_list must be non-empty")
        if not (self.duration_s > 0):
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
        if not (self.rate_hz > 0):
            raise ValueError(f"rate_hz must be > 0, got {self.rate_hz}")
        n = int(round(self.duration_s * self.rate_hz))
        if n < 1:
            raise ValueError("duration_s * rate_hz must round to at least one sample")
        t = np.arange(n) * (1.0 / self.rate_hz)
        _check_time_base(t, self.rate_hz)
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "t", t)

    @property
    def n_sensors(self) -> int:
        return len(self.params)

    @property
    def n_samples(self) -> int:
        return self.t.shape[0]

    @property
    def sensor_ids(self) -> list[str]:
        return [f"sensor_{k:02d}" for k in range(self.n_sensors)]

    def finite(self, k: int) -> bool:
        """Whether every sample of sensor k is finite.

        Its parameters alone show it when |bias| + g + 2**64 (sigma + n
        sigma_walk sqrt(dt)) < 1e300 on each axis (sigma_walk counted only
        with ``inject_bias_walk``): no normal draw of a double comes near
        2**64, and 1e300 leaves room for the rounding of the samples' sums.
        Otherwise the sensor is drawn here, and its samples checked. Drawing
        every sensor here instead costs a second draw of each: measured on 2
        CPUs (numpy 2.4), the benchmark's ``pipeline_s`` rose 2.9% on
        ``paper`` and 4.5% on ``wide_manifest`` (10 pairs each), and at
        K=32, N=1e5 ``simulate`` took about 0.6 s and 4.9 MB of peak RSS more.
        """
        p = self.params[k]
        # Python floats: a product that overflows is inf, without a warning.
        walk = self.n_samples * (1.0 / self.rate_hz) ** 0.5 if self.inject_bias_walk else 0.0
        largest = max(
            float(np.max(np.abs(p.bias_gyro))) + 2.0**64 * (p.sigma_gyro + walk * p.sigma_gyro_bias),
            float(np.max(np.abs(p.bias_accel))) + self.gravity.g_magnitude
            + 2.0**64 * (p.sigma_accel + walk * p.sigma_accel_bias),
        )
        if largest < 1e300:
            return True
        with np.errstate(over="ignore", invalid="ignore"):  # checked here
            rec = self.recording(k)
        return bool(np.isfinite(rec.gyro).all() and np.isfinite(rec.accel).all())

    def recording(self, k: int) -> SensorRecording:
        """Sensor k's recording, ``sensor_{k:02d}``, drawn here."""
        p, n, dt = self.params[k], self.n_samples, 1.0 / self.rate_hz
        # Specific force sensed at rest. Built directly rather than as
        # -nav_gravity, which would hold -0.0 in the level axes.
        f_true = np.array([0.0, 0.0, -self.gravity.g_magnitude])
        rng = np.random.default_rng([int(self.seed), k])
        gyro = p.bias_gyro + rng.normal(size=(n, 3)) * p.sigma_gyro
        accel = f_true + p.bias_accel + rng.normal(size=(n, 3)) * p.sigma_accel
        if self.inject_bias_walk:
            walk_g = np.cumsum(
                rng.normal(size=(n, 3)) * (p.sigma_gyro_bias * np.sqrt(dt)), axis=0
            )
            walk_a = np.cumsum(
                rng.normal(size=(n, 3)) * (p.sigma_accel_bias * np.sqrt(dt)), axis=0
            )
            gyro = gyro + walk_g
            accel = accel + walk_a
        return SensorRecording(
            sensor_id=f"sensor_{k:02d}", rate_hz=self.rate_hz, t=self.t, gyro=gyro, accel=accel
        )


def simulate_array(
    params_list: Sequence[SensorErrorParams],
    gravity: GravityModel,
    duration_s: float,
    rate_hz: float,
    seed: int,
    inject_bias_walk: bool = False,
) -> ArrayRecording:
    """Simulate K stationary sensors on a shared time grid: every recording
    of ``SimulatedArray``, drawn at once.

    Each sensor gets its own RNG stream keyed on ``(seed, sensor index)``, so
    serial and per-sensor-parallel execution produce bit-identical output.
    """
    array = SimulatedArray(tuple(params_list), gravity, duration_s, rate_hz, seed,
                           inject_bias_walk)
    return ArrayRecording(tuple(array.recording(k) for k in range(array.n_sensors)))


def residuals(recording: SensorRecording, gravity: GravityModel) -> np.ndarray:
    """Measurement residuals against the stationary ground truth, shape (N, 6).

    Columns 0-2 are gyro residuals (truth is zero rate), columns 3-5 are
    accel residuals (truth is the gravity reaction, so the known gravity
    projection is added back on the down axis). A perfect sensor yields zeros.
    """
    out = np.empty((recording.n_samples, 6))
    out[:, :3] = recording.gyro
    out[:, 3:] = recording.accel + gravity.nav_gravity
    return out

