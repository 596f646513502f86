"""Command-line experiment driver.

Subcommands: ``simulate`` (write synthetic recordings + manifest),
``estimate`` (noise/bias estimation products per sensor count), ``propagate``
(error-state and covariance trajectories, ratio matrices, ellipsoids), and
``report`` (one JSON bundle over a run directory). Every command is
deterministic given (config, seed); figures are emitted as CSV/JSON data
series rather than images.

Exit codes: 0 success, 2 usage/config error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import os
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .dataio import (
    ArrayManifest,
    ConfigError,
    DataError,
    SensorStats,
    check_finite,
    dataset_summary,
    is_finite,
    load_manifest,
    parse_recording_csv,
    read_json,
    read_recording_rows,
    read_recording_stats,
    recording_stats,
    recording_stats_key,
    render_report,
    run_jobs,
    write_array,
    write_recording_stats,
    write_report,
)
from .estimation import (
    db_ratio,
    kde_density,
    rms,
    running_std_profile,
    sort_by_quality,
)
from .ins_error_model import (
    IDX_P,
    NoiseSpectra,
    build_system,
    ellipsoid_from_cov,
    propagate_mean,
    q_closed,
    q_coefficient_audit,
)
from .sensor_model import (
    ArrayRecording,
    GravityModel,
    SensorErrorParams,
    draw_sensor_params,
    residuals,
    simulate_array,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# Per-sensor bias/noise stats of the recordings, written by ``estimate`` into
# its output directory and only read by ``propagate`` and ``report``.
STATS_FILE = "recording_stats.json"

# What a stage returns: its outputs as pending writes, each a ``partial`` of
# a writer and its payload, in the order ``main`` runs them once the stage
# has computed them all, and the line ``main`` prints after the last.
Stage = tuple[list[partial], str]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_path(value) -> bool:
    return isinstance(value, str) and "\0" not in value


# Config field -> (check, what it requires): the one judge of each field on
# its own, checked before the rules that span fields, so a rejected value is
# a ConfigError naming its field.
_FIELD_RULES = {
    "seed": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "duration_s": (lambda v: is_finite(v) and v > 0, "a finite number > 0"),
    "rate_hz": (lambda v: is_finite(v) and v > 0, "a finite number > 0"),
    "gravity_mps2": (lambda v: is_finite(v) and v >= 0, "a finite number >= 0"),
    "sensors": (
        lambda v: v is None or (_is_int(v) and v >= 1)
        or (isinstance(v, list) and v and all(isinstance(d, dict) for d in v)),
        "a positive integer or a non-empty list of objects",
    ),
    "manifest": (lambda v: v is None or _is_path(v), "a path without a NUL byte"),
    "out_dir": (_is_path, "a path without a NUL byte"),
    "tau_grid": (lambda v: isinstance(v, list) and v and all(is_finite(t) and t >= 0 for t in v),
                 "a non-empty list of finite numbers >= 0"),
    "k_grid": (lambda v: isinstance(v, list) and v and all(map(_is_int, v)),
               "a non-empty list of integers"),
    "inject_bias_walk": (lambda v: isinstance(v, bool), "true or false"),
    "fmt": (lambda v: v in ("csv", "json"), "'csv' or 'json'"),
    "noise_interpretation": (lambda v: v in ("per_sample", "psd"), "'per_sample' or 'psd'"),
}

# Most samples per recording: the count whose (N, 7) float64 recording table
# is the largest array numpy can address.
_MAX_SAMPLES = np.iinfo(np.intp).max // (7 * 8)


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not say."""
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or not these names
        return None
    return pages * page_size if pages > 0 and page_size > 0 else None


@dataclass
class ExperimentConfig:
    seed: int = 0
    duration_s: float = 100.0
    rate_hz: float = 100.0
    sensors: int | list[dict] | None = 10
    manifest: str | None = None
    tau_grid: list[float] = field(default_factory=lambda: [float(t) for t in range(0, 101)])
    k_grid: list[int] = field(default_factory=lambda: [1, 10])
    out_dir: str = "imulab_out"
    fmt: str = "csv"
    noise_interpretation: str = "per_sample"
    inject_bias_walk: bool = False
    gravity_mps2: float = 9.81

    def __post_init__(self):
        for name, (ok, requirement) in _FIELD_RULES.items():
            if not ok(getattr(self, name)):
                raise ConfigError(
                    f"{name} must be {requirement}, got {getattr(self, name)!r}"
                )
        if (self.sensors is None) == (self.manifest is None):
            raise ConfigError("exactly one of 'sensors' or 'manifest' must be set")
        samples = self.duration_s * self.rate_hz  # simulate_array rounds it to a count
        if not (samples <= _MAX_SAMPLES and round(samples) >= 2):
            raise ConfigError(
                f"duration_s * rate_hz must round to between 2 and {_MAX_SAMPLES:.3g} samples, "
                f"got {samples:.3g}"
            )
        # ``simulate`` holds every sensor's (N, 7) float64 samples at once.
        n_sensors = len(self.sensors) if isinstance(self.sensors, list) else self.sensors
        memory = _physical_memory()
        if n_sensors is not None and memory is not None and \
                n_sensors * round(samples) * 7 * 8 > memory:
            raise ConfigError(
                f"duration_s * rate_hz = {samples:.3g} samples per sensor, times "
                f"sensors = {n_sensors}, do not fit in the {memory:.3g} bytes of physical memory"
            )
        if isinstance(self.sensors, list):
            self.sensor_params()  # a bad entry is a config error for every command

    @property
    def gravity(self) -> GravityModel:
        return GravityModel(self.gravity_mps2)

    def sensor_params(self) -> list[SensorErrorParams]:
        if self.sensors is None:
            raise ConfigError(
                "this command needs synthetic sensor parameters: set 'sensors', not 'manifest'")
        if isinstance(self.sensors, int):
            return draw_sensor_params(self.sensors, self.seed)
        return [_params_from_dict(d, f"sensors[{i}]") for i, d in enumerate(self.sensors)]


# Sensor entry key -> (SensorErrorParams field, whether it is a 3-vector,
# whether it is given in degrees). An absent key takes the field's default
# of zero.
_SENSOR_KEYS = {
    "bias_gyro_dps": ("bias_gyro", True, True),
    "bias_accel": ("bias_accel", True, False),
    "sigma_gyro_dps": ("sigma_gyro", False, True),
    "sigma_accel": ("sigma_accel", False, False),
    "sigma_gyro_bias_dps": ("sigma_gyro_bias", False, True),
    "sigma_accel_bias": ("sigma_accel_bias", False, False),
}


def _params_from_dict(d: dict, entry: str) -> SensorErrorParams:
    """Build sensor params from the config dict ``entry`` (gyro quantities in
    deg/s). An unknown key, a value of the wrong type, or one that
    ``SensorErrorParams`` rejects is a ``ConfigError`` naming the entry and
    the key or field."""
    fields = {}
    for key, value in d.items():
        if key not in _SENSOR_KEYS:
            raise ConfigError(
                f"{entry}: unknown key {key!r}, expected one of {list(_SENSOR_KEYS)}"
            )
        name, vector, degrees = _SENSOR_KEYS[key]
        if vector and not (isinstance(value, list) and len(value) == 3
                           and all(map(is_finite, value))):
            raise ConfigError(f"{entry}: {key} must be a list of 3 finite numbers, got {value!r}")
        if not vector and not is_finite(value):
            raise ConfigError(f"{entry}: {key} must be a finite number, got {value!r}")
        si = np.deg2rad(np.asarray(value, float)) if degrees else np.asarray(value, float)
        fields[name] = si if vector else float(si)
    try:
        return SensorErrorParams(**fields)
    except ValueError as exc:
        raise ConfigError(f"{entry}: {exc}") from exc


def load_config(path: str | None, overrides: argparse.Namespace) -> ExperimentConfig:
    """The config file at ``path`` (or the defaults), with every config field
    that ``overrides`` sets to other than None in its place. A ``sensors``
    override drops the file's ``manifest``."""
    raw = {}
    if path is not None:
        try:
            raw = read_json(path)
        except DataError as exc:
            raise ConfigError(str(exc)) from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    flags = {k: v for k, v in vars(overrides).items() if k in known and v is not None}
    if "sensors" in flags:
        raw.pop("manifest", None)
    raw.update(flags)
    raw.setdefault("sensors", None if raw.get("manifest") else 10)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return ExperimentConfig(**raw)


def _load_array(
    manifest_path: Path, manifest: ArrayManifest, digests: list[str] | None = None
) -> ArrayRecording:
    """Parse all recordings named by a manifest into one aligned array.

    ``read_recording_rows`` yields their rows in manifest order, taking
    those of each recording whose SHA-256 among ``digests`` names a rows
    cache entry and parsing the others, in worker processes for a large
    manifest. Each recording is built here, once, its time base checked,
    before the next one's rows are taken, so the first fault in manifest
    order is raised, as in a serial read.
    """
    files = [(manifest_path.parent / rel, sensor_id) for sensor_id, rel in manifest.sensor_files]
    with contextlib.closing(read_recording_rows(files, digests)) as rows:
        recs = [
            parse_recording_csv(path, sensor_id, manifest.rate_hz, manifest.gyro_units, rows=r)
            for (path, sensor_id), r in zip(files, rows)
        ]
    try:
        return ArrayRecording(tuple(recs))
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def _recording_stats(
    manifest_path: Path, manifest: ArrayManifest, out: Path
) -> list[SensorStats]:
    """Per-sensor stats of a loaded manifest's recordings, in manifest order.

    Taken from ``out/STATS_FILE`` when its key matches the bytes of the
    manifest and recordings; otherwise the recordings are loaded by
    ``_load_array``, with all its checks, and the file is left as it is.
    """
    key = recording_stats_key(manifest_path, manifest)
    stats = read_recording_stats(out / STATS_FILE, key, [sid for sid, _ in manifest.sensor_files])
    if stats is None:
        array = _load_array(manifest_path, manifest, key["recordings_sha256"])
        stats = recording_stats(array, GravityModel(manifest.gravity_mps2))
    return stats


def _recordings(config: ExperimentConfig) -> tuple[Path, ArrayManifest] | None:
    """The manifest a stage reads, and its path.

    A configured manifest must load. Otherwise it is the manifest that
    ``simulate`` wrote into ``out_dir``, or None if there is none.
    """
    if config.manifest is not None:
        path = Path(config.manifest)
    else:
        path = Path(config.out_dir) / "recordings" / "manifest.json"
        if not path.exists():
            return None
    return path, load_manifest(path)


def _model_gravity(config: ExperimentConfig, manifest: ArrayManifest | None) -> GravityModel:
    """Gravity of the INS error model: for a manifest config the manifest's,
    otherwise the config's."""
    return config.gravity if config.manifest is None else GravityModel(manifest.gravity_mps2)


def _k_grid(config: ExperimentConfig, n_sensors: int) -> list[int]:
    """The sorted, distinct entries of ``config.k_grid`` in 1..n_sensors."""
    k_grid = sorted({k for k in config.k_grid if 1 <= k <= n_sensors})
    if not k_grid:
        raise ConfigError("k_grid has no entries within the sensor count")
    return k_grid


def cmd_simulate(config: ExperimentConfig) -> Stage:
    params = config.sensor_params()
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            array = simulate_array(
                params,
                config.gravity,
                config.duration_s,
                config.rate_hz,
                config.seed,
                inject_bias_walk=config.inject_bias_walk,
            )
    except MemoryError as exc:
        raise ConfigError(
            f"duration_s * rate_hz = {config.duration_s * config.rate_hz:.3g} samples "
            f"per sensor do not fit in memory: {str(exc) or 'MemoryError'}"
        ) from exc
    except ValueError as exc:  # a time base that a recording's own check rejects
        raise ConfigError(f"rate_hz = {config.rate_hz:g}: {exc}") from exc
    for i, rec in enumerate(array.recordings):
        if not (np.isfinite(rec.gyro).all() and np.isfinite(rec.accel).all()):
            raise ConfigError(f"sensors[{i}]: simulated samples overflow to non-finite values")
    rec_dir = Path(config.out_dir) / "recordings"
    return [partial(write_array, array, rec_dir, config.gravity)], (
        f"wrote {array.n_sensors} recordings ({array.n_samples} samples each) "
        f"-> {rec_dir / 'manifest.json'}"
    )


def _axis_rms_std(series: np.ndarray) -> float:
    """3-axis RMS of the per-axis sample std of an (N, 3) series."""
    return rms(series.std(axis=0, ddof=1))


def cmd_estimate(config: ExperimentConfig) -> Stage:
    recordings = _recordings(config)
    if recordings is None:
        raise ConfigError(
            f"no manifest configured and no prior simulate output in {config.out_dir}"
        )
    manifest_path, manifest = recordings
    k_grid = _k_grid(config, len(manifest.sensor_files))
    key = recording_stats_key(manifest_path, manifest)
    stats, scores, t, rate_hz, means = _worst_first_means(
        manifest_path, manifest, k_grid, key["recordings_sha256"])
    out, fmt = Path(config.out_dir), config.fmt
    writes = [
        partial(write_recording_stats, out / STATS_FILE, key, stats),
        partial(write_report, {"order_worst_first": [sid for sid, _ in scores],
                               "scores": {sid: s for sid, s in scores}},
                "json", out / "quality.json"),
    ]
    n = t.size
    jobs = [(avg, t, rate_hz, fmt) for avg in means]
    products = run_jobs(_estimate_products, jobs, 6 * n * len(k_grid),
                        out, f"products of {n} samples")
    cells_gyro, cells_accel = {}, {}
    for k, (*texts, cells_gyro[k], cells_accel[k]) in zip(k_grid, products):
        for stem, text in zip(("series", "kde", "running_std"), texts):
            writes.append(partial(write_report, text, fmt, out / f"{stem}_K{k}.{fmt}"))

    evaluation = {
        "n_samples": n,
        "k_grid": k_grid,
        "gyro_dps": _evaluation_matrix(cells_gyro, n, k_grid),
        "accel": _evaluation_matrix(cells_accel, n, k_grid),
    }
    writes.append(partial(write_report, evaluation, "json", out / "evaluation_matrix.json"))
    return writes, f"estimation products written to {out}"


def _estimate_products(
    avg: np.ndarray, t: np.ndarray, rate_hz: float, fmt: str
) -> tuple[str, str, str, float, float]:
    """One ``k_grid`` entry's products from its (N, 6) k-averaged residuals
    ``avg`` at times ``t``: the series, KDE and running-std tables rendered
    in ``fmt``, then the gyro (deg/s) and accel t0 cells."""
    gyro, accel = avg[:, :3], avg[:, 3:]
    gyro_cal = gyro - gyro.mean(axis=0)
    accel_cal = accel - accel.mean(axis=0)

    series = {
        "t": t,
        "gyro_raw_rms_dps": np.rad2deg(np.sqrt((gyro**2).mean(axis=1))),
        "accel_raw_rms": np.sqrt((accel**2).mean(axis=1)),
        "gyro_cal_rms_dps": np.rad2deg(np.sqrt((gyro_cal**2).mean(axis=1))),
        "accel_cal_rms": np.sqrt((accel_cal**2).mean(axis=1)),
    }

    # Growing-window noise-density profile with CRLB reference lines.
    prof_g = running_std_profile(gyro_cal.mean(axis=1, keepdims=True))
    prof_a = running_std_profile(accel_cal.mean(axis=1, keepdims=True))
    sg = float(gyro_cal.mean(axis=1).std(ddof=1))
    sa = float(accel_cal.mean(axis=1).std(ddof=1))
    ends = prof_g.window_ends
    profile = {
        "window_end_s": ends / rate_hz,
        "gyro_std_dps": np.rad2deg(prof_g.std_estimates),
        "accel_std": prof_a.std_estimates,
        "gyro_crlb_sqrt_dps": np.rad2deg(sg / np.sqrt(ends)),
        "accel_crlb_sqrt": sa / np.sqrt(ends),
    }
    return (
        render_report(series, fmt),
        render_report(_kde_table(gyro, gyro_cal, accel, accel_cal), fmt),
        render_report(profile, fmt),
        float(np.rad2deg(_axis_rms_std(gyro_cal))),
        _axis_rms_std(accel_cal),
    )


def _worst_first_means(
    manifest_path: Path, manifest: ArrayManifest, k_grid: list[int], digests: list[str]
) -> tuple[list[SensorStats], list[tuple[str, float]], np.ndarray, float, list[np.ndarray]]:
    """What ``estimate`` takes from a manifest's recordings, loaded by
    ``_load_array`` with their SHA-256 ``digests``: their stats in
    manifest order, their ``sort_by_quality`` scores (worst first), a copy of
    the worst sensor's time base, their rate, and for each k of ``k_grid`` the (N, 6)
    mean residuals of the first k sensors, worst first.

    The recordings themselves are dropped on return, so they take no memory
    while the per-k products are computed and rendered.
    """
    array = _load_array(manifest_path, manifest, digests)
    gravity = GravityModel(manifest.gravity_mps2)
    stats = recording_stats(array, gravity)
    scores = sort_by_quality({s.sensor_id: s.bias for s in stats})
    by_id = {r.sensor_id: r for r in array.recordings}
    worst_first = (residuals(by_id[sid], gravity) for sid, _ in scores)
    means = [avg for _, avg in _prefix_means(worst_first, k_grid, array.n_samples)]
    return stats, scores, by_id[scores[0][0]].t.copy(), array.rate_hz, means


def _prefix_means(
    arrays: Iterator[np.ndarray], k_grid: list[int], n: int
) -> Iterator[tuple[int, np.ndarray]]:
    """(k, mean of the first k of ``arrays``) for each k of the sorted
    ``k_grid``, the arrays being (n, 6).

    One running sum, started from zeros and divided by k: bit for bit
    ``np.stack(arrays, axis=1)[:, :k].mean(axis=1)``, without the stack and
    without drawing an array beyond the last k.
    """
    total, summed = np.zeros((n, 6)), 0
    for k in k_grid:
        for a in itertools.islice(arrays, k - summed):
            total += a
        summed = k
        yield k, total / k


def _kde_table(gyro, gyro_cal, accel, accel_cal) -> dict:
    table = {}
    for label, raw, cal, to_out in (
        ("gyro_dps", gyro, gyro_cal, np.rad2deg),
        ("accel", accel, accel_cal, lambda x: x),
    ):
        pooled_raw = to_out(raw).ravel()
        pooled_cal = to_out(cal).ravel()
        lo = min(pooled_raw.min(), pooled_cal.min())
        hi = max(pooled_raw.max(), pooled_cal.max())
        pad = 0.1 * (hi - lo) if hi > lo else 1.0
        grid = np.linspace(lo - pad, hi + pad, 201)
        table[f"{label}_value"] = grid
        table[f"{label}_density_raw"] = kde_density(pooled_raw, grid)
        table[f"{label}_density_cal"] = kde_density(pooled_cal, grid)
    return table


def _evaluation_matrix(cells: dict[int, float], n: int, k_grid: list[int]) -> dict:
    """Sensor-axis / time-axis evaluation matrix with improvement ratios.

    The t0 row is the per-sample noise level of the K-averaged series; the tf
    row is the uncertainty of the full-window mean, smaller by 1/sqrt(N).
    Under the variance law the column ratio is 1/sqrt(N) and the row ratio
    approaches 1/sqrt(K). When the K=k_lo cell is 0 (a noiseless worst
    sensor) the K ratios are undefined and written as None; when only the
    K=k_hi cell is 0 (noise that cancels in the mean) ``k_ratio`` is 0 and
    its dB value, minus infinity, is written as None.
    """
    k_lo, k_hi = k_grid[0], k_grid[-1]
    t0 = {f"K{k}": cells[k] for k in k_grid}
    tf = {f"K{k}": cells[k] / np.sqrt(n) for k in k_grid}
    k_ratio = cells[k_hi] / cells[k_lo] if cells[k_lo] else None
    n_ratio = 1.0 / np.sqrt(n)
    return {
        "t0": t0,
        "tf": tf,
        "k_ratio": k_ratio,
        "n_ratio": n_ratio,
        "nk_ratio": None if k_ratio is None else k_ratio * n_ratio,
        "k_ratio_db": db_ratio(k_ratio) if k_ratio else None,
        "n_ratio_db": db_ratio(n_ratio),
        "expected_k_ratio": 1.0 / np.sqrt(k_hi / k_lo),
    }


def cmd_propagate(config: ExperimentConfig) -> Stage:
    taus = np.asarray(sorted(config.tau_grid), dtype=float)
    out, fmt = Path(config.out_dir), config.fmt
    writes = []
    gravity, k_grid, biases, spectra_pool = _propagation_inputs(config, out)
    sys_m = build_system(gravity)
    tau_f = float(taus[-1])

    jobs = [(config, gravity, sys_m, np.mean(biases[:k], axis=0),
             spectra_pool.scaled(1.0 / k), taus, fmt) for k in k_grid]
    products = run_jobs(_propagation_products, jobs, 20 * taus.size * len(k_grid),
                        out, f"products of {taus.size} taus")
    results = {}
    for k, (*texts, results[k]) in zip(k_grid, products):
        for (stem, ext), text in zip((("mean_error", fmt), ("uncertainty", fmt),
                                      ("ellipsoid", "json")), texts):
            writes.append(partial(write_report, text, ext, out / f"{stem}_K{k}.{ext}"))

    k_lo, k_hi = k_grid[0], k_grid[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_ratio = results[k_hi][0] / results[k_lo][0]
        unc_ratio = results[k_hi][1] / results[k_lo][1]
    mean_ratio = np.where(np.isfinite(mean_ratio), mean_ratio, 0.0)
    unc_ratio = np.where(np.isfinite(unc_ratio), unc_ratio, 0.0)
    writes.append(partial(
        write_report,
        {
            "tau": tau_f,
            "k_pair": [k_lo, k_hi],
            "mean_error_ratio": mean_ratio.reshape(3, 3),
            "uncertainty_ratio": unc_ratio.reshape(3, 3),
            "expected_uncertainty_ratio": 1.0 / np.sqrt(k_hi / k_lo),
        },
        "json", out / "ratio_matrices.json",
    ))
    return writes, f"propagation products written to {out}"


def _trajectories(
    sys_m, bias: np.ndarray, spectra: NoiseSpectra, taus: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Propagated (dp, dv, eps) errors driven by a six-axis bias and noise.

    Returns the |mean error| and 1-sigma uncertainty rows at each tau, then
    the position covariance block and mean position error at the last tau.
    An overflow gives inf or nan entries, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        dp, dv, eps = propagate_mean(bias[3:], bias[:3], sys_m, taus)
        q = q_closed(sys_m, spectra, taus)
        mean_traj = np.abs(np.concatenate([dp, dv, eps], axis=1))
        unc_traj = np.sqrt(np.diagonal(q, axis1=1, axis2=2)[:, :9])
    return mean_traj, unc_traj, q[-1, IDX_P, IDX_P], dp[-1]


def _propagation_products(
    config: ExperimentConfig, gravity: GravityModel, sys_m, bias: np.ndarray,
    spectra: NoiseSpectra, taus: np.ndarray, fmt: str,
) -> tuple[str, str, str, tuple[np.ndarray, np.ndarray]]:
    """One ``k_grid`` entry's products from its six-axis bias and noise: the
    mean-error and uncertainty tables rendered in ``fmt`` and the ellipsoid
    at the last of the sorted ``taus`` in JSON, then the last rows of both
    tables. Propagated errors that overflow are ``_overflow_error``."""
    mean_traj, unc_traj, p_f, dp_f = _trajectories(sys_m, bias, spectra, taus)
    finite = np.isfinite(mean_traj).all(axis=1) & np.isfinite(unc_traj).all(axis=1)
    if not finite.all():
        raise _overflow_error(config, gravity, bias, spectra, taus[~finite][0])
    ell = ellipsoid_from_cov(p_f, dp_f)  # taus is sorted: both are at its last
    return (
        render_report({"tau": taus, **_kinematic_columns(mean_traj)}, fmt),
        render_report({"tau": taus, **_kinematic_columns(unc_traj)}, fmt),
        render_report({"tau": float(taus[-1]), "centroid": ell.centroid,
                       "semi_axes": ell.semi_axes, "orientation": ell.orientation}, "json"),
        (mean_traj[-1], unc_traj[-1]),
    )


def _overflow_error(
    config: ExperimentConfig, gravity: GravityModel, bias: np.ndarray,
    spectra: NoiseSpectra, tau: float,
) -> ValueError:
    """The error for propagated errors that overflow, first at ``tau``.

    It names the input at fault. At tau = 1 s each error is the sum of its
    polynomial's coefficients: if it is finite there, the ``tau_grid`` entry
    is too large; if it overflows even for unit biases and noise, gravity
    is; else the sensors' biases or noise are.
    """
    sys_m = build_system(gravity)

    def overflows(bias, spectra) -> bool:
        mean_traj, unc_traj, _, _ = _trajectories(sys_m, bias, spectra, np.ones(1))
        return not (np.isfinite(mean_traj).all() and np.isfinite(unc_traj).all())

    if not overflows(bias, spectra):
        return ConfigError(f"tau_grid: the propagated errors overflow at tau = {tau:g} s")
    if overflows(np.ones(6), NoiseSpectra(1.0, 1.0, 1.0, 1.0)):
        return _input_fault(
            config, "gravity_mps2",
            f"{gravity.g_magnitude:g} m/s2 overflows the propagated errors",
        )
    return _input_fault(
        config, "sensors",
        f"their biases or noise overflow the propagated errors "
        f"with gravity {gravity.g_magnitude:g} m/s2",
    )


def _input_fault(config: ExperimentConfig, field: str, problem: str) -> ValueError:
    """A ``ConfigError`` naming a config field, or for a manifest config a
    ``DataError`` naming the manifest and its field (``sensor_files`` for
    the sensors)."""
    if config.manifest is None:
        return ConfigError(f"{field}: {problem}")
    field = "sensor_files" if field == "sensors" else field
    return DataError(f"{config.manifest}: {field}: {problem}")


def _kinematic_columns(traj: np.ndarray) -> dict:
    names = [f"{state}_{axis}" for state in ("dp", "dv", "eps") for axis in "xyz"]
    return {name: traj[:, j] for j, name in enumerate(names)}


def _propagation_inputs(
    config: ExperimentConfig, out: Path
) -> tuple[GravityModel, list[int], np.ndarray, NoiseSpectra]:
    """Gravity, k grid, worst-first biases and pooled noise spectra.

    Both kinds of config give one table: sensor key -> (six-axis bias, gyro
    first; (sigma_a, sigma_g, sigma_ab, sigma_gb)). Recordings have no
    bias-walk sigmas and their measured noise is per sample whatever
    ``noise_interpretation`` says; config params are keyed by their index, so
    ``sort_by_quality`` ties keep config order. The k grid is checked before
    any recording stats are read. Noise sigmas whose spectra overflow name
    their source.

    The pooled spectra average the per-sensor intensities; the array Q then
    scales the pooled single-sensor Q by 1/K (identical-sensor assumption),
    so uncertainty ratios are exact.
    """
    if config.manifest is not None:
        manifest_path, manifest = _recordings(config)
        k_grid = _k_grid(config, len(manifest.sensor_files))
        table = {
            s.sensor_id: (s.bias, (rms(s.noise[3:]), rms(s.noise[:3]), 0.0, 0.0))
            for s in _recording_stats(manifest_path, manifest, out)
        }
        rate_hz, psd = manifest.rate_hz, False
    else:
        manifest = None
        params = config.sensor_params()
        k_grid = _k_grid(config, len(params))
        table = {
            i: (np.concatenate([p.bias_gyro, p.bias_accel]),
                (p.sigma_accel, p.sigma_gyro, p.sigma_accel_bias, p.sigma_gyro_bias))
            for i, p in enumerate(params)
        }
        rate_hz, psd = config.rate_hz, config.noise_interpretation == "psd"
    worst_first = sort_by_quality({key: bias for key, (bias, _) in table.items()})
    ranked = [table[key] for key, _ in worst_first]
    biases = np.array([bias for bias, _ in ranked])
    columns = list(zip(*(sigmas for _, sigmas in ranked)))  # worst first
    try:
        if psd:
            spectra = NoiseSpectra(*(float(np.mean([s**2 for s in col])) for col in columns))
        else:
            spectra = NoiseSpectra.from_discrete_std(
                *(float(np.mean(col)) for col in columns), rate_hz
            )
    except (OverflowError, ValueError) as exc:
        names = ("sigma_accel", "sigma_gyro", "sigma_accel_bias", "sigma_gyro_bias")
        largest = ", ".join(f"{n} {max(col):g}" for n, col in zip(names, columns))
        raise _input_fault(
            config, "sensors",
            f"noise sigmas up to ({largest}) overflow their spectra at rate_hz {rate_hz:g}",
        ) from exc
    return _model_gravity(config, manifest), k_grid, biases, spectra


def cmd_report(config: ExperimentConfig) -> Stage:
    out = Path(config.out_dir)
    evaluation, evaluation_db = _read_product(out / "evaluation_matrix.json", _evaluation_db)
    ratios, ratio_db = _read_product(out / "ratio_matrices.json", _ratio_db)
    if evaluation is None and ratios is None:
        raise ConfigError(
            f"no estimate/propagate outputs found in {out}; run those commands first"
        )
    manifest_path, manifest = _recordings(config) or (None, None)
    gravity = _model_gravity(config, manifest)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        audit = q_coefficient_audit(gravity)
    try:
        check_finite(audit)
    except ValueError as exc:
        raise _input_fault(
            config, "gravity_mps2",
            f"{gravity.g_magnitude:g} m/s2 overflows the Q-coefficient audit",
        ) from exc
    summary = None
    if manifest is not None:
        summary = dataset_summary(_recording_stats(manifest_path, manifest, out))

    bundle = {
        "software_version": __version__,
        "gravity_mps2": gravity.g_magnitude,
        "noise_interpretation": config.noise_interpretation,
        "config": {
            f.name: getattr(config, f.name) for f in dataclasses.fields(config)
        },
        "dataset_summary": summary,
        "evaluation_matrix": evaluation,
        "ratio_matrices": ratios,
        "db_ratios": {**evaluation_db, **ratio_db},
        "q_coefficient_audit": audit,
    }
    dest = out / "report.json"
    return [partial(write_report, bundle, "json", dest)], f"report written to {dest}"


# Deepest nesting of lists and objects in a product that ``report`` takes.
# Its own products nest at most three deep. report.json holds each product
# one level further in, and ``check_finite`` and ``render_report`` walk it
# by recursion, which Python stops at 1000 frames.
_PRODUCT_NESTING = 100


def _read_product(path: Path, take) -> tuple[object, dict]:
    """A stage product read by ``read_json`` and its ``db_ratios`` entries,
    ``take(product)``, or ``(None, {})`` if there is no such file.

    A product nested deeper than ``_PRODUCT_NESTING``, holding a non-finite
    number, or whose fields ``take`` cannot read, is a ``DataError`` naming
    it.
    """
    if not path.exists():
        return None, {}
    product = read_json(path)
    try:
        _check_nesting(product, _PRODUCT_NESTING)
        check_finite(product)
        return product, take(product)
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: missing, non-numeric or non-finite product field") from exc


def _check_nesting(value, levels: int) -> None:
    """A ``ValueError`` if the JSON ``value`` nests lists and objects more
    than ``levels`` deep; it looks no deeper than that."""
    if isinstance(value, (dict, list)):
        if levels == 0:
            raise ValueError("nested too deeply")
        for item in value.values() if isinstance(value, dict) else value:
            _check_nesting(item, levels - 1)


def _finite(value):
    """``value`` if ``is_finite`` takes it, else a ``ValueError``."""
    if not is_finite(value):
        raise ValueError(f"{value!r} is not a finite number")
    return value


def _evaluation_db(evaluation) -> dict:
    """The K and N ratios in dB of an ``evaluation_matrix.json`` product."""
    out = {}
    for key in ("gyro_dps", "accel"):
        k_db = evaluation[key]["k_ratio_db"]
        out[f"{key}_k_ratio_db"] = k_db if k_db is None else _finite(k_db)
        out[f"{key}_n_ratio_db"] = _finite(evaluation[key]["n_ratio_db"])
    return out


def _ratio_db(ratios) -> dict:
    """The mean dB value of the positive ``uncertainty_ratio`` cells of a
    ``ratio_matrices.json`` product; none when no cell is positive."""
    rows = ratios["uncertainty_ratio"]
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise TypeError("uncertainty_ratio is not a list of lists")
    # float(): numpy's log10 takes no int beyond 64 bits.
    positive = [db_ratio(float(v)) for row in rows for v in map(_finite, row) if v > 0]
    return {"uncertainty_ratio_db_mean": float(np.mean(positive))} if positive else {}


def _stages() -> dict:
    """The stage table: subcommand -> the ``cmd_*`` function it runs, as
    this module holds it at the call."""
    return {
        "simulate": cmd_simulate,
        "estimate": cmd_estimate,
        "propagate": cmd_propagate,
        "report": cmd_report,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imulab",
        description="Stationary IMU-array simulation, estimation, and propagation",
    )
    parser.add_argument("--version", action="version", version=f"imulab {__version__}")
    parser.add_argument("command", choices=_stages())
    parser.add_argument("--config", help="experiment config JSON")
    # Each flag's dest is the config field it overrides.
    parser.add_argument("--seed", type=int)
    parser.add_argument("--sensors", type=int)
    parser.add_argument("--rate", dest="rate_hz", type=float)
    parser.add_argument("--duration", dest="duration_s", type=float)
    parser.add_argument("--out", dest="out_dir")
    parser.add_argument("--format", dest="fmt", choices=["csv", "json"])
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand, the stage that ``_stages`` names, and return its
    exit code.

    The stage computes every output first. ``estimate`` and ``propagate``
    compute and render each ``k_grid`` entry's tables in one job of
    ``run_jobs``, in worker processes for a large stage, and ``render_report``
    checks each table there; every job has come back before the stage
    returns. Every pending write's payload is then checked by
    ``check_finite``, so a stage that computed a nan or inf writes nothing;
    only then are its writes run here, in order, and its line printed.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        writes, done = _stages()[args.command](load_config(args.config, args))
        for write in writes:
            check_finite(write.args)
        for write in writes:
            write()
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        # First: LinAlgError is a ValueError, which the last clause takes.
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(done)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
