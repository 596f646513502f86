"""Recording/manifest/report I/O.

Interchange formats:
  * manifest: JSON with rate_hz, gravity_mps2, units, and an ordered list of
    (sensor_id, relative path) pairs; a path may not be absolute or hold a
    ``..`` part, so every recording lies inside the manifest's directory
  * recording: CSV with header ``t,gx,gy,gz,ax,ay,az``, one row per sample
  * reports: JSON (nested) or CSV (column-per-series tables)

Every reader and writer takes a file path. Floats are serialized as
shortest round-trip decimals (``repr``), so a write-then-parse cycle is
bit-exact. Recordings are written in SI units (rad/s, m/s^2); a manifest read
from outside the program may declare ``deg/s`` gyro columns, which are
converted to rad/s on reading, in this module only.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import __version__
from .sensor_model import ArrayRecording, GravityModel, SensorRecording
from .estimation import bias_and_noise, rms

__all__ = [
    "DataError",
    "ConfigError",
    "ArrayManifest",
    "SensorStats",
    "read_json",
    "load_manifest",
    "write_manifest",
    "parse_recording_csv",
    "write_recording_csv",
    "write_array",
    "recording_stats",
    "recording_stats_key",
    "read_recording_stats",
    "write_recording_stats",
    "dataset_summary",
    "write_report",
]

_CSV_HEADER = ["t", "gx", "gy", "gz", "ax", "ay", "az"]
_GYRO_UNITS = ("deg/s", "rad/s")
_ACCEL_UNIT = "m/s2"
# Largest |bias| or noise std accepted from a recording, SI units. Far beyond
# any sensor's range, it leaves the stages room to square, sum and propagate
# the residuals without overflow.
_MAX_STAT = 1e100


class DataError(ValueError):
    """A data file that cannot be read, is malformed, or holds physically
    inconsistent content."""


class ConfigError(ValueError):
    """Invalid manifest or configuration."""


@dataclass(frozen=True)
class ArrayManifest:
    rate_hz: float
    sensor_files: tuple[tuple[str, str], ...]
    gravity_mps2: float = 9.81
    gyro_units: str = "rad/s"

    def __post_init__(self):
        if not self.rate_hz > 0:
            raise ConfigError(f"rate_hz must be > 0, got {self.rate_hz}")
        if not 0 <= self.gravity_mps2 < math.inf:
            raise ConfigError(
                f"gravity_mps2 must be finite and >= 0, got {self.gravity_mps2}"
            )
        if not self.sensor_files:
            raise ConfigError("manifest must list at least one sensor file")
        if self.gyro_units not in _GYRO_UNITS:
            raise ConfigError(f"unknown gyro units {self.gyro_units!r}")
        object.__setattr__(
            self, "sensor_files", tuple((str(a), str(b)) for a, b in self.sensor_files)
        )
        for _, rel in self.sensor_files:
            if Path(rel).is_absolute() or ".." in Path(rel).parts:
                raise ConfigError(
                    f"recording path {rel!r} is not inside the manifest's directory"
                )


class SensorStats(NamedTuple):
    """One sensor's ``bias_and_noise``: six-axis bias and white-noise std
    of its residuals, gyro axes (rad/s) first."""

    sensor_id: str
    bias: np.ndarray
    noise: np.ndarray


def read_json(path: str | os.PathLike):
    """Read a JSON data file as UTF-8.

    A file that cannot be read, is not UTF-8 or is not JSON is a
    ``DataError`` naming the path.
    """
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc


def load_manifest(path: str | os.PathLike) -> ArrayManifest:
    """Read a manifest file with ``read_json``.

    A manifest with a missing or invalid field, accel units other than
    ``m/s2`` included, is a ``DataError`` naming it.
    """
    raw = read_json(path)
    try:
        units = raw.get("units", {})
        if units.get("accel", _ACCEL_UNIT) != _ACCEL_UNIT:
            raise ConfigError(f"unknown accel units {units['accel']!r}")
        return ArrayManifest(
            rate_hz=float(raw["rate_hz"]),
            sensor_files=tuple((s["sensor_id"], s["path"]) for s in raw["sensor_files"]),
            gravity_mps2=float(raw.get("gravity_mps2", 9.81)),
            gyro_units=units.get("gyro", "rad/s"),
        )
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise DataError(f"{path}: missing or invalid manifest field: {exc}") from exc


def write_manifest(manifest: ArrayManifest, path: str | os.PathLike) -> None:
    payload = {
        "rate_hz": manifest.rate_hz,
        "gravity_mps2": manifest.gravity_mps2,
        "units": {"gyro": manifest.gyro_units, "accel": _ACCEL_UNIT},
        "sensor_files": [
            {"sensor_id": sid, "path": rel} for sid, rel in manifest.sensor_files
        ],
    }
    write_report(payload, "json", path)


def parse_recording_csv(
    path: str | os.PathLike,
    sensor_id: str,
    rate_hz: float,
    gyro_units: str = "rad/s",
) -> SensorRecording:
    """Parse the UTF-8 sensor CSV at ``path`` into an SI recording.

    Gyro columns are converted from the declared units. Blank lines are
    skipped. A path that cannot be read or is not UTF-8, a malformed line or
    a ``nan`` or ``inf`` value, and a time base that ``SensorRecording``
    rejects are each a ``DataError`` naming the sensor, and the path or line
    where there is one.
    """
    if gyro_units not in _GYRO_UNITS:
        raise ConfigError(f"unknown gyro units {gyro_units!r}")
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"{sensor_id}: cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{sensor_id}: {path}: not UTF-8 text: {exc}") from exc
    if not text:
        raise DataError(f"{sensor_id}: empty file")
    header_line, _, body = text.partition("\n")
    header = header_line.rstrip("\r").split(",")
    if [h.strip() for h in header] != _CSV_HEADER:
        raise DataError(
            f"{sensor_id}: bad header {header!r}, expected {','.join(_CSV_HEADER)}"
        )
    if not body.strip("\r\n"):
        raise DataError(f"{sensor_id}: no data rows")
    try:
        arr = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise _parse_error(sensor_id, body, exc) from exc
    if arr.shape[1] != len(_CSV_HEADER):
        raise _parse_error(sensor_id, body, "expected 7 columns")
    if not np.isfinite(arr).all():
        raise _parse_error(sensor_id, body, "non-finite value")
    gyro = arr[:, 1:4]
    if gyro_units == "deg/s":
        gyro = np.deg2rad(gyro)
    try:
        return SensorRecording(
            sensor_id=sensor_id, rate_hz=rate_hz, t=arr[:, 0], gyro=gyro, accel=arr[:, 4:7]
        )
    except ValueError as exc:
        raise DataError(f"{sensor_id}: {exc}") from exc


def _parse_error(sensor_id: str, body: str, cause) -> DataError:
    """Error naming the first malformed or non-finite line of a recording body.

    Only called once the vectorised parse has failed or found a non-finite
    value: its row numbers skip blank lines, so the file line is found by
    rescanning (the header is line 1). Falls back to ``cause`` if no line is
    malformed by this scan's rules.
    """
    for lineno, line in enumerate(body.split("\n"), start=2):
        row = line.rstrip("\r").split(",")
        if row == [""]:
            continue
        if len(row) != len(_CSV_HEADER):
            return DataError(f"{sensor_id}: line {lineno}: expected 7 columns")
        try:
            vals = [_cell_float(v) for v in row]
        except ValueError as exc:
            return DataError(f"{sensor_id}: line {lineno}: {exc}")
        if not all(map(math.isfinite, vals)):
            return DataError(f"{sensor_id}: line {lineno}: non-finite value")
    return DataError(f"{sensor_id}: {cause}")


def _cell_float(cell: str) -> float:
    """``float`` of a recording cell, refusing what ``np.loadtxt`` refuses and
    ``float`` takes: ``_`` digit separators and non-ASCII digits. Both take
    surrounding Unicode whitespace."""
    if "_" in cell or not cell.strip().isascii():
        raise ValueError(f"could not convert string to float: {cell!r}")
    return float(cell)


def write_recording_csv(recording: SensorRecording, dest: str | os.PathLike) -> None:
    """Write a recording to the path ``dest`` as a ``write_report`` CSV table,
    one row per sample, in SI units (rad/s, m/s^2).

    Cells are shortest round-trip floats; non-finite values are rejected.
    """
    cols = [recording.t, *recording.gyro.T, *recording.accel.T]
    write_report(dict(zip(_CSV_HEADER, cols)), "csv", dest)


def write_array(
    array: ArrayRecording, out_dir: str | os.PathLike, gravity: GravityModel
) -> Path:
    """Write per-sensor SI CSVs plus a manifest declaring rad/s and m/s2;
    returns the manifest path.

    Each recording is one ``write_recording_csv`` call. When the array holds
    at least two recordings and ``_POOL_MIN_VALUES`` values, and this process
    may run on at least two CPUs, can ``fork`` and runs no other thread, the
    calls run in a pool of up to one forked worker process per CPU that lives
    for this call only; otherwise they run here, one after another. Either
    way every file has the same bytes and is written whole by
    ``write_report``. The manifest is written only after every recording is;
    if one fails, its error is raised and there is no manifest. Running out
    of memory is a ``ConfigError`` naming ``out_dir`` and the sample count.
    """
    out = Path(out_dir)
    files = [(rec.sensor_id, f"{rec.sensor_id}.csv") for rec in array.recordings]
    try:
        with _recording_map(array) as map_:
            # list() waits for every write and raises the first failure. The
            # pool maps this module's own global, never a name that ``cli``
            # imported: perfbench's tracer wraps ``cli``'s imports, and a
            # wrapped alias cannot be pickled (pickle finds the original
            # under its name).
            list(map_(write_recording_csv, array.recordings, [out / rel for _, rel in files]))
    except MemoryError as exc:
        raise ConfigError(f"{out}: recordings of {array.n_samples} samples per sensor "
                          f"do not fit in memory: {str(exc) or 'MemoryError'}") from exc
    manifest = ArrayManifest(
        rate_hz=array.rate_hz, sensor_files=tuple(files), gravity_mps2=gravity.g_magnitude
    )
    manifest_path = out / "manifest.json"
    write_manifest(manifest, manifest_path)
    return manifest_path


# Fewest recording values (sensors x samples x 7 columns) that ``write_array``
# writes in worker processes: about 90 ms of ``repr`` (65 ms per 7e4 values),
# against 12-22 ms to start and stop a two-worker pool.
_POOL_MIN_VALUES = 100_000


@contextlib.contextmanager
def _recording_map(array: ArrayRecording):
    """The ``map`` that ``write_array`` writes ``array``'s recordings with.

    A forked process pool's ``map`` when the array is big enough to pay for
    the pool, more than one CPU and ``fork`` are available and this process
    runs no other Python thread (a lock such a thread held would stay held in
    the children); else the builtin. The pool is shut down, its workers
    joined, on leaving the block.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, array.n_sensors)
    values = array.n_sensors * array.n_samples * len(_CSV_HEADER)
    if (workers < 2 or values < _POOL_MIN_VALUES or not hasattr(os, "fork")
            or threading.active_count() > 1):
        yield map
        return
    # Deferred: both are slow to import, and only a large array needs them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not spawn: a spawned worker imports numpy and the package afresh,
    # 0.3-0.6 s for a two-worker pool on 2 CPUs, more than the pool saves.
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        try:
            yield pool.map
        except BrokenProcessPool as exc:
            # A worker that dies without raising, as the out-of-memory killer
            # leaves it, breaks the pool.
            raise MemoryError(f"a writer process died: {exc}") from exc


def recording_stats(array: ArrayRecording, gravity: GravityModel) -> list[SensorStats]:
    """``bias_and_noise`` of each recording, in the array's order.

    A recording too short to estimate from, or whose bias or noise is not
    finite or exceeds ``_MAX_STAT``, is a ``DataError`` naming its sensor.
    """
    stats = []
    for r in array.recordings:
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                bias, noise = bias_and_noise(r, gravity)
        except ValueError as exc:
            raise DataError(f"{r.sensor_id}: {exc}") from exc
        if not (np.all(np.abs(bias) <= _MAX_STAT) and np.all(noise <= _MAX_STAT)):
            raise DataError(
                f"{r.sensor_id}: bias or noise estimate not finite or above {_MAX_STAT:g}"
            )
        stats.append(SensorStats(r.sensor_id, bias, noise))
    return stats


def recording_stats_key(manifest_path: str | os.PathLike, manifest: ArrayManifest) -> dict:
    """What the recording stats of a manifest are a function of.

    The package version, and the SHA-256 of the manifest's bytes and of each
    recording's bytes in manifest order. A file that cannot be read is a
    ``DataError`` naming it.
    """
    import hashlib  # deferred: only this key needs it, and it is slow to import

    manifest_path = Path(manifest_path)
    paths = [manifest_path] + [manifest_path.parent / rel for _, rel in manifest.sensor_files]
    digests = []
    for path in paths:
        try:
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return {
        "software_version": __version__,
        "manifest_sha256": digests[0],
        "recordings_sha256": digests[1:],
    }


def read_recording_stats(
    path: str | os.PathLike, key: dict, sensor_ids: Sequence[str]
) -> list[SensorStats] | None:
    """Stats written by ``write_recording_stats`` under ``key``, or None.

    None (a miss) when the file is missing, unreadable, not JSON, stored
    under another key, or does not hold six float biases and noises for each
    of ``sensor_ids`` in order, each finite and within ``_MAX_STAT`` as
    ``recording_stats`` requires. JSON floats round-trip exactly, so a hit
    returns the very floats that were written.
    """
    try:
        raw = read_json(path)
        if raw["key"] != key or len(set(sensor_ids)) != len(sensor_ids):
            return None
        entries = raw["sensors"]
        if [e["sensor_id"] for e in entries] != list(sensor_ids):
            return None
        if not all(
            len(e[name]) == 6
            and all(type(v) is float and abs(v) <= _MAX_STAT for v in e[name])
            for e in entries for name in ("bias", "noise")
        ):
            return None
    except (DataError, KeyError, TypeError):
        return None
    return [
        SensorStats(e["sensor_id"], np.array(e["bias"]), np.array(e["noise"]))
        for e in entries
    ]


def write_recording_stats(
    path: str | os.PathLike, key: dict, stats: Sequence[SensorStats]
) -> None:
    """Write per-sensor stats under ``key`` with ``write_report``.

    The same key and stats give the same bytes.
    """
    payload = {
        "key": key,
        "sensors": [
            {"sensor_id": s.sensor_id, "bias": s.bias, "noise": s.noise} for s in stats
        ],
    }
    write_report(payload, "json", path)


def dataset_summary(stats: Sequence[SensorStats]) -> dict:
    """Per-sensor bias/noise RMS table with min/median/max aggregates.

    Returns ``{"per_sensor": {"sensor_ids": [...], <figure>: [...]},
    "aggregates": {<figure>: {"min", "median", "max"}}}`` for the figures
    ``gyro_bias_rms_dps``, ``gyro_noise_rms_dps``, ``accel_bias_rms`` and
    ``accel_noise_rms``. Bias RMS is the 3-axis RMS of the bias estimate;
    noise RMS is the 3-axis RMS of the per-axis residual std after bias
    removal; gyro figures are in deg/s.
    """
    figures = {
        "gyro_bias_rms_dps": [float(np.rad2deg(rms(s.bias[:3]))) for s in stats],
        "gyro_noise_rms_dps": [float(np.rad2deg(rms(s.noise[:3]))) for s in stats],
        "accel_bias_rms": [rms(s.bias[3:]) for s in stats],
        "accel_noise_rms": [rms(s.noise[3:]) for s in stats],
    }
    aggregates = {}
    for name, values in figures.items():
        vals = sorted(values)
        # Even counts take the lower-middle element, deterministically.
        aggregates[name] = {
            "min": vals[0],
            "median": vals[(len(vals) - 1) // 2],
            "max": vals[-1],
        }
    return {
        "per_sensor": {"sensor_ids": [s.sensor_id for s in stats], **figures},
        "aggregates": aggregates,
    }


_NON_FINITE = "reports must not contain non-finite values"


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        if obj.dtype == object:
            return _jsonable(obj.tolist())
        if obj.dtype.kind == "f" and not np.isfinite(obj).all():
            raise ValueError(_NON_FINITE)
        return obj.tolist()
    if isinstance(obj, np.generic):
        return _jsonable(obj.item())
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(_NON_FINITE)
        return obj
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_report(report, fmt: str, dest: str | os.PathLike) -> None:
    """Serialize a report deterministically as JSON or a columnar CSV to the
    path ``dest``.

    JSON accepts any nesting of mappings, sequences, and arrays.
    CSV requires a flat mapping of column name -> sequence of scalars (all of
    one length); an all-empty table still produces the header line. CSV cells
    hold ``repr`` of floats (shortest round trip) and ``str`` of anything else.

    This is the package's only file writer. ``dest`` gets its parent
    directories created, and the text is written to a temporary file beside
    it that is then renamed over it, so ``dest`` is either complete or left as
    it was. A directory that cannot be created or a file that cannot be
    written is a ``ConfigError`` naming it.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown report format {fmt!r}")
    payload = _jsonable(report)
    buf = io.StringIO()
    if fmt == "json":
        json.dump(payload, buf, indent=2)
        buf.write("\n")
    else:
        if not isinstance(payload, dict) or not all(
            isinstance(v, list) for v in payload.values()
        ):
            raise ConfigError("csv reports require a mapping of columns to sequences")
        if len({len(v) for v in payload.values()}) > 1:
            raise ConfigError("csv report columns must share one length")
        columns = [
            [repr(v) if isinstance(v, float) else str(v) for v in col]
            for col in payload.values()
        ]
        buf.write(",".join(payload) + "\n")
        buf.writelines(",".join(row) + "\n" for row in zip(*columns))
    text = buf.getvalue()
    path = Path(dest)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create {path.parent}: {exc.strerror or exc}") from exc
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise ConfigError(f"cannot write report to {path}: {exc.strerror or exc}") from exc
