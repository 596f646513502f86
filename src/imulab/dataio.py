"""Recording/manifest/report I/O.

Interchange formats:
  * manifest: JSON with rate_hz, gravity_mps2, units, and an ordered list of
    (sensor_id, relative path) pairs; a path may not be absolute or hold a
    ``..`` part, so every recording lies inside the manifest's directory, and
    may hold no NUL byte
  * recording: CSV with header ``t,gx,gy,gz,ax,ay,az``, one row per sample
  * reports: JSON (nested) or CSV (column-per-series tables)

Every reader and writer takes a file path. Floats are serialized as
shortest round-trip decimals (``repr``), so a write-then-parse cycle is
bit-exact. A CSV table of float64 columns (every table that the stages
write) of at least ``_FLOAT_KERNEL_MIN_CELLS`` cells is rendered a block of
rows at a time by a numpy kernel to ``repr``'s exact bytes
(``_float_cells``); only a cell outside [1e-6, 1e17) other than a zero, one
whose mantissa is a power of two and one exactly halfway between its two
nearest shortest decimals go through ``repr`` itself. Recordings are
written in SI units (rad/s, m/s^2); a manifest read
from outside the program may declare ``deg/s`` gyro columns, which are
converted to rad/s on reading, in this module only.

Beside the recordings it writes, ``write_recording_csv`` keeps a rows cache,
not an interchange format: each recording's rows as a ``.npy`` file in
``.rows/``, named by the SHA-256 of the recording's bytes. A recording whose
digest names an entry is loaded from it instead of parsed; deleting the
cache costs one parse per recording.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import pickle
import sys
import threading
import warnings
from collections.abc import Iterator, Mapping, Sequence
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .sensor_model import ArrayRecording, GravityModel, SensorRecording, SimulatedArray
from .estimation import bias_and_noise, rms

__all__ = [
    "DataError",
    "ConfigError",
    "ArrayManifest",
    "SensorStats",
    "read_json",
    "is_finite",
    "load_manifest",
    "write_manifest",
    "parse_recording_csv",
    "read_recording_rows",
    "cached_recording",
    "write_recording_csv",
    "write_array",
    "run_jobs",
    "sensor_stats",
    "recording_stats",
    "recording_stats_key",
    "read_recording_stats",
    "write_recording_stats",
    "dataset_summary",
    "check_finite",
    "render_report",
    "write_report",
]

_CSV_HEADER = ["t", "gx", "gy", "gz", "ax", "ay", "az"]
_GYRO_UNITS = ("deg/s", "rad/s")
_ACCEL_UNIT = "m/s2"
# Directory beside the recordings that ``write_recording_csv`` writes that
# holds each one's rows, named by the SHA-256 of its bytes (the rows cache).
_ROWS_DIR = ".rows"
# Fewest bytes a recording row takes: one character and a comma or newline
# per cell. A rows cache entry of more rows than its recording could hold
# is not that recording's.
_MIN_ROW_BYTES = 14
# Largest |bias| or noise std accepted from a recording, SI units. Far beyond
# any sensor's range, it leaves the stages room to square, sum and propagate
# the residuals without overflow.
_MAX_STAT = 1e100


class DataError(ValueError):
    """A data file that cannot be read, is malformed, or holds physically
    inconsistent content."""


class ConfigError(ValueError):
    """Invalid manifest or configuration."""


@dataclasses.dataclass(frozen=True)
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
        for _, rel in self.sensor_files:
            if "\0" in rel:
                raise ConfigError(f"recording path {rel!r} holds a NUL byte")
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

    A file that cannot be read, does not fit in memory, is not UTF-8, is
    not JSON, nests deeper than the decoder recurses or holds a value that
    Python refuses to convert (an integer of more than
    ``sys.get_int_max_str_digits()`` digits) is a ``DataError`` naming the
    path.
    """
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except MemoryError as exc:
        raise DataError(f"{path} does not fit in memory: {str(exc) or 'MemoryError'}") from exc
    except RecursionError as exc:
        raise DataError(f"{path}: JSON nested too deeply to read") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    except ValueError as exc:  # such as an integer of more digits than int() takes
        raise DataError(f"{path}: invalid JSON value: {exc}") from exc


def _is_number(value) -> bool:
    """Whether a JSON value is a float (nan and inf included) or an int within
    float range; a bool is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def is_finite(value) -> bool:
    """Whether a JSON value is an ``_is_number`` other than nan and inf."""
    return _is_number(value) and math.isfinite(value)


def load_manifest(path: str | os.PathLike) -> ArrayManifest:
    """Read a manifest file with ``read_json``.

    Values are taken as they are, never converted: ``rate_hz`` and
    ``gravity_mps2`` must be ``_is_number``s, each ``sensor_id`` and ``path`` a
    string. A manifest with a missing or invalid field, accel units other
    than ``m/s2`` included, is a ``DataError`` naming it.
    """
    raw = read_json(path)
    try:
        units = raw.get("units", {})
        if units.get("accel", _ACCEL_UNIT) != _ACCEL_UNIT:
            raise ConfigError(f"unknown accel units {units['accel']!r}")
        rate_hz, gravity = raw["rate_hz"], raw.get("gravity_mps2", 9.81)
        files = tuple((s["sensor_id"], s["path"]) for s in raw["sensor_files"])
        for name, value in (("rate_hz", rate_hz), ("gravity_mps2", gravity)):
            if not _is_number(value):
                raise ConfigError(f"{name} must be a number within float range, got {value!r}")
        for i, pair in enumerate(files):
            for key, value in zip(("sensor_id", "path"), pair):
                if not isinstance(value, str):
                    raise ConfigError(f"sensor_files[{i}].{key} must be a string, got {value!r}")
        return ArrayManifest(rate_hz, files, gravity, units.get("gyro", "rad/s"))
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
    rows: np.ndarray | None = None,
) -> SensorRecording:
    """Parse the UTF-8 sensor CSV at ``path`` into an SI recording.

    ``rows`` are the file's rows as ``read_recording_rows`` yields them;
    without them the file is read here, opened once and read as a stream of
    lines; only a file at fault is read again, whole, to name the fault
    (``_recording_rows``). Either way the time base is checked here, once,
    as the recording is built. Gyro columns are converted from the declared
    units. Blank lines are skipped. A path that cannot be read or is not
    UTF-8, a recording that does not fit in memory, a malformed line or a
    ``nan`` or ``inf`` value, and a time base that ``SensorRecording``
    rejects are each a ``DataError`` naming the sensor, and the path or line
    where there is one.
    """
    if gyro_units not in _GYRO_UNITS:
        raise ConfigError(f"unknown gyro units {gyro_units!r}")
    try:
        arr = _recording_rows(path, sensor_id) if rows is None else rows
        gyro = arr[:, 1:4]
        if gyro_units == "deg/s":
            gyro = np.deg2rad(gyro)
        try:
            return SensorRecording(
                sensor_id=sensor_id, rate_hz=rate_hz, t=arr[:, 0], gyro=gyro, accel=arr[:, 4:7]
            )
        except ValueError as exc:
            raise DataError(f"{sensor_id}: {exc}") from exc
    except MemoryError as exc:
        raise _beyond_memory(sensor_id, path, exc) from exc


def _beyond_memory(sensor_id: str, path, exc: MemoryError) -> DataError:
    return DataError(f"{sensor_id}: {path} does not fit in memory: "
                     f"{str(exc) or 'MemoryError'}")


def read_recording_rows(
    files: Sequence[tuple[str | os.PathLike, str]],
    digests: Sequence[str] | None = None,
) -> Iterator[tuple[np.ndarray, bool]]:
    """Yield the rows of each recording ``(path, sensor_id)`` of ``files``,
    in order, for ``parse_recording_csv``, each with whether they are a
    rows cache hit.

    ``digests`` are the SHA-256 of each recording's bytes, as
    ``recording_stats_key`` gives them. A recording whose digest names a
    file in the rows cache beside it is not parsed: at its turn the entry
    is loaded (``_cached_rows``), so no more than one entry is held here at
    a time, and should it prove not to be a hit, the recording is parsed
    here then. Every other recording is one ``_recording_rows`` call, run by
    ``_fork_map`` for those files' values (their sizes over
    ``_BYTES_PER_VALUE``): in worker processes or here, one after another.
    A recording's fault is raised only when its turn comes, so a caller that
    checks each recording before taking the next names the first one at
    fault, as reading them one after another does. Running out of memory,
    or a worker that dies, is a ``DataError`` naming the recording. Close
    the generator to stop and reap the workers early.
    """
    if digests is None:
        digests = [None] * len(files)
    entries = [digest is not None and os.path.isfile(_rows_entry(path, digest))
               for (path, _), digest in zip(files, digests, strict=True)]
    misses = [file for file, entry in zip(files, entries) if not entry]
    size = 0
    for path, _ in misses:
        with contextlib.suppress(OSError):  # its read names the fault
            size += os.path.getsize(path)
    with contextlib.closing(_fork_map(_recording_rows, misses,
                                      size // _BYTES_PER_VALUE)) as parsed:
        for (path, sensor_id), digest, entry in zip(files, digests, entries):
            try:
                rows = _cached_rows(path, digest) if entry else next(parsed)
                hit = entry and rows is not None
                if entry and not hit:
                    rows = _recording_rows(path, sensor_id)
            except MemoryError as exc:
                raise _beyond_memory(sensor_id, path, exc) from exc
            yield rows, hit
            del rows  # not held while the next recording is read


def cached_recording(
    path: str | os.PathLike, sensor_id: str, rate_hz: float, gyro_units: str, digest: str
) -> SensorRecording | None:
    """The recording at ``path`` built by ``parse_recording_csv`` from its
    rows cache entry, named by the SHA-256 ``digest``: a recording that
    ``read_recording_rows`` yielded as a hit, taken again. None if the entry
    is no longer a hit; the file is never parsed here.
    """
    rows = _cached_rows(path, digest)
    return None if rows is None else parse_recording_csv(path, sensor_id, rate_hz, gyro_units,
                                                         rows=rows)


def _rows_entry(path, digest: str) -> Path:
    """The rows cache entry of the recording at ``path`` whose bytes have
    the SHA-256 ``digest``."""
    return Path(path).parent / _ROWS_DIR / f"{digest}.npy"


def _cached_rows(path, digest: str) -> np.ndarray | None:
    """The rows that ``write_recording_csv`` wrote beside the recording at
    ``path`` whose bytes have the SHA-256 ``digest``, or None (a miss).

    An entry is a hit when it is a version 1.0 ``.npy`` file of a C-order
    float64 (n, 7) array whose n rows its size holds exactly and the
    recording's size could hold (``_MIN_ROW_BYTES``), all finite. The header
    is checked against both sizes before the data is read, so a damaged
    header cannot size a large allocation, and nothing is unpickled. A
    missing, unreadable or damaged entry is a miss, never an error. An entry
    is trusted as its name: one edited in place under that name is believed.
    """
    npy = np.lib.format
    try:
        recording_size = os.path.getsize(path)
        with open(_rows_entry(path, digest), "rb") as fh:
            if npy.read_magic(fh) != (1, 0):
                return None
            (n, columns), fortran_order, dtype = npy.read_array_header_1_0(fh)
            values = n * columns
            if (columns != len(_CSV_HEADER) or fortran_order or dtype != np.float64
                    or not 0 < n * _MIN_ROW_BYTES <= recording_size
                    or fh.tell() + values * dtype.itemsize != os.fstat(fh.fileno()).st_size):
                return None
            rows = np.fromfile(fh, dtype, values)
    except (OSError, ValueError, MemoryError):
        return None
    if rows.size != values or not np.isfinite(rows).all():
        return None
    return rows.reshape(n, columns)


def _recording_rows(path, sensor_id: str) -> np.ndarray:
    r"""The rows of the recording at ``path`` as an (N, 7) array of finite
    values, or a ``DataError`` naming its first fault.

    The header is checked from the first line and the body read from the
    open stream by ``_read_rows``; ``newline="\n"`` splits lines where the
    text's ``split("\n")`` does. A warning, such as the reader's for a body
    with no rows, fails the stream too. A stream that fails is rewound and
    read whole, since only a whole decode places a bad byte in the file
    rather than in one chunk of it. The fault is then named in this order:
    not UTF-8, empty file, bad header, no data rows, then the first line (the
    header is line 1; blank lines are skipped) that lacks 7 cells, that
    ``_read_rows`` rejects, or that holds a non-finite value. A rejected line
    names its first cell that the reader rejects among zeros, or else the
    reader's message; if no line is at fault, the stream's failure is named.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="\n") as fh:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    header = fh.readline().removesuffix("\n").rstrip("\r").split(",")
                    if [h.strip() for h in header] != _CSV_HEADER:
                        raise DataError(f"{sensor_id}: bad header {header!r}, "
                                        f"expected {','.join(_CSV_HEADER)}")
                    arr = _read_rows(fh)
                if arr.shape[1] != len(_CSV_HEADER):
                    raise ValueError("expected 7 columns")
                if not np.isfinite(arr).all():
                    raise ValueError("non-finite value")
                return arr
            except (ValueError, Warning) as exc:
                cause = exc
            fh.seek(0)
            text = fh.read()
    except OSError as exc:
        raise DataError(f"{sensor_id}: cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{sensor_id}: {path}: not UTF-8 text: {exc}") from exc
    if not text:
        raise DataError(f"{sensor_id}: empty file")
    if isinstance(cause, DataError):
        raise cause
    body = text.partition("\n")[2]
    if not body.strip("\r\n"):
        raise DataError(f"{sensor_id}: no data rows")
    for lineno, line in enumerate(body.split("\n"), start=2):
        cells = line.rstrip("\r").split(",")
        if cells == [""]:
            continue
        if len(cells) != len(_CSV_HEADER):
            raise DataError(f"{sensor_id}: line {lineno}: expected 7 columns")
        try:
            row = _read_rows([line])
        except ValueError as exc:
            bad = next((c for j, c in enumerate(cells) if not _reads_alone(cells, j)), None)
            problem = exc if bad is None else f"could not convert string to float: {bad!r}"
            raise DataError(f"{sensor_id}: line {lineno}: {problem}") from exc
        if not np.isfinite(row).all():
            raise DataError(f"{sensor_id}: line {lineno}: non-finite value")
    raise DataError(f"{sensor_id}: {cause}") from cause


def _read_rows(lines) -> np.ndarray:
    """The recording reader: the comma-separated rows of an iterable of
    lines as an (N, columns) array."""
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def _reads_alone(cells: list[str], j: int) -> bool:
    """Whether ``_read_rows`` takes ``cells[j]`` in a row whose other cells are 0."""
    try:
        _read_rows([",".join(["0"] * j + [cells[j]] + ["0"] * (len(cells) - j - 1))])
    except ValueError:
        return False
    return True


def write_recording_csv(recording: SensorRecording, dest: str | os.PathLike) -> None:
    """Write a recording to the path ``dest`` as a ``write_report`` CSV table,
    one row per sample, in SI units (rad/s, m/s^2), and its rows cache entry.

    Cells are shortest round-trip floats, ``repr``'s bytes, rendered by
    ``render_report``'s float kernel (``_float_cells``), which leaves to
    ``repr`` only a nonzero cell outside [1e-6, 1e17), a power-of-two
    mantissa and an exact tie; non-finite values are rejected. The table is
    rendered and encoded once, and those bytes are written.
    Then the same values, as the C-order float64 (N, 7) array that
    ``_recording_rows`` reads from those bytes, are written as a ``.npy``
    file named by the bytes' SHA-256 (``_rows_entry``), both by
    ``write_report``. An entry that cannot be written (its name taken by a
    directory, say) is left out, as one that cannot be read is a miss: its
    recording is parsed.
    """
    cols = [recording.t, *recording.gyro.T, *recording.accel.T]
    data = render_report(dict(zip(_CSV_HEADER, cols)), "csv").encode("utf-8")
    write_report(data, "csv", dest)
    npy = io.BytesIO()
    np.lib.format.write_array(npy, np.column_stack(cols), version=(1, 0), allow_pickle=False)
    with contextlib.suppress(ConfigError):
        write_report(npy.getvalue(), "npy", _rows_entry(dest, _sha256(data)))


def _sha256(data: bytes) -> str:
    import hashlib  # deferred: only the stages that hash need it, and it is slow to import

    return hashlib.sha256(data).hexdigest()


def write_array(
    array: SimulatedArray, out_dir: str | os.PathLike, gravity: GravityModel
) -> Path:
    """Write per-sensor SI CSVs plus a manifest declaring rad/s and m/s2;
    returns the manifest path.

    Each recording is one job of ``run_jobs`` for the array's values, in
    forked worker processes or here, one after another, that draws it
    (``array.recording(k)``) and writes it by ``write_recording_csv``. So
    the recordings are drawn one at a time in each process, none is held
    beyond its write, and every file has the same bytes wherever it is
    drawn; each is written whole by ``write_report``.
    A manifest already in ``out_dir`` is removed before the first recording
    is written, and the new one is written only after every recording is;
    if one fails, its error is raised and there is no manifest, so no
    manifest lists recordings of two runs. Before the old manifest is
    removed, each recording it lists that is not written here is removed
    too, so no recording of an earlier, larger run is left; a manifest that
    does not load is skipped, and no file it does not list is touched. The
    entries of the rows cache in ``out_dir`` are removed with the manifest,
    so it holds only those of the recordings written here. A recording or
    an entry that cannot be removed (a directory, say) is left: a manifest
    never lists that recording, and the entry can be a hit only for the
    recording whose bytes name it. Running out of memory in a job, drawing
    or writing, or a worker that dies, is ``run_jobs``'s ``ConfigError``
    naming ``out_dir`` and the sample count.
    """
    # Deferred, as in ``_sha256``; imported before the fork, so each worker inherits it.
    import hashlib  # noqa: F401

    out = Path(out_dir)
    files = [(sid, f"{sid}.csv") for sid in array.sensor_ids]
    manifest_path = out / "manifest.json"
    written = {out / rel for _, rel in files}
    with contextlib.suppress(DataError):  # no manifest, or one that does not load
        for _, rel in load_manifest(manifest_path).sensor_files:
            if out / rel not in written:
                with contextlib.suppress(ConfigError):
                    write_report(None, "csv", out / rel)
    write_report(None, "json", manifest_path)  # removes it
    with contextlib.suppress(FileNotFoundError, NotADirectoryError):  # no entries
        for entry in (out / _ROWS_DIR).iterdir():
            with contextlib.suppress(ConfigError):
                write_report(None, "npy", entry)
    run_jobs(_write_recording, [(array, k, out / rel) for k, (_, rel) in enumerate(files)],
             array.n_sensors * array.n_samples * len(_CSV_HEADER),
             out, f"recordings of {array.n_samples} samples per sensor")
    manifest = ArrayManifest(
        rate_hz=array.rate_hz, sensor_files=tuple(files), gravity_mps2=gravity.g_magnitude
    )
    write_manifest(manifest, manifest_path)
    return manifest_path


def _write_recording(array: SimulatedArray, k: int, dest: Path) -> None:
    """``write_array``'s job: recording k of ``array`` to ``dest``."""
    write_recording_csv(array.recording(k), dest)


def run_jobs(fn, jobs: Sequence[tuple], n_values: int, out, what: str) -> list:
    """``fn(*job)`` for each of ``jobs``, ``n_values`` values in all, in
    order, run by ``_fork_map``: in worker processes or here.

    Every job has run, or the first job's exception is raised. Running out
    of memory, or a worker that dies, is a ``ConfigError`` naming the output
    ``out`` and saying that ``what`` (such as ``"products of 10000
    samples"``) do not fit in memory.
    """
    try:
        return list(_fork_map(fn, jobs, n_values))
    except MemoryError as exc:
        raise ConfigError(f"{out}: {what} do not fit in memory: "
                          f"{str(exc) or 'MemoryError'}") from exc


# Fewest values that ``_fork_map`` hands to worker processes: recording
# values (sensors x samples x 7 columns) for recording jobs, of the
# recordings to parse only (rows cache misses) for reads, 6 per sample
# for ``estimate``'s per-k jobs and 20 per tau for ``propagate``'s. Measured
# on 2 CPUs (Python 3.11, numpy 2.4), in-process, with ``_float_cells``
# rendering the tables: a recording value takes about 0.32 us to write
# (0.76 us with the template) and 0.25-0.36 us to parse, and a per-k value
# about 0.73 us to compute and render in ``estimate`` (N = 1e4; 1.1 us with
# the template) and 0.59 us in ``propagate`` (2001 taus; 0.82 us). Forking
# two workers and reaping them takes about 5 ms, receiving a parsed
# recording of 7e4 values, pickled, 1-2 ms, and receiving a rendered table
# about 1.5 ms per MB (``estimate``'s series: 27 bytes per value). So at
# 1e5 values two workers save about 16 ms of writes, 12-18 ms of parses or
# 30-36 ms of per-k work, more than the fork costs; they break even at
# about 3e4 to 4e4 values.
_POOL_MIN_VALUES = 100_000
# Bytes per value of a recording that ``write_recording_csv`` wrote: a
# shortest round-trip float and its comma, 18.6 bytes in the benchmark's
# seed-7 recordings.
_BYTES_PER_VALUE = 19


def _cpus() -> int:
    """The CPUs this process may run on: how many workers ``_fork_map`` forks
    and how many threads ``recording_stats_key`` hashes on, at most."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _fork_map(fn, args: Sequence[tuple], n_values: int) -> Iterator:
    """``fn(*a)`` for each ``a`` of ``args``, ``n_values`` values in all,
    yielded in order; the one place that decides where they run. A job is
    one recording to write or read, or one ``k_grid`` entry's products.

    They run in forked worker processes, one per CPU this process may run
    on and at most one per item, when that is at least two, there are at
    least ``_POOL_MIN_VALUES`` values to pay for the workers, ``fork`` is
    available, and this process runs no other Python thread (a lock such a
    thread held would stay held in the children). The workers live for this
    call only; worker w inherits ``fn`` and ``args`` (they are not pickled)
    and calls ``args[w]``, ``args[w + workers]``, ... in order, sending each
    result, or the exception it raised, pickled over its own pipe
    (``_fork_worker``), and leaves by ``os._exit``. A result is yielded, or
    its exception raised, in order; a worker that dies is a ``MemoryError``,
    as the out-of-memory killer leaves it. On leaving, every pipe is closed, so a
    worker still sending stops, and every worker is reaped.

    Otherwise, and when the system refuses a pipe or a fork, the calls run
    here, one after another; after a refusal, only once the workers already
    forked are reaped, and with the pipe of the refused fork closed. So each
    call must be one that may run twice.
    ``recording_stats_key``'s threads never overlap a fork: it joins them
    before it returns.
    """
    workers = min(_cpus(), len(args))
    if (workers < 2 or n_values < _POOL_MIN_VALUES or not hasattr(os, "fork")
            or threading.active_count() > 1):
        workers = 0
    receivers, pids = [], []
    try:
        if workers:
            # fork, not spawn: a spawned worker imports numpy and the package
            # afresh, 0.3-0.6 s for two workers on 2 CPUs, more than they save.
            try:
                for w in range(workers):
                    read_fd, write_fd = os.pipe()
                    try:
                        pid = os.fork()
                    except OSError:
                        os.close(read_fd)
                        os.close(write_fd)
                        raise
                    if pid == 0:
                        code = 1
                        try:
                            os.close(read_fd)
                            sender = os.fdopen(write_fd, "wb")  # kept open until os._exit
                            _fork_worker(fn, args[w::workers], sender, receivers)
                            code = 0
                        finally:
                            os._exit(code)  # runs no exit handler and flushes no buffer
                    pids.append(pid)
                    receivers.append(os.fdopen(read_fd, "rb"))
                    os.close(write_fd)  # the worker holds the only writing end
            except OSError:  # EAGAIN, ENOMEM, EMFILE: no process or pipe to spare
                workers = 0
            else:
                for j in range(len(args)):
                    yield _receive(receivers[j % workers])
    finally:
        for receiver in receivers:
            receiver.close()
        for pid in pids:
            os.waitpid(pid, 0)
    if not workers:
        yield from itertools.starmap(fn, args)


def _fork_worker(fn, args: Sequence[tuple], sender, receivers) -> None:
    """In a forked worker: for each ``a`` of ``args``, in order, write
    ``("value", fn(*a))``, or ``("raise", exc)`` for the exception it
    raises, as one pickle to the file ``sender``, flushed. Stops when the
    main process has closed its end of the pipe.
    """
    for receiver in receivers:
        receiver.close()  # inherited receiving ends: only the main process's stay open
    try:
        for a in args:
            try:
                frame = ("value", fn(*a))
            except Exception as exc:
                frame = ("raise", exc)
            pickle.dump(frame, sender)
            sender.flush()
    except OSError:
        pass  # the main process stopped reading


def _receive(receiver):
    """The next result that ``_fork_worker`` wrote to the file ``receiver``,
    or the exception it wrote raised. A pickle cut short, or none, is a
    worker that died."""
    try:
        kind, payload = pickle.load(receiver)
    except (EOFError, pickle.UnpicklingError) as exc:
        raise MemoryError("a worker process died") from exc
    if kind == "raise":
        raise payload
    return payload


def sensor_stats(recording: SensorRecording, gravity: GravityModel) -> SensorStats:
    """``bias_and_noise`` of one recording.

    A recording too short to estimate from, or whose bias or noise is not
    finite or exceeds ``_MAX_STAT``, is a ``DataError`` naming its sensor.
    """
    sid = recording.sensor_id
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            bias, noise = bias_and_noise(recording, gravity)
    except ValueError as exc:
        raise DataError(f"{sid}: {exc}") from exc
    if not (np.all(np.abs(bias) <= _MAX_STAT) and np.all(noise <= _MAX_STAT)):
        raise DataError(f"{sid}: bias or noise estimate not finite or above {_MAX_STAT:g}")
    return SensorStats(sid, bias, noise)


def recording_stats(array: ArrayRecording, gravity: GravityModel) -> list[SensorStats]:
    """``sensor_stats`` of each recording, in the array's order: the first
    recording at fault is named."""
    return [sensor_stats(r, gravity) for r in array.recordings]


# Bytes each of ``recording_stats_key``'s threads reads at a time, into a
# buffer it reuses: its peak memory is one block per thread, whatever a
# recording's size. On 2 CPUs, 256 KiB blocks hash the benchmark's 24
# wide_manifest recordings (31 MB) as fast as 1 MiB blocks, in 15-16 ms.
_HASH_BLOCK = 1 << 18


def recording_stats_key(manifest_path: str | os.PathLike, manifest: ArrayManifest) -> dict:
    """What the recording stats of a manifest are a function of.

    The package version, and the SHA-256 of the manifest's bytes and of each
    recording's bytes in manifest order. The files are hashed on every CPU
    this process may run on (``_cpus``), by at most one thread per file, the
    calling thread among them: each takes the next file in manifest order
    and reads it in blocks of ``_HASH_BLOCK`` bytes into a buffer of its own,
    so that no file is held whole (``hashlib`` lets go of the GIL while it
    hashes a block). Every thread is joined before this returns or raises.
    A thread that cannot be started leaves its files to the others.

    The first file in manifest order that cannot be hashed decides the
    fault: a file that cannot be read is a ``DataError`` naming it, and any
    other exception is raised as it is.
    """
    import hashlib  # deferred, as in ``_sha256``

    manifest_path = Path(manifest_path)
    paths = [manifest_path] + [manifest_path.parent / rel for _, rel in manifest.sensor_files]
    results = [None] * len(paths)  # each file's hex digest, or the exception it raised
    todo = iter(enumerate(paths))
    lock = threading.Lock()

    def hash_files(buffer: bytearray) -> None:
        view = memoryview(buffer)
        while True:
            with lock:
                i, path = next(todo, (None, None))
            if path is None:
                return
            try:
                digest = hashlib.sha256()
                with open(path, "rb", buffering=0) as fh:
                    while n := fh.readinto(view):
                        digest.update(view[:n])
                results[i] = digest.hexdigest()
            except Exception as exc:
                results[i] = exc

    # Allocated here, before any thread starts: buffers that the threads
    # allocated themselves read about 0.2 MB more peak RSS on wide_manifest.
    buffers = [bytearray(_HASH_BLOCK) for _ in range(min(_cpus(), len(paths)))]
    threads = []
    try:
        for buffer in buffers[1:]:
            thread = threading.Thread(target=hash_files, args=(buffer,))
            try:
                thread.start()
            except RuntimeError:  # no thread to spare: the started ones and this one hash the rest
                break
            threads.append(thread)
        hash_files(buffers[0])
    finally:
        for thread in threads:
            thread.join()
    for path, result in zip(paths, results):
        if isinstance(result, OSError):
            raise DataError(f"cannot read {path}: {result.strerror or result}") from result
        if isinstance(result, Exception):
            raise result
    return {
        "software_version": __version__,
        "manifest_sha256": results[0],
        "recordings_sha256": results[1:],
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


def check_finite(payload) -> None:
    """Raise ``write_report``'s ``ValueError`` if ``payload`` holds a nan or
    inf float.

    It looks into arrays, numpy scalars, mappings, lists, tuples and the
    fields of dataclasses, and converts nothing.
    """
    if isinstance(payload, np.ndarray):
        if payload.dtype == object:
            check_finite(payload.tolist())
        elif payload.dtype.kind == "f" and not np.isfinite(payload).all():
            raise ValueError(_NON_FINITE)
    elif isinstance(payload, np.generic):
        check_finite(payload.item())
    elif isinstance(payload, float):
        if not math.isfinite(payload):
            raise ValueError(_NON_FINITE)
    elif isinstance(payload, Mapping):
        for value in payload.values():
            check_finite(value)
    elif isinstance(payload, (list, tuple)):
        for value in payload:
            check_finite(value)
    elif dataclasses.is_dataclass(payload):
        for f in dataclasses.fields(payload):
            check_finite(getattr(payload, f.name))


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist()) if obj.dtype == object else obj.tolist()
    if isinstance(obj, np.generic):
        return _jsonable(obj.item())
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


# Rows of a float table that ``_float_rows`` renders at a time: it bounds the
# kernel's temporaries to about 0.7 MB per column.
_FLOAT_BLOCK_ROWS = 2048
# Fewest cells of a float table that ``render_report`` hands to the kernel.
# Measured on 2 CPUs (Python 3.11, numpy 2.4), tables of 5 and 10 columns
# take the kernel and the template the same time, about 0.27 ms, at 400
# cells; below that the kernel's fixed cost, about 0.2 ms a call, loses. So
# ``estimate``'s running-std tables (36 x 5 at N = 1e4) keep the template.
_FLOAT_KERNEL_MIN_CELLS = 400
# The shortest round-trip kernel's tables. 10**k as int64, and as float64 for
# k <= 22, where it is exact, with that float split in two 26-bit halves for
# Dekker's two-product (Veltkamp's split, by 2**27 + 1).
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_POW10_F = np.array([float(10**k) for k in range(23)])
_SPLIT = 134217729.0
_POW10_HI = _POW10_F * _SPLIT - (_POW10_F * _SPLIT - _POW10_F)
_POW10_LO = _POW10_F - _POW10_HI
_MANTISSA = np.uint64((1 << 52) - 1)


def _ascii_words(texts: Sequence[bytes]) -> np.ndarray:
    """Each of ``texts``, at most 8 bytes, NUL-padded into one little-endian
    8-byte word."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), "<u8")


# A cell is six words of NUL-padded ASCII: word 0 holds the sign, five
# prefix slots (``0.000`` at most) and the lead digit with its dot slot;
# words 1-4 hold four digits each, every one followed by a dot slot; word 5
# holds the exponent and the separator. Words 1-4 come from
# ``_DIGIT_WORDS[c]`` for each 4-digit chunk c, or ``_DIGIT_WORDS[10000 +
# c]``, c's digits with its trailing zeros blanked, where only zeros follow
# c. An integral value's zeros up to its ".0" are kept by ANDing ``c``'s
# word with ``_KEEP_DIGITS[n]``, which keeps the first n - 1 digit slots of
# words 1-4.
_DIGITS = np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1).T  # 0000 to 9999
_DIGIT_WORDS = np.zeros((2, 10000, 8), np.uint8)
_DIGIT_WORDS[:, :, 0:8:2] = _DIGITS + ord("0")
_DIGIT_WORDS[1, :, 0:8:2][np.logical_and.accumulate(_DIGITS[:, ::-1] == 0, axis=1)[:, ::-1]] = 0
_DIGIT_WORDS = _DIGIT_WORDS.view("<u8").ravel()
_KEEP_DIGITS = _ascii_words([b"\xff\0" * n for n in range(5)])[
    np.clip(np.arange(19)[:, None] - [1, 5, 9, 13], 0, 4)]
# The prefix of a fixed-point cell with -3 <= decpt <= 0 is code 1 - decpt;
# a zero's is code 2; a cell left to ``repr`` holds a ``%s`` placeholder.
_PREFIXES = _ascii_words([b"\0" + p for p in (b"", b"0.", b"0.0", b"0.00", b"0.000", b"%s")])
_ZERO_PREFIX, _REPR_PREFIX = 2, 5
# Exponents -99..99 at e + 99; no exponent last.
_EXPONENTS = _ascii_words([b"e%+03d" % e for e in range(-99, 100)] + [b""])


def _float_rows(columns: Sequence[np.ndarray]) -> str:
    """The rows of a CSV table of 1-D float64 columns of one length, each
    cell its value's ``repr``, rendered ``_FLOAT_BLOCK_ROWS`` at a time."""
    blocks = (np.column_stack([c[i:i + _FLOAT_BLOCK_ROWS] for c in columns]).ravel()
              for i in range(0, len(columns[0]), _FLOAT_BLOCK_ROWS))
    return "".join(_float_cells(block, len(columns)) for block in blocks)


def _float_cells(values: np.ndarray, n_columns: int) -> str:
    """The ``repr`` of each of the C-order float64 ``values``, rows of
    ``n_columns`` cells, each cell followed by a comma, the last of a row by
    a newline.

    A finite |v| in [1e-6, 1e17) whose mantissa is not a power of two is
    rendered here (Steele & White, PLDI 1990; Adams, PLDI 2018). P = |v| *
    10**k, 10**k exact (k <= 22), lies in about [1e16, 1e17]; Dekker's
    two-product gives it exactly as an integer plus a fraction. The values
    that read back as v are those within half an ulp of it, scaled: H =
    10**k * 2**(exponent - 54), boundaries included only for an even
    mantissa. The shortest digits are the multiple of the largest 10**j
    whose nearest multiple to P lies in that interval: the last integer B
    in it, less B mod 10**j, is at least the first. A cell whose nearest
    two candidates tie is left to ``repr``, as is every other cell but a
    zero, which is written here. The digits are laid out as the fixed or
    exponent form that ``repr`` picks from the decimal point's place, in
    the six-word cells above, and one ``bytes.translate`` deletes the NULs.
    """
    m = values.size
    bits = values.view(np.uint64)
    a = np.abs(values)
    zero = a == 0
    exact = (a >= 1e-6) & (a < 1e17) & ((bits & _MANTISSA) != 0)
    x = np.where(exact, a, 1.5)  # any value the arithmetic below takes quietly
    k = np.clip(16 - np.floor(np.log10(x)).astype(np.int64), 0, 22)
    p = _POW10_F.take(k)
    # Dekker's two-product: P = hi + lo exactly, whole = floor(P), frac = P - whole.
    hi = x * p
    xh = x * _SPLIT - (x * _SPLIT - x)
    xl = x - xh
    ph, pl = _POW10_HI.take(k), _POW10_LO.take(k)
    lo = ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl
    lo_whole = np.floor(lo)
    frac = lo - lo_whole
    whole = hi.astype(np.int64) + lo_whole.astype(np.int64)
    half = np.ldexp(p, np.frexp(x)[1] - 54)
    half_whole = np.floor(half)
    half_frac = half - half_whole
    half_whole = half_whole.astype(np.int64)
    odd = (bits & np.uint64(1)).astype(bool)
    # The last (top) and first (bottom) integers within P -+ H.
    s = frac + half_frac
    carry = s >= 1
    top = whole + half_whole + carry - ((s == carry) & odd)
    d = frac - half_frac
    borrow = d < 0
    bottom = whole - half_whole - borrow + ((d != 0) | odd)
    width = top - bottom
    # j passes when a multiple of 10**j lies in [bottom, top]; every j below
    # a passing one passes. As width <= 2H < 23, j >= 2 passes when j = 2
    # does and top // 100 ends in j - 2 zeros, which few cells do.
    j = (top - top // 10 * 10 <= width).astype(np.int64) + (top - top // 100 * 100 <= width)
    passing = np.flatnonzero(j == 2)
    t = top.take(passing) // 100
    for z in (8, 4, 2, 1):
        ends = t - t // _POW10[z] * _POW10[z] == 0
        t = np.where(ends, t // _POW10[z], t)
        j[passing] += z * ends
    step = _POW10.take(j)
    below = whole // step
    # The multiple above is nearer when 2 * (P - below * step) > step.
    gap = (step - 2 * (whole - below * step)).astype(float)
    frac2 = 2 * frac
    kernel = exact & (frac2 != gap)
    to_repr = ~zero & ~kernel
    digits = (below + (frac2 > gap)) * kernel
    # below has as many digits as whole, less j; rounding up can add one.
    n = 16 + (whole >= _POW10[16]) + (whole >= _POW10[17]) - j
    n += digits >= _POW10.take(n)
    decpt = n + j - k
    exponent = (decpt <= -4) | (decpt > 16)
    point = ~exponent & (decpt > 0)
    rest = digits * _POW10.take(17 - n)
    lead = rest // _POW10[16]
    rest -= lead * _POW10[16]
    chunks = np.empty((4, m), np.int64)
    for w, unit in enumerate(_POW10[[12, 8, 4]]):
        chunks[w] = rest // unit
        rest -= chunks[w] * unit
    chunks[3] = rest
    cells = np.empty((m, 6), "<u8")
    only_zeros_after = np.ones(m, bool)
    for w in (3, 2, 1, 0):
        cells[:, w + 1] = _DIGIT_WORDS.take(chunks[w] + 10000 * only_zeros_after)
        only_zeros_after &= chunks[w] == 0
    integral = np.flatnonzero(kernel & point & (decpt >= n))
    cells[integral, 1:5] = (_DIGIT_WORDS.take(chunks[:, integral].T)
                            & np.take(_KEEP_DIGITS, decpt[integral] + 1, axis=0))
    prefix = np.where(~exponent & (decpt <= 0), 1 - decpt, 0)
    prefix[zero] = _ZERO_PREFIX
    prefix[to_repr] = _REPR_PREFIX
    cells[:, 0] = (_PREFIXES.take(prefix)
                   | (np.signbit(values) & ~to_repr).astype("<u8") * ord("-")
                   | ((lead + ord("0")) * kernel).astype("<u8") << np.uint64(48))
    separators = np.full(n_columns, ord(","), "<u8")
    separators[-1] = ord("\n")
    cells[:, 5] = (_EXPONENTS.take(np.where(exponent & kernel, decpt + 98, 199))
                   | np.tile(separators << np.uint64(32), m // n_columns))
    dot = np.where(point, decpt - 1, np.where(exponent & (n > 1), 0, -1))
    dotted = np.flatnonzero(kernel & (dot >= 0))
    cells.view(np.uint8).reshape(-1)[dotted * 48 + 7 + 2 * dot[dotted]] = ord(".")
    text = cells.tobytes().translate(None, b"\0").decode("ascii")
    if to_repr.any():
        text %= tuple(repr(v) for v in values[to_repr].tolist())
    return text


def _is_float_table(report) -> bool:
    """Whether ``report`` is a mapping of 1-D float64 arrays of one length,
    at least ``_FLOAT_KERNEL_MIN_CELLS`` cells in all."""
    if not isinstance(report, Mapping):
        return False
    columns = list(report.values())
    return (all(isinstance(c, np.ndarray) and c.dtype == np.float64 and c.ndim == 1
                for c in columns)
            and len({len(c) for c in columns}) == 1
            and len(columns) * len(columns[0]) >= _FLOAT_KERNEL_MIN_CELLS)


def render_report(report, fmt: str) -> str:
    """A report's text as ``write_report`` writes it: deterministic JSON, or
    a columnar CSV.

    JSON accepts any nesting of mappings, sequences, and arrays.
    CSV requires a flat mapping of column name -> sequence of scalars (all of
    one length); an all-empty table still produces the header line. CSV cells
    hold ``str`` of each value, for a float its ``repr`` (shortest round
    trip), filled into one row template. A table whose columns are all 1-D
    float64 arrays (``_is_float_table``) is rendered instead by a numpy
    kernel, ``_float_cells``, to the same bytes: it writes each zero and
    each |v| in [1e-6, 1e17) itself, and leaves to ``repr`` only any other
    value, a value whose mantissa is a power of two, and one that lies
    exactly halfway between its two nearest shortest decimals. A report
    that holds a nan or inf is ``check_finite``'s ``ValueError``.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown report format {fmt!r}")
    check_finite(report)
    if fmt == "csv" and _is_float_table(report):
        table = {str(k): v for k, v in report.items()}
        return ",".join(table) + "\n" + _float_rows(list(table.values()))
    payload = _jsonable(report)
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    if not isinstance(payload, dict) or not all(
        isinstance(v, list) for v in payload.values()
    ):
        raise ConfigError("csv reports require a mapping of columns to sequences")
    if len({len(v) for v in payload.values()}) > 1:
        raise ConfigError("csv report columns must share one length")
    columns = list(payload.values())
    n_rows = len(columns[0]) if columns else 0
    template = ",".join(["%s"] * len(columns)) + "\n"
    cells = tuple(itertools.chain.from_iterable(zip(*columns)))
    return ",".join(payload) + "\n" + (template * n_rows) % cells


def write_report(report, fmt: str, dest: str | os.PathLike) -> None:
    """Write a report to the path ``dest`` as ``render_report`` renders it in
    ``fmt``; or write ``report`` as it is if it is a ``str``, text that
    ``render_report`` already rendered, or ``bytes``; or remove ``dest`` if
    ``report`` is None.

    This is the package's only file writer. ``dest`` gets its parent
    directories created, and the text (as UTF-8) or bytes are written to a
    temporary file beside it that is then renamed over it, so ``dest`` is
    either complete or left as it was. A directory that cannot be created or
    a file that cannot be written or removed is a ``ConfigError`` naming it.
    """
    path = Path(dest)
    if report is None:
        try:
            path.unlink()
        except (FileNotFoundError, NotADirectoryError):
            pass  # there is no such file
        except OSError as exc:
            raise ConfigError(f"cannot remove {path}: {exc.strerror or exc}") from exc
        return
    text = report if isinstance(report, (str, bytes)) else render_report(report, fmt)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create {path.parent}: {exc.strerror or exc}") from exc
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        if isinstance(text, bytes):
            tmp.write_bytes(text)
        else:
            tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise ConfigError(f"cannot write report to {path}: {exc.strerror or exc}") from exc
