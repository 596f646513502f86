import contextlib
import dataclasses
import hashlib
import json
import math
import os
import re
import shutil
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imulab import cli, dataio
from imulab.dataio import (
    ArrayManifest,
    ConfigError,
    DataError,
    dataset_summary,
    load_manifest,
    parse_recording_csv,
    read_recording_rows,
    read_recording_stats,
    recording_stats,
    recording_stats_key,
    write_array,
    write_manifest,
    write_recording_csv,
    write_recording_stats,
    write_report,
)
from imulab.sensor_model import (
    SensorErrorParams,
    SensorRecording,
    SimulatedArray,
    draw_sensor_params,
    simulate_array,
)
from oracles import cell_by_cell_csv, whole_text_parse_recording


def _first_pass_recordings(manifest_path, manifest, digests=None) -> list[SensorRecording]:
    """The recordings that ``cli._first_pass`` builds from a manifest, in its
    order, once it has checked them all: it raises their first fault."""
    built, parse = [], cli.parse_recording_csv

    def noting(*args, **kwargs):
        built.append(parse(*args, **kwargs))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "parse_recording_csv", noting)
        cli._first_pass(manifest_path, manifest, digests)
    return built


def _write_noting_pid(recording, dest):
    """``write_recording_csv``, then the writing process's id into ``<dest>.pid``."""
    write_recording_csv(recording, dest)
    Path(f"{dest}.pid").write_text(str(os.getpid()))


_TEST_PID = os.getpid()


def _write_killing_worker(recording, dest):
    """A ``write_recording_csv`` whose worker process dies, as one killed for
    memory does; in the test process itself it only fails."""
    if os.getpid() == _TEST_PID:
        raise AssertionError("expected to run in a worker process")
    os._exit(1)


def _write_out_of_memory(recording, dest):
    """A ``write_recording_csv`` that runs out of memory."""
    raise MemoryError()


_TWO_CPUS = pytest.mark.skipif(dataio._cpus() < 2, reason="the pool needs two usable CPUs")


def _text_file(directory: Path, text: str) -> Path:
    """``text`` written byte for byte (no newline translation) to a recording file."""
    path = directory / "rec.csv"
    path.write_bytes(text.encode())
    return path


class TestParseRecordingCsv:
    def test_single_row(self, tmp_path):
        rec = parse_recording_csv(
            _text_file(tmp_path, "t,gx,gy,gz,ax,ay,az\n0,0,0,0,0,0,-9.81\n"), "s0", 1.0
        )
        assert rec.n_samples == 1
        assert np.allclose(rec.accel, [[0, 0, -9.81]])

    def test_deg_per_s_conversion(self, tmp_path):
        rec = parse_recording_csv(
            _text_file(tmp_path, "t,gx,gy,gz,ax,ay,az\n0,2.164,0,0,0,0,-9.81\n"),
            "s0", 1.0, gyro_units="deg/s",
        )
        assert rec.gyro[0, 0] == pytest.approx(0.03777, abs=1e-5)
        assert rec.gyro[0, 0] == np.deg2rad(2.164)

    def test_bad_value_names_line(self, tmp_path):
        with pytest.raises(DataError, match="line 2"):
            parse_recording_csv(
                _text_file(tmp_path, "t,gx,gy,gz,ax,ay,az\n0,0,0,0,abc,0,0\n"), "s0", 1.0
            )

    def test_missing_column_rejected(self, tmp_path):
        with pytest.raises(DataError, match="header"):
            parse_recording_csv(_text_file(tmp_path, "t,gx,gy,gz,ax,ay\n0,0,0,0,0,0\n"), "s0", 1.0)

    def test_non_monotone_time(self, tmp_path):
        body = "t,gx,gy,gz,ax,ay,az\n0,0,0,0,0,0,0\n0.5,0,0,0,0,0,0\n0.2,0,0,0,0,0,0\n"
        with pytest.raises(DataError, match="increasing"):
            parse_recording_csv(_text_file(tmp_path, body), "s0", 2.0)

    def test_unknown_units(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_recording_csv(_text_file(tmp_path, "t,gx,gy,gz,ax,ay,az\n"), "s0", 1.0, "furlong")

    def test_crlf_accepted(self, tmp_path):
        body = "t,gx,gy,gz,ax,ay,az\r\n0,1,2,3,4,5,6\r\n"
        rec = parse_recording_csv(_text_file(tmp_path, body), "s0", 1.0)
        assert np.allclose(rec.gyro, [[1, 2, 3]])

    def test_crlf_with_blank_lines_accepted(self, tmp_path):
        body = "t,gx,gy,gz,ax,ay,az\r\n0,1,2,3,4,5,6\r\n\r\n1,1,2,3,4,5,6\r\n"
        rec = parse_recording_csv(_text_file(tmp_path, body), "s0", 1.0)
        assert np.array_equal(rec.t, [0.0, 1.0])

    def test_bad_value_after_blank_line_names_file_line(self, tmp_path):
        body = "t,gx,gy,gz,ax,ay,az\n0,0,0,0,0,0,0\n\n\n1,0,0,x,0,0,0\n"
        with pytest.raises(DataError, match=r"s0: line 5: .*'x'"):
            parse_recording_csv(_text_file(tmp_path, body), "s0", 1.0)

    @pytest.mark.parametrize(
        "rows, line",
        [
            ("0,0,0,0,0,0,0\n1,0,0,0,0,0\n", 3),  # one short row
            ("0,0,0,0,0,0\n1,0,0,0,0,0\n", 2),  # every row short
            ("\n0,0,0,0,0,0,0,0\n", 3),  # every row long, after a blank line
            ("0,0,0,0,0,0,0\n   \n", 3),  # whitespace-only row
            ("\n  \n", 3),  # whitespace-only row and nothing else
        ],
    )
    def test_wrong_column_count_names_line(self, tmp_path, rows, line):
        with pytest.raises(DataError, match=f"line {line}: expected 7 columns"):
            parse_recording_csv(_text_file(tmp_path, "t,gx,gy,gz,ax,ay,az\n" + rows), "s0", 1.0)

    @pytest.mark.parametrize("body", ["", "\n", "\r\n\r\n\n"])
    def test_header_only_has_no_data_rows(self, tmp_path, body):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="no data rows"):
                parse_recording_csv(_text_file(tmp_path, "t,gx,gy,gz,ax,ay,az" + body), "s0", 1.0)

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty file"):
            parse_recording_csv(_text_file(tmp_path, ""), "s0", 1.0)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_value_names_file_line(self, tmp_path, bad):
        body = f"t,gx,gy,gz,ax,ay,az\n0,0,0,0,0,0,0\n\n1,0,0,0,{bad},0,0\n2,0,0,0,0,0,0\n"
        with pytest.raises(DataError, match="s0: line 4: non-finite value"):
            parse_recording_csv(_text_file(tmp_path, body), "s0", 1.0)

    def test_first_bad_line_named_when_non_finite_precedes_malformed(self, tmp_path):
        body = "t,gx,gy,gz,ax,ay,az\n0,0,0,0,0,0,0\n1,inf,0,0,0,0,0\n2,x,0,0,0,0,0\n"
        with pytest.raises(DataError, match="s0: line 3: non-finite value"):
            parse_recording_csv(_text_file(tmp_path, body), "s0", 1.0)

    @pytest.mark.parametrize("rows, message", [
        # np.loadtxt strips the ASCII separators \x1c-\x1f around a number,
        # where float() refuses them.
        pytest.param("0.5,\x1c0,0,0,0,0,0\n1,0,0,x,0,0,0\n",
                     "s0: line 4: could not convert string to float: 'x'",
                     id="separator_then_bad_value"),
        pytest.param("0.5,0\x1f,0,0,0,0,0\n1,0,0,nan,0,0,0\n", "s0: line 4: non-finite value",
                     id="separator_then_nan"),
        # float() takes '0\r'; np.loadtxt ends the line there.
        pytest.param("0.5,0\r,0,0,0,0,0\n", "s0: line 3: ", id="carriage_return_mid_line"),
    ])
    def test_error_names_the_line_the_reader_rejects(self, tmp_path, rows, message):
        text = "t,gx,gy,gz,ax,ay,az\n0,0,0,0,0,0,0\n" + rows
        with pytest.raises(DataError) as info:
            parse_recording_csv(_text_file(tmp_path, text), "s0", 2.0)
        assert str(info.value).startswith(message)
        # Every line before the named one parses.
        named = int(re.match(r"s0: line (\d+): ", message).group(1))
        before = "\n".join(text.split("\n")[: named - 1]) + "\n"
        assert parse_recording_csv(_text_file(tmp_path, before), "s0", 2.0).n_samples == named - 2

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=6, max_size=6),
        min_size=1, max_size=20,
    ))
    def test_values_match_python_float(self, tmp_path_factory, rows):
        # Any shortest-repr or hand-written decimal parses to float()'s double.
        lines = [",".join([str(i), *(repr(v) for v in row[:3]), *(f"{v:.17g}" for v in row[3:])])
                 for i, row in enumerate(rows)]
        text = "t,gx,gy,gz,ax,ay,az\n" + "\n".join(lines) + "\n"
        rec = parse_recording_csv(_text_file(tmp_path_factory.mktemp("rows"), text), "s0", 1.0)
        expected = np.array([[float(v) for v in line.split(",")] for line in lines])
        assert np.array_equal(rec.t, expected[:, 0])
        assert np.array_equal(rec.gyro, expected[:, 1:4])
        assert np.array_equal(rec.accel, expected[:, 4:7])


_HEADER = "t,gx,gy,gz,ax,ay,az\n"
_ROWS = "0,1,2,3,4,5,6\n0.5,1,2,3,4,5,6\n"
# 1000 rows of shortest-repr floats: more than one read of the stream.
_LONG_ROWS = "".join(
    f"{i / 2!r}," + ",".join(map(repr, np.random.default_rng(i).normal(size=6).tolist())) + "\n"
    for i in range(1000)
)

# Inputs on which the streaming reader must match the whole-text one.
_READER_CASES = {
    "plain": _HEADER + _ROWS,
    "long": _HEADER + _LONG_ROWS,
    "no_final_newline": _HEADER + _ROWS.rstrip("\n"),
    "crlf": (_HEADER + _ROWS).replace("\n", "\r\n"),
    "bare_cr": (_HEADER + _ROWS).replace("\n", "\r"),
    "bare_cr_between_rows": _HEADER + _ROWS.replace("\n", "\r", 1),
    "cr_mid_line": _HEADER + "0,1\r,2,3,4,5,6\n0.5,1,2,3,4,5,6\n",
    "blank_lines": _HEADER + "\n\n" + _ROWS.replace("\n", "\n\n"),
    "trailing_spaces": "t, gx,gy ,gz,ax,ay,az  \n" + _ROWS.replace("\n", "   \n"),
    "separator_cell": _HEADER + "0,\x1c0,2,3,4,5,6\n0.5,1,2,3,4,5,6\n",
    "underscore_cell": _HEADER + "0,1_0,2,3,4,5,6\n0.5,1,2,3,4,5,6\n",
    "non_ascii_digit": _HEADER + "0,\u0661,2,3,4,5,6\n0.5,1,2,3,4,5,6\n",
    "nan_cell": _HEADER + "0,1,2,3,4,5,6\n0.5,1,nan,3,4,5,6\n",
    "bom": "\ufeff" + _HEADER + _ROWS,
    "invalid_utf8_last_line": (_HEADER + _LONG_ROWS).encode() + b"500,0,0,\xff,0,0,0\n",
    "header_only": _HEADER,
    "header_without_newline": _HEADER.rstrip("\n"),
    "header_then_blank_lines": _HEADER + "\r\n\r\n\n",
    "empty_file": "",
    "six_columns": _HEADER + "0,1,2,3,4,5\n0.5,1,2,3,4,5\n",
    "eight_columns": _HEADER + "0,1,2,3,4,5,6,7\n0.5,1,2,3,4,5,6,7\n",
    "non_monotone_time": _HEADER + "0,1,2,3,4,5,6\n0.5,1,2,3,4,5,6\n0.25,1,2,3,4,5,6\n",
    # Two faults, or a fault past the stream's first chunk: the file's first
    # fault in the whole-text order is named.
    "bad_cell_then_invalid_utf8": (
        _HEADER + "0,1,x,3,4,5,6\n" + _LONG_ROWS[:_LONG_ROWS.index("\n", 40_000) + 1]
    ).encode() + b"500,0,0,\xff,0,0,0\n",
    "bad_header_then_invalid_utf8": b"t,gx,gy,gz,ax,ay,bz\n0,1,2,3,4,5,6\n0.5,\xff,2,3,4,5,6\n",
    "invalid_utf8_in_header": b"t,gx,g\xff,gz,ax,ay,az\n" + _ROWS.encode(),
    "body_only_cr": _HEADER + "\r",
    "body_only_spaces": _HEADER + "   \n",
    "nan_past_first_chunk": _HEADER + _LONG_ROWS + "500,1,nan,3,4,5,6\n",
    "eight_then_six_columns": _HEADER + "0,1,2,3,4,5,6,7\n0.5,1,2,3,4,5\n",
    "crlf_header_only": _HEADER.replace("\n", "\r\n"),
}


def _reader_outcome(parse, path, gyro_units):
    """The recording's arrays as bytes, or the ``DataError`` message, and
    the warnings raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rec = parse(path, "s0", 2.0, gyro_units)
        except DataError as exc:
            result = str(exc)
        else:
            result = (rec.t.tobytes(), rec.gyro.tobytes(), rec.accel.tobytes())
    return result, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("gyro_units", ["rad/s", "deg/s"])
@pytest.mark.parametrize("case", list(_READER_CASES))
def test_streaming_reader_matches_whole_text_reader(tmp_path, case, gyro_units):
    """Bit for bit the same arrays, or the same ``DataError`` message, and
    the same warnings."""
    text = _READER_CASES[case]
    path = tmp_path / "rec.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    streamed = _reader_outcome(parse_recording_csv, path, gyro_units)
    assert streamed == _reader_outcome(whole_text_parse_recording, path, gyro_units)
    accepted = {"plain", "long", "no_final_newline", "crlf", "blank_lines", "trailing_spaces",
                "separator_cell"}
    assert isinstance(streamed[0], tuple) == (case in accepted)


def _row_by_row_csv(recording):
    """The recording writer's former rule: one ``repr(float(v))`` cell at a time."""
    lines = ["t,gx,gy,gz,ax,ay,az"]
    for i in range(recording.n_samples):
        vals = [recording.t[i], *recording.gyro[i], *recording.accel[i]]
        lines.append(",".join(repr(float(v)) for v in vals))
    return "\n".join(lines) + "\n"


def _planted_recording(gravity, seconds: float) -> SensorRecording:
    """One simulated 100 Hz recording with a -0.0 in gyro and in accel; one
    longer than a block of ``dataio._FLOAT_BLOCK_ROWS`` rows also has a 0.0,
    a -0.0 and a power of two in the rows on either side of the first block
    join."""
    rec = simulate_array(draw_sensor_params(1, 4), gravity, seconds, 100.0, seed=4).recordings[0]
    gyro, accel = rec.gyro.copy(), rec.accel.copy()
    gyro[3, 1] = -0.0
    accel[7, 0] = -0.0
    join = dataio._FLOAT_BLOCK_ROWS
    if rec.n_samples > join:
        gyro[join - 1, 2] = 0.0
        gyro[join, 0] = -0.0
        accel[join, 1] = 0.5
    return SensorRecording(rec.sensor_id, rec.rate_hz, rec.t, gyro, accel)


class TestWriteRecordingCsv:
    @pytest.fixture()
    def recording(self, gravity):
        return _planted_recording(gravity, 1.0)

    @pytest.mark.parametrize("units", ["rad/s"])  # recordings are written in SI only
    @pytest.mark.parametrize("seconds", [1.0, 41.0], ids=["one-block", "three-blocks"])
    def test_matches_row_by_row_rule(self, tmp_path, gravity, units, seconds):
        recording = _planted_recording(gravity, seconds)
        dest = tmp_path / "rec.csv"
        write_recording_csv(recording, dest)
        text = dest.read_text()
        assert text.split("\n") == _row_by_row_csv(recording).split("\n")  # lines: a short diff
        assert "-0.0," in text
        again = tmp_path / "again.csv"
        write_recording_csv(recording, again)
        assert again.read_text() == text

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_recording_rejected(self, tmp_path, recording, bad):
        accel = recording.accel.copy()
        accel[2, 2] = bad
        rec = SensorRecording(recording.sensor_id, recording.rate_hz, recording.t,
                              recording.gyro, accel)
        dest = tmp_path / "rec.csv"
        with pytest.raises(ValueError, match="non-finite"):
            write_recording_csv(rec, dest)
        assert not dest.exists()


class TestRoundTrips:
    @pytest.mark.parametrize("seed", range(5))
    def test_recording_bit_exact(self, tmp_path, gravity, seed):
        params = draw_sensor_params(1, seed)
        arr = simulate_array(params, gravity, 1.0, 100.0, seed=seed)
        rec = arr.recordings[0]
        dest = tmp_path / "rec.csv"
        write_recording_csv(rec, dest)
        back = parse_recording_csv(dest, rec.sensor_id, rec.rate_hz)
        assert np.array_equal(back.t, rec.t)
        assert np.array_equal(back.gyro, rec.gyro)
        assert np.array_equal(back.accel, rec.accel)

    def test_manifest_round_trip(self, tmp_path):
        manifest = ArrayManifest(
            rate_hz=100.0,
            sensor_files=(("a", "a.csv"), ("b", "b.csv")),
            gravity_mps2=9.81,
            gyro_units="deg/s",
        )
        path = tmp_path / "manifest.json"
        write_manifest(manifest, path)
        assert load_manifest(path) == manifest

    def test_written_manifest_declares_si_units(self, tmp_path, gravity):
        arr = SimulatedArray(draw_sensor_params(2, 1), gravity, 0.1, 100.0, seed=1)
        raw = json.loads(write_array(arr, tmp_path, gravity).read_text())
        assert raw["units"] == {"gyro": "rad/s", "accel": "m/s2"}

    def test_array_round_trip(self, tmp_path, gravity):
        params = draw_sensor_params(3, 1)
        arr = simulate_array(params, gravity, 0.5, 100.0, seed=1)
        manifest_path = write_array(SimulatedArray(params, gravity, 0.5, 100.0, seed=1),
                                    tmp_path, gravity)
        manifest = load_manifest(manifest_path)
        back = _first_pass_recordings(manifest_path, manifest)
        assert manifest.gravity_mps2 == gravity.g_magnitude
        for a, b in zip(arr.recordings, back):
            assert np.array_equal(a.gyro, b.gyro)
            assert np.array_equal(a.accel, b.accel)

    def test_pooled_write_matches_serial_writes(self, tmp_path, gravity):
        params = draw_sensor_params(5, 3)
        arr = SimulatedArray(params, gravity, 30.0, 100.0, seed=3)
        assert arr.n_sensors * arr.n_samples * 7 >= dataio._POOL_MIN_VALUES
        write_array(arr, tmp_path / "pool", gravity)
        assert _no_child_left()
        recs = simulate_array(params, gravity, 30.0, 100.0, seed=3).recordings
        names = [f"{rec.sensor_id}.csv" for rec in recs]
        assert sorted(p.name for p in (tmp_path / "pool").iterdir()) == [
            ".rows", "manifest.json", *names]
        for rec, name in zip(recs, names):
            write_recording_csv(rec, tmp_path / "serial" / name)
            assert (tmp_path / "pool" / name).read_bytes() == \
                (tmp_path / "serial" / name).read_bytes()

    @_TWO_CPUS
    def test_only_large_arrays_are_written_in_worker_processes(
        self, tmp_path, gravity, monkeypatch
    ):
        monkeypatch.setattr(dataio, "write_recording_csv", _write_noting_pid)

        def writer_pids(name, duration_s):
            out = tmp_path / name
            arr = SimulatedArray(draw_sensor_params(5, 3), gravity, duration_s, 100.0, seed=3)
            write_array(arr, out, gravity)
            assert len(list(out.glob("*.pid"))) == 5
            return {int(p.read_text()) for p in out.glob("*.pid")}

        assert os.getpid() not in writer_pids("large", 30.0)
        assert writer_pids("small", 1.0) == {os.getpid()}
        release = threading.Event()
        other = threading.Thread(target=release.wait, daemon=True)
        other.start()
        try:
            assert writer_pids("large_with_thread", 30.0) == {os.getpid()}
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()

    @_TWO_CPUS
    def test_dead_worker_is_a_config_error_naming_dir_and_samples(
        self, tmp_path, gravity, monkeypatch
    ):
        monkeypatch.setattr(dataio, "write_recording_csv", _write_killing_worker)
        arr = SimulatedArray(draw_sensor_params(5, 3), gravity, 30.0, 100.0, seed=3)
        with pytest.raises(ConfigError, match=rf"{re.escape(str(tmp_path))}: .* 3000 samples"
                           r" per sensor do not fit in memory"):
            write_array(arr, tmp_path, gravity)
        assert not (tmp_path / "manifest.json").exists()
        assert _no_child_left()

    def test_memory_error_is_a_config_error_naming_dir_and_samples(
        self, tmp_path, gravity, monkeypatch
    ):
        monkeypatch.setattr(dataio, "write_recording_csv", _write_out_of_memory)
        arr = SimulatedArray(draw_sensor_params(2, 3), gravity, 1.0, 100.0, seed=3)
        with pytest.raises(ConfigError, match=rf"{re.escape(str(tmp_path))}: .* 100 samples"
                           r" per sensor do not fit in memory"):
            write_array(arr, tmp_path, gravity)
        assert list(tmp_path.iterdir()) == []

    def test_unremovable_manifest_is_a_config_error_naming_it(self, tmp_path, gravity):
        manifest = tmp_path / "manifest.json"
        (manifest / "inside").mkdir(parents=True)  # a directory: unlink refuses it
        arr = SimulatedArray(draw_sensor_params(2, 3), gravity, 1.0, 100.0, seed=3)
        with pytest.raises(ConfigError, match=rf"cannot remove {re.escape(str(manifest))}: "):
            write_array(arr, tmp_path, gravity)
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]  # no recording

    def test_second_write_removes_the_recordings_it_does_not_write(self, tmp_path, gravity):
        """A run of 3 sensors after one of 4 leaves no ``sensor_03.csv``; a
        file that no manifest listed is kept."""
        write_array(SimulatedArray(draw_sensor_params(4, 1), gravity, 1.0, 100.0, seed=1),
                    tmp_path, gravity)
        (tmp_path / "notes.csv").write_text("kept")
        write_array(SimulatedArray(draw_sensor_params(3, 2), gravity, 1.0, 100.0, seed=2),
                    tmp_path, gravity)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".rows", "manifest.json", "notes.csv", "sensor_00.csv", "sensor_01.csv",
            "sensor_02.csv"]
        assert (tmp_path / "notes.csv").read_text() == "kept"

    @pytest.mark.parametrize("odd", ["manifest_not_json", "recording_directory"])
    def test_stale_recording_left_when_it_cannot_be_removed(self, tmp_path, gravity, odd):
        """A manifest that does not load lists nothing to remove, and a
        recording that cannot be removed is left; neither fails the write."""
        write_array(SimulatedArray(draw_sensor_params(4, 1), gravity, 1.0, 100.0, seed=1),
                    tmp_path, gravity)
        stale = tmp_path / "sensor_03.csv"
        if odd == "manifest_not_json":
            (tmp_path / "manifest.json").write_text("{")
        else:
            stale.unlink()
            (stale / "inside").mkdir(parents=True)
        manifest_path = write_array(
            SimulatedArray(draw_sensor_params(3, 2), gravity, 1.0, 100.0, seed=2), tmp_path,
            gravity)
        assert stale.exists() and len(load_manifest(manifest_path).sensor_files) == 3

    def test_summary_report_round_trip(self, tmp_path, gravity):
        arr = simulate_array(draw_sensor_params(4, 2), gravity, 1.0, 100.0, seed=2)
        summary = dataset_summary(recording_stats(arr, gravity))
        dest = tmp_path / "summary.json"
        write_report(summary, "json", dest)
        raw = json.loads(dest.read_text())
        assert raw == summary


def _no_child_left() -> bool:
    """Whether this process has no child process, live or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


_recording_rows = dataio._recording_rows


def _rows_noting_pid(path, sensor_id):
    """``_recording_rows``, then the reading process's id into ``<path>.pid``."""
    rows = _recording_rows(path, sensor_id)
    Path(f"{path}.pid").write_text(str(os.getpid()))
    return rows


def _rows_noting_opens(path, sensor_id):
    """``_recording_rows``, after appending the reading process's id to ``<path>.opens``."""
    with open(f"{path}.opens", "a", encoding="utf-8") as fh:
        fh.write(f"{os.getpid()}\n")
    return _recording_rows(path, sensor_id)


@contextlib.contextmanager
def _other_thread():
    """Another live thread for the block, so ``_fork_map`` runs its calls here."""
    release = threading.Event()
    other = threading.Thread(target=release.wait, daemon=True)
    other.start()
    try:
        yield
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()


class _ExitOnPickle:
    """A value whose pickling ends the process that pickles it."""

    def __reduce__(self):
        os._exit(1)


def _result_cut_short(index, pid_file):
    """A job result of 256 KiB and then an ``_ExitOnPickle``: its worker
    writes the bytes to its pipe and dies before the pickle ends."""
    if os.getpid() == _TEST_PID:
        raise AssertionError("expected to run in a worker process")
    return [bytes(256 * 1024), _ExitOnPickle()]


def _result_killed_mid_write(index, pid_file):
    """Job 1 returns 1 MiB, more than a pipe holds, so its worker blocks
    writing it while the main process waits for job 0. Job 0 kills that
    worker, as the out-of-memory killer might, part way through its pickle."""
    if os.getpid() == _TEST_PID:
        raise AssertionError("expected to run in a worker process")
    if index == 1:
        Path(f"{pid_file}.tmp").write_text(str(os.getpid()))
        os.replace(f"{pid_file}.tmp", pid_file)
        return bytes(1024 * 1024)
    for _ in range(1000):
        if pid_file.exists():
            break
        time.sleep(0.01)
    time.sleep(0.2)  # job 1 has returned and its worker is writing
    os.kill(int(pid_file.read_text()), signal.SIGKILL)
    return None


@_TWO_CPUS
@pytest.mark.parametrize("job", [_result_cut_short, _result_killed_mid_write],
                         ids=["process_ends_in_pickle", "killed_mid_write"])
def test_result_cut_short_is_a_dead_worker_leaving_no_child(tmp_path, job):
    """A result whose pickle reaches the pipe in part is a worker that died:
    ``run_jobs``'s config error, and every worker reaped."""
    pid_file = tmp_path / "pid"
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(tmp_path))}: two results do not"
                       r" fit in memory: a worker process died$"):
        dataio.run_jobs(job, [(0, pid_file), (1, pid_file)], dataio._POOL_MIN_VALUES, tmp_path,
                        "two results")
    assert _no_child_left()


class TestPooledReads:
    """``read_recording_rows`` reads a large manifest's recordings in forked
    workers; ``cli._first_pass`` then builds them in manifest order."""

    @pytest.fixture
    def pooled(self, tmp_path, gravity):
        """A manifest of five recordings, 5 x 4000 x 7 values: read in the pool."""
        arr = SimulatedArray(draw_sensor_params(5, 3), gravity, 40.0, 100.0, seed=3)
        return write_array(arr, tmp_path / "rec", gravity)

    @staticmethod
    def _files(manifest_path):
        manifest = load_manifest(manifest_path)
        return [(manifest_path.parent / rel, sid) for sid, rel in manifest.sensor_files]

    @staticmethod
    def _serial(manifest_path):
        """Each recording parsed from its file, one after another: the
        arrays, or the first ``DataError`` message."""
        manifest = load_manifest(manifest_path)
        try:
            return [parse_recording_csv(manifest_path.parent / rel, sid, manifest.rate_hz,
                                        manifest.gyro_units)
                    for sid, rel in manifest.sensor_files]
        except DataError as exc:
            return str(exc)

    @_TWO_CPUS
    @pytest.mark.parametrize("units", ["rad/s", "deg/s"])
    def test_pooled_reads_match_serial_reads(self, pooled, units, monkeypatch):
        if units == "deg/s":
            write_manifest(dataclasses.replace(load_manifest(pooled), gyro_units=units), pooled)
        with monkeypatch.context() as patch:
            patch.setattr(dataio, "_recording_rows", _rows_noting_opens)
            list(read_recording_rows(self._files(pooled)))
        readers = {int(pid) for path, _ in self._files(pooled)
                   for pid in Path(f"{path}.opens").read_text().split()}
        assert os.getpid() not in readers  # read in the pool
        assert _no_child_left()
        back = _first_pass_recordings(pooled, load_manifest(pooled))
        for a, b in zip(self._serial(pooled), back):
            assert a.sensor_id == b.sensor_id
            for name in ("t", "gyro", "accel"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    @pytest.mark.parametrize("faults", [
        {0: "cell"}, {2: "cell"}, {4: "cell"}, {1: "time", 3: "cell"}, {1: "cell", 3: "time"},
        {2: "utf8", 4: "header"}, {0: "columns", 1: "utf8"},
    ], ids=["first", "middle", "last", "time_then_cell", "cell_then_time",
            "utf8_then_header", "columns_then_utf8"])
    def test_first_faulty_recording_is_named_as_in_a_serial_read(self, pooled, faults):
        for index, (path, _) in enumerate(self._files(pooled)):
            if index not in faults:
                continue
            lines = path.read_bytes().split(b"\n")
            if faults[index] == "cell":
                lines[6] = lines[6].replace(b",", b",x", 1)
            elif faults[index] == "time":
                lines[9] = lines[8]
            elif faults[index] == "utf8":
                lines[3000] += b"\xff"
            elif faults[index] == "header":
                lines[0] = b"t,gx,gy,gz,ax,ay"
            else:
                lines[40] += b",0"
            path.write_bytes(b"\n".join(lines))
        want = self._serial(pooled)
        assert isinstance(want, str) and want.startswith(f"sensor_0{min(faults)}: ")
        with pytest.raises(DataError) as exc_info:
            _first_pass_recordings(pooled, load_manifest(pooled))
        assert str(exc_info.value) == want
        assert _no_child_left()

    # The same faults, read in-process: the time-base fault before a bad cell
    # pins that ``cli._first_pass`` checks each recording's time base, as it
    # builds it, before the next recording's rows are taken, in both modes.
    _faults = test_first_faulty_recording_is_named_as_in_a_serial_read.pytestmark[0]

    @pytest.mark.parametrize(*_faults.args, **_faults.kwargs)
    def test_first_faulty_recording_is_named_as_in_a_serial_read_in_process(
        self, pooled, faults
    ):
        with _other_thread():
            self.test_first_faulty_recording_is_named_as_in_a_serial_read(pooled, faults)

    @_TWO_CPUS
    def test_faulty_recording_is_read_once(self, pooled, monkeypatch):
        """A worker names the fault; the main process does not read the file again."""
        monkeypatch.setattr(dataio, "_recording_rows", _rows_noting_opens)
        path = pooled.parent / "sensor_02.csv"
        lines = path.read_bytes().split(b"\n")
        lines[6] = lines[6].replace(b",", b",x", 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DataError, match="^sensor_02: line 7: "):
            _first_pass_recordings(pooled, load_manifest(pooled))
        readers = Path(f"{path}.opens").read_text().split()
        assert len(readers) == 1 and int(readers[0]) != os.getpid()
        assert _no_child_left()

    @_TWO_CPUS
    def test_only_large_manifests_are_read_in_worker_processes(
        self, tmp_path, gravity, pooled, monkeypatch
    ):
        monkeypatch.setattr(dataio, "_recording_rows", _rows_noting_pid)

        def reader_pids(manifest_path):
            _first_pass_recordings(manifest_path, load_manifest(manifest_path))
            pids = list(manifest_path.parent.glob("*.pid"))
            assert len(pids) == 5
            return {int(p.read_text()) for p in pids}

        small = write_array(SimulatedArray(draw_sensor_params(5, 3), gravity, 1.0, 100.0,
                                           seed=3), tmp_path / "small", gravity)
        assert reader_pids(small) == {os.getpid()}
        assert os.getpid() not in reader_pids(pooled)
        release = threading.Event()
        other = threading.Thread(target=release.wait, daemon=True)
        other.start()
        try:
            assert reader_pids(pooled) == {os.getpid()}
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()


def _digests(manifest_path) -> list[str]:
    return recording_stats_key(manifest_path, load_manifest(manifest_path))["recordings_sha256"]


def _edit_cell(path: Path, line: int, cell: bytes) -> None:
    """Put ``cell`` in place of the first cell after ``t`` on 0-based ``line``
    of the recording at ``path``."""
    lines = path.read_bytes().split(b"\n")
    t, _, rest = lines[line].split(b",", 2)
    lines[line] = b",".join([t, cell, rest])
    path.write_bytes(b"\n".join(lines))


class TestRowsCache:
    """``write_recording_csv`` writes each recording's rows beside it, named
    by the SHA-256 of its bytes, and ``read_recording_rows`` takes them in
    place of a parse."""

    @pytest.fixture
    def cached(self, tmp_path, gravity):
        """A manifest of five recordings, 5 x 4000 x 7 values, and their rows
        cache; four recordings to parse are read in the pool."""
        arr = SimulatedArray(draw_sensor_params(5, 3), gravity, 40.0, 100.0, seed=3)
        return write_array(arr, tmp_path / "rec", gravity)

    def test_entry_is_the_parsed_rows_named_by_the_csv_digest(self, cached):
        entries = sorted(p.name for p in (cached.parent / ".rows").iterdir())
        assert entries == sorted(f"{d}.npy" for d in _digests(cached))
        for (path, sid), digest in zip(TestPooledReads._files(cached), _digests(cached)):
            entry = np.load(cached.parent / ".rows" / f"{digest}.npy", allow_pickle=False)
            parsed = _recording_rows(path, sid)
            assert entry.dtype == parsed.dtype and entry.shape == parsed.shape
            assert entry.flags.c_contiguous and entry.tobytes() == parsed.tobytes()

    @pytest.mark.parametrize("units", ["rad/s", "deg/s"])
    def test_hits_load_as_parses_without_parsing(self, cached, units, monkeypatch):
        if units == "deg/s":
            write_manifest(dataclasses.replace(load_manifest(cached), gyro_units=units), cached)
        manifest = load_manifest(cached)
        with monkeypatch.context() as patch:
            patch.setattr(dataio, "_recording_rows", _rows_noting_opens)
            back = _first_pass_recordings(cached, manifest, _digests(cached))
            assert list(cached.parent.glob("*.opens")) == []
            parsed = _first_pass_recordings(cached, manifest)
            assert len(list(cached.parent.glob("*.opens"))) == 5
        for a, b in zip(parsed, back):
            assert a.sensor_id == b.sensor_id
            for name in ("t", "gyro", "accel"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert _no_child_left()

    @pytest.mark.parametrize("read", ["hits", "in_process_misses"])
    def test_each_recording_is_built_once(self, cached, read, monkeypatch):
        """``cli._first_pass`` builds (and checks the time base of) each
        recording once, whether its rows are a hit or parsed here."""
        built = []

        def counting_recording(*args, **kwargs):
            built.append(kwargs.get("sensor_id"))
            return SensorRecording(*args, **kwargs)

        monkeypatch.setattr(dataio, "SensorRecording", counting_recording)
        manifest = load_manifest(cached)
        if read == "hits":
            back = _first_pass_recordings(cached, manifest, _digests(cached))
        else:
            with _other_thread():
                back = _first_pass_recordings(cached, manifest)
        assert built == [sid for sid, _ in manifest.sensor_files]
        assert [r.sensor_id for r in back] == built

    def test_edited_recording_is_parsed_and_its_neighbours_hit(self, cached, monkeypatch):
        monkeypatch.setattr(dataio, "_recording_rows", _rows_noting_opens)
        victim = cached.parent / "sensor_02.csv"
        _edit_cell(victim, 9, b"0.125")
        back = _first_pass_recordings(cached, load_manifest(cached), _digests(cached))
        assert [p.name for p in cached.parent.glob("*.opens")] == ["sensor_02.csv.opens"]
        assert back[2].gyro[8, 0] == 0.125
        for a, b in zip(TestPooledReads._serial(cached), back):
            assert a.gyro.tobytes() == b.gyro.tobytes()
        _edit_cell(victim, 9, b"x")
        with pytest.raises(DataError, match="^sensor_02: line 10: could not convert string "
                                            "to float: 'x'$"):
            _first_pass_recordings(cached, load_manifest(cached), _digests(cached))

    @pytest.mark.parametrize("damage", [
        "truncated", "reshaped", "nan", "pickled", "fortran", "big_endian", "beyond_recording",
        "not_npy", "empty", "directory"])
    def test_damaged_entry_is_a_miss(self, cached, damage):
        path, sid = TestPooledReads._files(cached)[1]
        entry = cached.parent / ".rows" / f"{_digests(cached)[1]}.npy"
        rows = np.load(entry)
        if damage == "truncated":
            entry.write_bytes(entry.read_bytes()[:-1])
        elif damage == "reshaped":
            np.save(entry, rows.T.copy())
        elif damage == "nan":
            rows[5, 3] = np.nan
            np.save(entry, rows)
        elif damage == "pickled":
            np.save(entry, rows.astype(object), allow_pickle=True)
        elif damage == "fortran":
            np.save(entry, np.asfortranarray(rows))
        elif damage == "big_endian":
            np.save(entry, rows.astype(">f8"))
        elif damage == "beyond_recording":  # more rows than the recording could hold
            np.save(entry, np.zeros((path.stat().st_size // 14 + 1, 7)))
        elif damage == "not_npy":
            entry.write_bytes(b"t,gx,gy,gz,ax,ay,az\n")
        elif damage == "empty":
            entry.write_bytes(b"")
        else:
            entry.unlink()
            entry.mkdir()
        assert dataio._cached_rows(path, _digests(cached)[1]) is None
        ((rows, hit),) = read_recording_rows([(path, sid)], _digests(cached)[1:2])
        assert rows.tobytes() == _recording_rows(path, sid).tobytes()
        assert not hit

    def test_missing_entry_is_a_miss(self, cached):
        path, _ = TestPooledReads._files(cached)[0]
        assert dataio._cached_rows(path, "0" * 64) is None
        (cached.parent / ".rows").rename(cached.parent / "elsewhere")
        assert dataio._cached_rows(path, _digests(cached)[0]) is None

    @pytest.mark.parametrize("rate_hz, edits, first", [
        (50.0, {}, "sensor_00: sample spacing"),
        (50.0, {0: "cell"}, "sensor_00: line 10: "),
        (50.0, {3: "cell"}, "sensor_00: sample spacing"),
        (100.0, {0: "edit", 1: "edit", 3: "cell", 4: "edit"}, "sensor_03: line 10: "),
        (100.0, {0: "cell", 1: "edit", 3: "edit", 4: "cell"}, "sensor_00: line 10: "),
    ], ids=["hits", "miss_first", "hit_first", "pooled_misses", "pooled_misses_first"])
    def test_first_fault_is_named_as_in_a_serial_read(self, cached, rate_hz, edits, first):
        """A hit's time base is checked at the manifest's rate, in manifest
        order among the misses' faults."""
        write_manifest(dataclasses.replace(load_manifest(cached), rate_hz=rate_hz), cached)
        for index, edit in edits.items():
            _edit_cell(cached.parent / f"sensor_0{index}.csv", 9,
                       b"0.125" if edit == "edit" else b"x")
        want = TestPooledReads._serial(cached)
        assert isinstance(want, str) and want.startswith(first)
        with pytest.raises(DataError) as exc_info:
            _first_pass_recordings(cached, load_manifest(cached), _digests(cached))
        assert str(exc_info.value) == want
        assert _no_child_left()

    @_TWO_CPUS
    def test_hit_at_fault_after_pooled_misses_leaves_no_child(self, cached, monkeypatch):
        """An entry edited in place under its own name is believed, so its
        fault is named; the misses read in the pool are stopped and reaped."""
        monkeypatch.setattr(dataio, "_recording_rows", _rows_noting_opens)
        for index in (0, 1, 3, 4):
            _edit_cell(cached.parent / f"sensor_0{index}.csv", 9, b"0.125")
        entry = cached.parent / ".rows" / f"{_digests(cached)[2]}.npy"
        rows = np.load(entry)
        rows[7, 0] = rows[6, 0]
        np.save(entry, rows)
        with pytest.raises(DataError, match="^sensor_02: timestamps must be strictly increasing$"):
            _first_pass_recordings(cached, load_manifest(cached), _digests(cached))
        readers = (cached.parent / "sensor_01.csv.opens").read_text().split()
        assert len(readers) == 1 and int(readers[0]) != os.getpid()
        assert _no_child_left()

    @pytest.mark.parametrize("odd", ["entry_directory", "rows_file"])
    def test_odd_cache_entries_do_not_fail_a_write(self, tmp_path, gravity, odd):
        """An entry whose name a directory takes, or a ``.rows`` that is a
        file, is neither removed nor written by the next write: that
        recording, or every one, is then a miss and parsed."""
        arr = SimulatedArray(draw_sensor_params(3, 1), gravity, 1.0, 100.0, seed=1)
        out = tmp_path / "rec"
        digests = _digests(write_array(arr, out, gravity))
        if odd == "entry_directory":
            entry = out / ".rows" / f"{digests[1]}.npy"
            entry.unlink()
            entry.mkdir()
        else:
            shutil.rmtree(out / ".rows")
            (out / ".rows").write_bytes(b"")
        manifest_path = write_array(arr, out, gravity)  # the same recordings: the same names
        assert _digests(manifest_path) == digests
        files = TestPooledReads._files(manifest_path)
        hits = [dataio._cached_rows(path, d) is not None for (path, _), d in zip(files, digests)]
        if odd == "entry_directory":
            assert entry.is_dir() and hits == [True, False, True]
        else:
            assert (out / ".rows").read_bytes() == b"" and hits == [False] * 3
        rows = list(read_recording_rows(files, digests))
        assert [r.tobytes() for r, _ in rows] == [_recording_rows(*f).tobytes() for f in files]
        assert [hit for _, hit in rows] == hits

    def test_second_write_leaves_only_its_entries(self, tmp_path, gravity):
        out = tmp_path / "rec"
        write_array(SimulatedArray(draw_sensor_params(4, 1), gravity, 1.0, 100.0, seed=1),
                    out, gravity)
        (out / ".rows" / ".stray.npy.123.tmp").write_bytes(b"")
        manifest_path = write_array(
            SimulatedArray(draw_sensor_params(3, 2), gravity, 1.0, 100.0, seed=2), out, gravity)
        assert sorted(p.name for p in (out / ".rows").iterdir()) == sorted(
            f"{d}.npy" for d in _digests(manifest_path))


class TestRecordingStatsFile:
    def test_round_trip_is_bit_exact_and_keyed(self, tmp_path, gravity):
        arr = simulate_array(draw_sensor_params(3, 4), gravity, 1.0, 100.0, seed=4)
        stats = recording_stats(arr, gravity)
        ids = [s.sensor_id for s in stats]
        key = {"software_version": "x", "manifest_sha256": "m", "recordings_sha256": ["a"]}
        dest = tmp_path / "stats.json"
        write_recording_stats(dest, key, stats)
        back = read_recording_stats(dest, key, ids)
        for got, want in zip(back, stats):
            assert got.sensor_id == want.sensor_id
            assert np.array_equal(got.bias, want.bias)
            assert np.array_equal(got.noise, want.noise)
        assert read_recording_stats(dest, {**key, "manifest_sha256": "n"}, ids) is None
        assert read_recording_stats(dest, key, ids[::-1]) is None
        write_recording_stats(dest, key, [stats[0]] * 2)
        assert read_recording_stats(dest, key, [ids[0]] * 2) is None
        assert read_recording_stats(tmp_path / "absent.json", key, ids) is None
        assert [p.name for p in tmp_path.iterdir()] == ["stats.json"]

    def test_key_hashes_manifest_and_recordings(self, tmp_path, gravity):
        arr = SimulatedArray(draw_sensor_params(2, 4), gravity, 0.1, 100.0, seed=4)
        manifest_path = write_array(arr, tmp_path, gravity)
        manifest = load_manifest(manifest_path)
        key = recording_stats_key(manifest_path, manifest)
        assert len(key["recordings_sha256"]) == 2
        victim = tmp_path / "sensor_01.csv"
        victim.write_text(victim.read_text() + "\n")
        changed = recording_stats_key(manifest_path, manifest)
        assert changed["recordings_sha256"][0] == key["recordings_sha256"][0]
        assert changed["recordings_sha256"][1] != key["recordings_sha256"][1]
        victim.unlink()
        with pytest.raises(DataError, match="sensor_01.csv"):
            recording_stats_key(manifest_path, manifest)


    def test_key_hashes_each_file_in_blocks(self, tmp_path, gravity):
        """Hashing an 8 MiB recording holds one reused block per thread, not
        the whole file: a tracemalloc peak of 8.0 MiB read whole, 2.0 MiB in
        fresh 1 MiB blocks, 0.5 MiB in two 256 KiB buffers."""
        import hashlib
        import tracemalloc

        arr = SimulatedArray(draw_sensor_params(1, 4), gravity, 0.1, 100.0, seed=4)
        manifest_path = write_array(arr, tmp_path, gravity)
        manifest = load_manifest(manifest_path)
        data = np.random.default_rng(0).bytes(8 << 20)
        (tmp_path / "sensor_00.csv").write_bytes(data)
        want = hashlib.sha256(data).hexdigest()
        del data
        tracemalloc.start()
        try:
            key = recording_stats_key(manifest_path, manifest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert key["recordings_sha256"] == [want]
        assert peak < 1 << 20


def _hash_manifest(directory: Path, names: list[str]) -> Path:
    """A manifest in ``directory`` listing the recordings ``names``, in order."""
    path = directory / "manifest.json"
    write_manifest(ArrayManifest(100.0, tuple((f"s{i}", n) for i, n in enumerate(names))), path)
    return path


class TestRecordingStatsKey:
    """``recording_stats_key`` hashes the files on several threads, each
    with a buffer of its own, and gives what one thread reading each file
    whole would give."""

    @pytest.fixture(params=[1, 4], ids=["one_cpu", "four_cpus"])
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(dataio, "_cpus", lambda: request.param)
        return request.param

    @pytest.fixture
    def recordings(self, tmp_path) -> Path:
        """A manifest of recordings of different sizes: empty, one byte,
        exactly one block, several blocks and a bit, and a short text."""
        block = dataio._HASH_BLOCK
        rng = np.random.default_rng(1)
        sizes = {"empty.csv": 0, "byte.csv": 1, "block.csv": block,
                 "blocks.csv": 3 * block + 17, "short.csv": 1000}
        for name, size in sizes.items():
            (tmp_path / name).write_bytes(rng.bytes(size))
        return _hash_manifest(tmp_path, list(sizes))

    @staticmethod
    def _key(manifest_path: Path) -> dict:
        return recording_stats_key(manifest_path, load_manifest(manifest_path))

    def test_digests_are_those_of_the_whole_files(self, recordings, cpus):
        threads = threading.active_count()
        key = self._key(recordings)
        assert threading.active_count() == threads
        want = [hashlib.sha256((recordings.parent / rel).read_bytes()).hexdigest()
                for _, rel in load_manifest(recordings).sensor_files]
        assert key == {
            "software_version": dataio.__version__,
            "manifest_sha256": hashlib.sha256(recordings.read_bytes()).hexdigest(),
            "recordings_sha256": want,
        }

    def test_each_file_is_hashed_once_under_frequent_switches(self, tmp_path, monkeypatch):
        """More threads than CPUs, switching every microsecond, over many
        small files: a file handed out twice, or never, would leave a digest
        missing or misplaced."""
        monkeypatch.setattr(dataio, "_cpus", lambda: 8)
        names = [f"r{i}.csv" for i in range(60)]
        for i, name in enumerate(names):
            (tmp_path / name).write_bytes(bytes([i]) * (i * 997))
        manifest_path = _hash_manifest(tmp_path, names)
        want = [hashlib.sha256((tmp_path / n).read_bytes()).hexdigest() for n in names]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                assert self._key(manifest_path)["recordings_sha256"] == want
        finally:
            sys.setswitchinterval(interval)

    def test_threads_that_cannot_start_leave_the_files_to_this_one(
        self, recordings, cpus, monkeypatch
    ):
        want = self._key(recordings)

        def refuse(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert self._key(recordings) == want

    @pytest.mark.parametrize("names, named", [
        (["ok.csv", "absent.csv", "a_directory", "ok.csv"], "absent.csv"),
        (["ok.csv", "a_directory", "absent.csv", "ok.csv"], "a_directory"),
    ])
    def test_first_unreadable_file_in_manifest_order_is_named(self, tmp_path, cpus, names,
                                                              named):
        (tmp_path / "ok.csv").write_bytes(b"t\n" * 100_000)
        (tmp_path / "a_directory").mkdir()
        manifest_path = _hash_manifest(tmp_path, names)
        threads = threading.active_count()
        with pytest.raises(DataError, match=f"^cannot read {re.escape(str(tmp_path / named))}: "):
            self._key(manifest_path)
        assert threading.active_count() == threads

    def test_other_faults_are_raised_not_left_to_the_thread_hook(self, recordings, cpus,
                                                                  monkeypatch):
        """A fault that is not a read error is raised as it is, from
        whichever thread met it, and never reaches ``threading.excepthook``."""
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)

        class Broken:
            def update(self, data):
                raise ValueError("broken hash")

        monkeypatch.setattr(hashlib, "sha256", Broken)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="^broken hash$"):
            self._key(recordings)
        assert threading.active_count() == threads
        assert hooked == []


class TestDatasetSummary:
    def test_perfect_sensor_zeros(self, gravity):
        arr = simulate_array([SensorErrorParams()], gravity, 0.1, 100.0, seed=0)
        summary = dataset_summary(recording_stats(arr, gravity))
        assert summary["per_sensor"]["gyro_bias_rms_dps"] == [0.0]
        assert summary["per_sensor"]["accel_noise_rms"] == [0.0]

    def test_synthetic_ranges(self, gravity):
        arr = simulate_array(draw_sensor_params(10, 7), gravity, 100.0, 100.0, seed=7)
        summary = dataset_summary(recording_stats(arr, gravity))
        agg = summary["aggregates"]
        # Drawn inside the reference ranges; estimates add only ~sigma/sqrt(N).
        assert 1.9 < agg["gyro_bias_rms_dps"]["min"]
        assert agg["gyro_bias_rms_dps"]["max"] < 2.4
        assert agg["gyro_noise_rms_dps"]["median"] == pytest.approx(0.033, abs=0.005)

    def test_aggregate_ordering(self, gravity):
        arr = simulate_array(draw_sensor_params(7, 3), gravity, 2.0, 100.0, seed=3)
        agg = dataset_summary(recording_stats(arr, gravity))["aggregates"]
        for entry in agg.values():
            assert entry["min"] <= entry["median"] <= entry["max"]

    def test_single_sample_rejected(self, gravity):
        arr = simulate_array([SensorErrorParams()], gravity, 0.01, 100.0, seed=0)
        with pytest.raises(ValueError):
            dataset_summary(recording_stats(arr, gravity))


def _float_from_bits(bits: int) -> float:
    return float(np.array(bits, np.uint64).view(np.float64))


# Floats at the edges of ``dataio._float_cells``: zeros; subnormals; powers
# of two, whose rounding interval is asymmetric; the neighbours of the
# bounds of the range it renders itself and of where ``repr`` turns to an
# exponent; integers up to 2**53 and the largest float; two values that lie
# exactly halfway between their two nearest 17-digit decimals; and two of
# even mantissa whose 16-digit decimal lies exactly on the boundary of their
# rounding interval. Each with either sign.
_EDGES = [
    0.0, 5e-324, 1e-320, sys.float_info.min, np.nextafter(sys.float_info.min, 0),
    0.5, 1.0, 2.0**-20, 2.0**60, 2.0**53 - 1, 2.0**53, 123456789.0, 1e15 + 1,
    sys.float_info.max, 1548361690831282.25, 1.23522186279296875,
    3.3824719121439088e16, 2.8734077869150008e16,
    *(float(np.nextafter(b, to)) for b in (1e-6, 1e-5, 1e-4, 1e15, 1e16, 1e17)
      for to in (0.0, b, np.inf)),
]
_EDGE_FLOATS = [*_EDGES, *(-x for x in _EDGES)]
_FLOAT_CELLS = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2**53, 2**53).map(float),
    st.integers(0, 2**64 - 1).map(_float_from_bits).filter(math.isfinite),
)
# 0 rows, 1 row, and more rows than one block of ``dataio._float_rows``.
_TABLE_ROWS = [0, 1, 2, dataio._FLOAT_BLOCK_ROWS, dataio._FLOAT_BLOCK_ROWS + 1,
               2 * dataio._FLOAT_BLOCK_ROWS + 3]


class TestWriteReport:
    def test_bytes_are_written_as_they_are(self, tmp_path):
        dest = tmp_path / "sub" / "raw.npy"
        data = bytes(range(256)) + b"\r\n\n"
        write_report(data, "npy", dest)
        assert dest.read_bytes() == data
        assert [p.name for p in dest.parent.iterdir()] == ["raw.npy"]

    def test_empty_table_keeps_header(self, tmp_path):
        dest = tmp_path / "empty.csv"
        write_report({"tau": [], "dp_x": []}, "csv", dest)
        assert dest.read_text() == "tau,dp_x\n"

    def test_csv_round_trips_floats(self, tmp_path, rng):
        vals = list(rng.normal(size=50))
        dest = tmp_path / "t.csv"
        write_report({"x": vals}, "csv", dest)
        lines = dest.read_text().strip().split("\n")
        assert [float(v) for v in lines[1:]] == vals

    def test_ellipsoid_json_schema(self, tmp_path):
        from imulab.ins_error_model import ellipsoid_from_cov

        ell = ellipsoid_from_cov(np.diag([4.0, 1.0, 0.25]), np.zeros(3))
        dest = tmp_path / "ell.json"
        write_report(
            {"centroid": ell.centroid, "semi_axes": ell.semi_axes,
             "orientation": ell.orientation},
            "json", dest,
        )
        raw = json.loads(dest.read_text())
        assert set(raw) == {"centroid", "semi_axes", "orientation"}

    def test_ragged_csv_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            write_report({"a": [1.0], "b": [1.0, 2.0]}, "csv", tmp_path / "x.csv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            write_report({}, "xml", tmp_path / "x.xml")

    def test_csv_matches_cell_by_cell_format(self, tmp_path, rng):
        n = 40
        table = {
            "x": rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, n),
            "k": np.arange(n) - 7,
            "label": np.array([f"s{i:02d}" for i in range(n)]),
            "mixed": [1.5, 2, "a", True, None] * (n // 5),
        }
        dest = tmp_path / "t.csv"
        write_report(table, "csv", dest)
        assert dest.read_text() == cell_by_cell_csv(table)

    @settings(max_examples=150, deadline=None)
    @given(cells=st.lists(_FLOAT_CELLS, min_size=1, max_size=40),
           n_rows=st.sampled_from(_TABLE_ROWS), n_cols=st.integers(1, 4))
    @example(cells=_EDGE_FLOATS, n_rows=len(_EDGE_FLOATS), n_cols=1)
    @example(cells=_EDGE_FLOATS, n_rows=2 * dataio._FLOAT_BLOCK_ROWS + 3, n_cols=3)
    def test_float_tables_match_cell_by_cell_rule(self, cells, n_rows, n_cols):
        # The cells repeat, in order, row after row.
        values = np.resize(np.array(cells), (n_rows, n_cols))
        table = {f"c{j}": values[:, j] for j in range(n_cols)}
        # Compared as lists of lines, which name the first line that differs
        # without a slow diff of the whole text.
        expected = cell_by_cell_csv(table).split("\n")
        assert dataio.render_report(table, "csv").split("\n") == expected
        with pytest.MonkeyPatch.context() as patch:  # the kernel for every table
            patch.setattr(dataio, "_FLOAT_KERNEL_MIN_CELLS", 1)
            assert dataio.render_report(table, "csv").split("\n") == expected

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "column",
        [
            np.array([1.0, np.nan]),
            np.array(["a", np.nan], dtype=object),
            [1.0, np.float64("inf")],
            [float("-inf")],
        ],
        ids=["ndarray", "object-ndarray", "numpy-scalar", "list"],
    )
    def test_non_finite_rejected(self, tmp_path, fmt, column):
        dest = tmp_path / f"x.{fmt}"
        with pytest.raises(ValueError, match="non-finite"):
            write_report({"x": column}, fmt, dest)
        assert not dest.exists()

    def test_bare_numpy_non_finite_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            write_report(np.float64("inf"), "json", tmp_path / "x.json")

    def test_deterministic_output(self, tmp_path, gravity):
        arr = simulate_array(draw_sensor_params(2, 5), gravity, 1.0, 100.0, seed=5)
        summary = dataset_summary(recording_stats(arr, gravity))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(summary, "json", a)
        write_report(summary, "json", b)
        assert a.read_bytes() == b.read_bytes()
