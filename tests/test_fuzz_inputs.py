"""Fuzzed recording and manifest bytes: ``estimate`` exits 0, or 3 with a data
error and no output directory, and never files bad data as a config error."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from imulab.cli import main
from imulab.dataio import write_array
from imulab.sensor_model import GravityModel, draw_sensor_params, simulate_array

FILES = ("manifest.json", "sensor_00.csv", "sensor_01.csv")
RECORDINGS = FILES[1:]

position = st.integers(0, 10**5)
timestamp = st.one_of(st.floats(-1.0, 3.0), st.floats()).map(repr)
huge = st.builds(lambda m, neg: repr(-m if neg else m), st.floats(1e6, 1e308), st.booleans())
mutation = st.one_of(
    st.tuples(st.just("flip"), st.sampled_from(FILES), position, st.integers(0, 255)),
    st.tuples(st.just("truncate"), st.sampled_from(FILES), position),
    st.tuples(st.just("delete_line"), st.sampled_from(FILES), position),
    st.tuples(st.just("duplicate_line"), st.sampled_from(FILES), position),
    st.tuples(st.just("set_cell"), st.sampled_from(RECORDINGS), position, st.just(0), timestamp),
    st.tuples(st.just("set_cell"), st.sampled_from(RECORDINGS), position,
              st.integers(1, 6), huge),
)


@pytest.fixture(scope="module")
def base_files(tmp_path_factory) -> dict:
    """Two simulated 10 Hz recordings of 20 samples and their manifest."""
    out = tmp_path_factory.mktemp("base")
    gravity = GravityModel()
    arr = simulate_array(draw_sensor_params(2, 5), gravity, 2.0, 10.0, seed=5)
    write_array(arr, out, gravity)
    return {name: (out / name).read_bytes() for name in FILES}


def _mutate(data: bytes, op: tuple) -> bytes:
    kind, _, i, *args = op
    if kind == "flip":
        if not data:
            return data
        i %= len(data)
        return data[:i] + bytes(args) + data[i + 1:]
    if kind == "truncate":
        return data[: i % (len(data) + 1)]
    lines = data.split(b"\n")
    j = i % len(lines)
    if kind == "delete_line":
        del lines[j]
    elif kind == "duplicate_line":
        lines.insert(j, lines[j])
    else:
        col, value = args
        cells = lines[j].split(b",")
        if j > 0 and col < len(cells):  # line 0 is the header
            cells[col] = value.encode()
            lines[j] = b",".join(cells)
    return b"\n".join(lines)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=st.lists(mutation, min_size=1, max_size=3))
def test_estimate_exits_0_or_3(tmp_path, base_files, mutations):
    run = Path(tempfile.mkdtemp(dir=tmp_path))
    files = dict(base_files)
    for op in mutations:
        files[op[1]] = _mutate(files[op[1]], op)
    for name, data in files.items():
        (run / name).write_bytes(data)
    cfg = run / "config.json"
    cfg.write_text(json.dumps({"manifest": str(run / "manifest.json"), "k_grid": [1, 2],
                               "out_dir": str(run / "out")}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["estimate", "--config", str(cfg)])
    assert code in (0, 3), err.getvalue()
    assert not err.getvalue().startswith("config error"), err.getvalue()
    if code == 3:
        assert err.getvalue().startswith("data error: ")
        assert not (run / "out").exists()
