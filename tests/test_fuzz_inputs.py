"""Fuzzed input bytes: ``estimate`` and manifest ``propagate`` on mutated
recordings and manifests, and ``report`` on mutated estimate and propagate
products, exit 0, or 3 with a data error and nothing written, and never file
bad data as a config error."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from imulab.cli import main
from imulab.dataio import write_array
from imulab.sensor_model import GravityModel, SimulatedArray, draw_sensor_params

FILES = ("manifest.json", "sensor_00.csv", "sensor_01.csv")
RECORDINGS = FILES[1:]
PRODUCTS = ("out/evaluation_matrix.json", "out/ratio_matrices.json",
            "out/recording_stats.json")

position = st.integers(0, 10**5)
timestamp = st.one_of(st.floats(-1.0, 3.0), st.floats()).map(repr)
huge = st.builds(lambda m, neg: repr(-m if neg else m), st.floats(1e6, 1e308), st.booleans())


def _byte_mutations(files):
    return st.one_of(
        st.tuples(st.just("flip"), st.sampled_from(files), position, st.integers(0, 255)),
        st.tuples(st.just("truncate"), st.sampled_from(files), position),
        st.tuples(st.just("delete_line"), st.sampled_from(files), position),
        st.tuples(st.just("duplicate_line"), st.sampled_from(files), position),
    )


input_mutation = st.one_of(
    _byte_mutations(FILES),
    st.tuples(st.just("set_cell"), st.sampled_from(RECORDINGS), position, st.just(0), timestamp),
    st.tuples(st.just("set_cell"), st.sampled_from(RECORDINGS), position,
              st.integers(1, 6), huge),
)
product_mutation = st.one_of(
    _byte_mutations(PRODUCTS),
    st.tuples(st.just("set_number"), st.sampled_from(PRODUCTS), position,
              st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999"])),
)

# A JSON number that is a value, not part of a key or string.
_JSON_NUMBER = re.compile(rb"(?<=[\s\[:,])-?\d[\d.eE+-]*")


def _config(run: Path) -> Path:
    cfg = run / "config.json"
    cfg.write_text(json.dumps({"manifest": str(run / "manifest.json"), "k_grid": [1, 2],
                               "tau_grid": [0.0, 1.0, 10.0], "out_dir": str(run / "out")}))
    return cfg


def _run(cmd: str, run: Path) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([cmd, "--config", str(_config(run))])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def base_files(tmp_path_factory) -> dict:
    """Two simulated 10 Hz recordings of 20 samples and their manifest, plus
    the products of a clean ``estimate`` and ``propagate`` on them."""
    out = tmp_path_factory.mktemp("base")
    gravity = GravityModel()
    arr = SimulatedArray(draw_sensor_params(2, 5), gravity, 2.0, 10.0, seed=5)
    write_array(arr, out, gravity)
    for cmd in ("estimate", "propagate"):
        assert _run(cmd, out)[0] == 0, cmd
    return {name: (out / name).read_bytes() for name in FILES + PRODUCTS}


def _mutate(data: bytes, op: tuple) -> bytes:
    kind, _, i, *args = op
    if kind == "flip":
        if not data:
            return data
        i %= len(data)
        return data[:i] + bytes(args) + data[i + 1:]
    if kind == "truncate":
        return data[: i % (len(data) + 1)]
    if kind == "set_number":
        numbers = list(_JSON_NUMBER.finditer(data))
        if not numbers:
            return data
        m = numbers[i % len(numbers)]
        return data[:m.start()] + args[0].encode() + data[m.end():]
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


def _mutated_run(tmp_path: Path, files: dict, mutations: list) -> Path:
    run = Path(tempfile.mkdtemp(dir=tmp_path))
    files = dict(files)
    for op in mutations:
        files[op[1]] = _mutate(files[op[1]], op)
    for name, data in files.items():
        (run / name).parent.mkdir(exist_ok=True)
        (run / name).write_bytes(data)
    return run


def _assert_exit_0_or_3(code: int, err: str) -> None:
    assert code in (0, 3), err
    assert not err.startswith("config error"), err
    if code == 3:
        assert err.startswith("data error: "), err


_FUZZ = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _check_input_stage(cmd: str, tmp_path: Path, base_files: dict, mutations: list) -> None:
    inputs = {name: base_files[name] for name in FILES}
    run = _mutated_run(tmp_path, inputs, mutations)
    code, err = _run(cmd, run)
    _assert_exit_0_or_3(code, err)
    if code == 3:
        assert not (run / "out").exists()


@_FUZZ
@given(mutations=st.lists(input_mutation, min_size=1, max_size=3))
def test_estimate_exits_0_or_3(tmp_path, base_files, mutations):
    _check_input_stage("estimate", tmp_path, base_files, mutations)


@settings(_FUZZ, max_examples=100)
@given(mutations=st.lists(input_mutation, min_size=1, max_size=3))
def test_propagate_exits_0_or_3(tmp_path, base_files, mutations):
    _check_input_stage("propagate", tmp_path, base_files, mutations)


@settings(_FUZZ, max_examples=100)
@given(mutations=st.lists(product_mutation, min_size=1, max_size=3))
def test_report_exits_0_or_3(tmp_path, base_files, mutations):
    run = _mutated_run(tmp_path, base_files, mutations)
    code, err = _run("report", run)
    _assert_exit_0_or_3(code, err)
    if code == 3:
        assert not (run / "out" / "report.json").exists()
