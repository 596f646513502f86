"""Self-test of the benchmark harness.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from workloads import STAGES, WORKLOADS  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--size", "tiny",
         "--seconds", "0.2", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_run_prints_every_metric_name(trace, section):
    lines, final = _run("--trace", trace)
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 4
    text = "\n".join(lines[:-1])
    for metric in _spec()[section]:
        for workload in WORKLOADS:
            assert final["metrics"][f"{workload}.{metric['name']}"]["unit"] == metric["unit"]
            assert f"{workload:>16}  {metric['name']} " in text
    if section == "end_to_end":
        for stage in STAGES:
            for workload in WORKLOADS:
                assert f"{workload:>16}  {stage}_s " in text


@pytest.fixture(scope="module")
def tiny_pass(tmp_path_factory):
    """Outputs of one tiny ``paper`` pass and their reference fingerprints."""
    import imulab.cli as cli

    workload = WORKLOADS["paper"].tiny()
    pass_dir = tmp_path_factory.mktemp("pass")
    result = worker.run_pass(cli, workload, 7, pass_dir)
    assert result["errors"] == {}
    problems, hashes, prints = checks.check_pass(pass_dir, workload, None)
    assert problems == []
    return workload, pass_dir, {"sha256": hashes, "fingerprints": prints}


def test_unchanged_outputs_pass_the_reference_check(tiny_pass):
    workload, pass_dir, reference = tiny_pass
    problems, hashes, _ = checks.check_pass(pass_dir, workload, reference)
    assert problems == []
    assert hashes == reference["sha256"]


def _change_csv_value(path: Path, row: int, col: int) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * 1.001)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("rel, row, col, stage", [
    ("run/recordings/sensor_01.csv", 5, 2, "simulate"),
    ("run/kde_K3.csv", 100, 5, "estimate"),
    ("run/uncertainty_K1.csv", 5, 2, "propagate"),
])
def test_one_changed_value_fails_the_check(tiny_pass, tmp_path, rel, row, col, stage):
    workload, pass_dir, reference = tiny_pass
    copy = tmp_path / "pass"
    shutil.copytree(pass_dir, copy)
    _change_csv_value(copy / rel, row=row, col=col)
    problems, _, _ = checks.check_pass(copy, workload, reference)
    assert problems and {s for s, _ in problems} == {stage}


def test_broken_ratio_fails_without_a_reference(tiny_pass, tmp_path):
    workload, pass_dir, _ = tiny_pass
    copy = tmp_path / "pass"
    shutil.copytree(pass_dir, copy)
    path = copy / "run" / "evaluation_matrix.json"
    data = json.loads(path.read_text())
    data["accel"]["n_ratio"] *= 1 + 1e-9
    path.write_text(json.dumps(data, indent=2) + "\n")
    problems, _, _ = checks.check_pass(copy, workload, None)
    assert [s for s, _ in problems] == ["estimate"]


def test_later_pass_with_other_bytes_is_checked_in_full(tiny_pass, tmp_path):
    workload, pass_dir, reference = tiny_pass
    copy = tmp_path / "pass"
    shutil.copytree(pass_dir, copy)
    path = copy / "run" / "evaluation_matrix.json"
    data = json.loads(path.read_text())
    path.write_text(json.dumps(data, indent=4) + "\n")
    assert worker.later_pass_problems(copy, workload, reference["sha256"], [], reference) == []
    data["accel"]["n_ratio"] *= 1 + 1e-9
    path.write_text(json.dumps(data, indent=4) + "\n")
    problems = worker.later_pass_problems(copy, workload, reference["sha256"], [], reference)
    assert problems and {s for s, _ in problems} == {"estimate"}


def test_end_to_end_timings_are_wall_times_scaled_by_host_speed():
    passes = [{"traced": False, "times": {s: 1.0 + i for s in STAGES}} for i in range(3)]
    raw = {"passes": passes, "setup_wall": [2.0, 4.0], "host_scale": 0.5,
           "sensors": 2, "n_samples": 10, "peak_rss_mb": 100.0}
    values, timings, wall = run.end_to_end(raw)
    assert wall["pipeline_s"]["median"] == 8.0
    assert values["pipeline_s"] == timings["pipeline_s"]["median"] == 4.0
    assert values["estimate_s"] == 1.0 and values["setup_s"] == 1.5
    assert values["samples_per_s"] == 20 / 4.0
