import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_full_experiment.py"
SHA_SCRIPT = SCRIPT.with_name("output_sha256.py")
PERFBENCH = SCRIPT.parents[1] / "perfbench"


def test_run_full_experiment_prints_digest(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("run_full_experiment", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.run(tmp_path, seed=7, sensors=3, duration_s=2.0, rate_hz=100.0) == 0
    out = capsys.readouterr().out
    assert "=== digest ===" in out
    assert "expected 1/sqrt(K) = 0.57735" in out
    assert (tmp_path / "report.json").exists()


def test_output_sha256_repeats(tmp_path, monkeypatch):
    # The script puts perfbench/ on sys.path and imports its workloads module;
    # both are undone after the test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    spec = importlib.util.spec_from_file_location("output_sha256", SHA_SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    workload = workloads.WORKLOADS["wide_manifest"].tiny()
    first = script.output_sha256(workload, 7, tmp_path / "a")
    assert first == script.output_sha256(workload, 7, tmp_path / "b")
    assert set(first) == set(workload.expected_outputs()) | {"run/recording_stats.json"}
    assert first != script.output_sha256(workload, 8, tmp_path / "c")
