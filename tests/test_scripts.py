import importlib.util
import sys
from pathlib import Path

import pytest

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


def _sha_script(monkeypatch):
    """``perfbench/workloads.py`` and ``scripts/output_sha256.py``, loaded."""
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
    return workloads, script


def test_output_sha256_repeats(tmp_path, monkeypatch):
    workloads, script = _sha_script(monkeypatch)
    workload = workloads.WORKLOADS["wide_manifest"].tiny()
    first = script.output_sha256(workload, 7, tmp_path / "a")
    assert first == script.output_sha256(workload, 7, tmp_path / "b")
    rows_cache = {f"run/recordings/.rows/{digest}.npy"
                  for path, digest in first.items() if path.startswith("run/recordings/sensor_")}
    assert len(rows_cache) == workload.sensors
    assert set(first) == (set(workload.expected_outputs()) | {"run/recording_stats.json"}
                          | rows_cache)
    assert first != script.output_sha256(workload, 8, tmp_path / "c")


def test_peak_rss_reads_each_stage(tmp_path, monkeypatch):
    """``scripts/peak_rss.py`` runs a workload's four stages, as
    ``output_sha256.py`` does, and reads the process's peak RSS after the
    import and after each stage, and its reaped workers' after each stage:
    high-water marks, so never falling; and the minor page faults that each
    stage took, its own and its reaped workers'."""
    workloads, _ = _sha_script(monkeypatch)
    spec = importlib.util.spec_from_file_location("peak_rss", SHA_SCRIPT.with_name("peak_rss.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    workload = workloads.WORKLOADS["wide_manifest"].tiny()
    readings = script.peak_rss(workload, 7, tmp_path / "rss")
    assert readings["workload"] == "wide_manifest" and readings["sensors"] == workload.sensors
    assert list(readings["self"]) == ["import", *workloads.STAGES]
    assert list(readings["children"]) == list(workloads.STAGES)
    for marks in (readings["self"], readings["children"]):
        values = list(marks.values())
        assert values == sorted(values) and values[0] >= 0
    assert readings["self"]["import"] > 0
    for side in ("self", "children"):
        faults = readings["minor_faults"][side]
        assert list(faults) == list(workloads.STAGES)
        assert all(isinstance(n, int) and n >= 0 for n in faults.values())
    assert (tmp_path / "rss" / "run" / "report.json").is_file()
    with pytest.raises(RuntimeError, match="is not empty"):
        script.peak_rss(workload, 7, tmp_path / "rss")


def test_all_output_sha256_keys_each_workload(tmp_path, monkeypatch):
    workloads, script = _sha_script(monkeypatch)
    tiny = [w.tiny() for w in workloads.WORKLOADS.values()]
    digests = script.all_output_sha256(tiny, 7, tmp_path / "all")
    assert list(digests) == list(workloads.WORKLOADS)
    for workload in tiny:
        assert digests[workload.name] == script.output_sha256(
            workload, 7, tmp_path / "one" / workload.name)


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT.with_name("bench_pairs.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_bench_pairs_summary_applies_the_gain_rule():
    summarize = _bench_pairs().summarize
    base = [0.50, 0.52, 0.48, 0.51, 0.49, 0.50, 0.53, 0.47, 0.50, 0.51]
    change = [0.39, 0.40, 0.38, 0.41, 0.39, 0.52, 0.40, 0.38, 0.39, 0.40]
    s = summarize(base, change, "lower")
    assert s["base"] == {"median": 0.50, "q1": 0.4925, "q3": 0.51}
    assert s["change"]["median"] == 0.395
    assert (s["wins"], s["pairs"]) == (9, 10)
    assert abs(s["iqr"] - 0.0175) < 1e-12 and abs(s["gap"] - 0.105) < 1e-12
    assert s["meets"]
    # Eight wins of ten miss the rule; so does a gap within the base's spread.
    assert not summarize(base, change[:9] + [0.60], "lower")["meets"]
    assert not summarize(base, [b - 0.01 for b in base], "lower")["meets"]
    # For a metric where higher is better, the same numbers are a loss.
    higher = summarize(base, change, "higher")
    assert (higher["wins"], higher["meets"]) == (1, False) and higher["gap"] < 0


@pytest.mark.parametrize("base, change, better, verdict", [
    # Medians 0.50 against 0.60: 20% worse, within a 25% bound.
    ([0.49, 0.50, 0.51, 0.50], [0.59, 0.60, 0.61, 0.60], "lower", "within bound"),
    # 0.50 against 0.70: 40% worse.
    ([0.49, 0.50, 0.51, 0.50], [0.69, 0.70, 0.71, 0.70], "lower", "regressed"),
    # For a metric where higher is better, 0.50 against 0.30 is 40% worse.
    ([0.49, 0.50, 0.51, 0.50], [0.29, 0.30, 0.31, 0.30], "higher", "regressed"),
    # The base's iqr (0.30) is wider than the bound (0.125), so a median 40%
    # worse cannot be told from the spread...
    ([0.20, 0.40, 0.60, 0.80], [0.69, 0.70, 0.71, 0.70], "lower", "unresolved"),
    # ...nor can a median no worse.
    ([0.20, 0.40, 0.60, 0.80], [0.49, 0.50, 0.51, 0.50], "lower", "unresolved"),
    # Unless every change run beats every base run.
    ([0.20, 0.40, 0.60, 0.80], [0.10, 0.11, 0.12, 0.13], "lower", "within bound"),
    ([0.20, 0.40, 0.60, 0.80], [0.90, 0.91, 0.92, 0.93], "higher", "within bound"),
])
def test_bench_pairs_summary_gives_the_no_regression_verdict(base, change, better, verdict):
    summarize = _bench_pairs().summarize
    assert summarize(base, change, better, bound=0.25)["verdict"] == verdict
    assert "verdict" not in summarize(base, change, better)
