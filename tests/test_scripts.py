import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_full_experiment.py"


def test_run_full_experiment_prints_digest(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("run_full_experiment", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.run(tmp_path, seed=7, sensors=3, duration_s=2.0, rate_hz=100.0) == 0
    out = capsys.readouterr().out
    assert "=== digest ===" in out
    assert "expected 1/sqrt(K) = 0.57735" in out
    assert (tmp_path / "report.json").exists()
