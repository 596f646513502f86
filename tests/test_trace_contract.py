"""The pipeline runs under the benchmark's tracer.

``perfbench/tracing.py`` replaces every function that ``imulab.cli`` imports
by a timing wrapper in ``cli``'s namespace. Such a wrapper cannot be pickled
(pickle finds the original under the function's name), so a function that
``cli`` handed to a process pool would fail in traced runs only. This test
runs the four stages under the tracer at a size whose recordings are written
in the pool.
"""

import importlib.util
import json
import multiprocessing
import sys
from pathlib import Path

import imulab
import imulab.cli as cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
STAGES = ("simulate", "estimate", "propagate", "report")


def _tracing_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_stages_run_under_the_tracer(tmp_path, monkeypatch):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "seed": 7,
        "duration_s": 40.0,  # 4 x 4000 x 7 values: the recordings are written in the pool
        "rate_hz": 100.0,
        "sensors": 4,
        "k_grid": [1, 4],
        "tau_grid": [0.0, 1.0, 10.0],
        "out_dir": str(tmp_path / "out"),
    }))
    original = cli.parse_recording_csv
    tracer = _tracing_module(monkeypatch).Tracer()
    tracer.install(imulab)
    try:
        assert cli.parse_recording_csv is not original  # the tracer is in place
        for stage in STAGES:
            with tracer.stage(stage):
                assert cli.main([stage, "--config", str(cfg)]) == 0, stage
    finally:
        tracer.uninstall()
    assert cli.parse_recording_csv is original
    names = {span.name for span in tracer.spans}
    assert {f"cli.{stage}" for stage in STAGES} <= names
    assert multiprocessing.active_children() == []
