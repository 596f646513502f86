"""The pipeline runs under the benchmark's tracer, and the benchmark can
reduce what the tracer records.

``perfbench/tracing.py`` replaces every function that ``imulab.cli`` imports
by a timing wrapper in ``cli``'s namespace. Such a wrapper cannot be pickled
(pickle finds the original under the function's name), so a function that
``cli`` handed to a process pool would fail in traced runs only. This test
runs the four stages under the tracer at a size whose recordings are written
in the pool.

It then passes the recorded spans through ``perfbench/run.py``'s
``per_layer`` step, with ``BENCHMARK.json``'s per-layer names. ``run.py``
reports a crashed worker as exit 2, so an exit 1 from it is an exception
raised in ``run.py`` itself, and the one a package change can cause is there:
``dataio.parse_recording_csv.useful_ratio`` divides the sensor count by the
traced parse calls. Those are the calls made through ``cli``'s imported
name; a parse moved elsewhere, such as into a pool inside ``dataio``, leaves
none, and the division raises ``ZeroDivisionError``.
"""

import importlib.util
import json
import math
import multiprocessing
import sys
from pathlib import Path

import imulab
import imulab.cli as cli

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("simulate", "estimate", "propagate", "report")


def _perfbench_module(monkeypatch, stem: str, name: str):
    """``perfbench/<stem>.py`` loaded, unchanged, as module ``name`` for this test."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{stem}.py")
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
    tracing = _perfbench_module(monkeypatch, "tracing", "perfbench_tracing")
    tracer = tracing.Tracer()
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

    # run.py imports its sibling as ``workloads``, the name perfbench/ on sys.path gives it.
    _perfbench_module(monkeypatch, "workloads", "workloads")
    run = _perfbench_module(monkeypatch, "run", "perfbench_run")
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    raw = {"sensors": 4, "passes": [{"traced": True, "trace": tracing.summarize(tracer.spans)}]}
    values, _ = run.per_layer(raw, metrics)
    assert sorted(values) == sorted(metrics)
    assert all(math.isfinite(v) for v in values.values()), values
    assert values["dataio.parse_recording_csv.calls"] == 4


def test_stages_run_under_the_tracer_with_pooled_per_k_jobs(tmp_path, monkeypatch):
    """``test_stages_run_under_the_tracer`` with 10^4 samples per recording,
    so that ``estimate``'s per-k jobs (2 x 6 x 10^4 values) run in worker
    processes too: they inherit the tracer's wrappers, whose spans stay in
    the workers."""
    main = cli.main
    monkeypatch.setattr(cli, "main", lambda argv: main([*argv, "--duration", "100"]))
    test_stages_run_under_the_tracer(tmp_path, monkeypatch)
