import argparse
import ast
import contextlib
import dataclasses
import errno
import io
import json
import math
import operator
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from functools import partial, reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from imulab import cli, dataio
from imulab.cli import ExperimentConfig, _prefix_means, build_parser, load_config, main
from imulab.dataio import ConfigError, write_recording_csv
from imulab.estimation import bias_score
from imulab.ins_error_model import q_coefficient_audit
from imulab.sensor_model import ArrayRecording, GravityModel
from test_dataio import _TWO_CPUS, _no_child_left, _other_thread


# An integer of more digits than Python converts from text by default
# (``sys.get_int_max_str_digits()`` is 4300), which ``json`` refuses.
_TOO_MANY_DIGITS = b"1" + b"0" * 5000


def _dir_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _read_table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _write_manifest_config(tmp_path: Path, **overrides) -> Path:
    """Config reading the recordings that ``simulate`` wrote under ``out``."""
    cfg = {
        "manifest": str(tmp_path / "out" / "recordings" / "manifest.json"),
        "k_grid": [1, 4],
        "tau_grid": [0.0, 1.0, 10.0],
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "manifest_config.json"
    path.write_text(json.dumps(cfg))
    return path


def _recording_text(t: np.ndarray, rng: np.random.Generator) -> str:
    """A hand-written recording at timestamps ``t``: noisy, level, at rest."""
    rows = np.column_stack([
        t,
        rng.normal(0.0, 1e-3, (t.size, 3)),
        rng.normal(0.0, 1e-2, (t.size, 3)) + [0.0, 0.0, -9.81],
    ])
    lines = ["t,gx,gy,gz,ax,ay,az", *(",".join(map(repr, r)) for r in rows.tolist())]
    return "\n".join(lines) + "\n"


def _hand_written_config(tmp_path: Path, recordings: dict, rate_hz: float) -> Path:
    """Config for a manifest of the given sensor id -> recording text or bytes,
    written to ``tmp_path``, with outputs under ``tmp_path / "out"``."""
    files = []
    for sid, text in recordings.items():
        (tmp_path / f"{sid}.csv").write_bytes(text if isinstance(text, bytes) else text.encode())
        files.append({"sensor_id": sid, "path": f"{sid}.csv"})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"rate_hz": rate_hz, "sensor_files": files}))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"manifest": str(manifest), "k_grid": [1, 2],
                               "tau_grid": [0.0, 1.0, 10.0], "out_dir": str(tmp_path / "out")}))
    return cfg


def _write_failing_on_sensor_02(recording, dest):
    """``write_recording_csv``, failing for ``sensor_02`` as a full disk would."""
    if recording.sensor_id == "sensor_02":
        raise ConfigError(f"cannot write report to {dest}: No space left on device")
    write_recording_csv(recording, dest)


def _write_config(tmp_path: Path, **overrides) -> Path:
    cfg = {
        "seed": 42,
        "duration_s": 10.0,
        "rate_hz": 100.0,
        "sensors": 4,
        "k_grid": [1, 4],
        "tau_grid": [0.0, 1.0, 10.0],
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.sensors == 10 and cfg.manifest is None
        assert cfg.k_grid == [1, 10]

    def test_sensors_and_manifest_exclusive(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(sensors=5, manifest="m.json")
        with pytest.raises(ConfigError):
            ExperimentConfig(sensors=None, manifest=None)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"sensor_count": 5}')
        with pytest.raises(ConfigError, match="sensor_count"):
            load_config(str(path), argparse.Namespace())

    @pytest.mark.parametrize("sensors, duration_s, count", [
        (10 ** 12, 100.0, 10 ** 12),  # 10^4 samples each
        ([{}] * 1000, 1e12, 1000),  # 10^14 samples each
    ])
    def test_sensors_beyond_physical_memory_rejected(self, tmp_path, sensors, duration_s, count):
        """``simulate`` would hold every sensor's samples at once: a config
        error naming ``sensors``, before any stage runs."""
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"sensors": sensors, "duration_s": duration_s}))
        with pytest.raises(ConfigError, match=f"times sensors = {count}, do not fit in the "
                                              r"\S+ bytes of physical memory$"):
            load_config(str(path), argparse.Namespace())

    def test_sensor_bound_skipped_where_memory_is_unknown(self, monkeypatch):
        def unknown(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(cli.os, "sysconf", unknown)
        assert ExperimentConfig(sensors=10 ** 12).sensors == 10 ** 12

    def test_cli_flags_override_file(self, tmp_path):
        path = _write_config(tmp_path, seed=1)
        args = build_parser().parse_args([
            "simulate", "--config", str(path), "--seed", "99", "--sensors", "3",
            "--rate", "50", "--duration", "2.5", "--out", "elsewhere", "--format", "json",
        ])
        cfg = load_config(args.config, args)
        assert cfg.seed == 99
        assert cfg.sensors == 3
        assert cfg.rate_hz == 50.0
        assert cfg.duration_s == 2.5
        assert cfg.out_dir == "elsewhere"
        assert cfg.fmt == "json"
        unset = build_parser().parse_args(["simulate", "--config", str(path)])
        assert load_config(unset.config, unset) == load_config(str(path), argparse.Namespace())

    def test_sensors_flag_drops_manifest(self, tmp_path):
        path = _write_manifest_config(tmp_path)
        args = build_parser().parse_args(["estimate", "--config", str(path), "--sensors", "2"])
        cfg = load_config(args.config, args)
        assert cfg.sensors == 2 and cfg.manifest is None
        args = build_parser().parse_args(["estimate", "--config", str(path)])
        assert load_config(args.config, args).manifest == json.loads(path.read_text())["manifest"]

    @pytest.mark.parametrize("argv, code", [
        (["--version"], 0),
        (["simulate", "--help"], 0),
        ([], 2),
        (["bogus"], 2),
        (["simulate", "--seed", "x"], 2),
    ], ids=["version", "help", "no_command", "unknown_command", "bad_flag_value"])
    def test_usage_exit_codes(self, tmp_path, capsys, monkeypatch, argv, code):
        """``--version`` and ``--help`` print to stdout and exit 0; a missing
        or unknown subcommand, or a flag value of the wrong type, prints the
        usage to stderr and exits 2. None of them runs a stage."""
        monkeypatch.chdir(tmp_path)  # so the default out_dir would show below
        assert main(argv) == code
        out, err = capsys.readouterr()
        if argv == ["--version"]:
            assert out == f"imulab {cli.__version__}\n"
        elif code == 0:
            assert "{simulate,estimate,propagate,report}" in out and "--format" in out
        else:
            assert out == "" and err.startswith("usage: imulab")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text, field", [
        (b"[]", None),
        (b'{"k_grid": 5}', "k_grid"),
        (b'{"k_grid": ["a"]}', "k_grid"),
        (b'{"tau_grid": 3}', "tau_grid"),
        (b'{"tau_grid": [-5, 1]}', "tau_grid"),
        (b'{"gravity_mps2": -1}', "gravity_mps2"),
        (b'{"duration_s": "10"}', "duration_s"),
        (b'{"sensors": "4"}', "sensors"),
        (b'{"sensors": [1]}', "sensors"),
        (b'{"sensors": []}', "sensors"),
        (b'{"sensors": 0}', "sensors"),
        (b'{"duration_s": 1e300}', "duration_s * rate_hz"),
        (b'{"rate_hz": 1e300, "duration_s": 1e10}', "duration_s * rate_hz"),
        (b'{"duration_s": 0.01}', "duration_s * rate_hz"),
        (b'{"seed": -1}', "seed"),
        (b'{"seed": 1\xff}', None),
        (b'{"sensors": [{"bias_gyro": [1, 0, 0]}]}', "sensors[0]: unknown key 'bias_gyro'"),
        (b'{"sensors": [{"bias_gyro_dps": "abc"}]}', "sensors[0]: bias_gyro_dps must be"),
        (b'{"sensors": [{}, {"bias_accel": [1, 2]}]}', "sensors[1]: bias_accel must be"),
        (b'{"sensors": [{"bias_accel": ["1", 0, 0]}]}', "sensors[0]: bias_accel must be"),
        (b'{"sensors": [{"sigma_accel": "0.1"}]}', "sensors[0]: sigma_accel must be"),
        (b'{"sensors": [{"sigma_gyro_dps": true}]}', "sensors[0]: sigma_gyro_dps must be"),
        (b'{"sensors": [{"sigma_accel": -1}]}', "sensors[0]: sigma_accel must be"),
        (b'{"fmt": "xml"}', "fmt must be 'csv' or 'json', got 'xml'"),
        (b'{"noise_interpretation": "x"}',
         "noise_interpretation must be 'per_sample' or 'psd', got 'x'"),
        (b'{"tau_grid": []}', "tau_grid must be a non-empty list of finite numbers >= 0, got []"),
        (b'{"k_grid": []}', "k_grid must be a non-empty list of integers, got []"),
        (b'{"duration_s": 0}', "duration_s must be a finite number > 0, got 0"),
        (b'{"rate_hz": -1.5}', "rate_hz must be a finite number > 0, got -1.5"),
        (b'{"out_dir": "a\\u0000b"}', "out_dir must be a path without a NUL byte, got 'a\\x00b'"),
        (b'{"manifest": "a\\u0000b"}',
         "manifest must be a path without a NUL byte, got 'a\\x00b'"),
        pytest.param(b'{"seed": 1' + _TOO_MANY_DIGITS + b"}", None,
                     id="seed_int_beyond_conversion_limit"),
    ])
    def test_malformed_config_exits_2_naming_it(self, tmp_path, capsys, monkeypatch, text,
                                                field):
        """Named by its field, or by its path when no field is at fault."""
        monkeypatch.chdir(tmp_path)  # so the default out_dir would show below
        path = tmp_path / "config.json"
        path.write_bytes(text)
        for cmd in ("simulate", "estimate", "propagate", "report"):
            capsys.readouterr()
            assert main([cmd, "--config", str(path)]) == 2, cmd
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and (field or str(path)) in err, err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_every_field_has_exactly_one_rule(self):
        """``_FIELD_RULES`` is the one judge of each config field on its own:
        its literal names every field once (a repeated key would silently
        replace the first)."""
        tree = ast.parse(Path(cli.__file__).read_text())
        (rules,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets] == ["_FIELD_RULES"]]
        names = sorted(key.value for key in rules.keys)
        fields = sorted(f.name for f in dataclasses.fields(ExperimentConfig))
        assert names == fields, f"fields without a rule: {sorted(set(fields) - set(names))}"

    def test_explicit_sensor_list(self):
        cfg = ExperimentConfig(
            sensors=[{"bias_gyro_dps": [2.0, 0, 0], "sigma_gyro_dps": 0.033}]
        )
        params = cfg.sensor_params()
        assert params[0].bias_gyro[0] == pytest.approx(np.deg2rad(2.0))
        assert params[0].sigma_gyro == pytest.approx(np.deg2rad(0.033))


@pytest.fixture(scope="module")
def modules_after_cli_import() -> set[str]:
    """``sys.modules`` of a fresh interpreter after ``import imulab.cli``."""
    import imulab

    src = str(Path(imulab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, imulab.cli; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return set(out.stdout.split())


def test_cli_import_leaves_scipy_stats_unloaded(modules_after_cli_import):
    assert "imulab.cli" in modules_after_cli_import
    assert "scipy.stats" not in modules_after_cli_import


def test_cli_import_leaves_process_pools_unloaded(modules_after_cli_import):
    """``dataio`` forks its workers with ``os.fork`` and loads no pool module."""
    assert not {"multiprocessing", "concurrent.futures"} & modules_after_cli_import


@_TWO_CPUS
def test_pooled_stages_leave_multiprocessing_unloaded(tmp_path):
    """A fresh interpreter that runs ``simulate`` and ``estimate`` in worker
    processes loads no ``multiprocessing``: the results come back as plain
    pickles on each worker's pipe."""
    cfg = _write_config(tmp_path, duration_s=100.0)  # 4 x 10^4 x 7 values: pooled
    src = str(Path(dataio.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import os, sys\n"
        "from imulab.cli import main\n"
        "forks, fork = [], os.fork\n"
        "def counting_fork():\n"
        "    pid = fork()\n"
        "    if pid:\n"
        "        forks.append(pid)\n"
        "    return pid\n"
        "os.fork = counting_fork\n"
        "for stage in ('simulate', 'estimate'):\n"
        f"    assert main([stage, '--config', {str(cfg)!r}]) == 0, stage\n"
        "print(len(forks), *sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    forks, *loaded = out.stdout.splitlines()[-1].split()
    assert int(forks) >= 4  # two workers for each stage
    assert "multiprocessing" not in loaded


@_TWO_CPUS
def test_pooled_stages_leave_no_thread_alive(tmp_path):
    """A fresh interpreter that runs every stage on a pooled-size manifest
    has one thread after each: ``recording_stats_key`` joins its hashing
    threads, so ``estimate`` still forks its two per-k workers after it."""
    cfg = _write_config(tmp_path, duration_s=100.0)  # 4 x 10^4 x 7 values: pooled
    manifest_cfg = _write_manifest_config(tmp_path)
    src = str(Path(dataio.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import json, os, threading\n"
        "from imulab.cli import main\n"
        "forks, fork = [], os.fork\n"
        "def counting_fork():\n"
        "    pid = fork()\n"
        "    if pid:\n"
        "        forks.append(pid)\n"
        "    return pid\n"
        "os.fork = counting_fork\n"
        "stages = {}\n"
        f"for stage, cfg in [('simulate', {str(cfg)!r})] + [\n"
        f"        (stage, {str(manifest_cfg)!r}) for stage in ('estimate', 'propagate', 'report')]:\n"
        "    before = len(forks)\n"
        "    assert main([stage, '--config', cfg]) == 0, stage\n"
        "    stages[stage] = {'forks': len(forks) - before, 'threads': threading.active_count()}\n"
        "print(json.dumps(stages))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    stages = json.loads(out.stdout.splitlines()[-1])
    assert {stage: s["threads"] for stage, s in stages.items()} == {
        "simulate": 1, "estimate": 1, "propagate": 1, "report": 1}
    assert stages["estimate"]["forks"] == 2  # its per-k workers; the recordings are cache hits


def _poison_last_payload(writes: list) -> None:
    """Put a nan into the payload of the last of a stage's pending writes:
    into simulate's array, the last recording's last gyro sample; into a
    report, an extra key."""
    last = writes[-1]
    payload = last.args[0]
    if isinstance(payload, ArrayRecording):
        rec = payload.recordings[-1]
        gyro = rec.gyro.copy()
        gyro[-1, 0] = np.nan
        payload = ArrayRecording(
            payload.recordings[:-1] + (dataclasses.replace(rec, gyro=gyro),))
    else:
        payload = {**payload, "injected": float("nan")}
    writes[-1] = partial(last.func, payload, *last.args[1:])


@pytest.mark.parametrize("stage", ["simulate", "estimate", "propagate", "report"])
def test_non_finite_last_payload_leaves_output_dir_as_found(tmp_path, capsys, monkeypatch,
                                                            stage):
    """``main`` checks every pending payload before the first write, so a
    nan in a stage's last payload fails the stage with ``write_report``'s
    message and exit code, and the stage writes and removes nothing."""
    stages = ["simulate", "estimate", "propagate", "report"]
    cfg = _write_config(tmp_path)
    for earlier in stages[:stages.index(stage)]:
        assert main([earlier, "--config", str(cfg)]) == 0
    before = _dir_bytes(tmp_path)
    command = getattr(cli, f"cmd_{stage}")

    def poisoned(config):
        writes, done = command(config)
        _poison_last_payload(writes)
        return writes, done

    monkeypatch.setattr(cli, f"cmd_{stage}", poisoned)
    capsys.readouterr()
    assert main([stage, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: reports must not contain non-finite values\n"
    assert _dir_bytes(tmp_path) == before


def _drop_rows_cache(cfg: Path) -> None:
    """Remove the rows cache that ``simulate`` wrote beside the recordings
    of ``cfg``'s ``out_dir``, if any."""
    out = Path(json.loads(cfg.read_text())["out_dir"])
    shutil.rmtree(out / "recordings" / ".rows", ignore_errors=True)


def _refuse_fork(monkeypatch, refused: int) -> list:
    """Make ``os.fork`` fail with EAGAIN on the ``refused``-th fork of each
    ``dataio._fork_map`` call; the list returned gets one entry per refusal."""
    fork, fork_map = os.fork, dataio._fork_map
    forks, refusals = [], []

    def refusing_fork():
        forks.append(None)
        if len(forks) == refused:
            refusals.append(None)
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    def map_counting_forks(*args):
        forks.clear()
        return fork_map(*args)

    monkeypatch.setattr(os, "fork", refusing_fork)
    monkeypatch.setattr(dataio, "_fork_map", map_counting_forks)
    return refusals


def _pipeline(cfg: Path) -> None:
    for stage in ("simulate", "estimate", "propagate", "report"):
        assert main([stage, "--config", str(cfg)]) == 0, stage
        if stage == "simulate":
            _drop_rows_cache(cfg)  # so estimate parses the recordings


@_TWO_CPUS
@pytest.mark.parametrize("refused", [1, 2], ids=["first_fork", "second_fork"])
def test_refused_fork_runs_the_jobs_in_process(tmp_path, monkeypatch, refused):
    """When the system refuses a fork (EAGAIN), the fork map reaps the
    workers it already forked and runs every call in-process: simulate
    through report exit 0 with the bytes of a run without refusals, and
    leave no live child."""
    cfg = _write_config(tmp_path, duration_s=40.0)  # 4 x 4000 x 7 values: pooled
    out = tmp_path / "out"
    _pipeline(cfg)
    want = _dir_bytes(out)
    shutil.rmtree(out)
    refusals = _refuse_fork(monkeypatch, refused)
    _pipeline(cfg)
    assert _dir_bytes(out) == want
    assert len(refusals) == 2  # simulate's writes and estimate's reads
    assert _no_child_left()


@_TWO_CPUS
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("refused", [1, 2], ids=["first_fork", "second_fork"])
def test_refused_fork_leaks_no_descriptor(tmp_path, monkeypatch, refused):
    """A fork that the system refuses leaves no pipe open in this process."""
    cfg = _write_config(tmp_path, duration_s=40.0)  # 4 x 4000 x 7 values: pooled
    _pipeline(cfg)  # every module a stage loads is loaded before the count
    before = len(os.listdir("/proc/self/fd"))
    refusals = _refuse_fork(monkeypatch, refused)
    _pipeline(cfg)
    assert len(refusals) == 2
    assert len(os.listdir("/proc/self/fd")) == before


# A tau grid of 2501 entries: with k_grid [1, 4], 2 x 2501 x 20 values, so
# propagate's per-k jobs run in the pool.
_DENSE_TAUS = [0.04 * i for i in range(2501)]


# The job that computes one k's products, by stage.
_PER_K_JOB = {"estimate": "_estimate_products", "propagate": "_propagation_products"}


def _noting_pid(fn, pids: Path):
    """``fn``, after appending the calling process's id to the file ``pids``."""
    def job(*args):
        with open(pids, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return fn(*args)

    return job


@_TWO_CPUS
@pytest.mark.parametrize("stage, overrides", [
    ("estimate", {"duration_s": 100.0}),  # 2 x 6 x 10^4 values: pooled
    ("estimate", {"duration_s": 100.0, "fmt": "json"}),
    ("propagate", {"tau_grid": _DENSE_TAUS}),
], ids=["estimate_csv", "estimate_json", "propagate"])
def test_pooled_per_k_products_equal_in_process_ones(tmp_path, monkeypatch, stage, overrides):
    """Each k's products have the same bytes whether its job runs in a
    worker process or, with another thread alive, in this one."""
    cfg = _write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    if stage == "estimate":
        assert main(["simulate", "--config", str(cfg)]) == 0
    job = _PER_K_JOB[stage]
    runs = []
    for in_process in (False, True):
        pids = tmp_path / f"pids_{in_process}"
        with monkeypatch.context() as patch:
            patch.setattr(cli, job, _noting_pid(getattr(cli, job), pids))
            with _other_thread() if in_process else contextlib.nullcontext():
                assert main([stage, "--config", str(cfg)]) == 0
        ran_in = {int(pid) for pid in pids.read_text().split()}
        assert ran_in == {os.getpid()} if in_process else os.getpid() not in ran_in
        runs.append(_dir_bytes(out))
        for product in out.glob("*.*"):  # the recordings stay
            product.unlink()
    assert runs[0] == runs[1]


@_TWO_CPUS
def test_non_finite_pooled_product_leaves_output_dir_as_found(tmp_path, capsys, monkeypatch):
    """A nan that a worker computes fails the stage with ``write_report``'s
    message and exit code, and the stage writes nothing."""
    cfg = _write_config(tmp_path, duration_s=100.0)  # 2 x 6 x 10^4 values: pooled
    assert main(["simulate", "--config", str(cfg)]) == 0
    before = _dir_bytes(tmp_path)
    monkeypatch.setattr(cli, "kde_density", lambda samples, grid: np.full(grid.shape, np.nan))
    capsys.readouterr()
    assert main(["estimate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: reports must not contain non-finite values\n"
    assert _dir_bytes(tmp_path) == before


@_TWO_CPUS
@pytest.mark.parametrize("stage, overrides, size", [
    ("estimate", {"duration_s": 100.0}, "10000 samples"),
    ("propagate", {"tau_grid": _DENSE_TAUS}, "2501 taus"),
], ids=["estimate", "propagate"])
def test_dead_per_k_worker_exits_2_leaving_no_child(tmp_path, capsys, monkeypatch,
                                                    stage, overrides, size):
    """A worker that dies on its first per-k job, as one killed for memory
    does, fails the stage as running out of memory does: a config error
    naming the output directory and the size of the products. The stage
    writes nothing and leaves no child."""
    cfg = _write_config(tmp_path, **overrides)
    if stage == "estimate":
        assert main(["simulate", "--config", str(cfg)]) == 0
    before = _dir_bytes(tmp_path)
    test_pid = os.getpid()

    def dying_job(*args):
        assert os.getpid() != test_pid, "expected to run in a worker process"
        os._exit(1)

    monkeypatch.setattr(cli, _PER_K_JOB[stage], dying_job)
    capsys.readouterr()
    assert main([stage, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (f"config error: {tmp_path / 'out'}: products of {size} "
                                       "do not fit in memory: a worker process died\n")
    assert _dir_bytes(tmp_path) == before
    assert _no_child_left()


def test_per_k_job_beyond_memory_exits_2_writing_nothing(tmp_path, capsys, monkeypatch):
    """Running out of memory in a per-k job run in-process is the same
    config error, not a traceback."""
    cfg = _write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    before = _dir_bytes(tmp_path)

    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 728. TiB")

    monkeypatch.setattr(cli, "kde_density", out_of_memory)
    capsys.readouterr()
    assert main(["estimate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (f"config error: {tmp_path / 'out'}: products of 1000 "
                                       "samples do not fit in memory: Unable to allocate 728. TiB\n")
    assert _dir_bytes(tmp_path) == before


class TestSimulate:
    def test_writes_manifest_and_csvs(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 0
        rec_dir = tmp_path / "out" / "recordings"
        assert (rec_dir / "manifest.json").exists()
        assert len(list(rec_dir.glob("sensor_*.csv"))) == 4

    def test_byte_identical_reruns(self, tmp_path):
        for run in ("a", "b"):
            cfg = _write_config(tmp_path, out_dir=str(tmp_path / run))
            for cmd in ("simulate", "estimate"):
                assert main([cmd, "--config", str(cfg)]) == 0
        assert (tmp_path / "a" / "recording_stats.json").exists()
        assert _dir_bytes(tmp_path / "a") == _dir_bytes(tmp_path / "b")

    def test_seed_changes_output(self, tmp_path):
        cfg_a = _write_config(tmp_path, out_dir=str(tmp_path / "a"))
        main(["simulate", "--config", str(cfg_a)])
        cfg_b = _write_config(tmp_path, out_dir=str(tmp_path / "b"), seed=43)
        main(["simulate", "--config", str(cfg_b)])
        assert _dir_bytes(tmp_path / "a") != _dir_bytes(tmp_path / "b")

    def test_zero_duration_exits_2(self, tmp_path):
        cfg = _write_config(tmp_path, duration_s=0.0)
        assert main(["simulate", "--config", str(cfg)]) == 2

    def test_bad_config_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 2

    def test_unallocatable_duration_exits_2_naming_it(self, tmp_path, capsys):
        # 1e16 samples: an 80 PB time axis, beyond any address space, so the
        # allocation fails at once.
        cfg = _write_config(tmp_path, duration_s=1e14)
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: duration_s * rate_hz = 1e+16 samples"), err
        assert not (tmp_path / "out").exists()

    def test_time_base_rejected_by_recordings_is_named_by_rate(self, tmp_path, capsys):
        """10 samples 1e300 s apart pass the config's rules, but not a
        recording's absolute spacing check."""
        cfg = _write_config(tmp_path, rate_hz=1e-300, duration_s=1e301, sensors=2)
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "config error: rate_hz = 1e-300: sample spacing inconsistent with 1e-300 Hz\n")
        assert not (tmp_path / "out").exists()

    def test_bare_memory_error_is_named(self, tmp_path, capsys, monkeypatch):
        """A ``MemoryError`` with no message still ends the line with a reason."""
        def out_of_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "simulate_array", out_of_memory)
        assert main(["simulate", "--config", str(_write_config(tmp_path))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: duration_s * rate_hz = 1e+03 samples"), err
        assert err.endswith("do not fit in memory: MemoryError\n"), err

    def test_manifest_config_exits_2_naming_sensors_and_manifest(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(_write_manifest_config(tmp_path))]) == 2
        assert capsys.readouterr().err == ("config error: this command needs synthetic sensor "
                                           "parameters: set 'sensors', not 'manifest'\n")
        assert not (tmp_path / "out").exists()

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_failed_pooled_write_exits_2_leaving_no_manifest(self, tmp_path, capsys):
        """A recording that cannot be written in a worker process fails the
        stage as it would in-process: no manifest, no temporary file, no
        live worker."""
        cfg = _write_config(tmp_path, duration_s=40.0)  # 4 x 4000 x 7 values: pooled
        blocker = tmp_path / "out" / "recordings" / "sensor_03.csv"
        blocker.mkdir(parents=True)
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert f"config error: cannot write report to {blocker}" in capsys.readouterr().err
        written = [p.name for p in blocker.parent.iterdir()]
        assert "manifest.json" not in written
        assert not [name for name in written if name.endswith(".tmp")]
        assert _no_child_left()

    @pytest.mark.parametrize("overflowing, count, duration_s, walk", [
        ({"sigma_accel": 1e308}, 2, 2.0, False),
        ({"sigma_accel": 1e308}, 4, 40.0, False),  # 4 x 4000 x 7 values: pooled
        ({"sigma_accel_bias": 1e308}, 2, 2.0, True),
    ], ids=["in_process", "pooled", "bias_walk"])
    def test_overflowing_samples_exit_2_naming_sensor(
            self, tmp_path, capsys, overflowing, count, duration_s, walk):
        sensors = [{"sigma_accel": 0.01} for _ in range(count)]
        sensors[1] = overflowing
        cfg = _write_config(tmp_path, sensors=sensors, duration_s=duration_s,
                            inject_bias_walk=walk)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", str(cfg)]) == 2
        assert "config error: sensors[1]: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert [str(w.message) for w in caught] == []

    def test_out_dir_under_a_regular_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cfg = _write_config(tmp_path, out_dir=str(blocker / "x"))
        for cmd in ("simulate", "propagate"):
            capsys.readouterr()
            assert main([cmd, "--config", str(cfg)]) == 2, cmd
            assert f"config error: cannot create {blocker / 'x'}" in capsys.readouterr().err

    def test_failed_rerun_leaves_no_manifest_over_two_runs(self, tmp_path, capsys, monkeypatch):
        """A simulate over an earlier run that fails part-way leaves recordings
        of both runs, and no manifest that would pass them off as one."""
        assert main(["simulate", "--config", str(_write_config(tmp_path, duration_s=2.0))]) == 0
        monkeypatch.setattr(dataio, "write_recording_csv", _write_failing_on_sensor_02)
        cfg = _write_config(tmp_path, duration_s=2.0, seed=43)
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "config error: cannot write report to" in capsys.readouterr().err
        assert not (tmp_path / "out" / "recordings" / "manifest.json").exists()
        assert main(["estimate", "--config", str(cfg)]) == 2
        assert "no prior simulate output" in capsys.readouterr().err


class TestEstimate:
    @pytest.fixture()
    def simulated(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 0
        return cfg

    def test_products_exist(self, tmp_path, simulated):
        assert main(["estimate", "--config", str(simulated)]) == 0
        out = tmp_path / "out"
        for name in (
            "quality.json", "evaluation_matrix.json",
            "series_K1.csv", "series_K4.csv",
            "kde_K1.csv", "running_std_K1.csv",
        ):
            assert (out / name).exists(), name

    def test_evaluation_matrix_structure(self, tmp_path, simulated):
        main(["estimate", "--config", str(simulated)])
        ev = json.loads((tmp_path / "out" / "evaluation_matrix.json").read_text())
        for key in ("gyro_dps", "accel"):
            block = ev[key]
            assert block["n_ratio"] == pytest.approx(1 / np.sqrt(1000))
            assert block["tf"]["K1"] == pytest.approx(
                block["t0"]["K1"] * block["n_ratio"]
            )
            assert 0 < block["k_ratio"] < 1

    def test_missing_recordings_exit_2(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["estimate", "--config", str(cfg)]) == 2

    def test_corrupt_csv_exits_3(self, tmp_path, simulated):
        victim = next((tmp_path / "out" / "recordings").glob("sensor_*.csv"))
        victim.write_text("t,gx,gy,gz,ax,ay,az\n0,nope,0,0,0,0,0\n")
        assert main(["estimate", "--config", str(simulated)]) == 3

    @pytest.mark.parametrize("bad, problem", [
        pytest.param("nan", "non-finite value", id="nan"),
        pytest.param("inf", "non-finite value", id="inf"),
        pytest.param("1_0", "could not convert string to float: '1_0'", id="underscore"),
        pytest.param("\u0661", "could not convert string to float: '\u0661'",
                     id="non_ascii_digit"),
    ])
    def test_non_finite_sample_exits_3_naming_line(self, tmp_path, simulated, capsys, bad,
                                                   problem):
        # A clean estimate first, so the later stages hold recording stats
        # keyed by the clean bytes.
        assert main(["estimate", "--config", str(simulated)]) == 0
        victim = tmp_path / "out" / "recordings" / "sensor_02.csv"
        lines = victim.read_text().split("\n")
        cells = lines[5].split(",")
        cells[5] = bad
        lines[5] = ",".join(cells)
        victim.write_text("\n".join(lines), encoding="utf-8")
        manifest_cfg = _write_manifest_config(tmp_path)
        for cmd, cfg in (("propagate", manifest_cfg), ("report", simulated),
                         ("estimate", simulated)):
            capsys.readouterr()
            assert main([cmd, "--config", str(cfg)]) == 3, cmd
            assert f"data error: sensor_02: line 6: {problem}" in capsys.readouterr().err

    def test_recording_beyond_memory_exits_3_naming_it(self, tmp_path, capsys, monkeypatch):
        from imulab import dataio

        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 728. TiB")

        path = tmp_path / "out" / "recordings" / "sensor_00.csv"
        # 4 x 1000 x 7 values are read here, 4 x 4000 x 7 in worker processes
        # when there are two CPUs.
        for duration_s in (10.0, 40.0):
            cfg = _write_config(tmp_path, duration_s=duration_s)
            assert main(["simulate", "--config", str(cfg)]) == 0
            _drop_rows_cache(cfg)
            # Out of memory reading the rows, or building the recording from them.
            for stage in ("_read_rows", "SensorRecording"):
                with monkeypatch.context() as patch:
                    patch.setattr(dataio, stage, out_of_memory)
                    capsys.readouterr()
                    assert main(["estimate", "--config", str(cfg)]) == 3, stage
                    assert capsys.readouterr().err.startswith(
                        f"data error: sensor_00: {path} does not fit in memory: "
                        "Unable to allocate"), stage
                assert not (tmp_path / "out" / "quality.json").exists()
            assert _no_child_left()

    def test_json_input_beyond_memory_is_named(self, tmp_path, capsys, monkeypatch):
        """A manifest that does not fit in memory is a data error naming it,
        a config file a config error, and the recording stats file a miss."""
        cfg = _write_config(tmp_path)
        for cmd in ("simulate", "estimate", "propagate", "report"):
            assert main([cmd, "--config", str(cfg)]) == 0, cmd
        out = tmp_path / "out"
        report = (out / "report.json").read_bytes()
        manifest = out / "recordings" / "manifest.json"
        read_text = Path.read_text
        too_large, refused = set(), []

        def out_of_memory(path, *args, **kwargs):
            if path in too_large:
                refused.append(path)
                raise MemoryError()
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", out_of_memory)
        for path, code, kind in ((manifest, 3, "data"), (cfg, 2, "config")):
            too_large.add(path)
            capsys.readouterr()
            assert main(["estimate", "--config", str(cfg)]) == code, path
            assert capsys.readouterr().err == (
                f"{kind} error: {path} does not fit in memory: MemoryError\n")
            too_large.clear()
        too_large.add(out / cli.STATS_FILE)
        assert main(["report", "--config", str(cfg)]) == 0
        assert (out / "report.json").read_bytes() == report
        assert refused == [manifest, cfg, out / cli.STATS_FILE]

    def test_json_input_nested_too_deeply_is_named(self, tmp_path, capsys):
        """A JSON input nested deeper than the decoder recurses is a data
        error naming it for a manifest, a config error for a config file,
        and a miss for the recording stats file: never a traceback."""
        cfg = _write_config(tmp_path)
        for cmd in ("simulate", "estimate", "propagate", "report"):
            assert main([cmd, "--config", str(cfg)]) == 0, cmd
        out = tmp_path / "out"
        before = _dir_bytes(out)
        manifest = out / "recordings" / "manifest.json"
        for path, code, kind in ((manifest, 3, "data"), (cfg, 2, "config")):
            kept = path.read_bytes()
            path.write_text('{"seed": ' + "[" * 200_000 + "]" * 200_000 + "}")
            capsys.readouterr()
            assert main(["estimate", "--config", str(cfg)]) == code, path
            assert capsys.readouterr().err == (
                f"{kind} error: {path}: JSON nested too deeply to read\n")
            path.write_bytes(kept)
        stats = out / cli.STATS_FILE
        stats.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["report", "--config", str(cfg)]) == 0
        assert _dir_bytes(out) == {**before, cli.STATS_FILE: stats.read_bytes()}

    @_TWO_CPUS
    def test_dead_reader_exits_3_leaving_no_child(self, tmp_path, capsys, monkeypatch):
        """A reader worker that dies, as one killed for memory does, fails
        the stage as running out of memory does, naming the recording it
        was reading. The other worker, left sending a recording larger than
        a pipe holds, stops, and both are reaped."""
        cfg = _write_config(tmp_path, duration_s=40.0)  # 4 x 4000 x 7 values: pooled
        assert main(["simulate", "--config", str(cfg)]) == 0
        _drop_rows_cache(cfg)
        test_pid = os.getpid()
        read_rows = dataio._recording_rows

        def dying_reader(path, sensor_id):
            assert os.getpid() != test_pid, "expected to run in a worker process"
            if sensor_id == "sensor_01":  # the second worker's first recording
                os._exit(1)
            return read_rows(path, sensor_id)

        monkeypatch.setattr(dataio, "_recording_rows", dying_reader)
        assert main(["estimate", "--config", str(cfg)]) == 3
        path = tmp_path / "out" / "recordings" / "sensor_01.csv"
        assert capsys.readouterr().err == (
            f"data error: sensor_01: {path} does not fit in memory: a worker process died\n")
        assert not (tmp_path / "out" / "quality.json").exists()
        assert _no_child_left()

    def test_duplicate_sensor_id_exits_3(self, tmp_path, simulated, capsys):
        manifest = tmp_path / "out" / "recordings" / "manifest.json"
        raw = json.loads(manifest.read_text())
        raw["sensor_files"].append(raw["sensor_files"][0])
        manifest.write_text(json.dumps(raw))
        assert main(["estimate", "--config", str(_write_manifest_config(tmp_path))]) == 3
        assert "duplicate sensor_id 'sensor_00'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "quality.json").exists()

    def test_unreadable_inputs_exit_3_naming_path(self, tmp_path, simulated, capsys):
        rec_dir = tmp_path / "out" / "recordings"
        manifest = rec_dir / "manifest.json"
        raw = json.loads(manifest.read_text())
        raw["sensor_files"][1]["path"] = "a_directory"
        (rec_dir / "a_directory").mkdir()
        manifest.write_text(json.dumps(raw))
        manifest_cfg = _write_manifest_config(tmp_path)
        # Products for report to bundle, from a stage that reads no recording.
        assert main(["propagate", "--config", str(simulated)]) == 0
        for cmd in ("estimate", "propagate", "report"):
            capsys.readouterr()
            assert main([cmd, "--config", str(manifest_cfg)]) == 3, cmd
            assert f"data error: cannot read {rec_dir / 'a_directory'}" in capsys.readouterr().err
        dir_cfg = _write_manifest_config(tmp_path, manifest=str(rec_dir))
        assert main(["estimate", "--config", str(dir_cfg)]) == 3
        assert f"data error: cannot read {rec_dir}" in capsys.readouterr().err

    @staticmethod
    def _estimate_3hz_manifest(tmp_path: Path, jitter: float) -> int:
        """Run estimate on two hand-written 3 Hz recordings whose timestamps
        are rounded to the microsecond; ``jitter`` s is added to one of imu_b's."""
        t = np.round(np.arange(300) / 3.0, 6)
        t_b = t.copy()
        t_b[5] += jitter
        rng = np.random.default_rng(0)
        cfg = _hand_written_config(
            tmp_path, {"imu_a": _recording_text(t, rng), "imu_b": _recording_text(t_b, rng)}, 3.0
        )
        return main(["estimate", "--config", str(cfg)])

    def test_microsecond_rounded_timestamps_accepted(self, tmp_path):
        assert self._estimate_3hz_manifest(tmp_path, 0.0) == 0

    def test_timestamp_jitter_exits_3_naming_sensor(self, tmp_path, capsys):
        assert self._estimate_3hz_manifest(tmp_path, 1e-5) == 3
        err = capsys.readouterr().err
        assert "data error: imu_b: sample spacing inconsistent" in err


def _with_cell(text: str, row: int, col: int, value: str) -> str:
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def _bad_recordings(case: str) -> dict:
    """Hand-written 10 Hz recordings, of which the last is bad as ``case`` says."""
    t = np.arange(20) / 10.0
    rng = np.random.default_rng(1)
    good = _recording_text(t, rng)
    if case == "none":
        return {"imu_a": good, "imu_b": _recording_text(t, rng)}
    if case == "single_sample":
        return {"imu_a": _recording_text(t[:1], rng)}
    if case == "negative_time":
        return {"imu_a": good, "imu_b": _recording_text(t - 0.2, rng)}
    if case == "shifted_time_base":
        return {"imu_a": good, "imu_b": _recording_text(t + 0.5, rng)}
    if case == "short_recording":
        return {"imu_a": good, "imu_b": _recording_text(t[:-1], rng)}
    if case == "not_utf8":
        raw = good.encode()
        return {"imu_a": good, "imu_b": raw[:40] + b"\xff" + raw[41:]}
    huge = {"overflowing_noise": "1e200", "noise_above_bound": "1e150"}[case]
    return {"imu_a": good, "imu_b": _with_cell(good, 6, 4, huge)}


# What each bad case of ``_bad_recordings`` makes estimate and propagate report.
_BAD_RECORDING_ERRORS = {
    "single_sample": "imu_a: need at least two samples to estimate bias",
    "negative_time": "imu_b: timestamps must be non-negative",
    "shifted_time_base": "imu_b: time base differs from imu_a's",
    "short_recording": "imu_b: 19 samples, imu_a has 20",
    "not_utf8": "imu_b: {dir}/imu_b.csv: not UTF-8 text: 'utf-8' codec can't decode byte 0xff",
    "overflowing_noise": "imu_b: bias or noise estimate not finite or above 1e+100",
    "noise_above_bound": "imu_b: bias or noise estimate not finite or above 1e+100",
}


class TestBadRecordings:
    """A recording that cannot be decoded or yields no usable statistics is a
    data error naming its sensor, and no stage creates its output directory."""

    @pytest.mark.parametrize("case", list(_BAD_RECORDING_ERRORS))
    def test_estimate_and_propagate_exit_3(self, tmp_path, capsys, case):
        cfg = _hand_written_config(tmp_path, _bad_recordings(case), 10.0)
        message = _BAD_RECORDING_ERRORS[case].format(dir=tmp_path)
        for cmd in ("estimate", "propagate"):
            capsys.readouterr()
            assert main([cmd, "--config", str(cfg)]) == 3, cmd
            assert f"data error: {message}" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda b: b.replace(b"10.0", b"1\xff.0"), "not UTF-8 text", id="not_utf8"),
        pytest.param(lambda b: b"[" + b + b"]", "'list' object has no attribute 'get'",
                     id="not_an_object"),
        pytest.param(lambda b: b.replace(b'"rate_hz"', b'"rate"'),
                     "missing or invalid manifest field: 'rate_hz'", id="missing_rate"),
        pytest.param(lambda b: b.replace(b"10.0", b"-10.0"), "rate_hz must be > 0",
                     id="negative_rate"),
        pytest.param(lambda b: b.replace(b"10.0", b"NaN"), "rate_hz must be > 0", id="nan_rate"),
        pytest.param(lambda b: b.replace(b"{", b'{"gravity_mps2": -9.81, ', 1),
                     "gravity_mps2 must be", id="negative_gravity"),
        pytest.param(lambda b: b.replace(b"{", b'{"units": {"gyro": "rad/t"}, ', 1),
                     "unknown gyro units", id="unknown_units"),
        pytest.param(lambda b: b.replace(b"{", b'{"units": {"accel": "g"}, ', 1),
                     "unknown accel units 'g'", id="unknown_accel_units"),
        pytest.param(lambda b: b.replace(b'"imu_b.csv"', b'"../imu_b.csv"'),
                     "recording path '../imu_b.csv' is not inside", id="parent_path"),
        pytest.param(lambda b: b.replace(b'"imu_b.csv"', b'"sub/../imu_b.csv"'),
                     "recording path 'sub/../imu_b.csv' is not inside", id="inner_parent_path"),
        pytest.param(lambda b: b.replace(b'"imu_b.csv"', b'"/imu_b.csv"'),
                     "recording path '/imu_b.csv' is not inside", id="absolute_path"),
        pytest.param(lambda b: b.replace(b"10.0", b"true"),
                     "rate_hz must be a number within float range, got True", id="bool_rate"),
        pytest.param(lambda b: b.replace(b"{", b'{"gravity_mps2": false, ', 1),
                     "gravity_mps2 must be a number within float range, got False",
                     id="bool_gravity"),
        pytest.param(lambda b: b.replace(b"10.0", b'"10.0"'),
                     "rate_hz must be a number within float range, got '10.0'", id="string_rate"),
        pytest.param(lambda b: b.replace(b"10.0", b"1" + b"0" * 400),
                     "rate_hz must be a number within float range, got 1000", id="huge_int_rate"),
        pytest.param(lambda b: b.replace(b'"imu_a"', b"null"),
                     "sensor_files[0].sensor_id must be a string, got None", id="null_sensor_id"),
        pytest.param(lambda b: b.replace(b'"imu_b.csv"', b"7"),
                     "sensor_files[1].path must be a string, got 7", id="number_path"),
        pytest.param(lambda b: json.dumps({**json.loads(b), "sensor_files": []}).encode(),
                     "manifest must list at least one sensor file", id="no_sensor_files"),
        pytest.param(lambda b: b.replace(b'"imu_b.csv"', b'"imu_b\\u0000.csv"'),
                     "recording path 'imu_b\\x00.csv' holds a NUL byte", id="nul_in_path"),
        pytest.param(lambda b: b.replace(b"10.0", _TOO_MANY_DIGITS),
                     "invalid JSON value: Exceeds the limit", id="int_beyond_conversion_limit"),
    ])
    def test_bad_manifest_exits_3_naming_it(self, tmp_path, capsys, edit, message):
        cfg = _hand_written_config(tmp_path, _bad_recordings("none"), 10.0)
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(edit(manifest.read_bytes()))
        for cmd in ("estimate", "propagate"):
            capsys.readouterr()
            assert main([cmd, "--config", str(cfg)]) == 3, cmd
            err = capsys.readouterr().err
            assert err.startswith(f"data error: {manifest}: ") and message in err, err


def test_noiseless_worst_sensor_gives_null_k_ratios(tmp_path):
    sensors = [{"bias_gyro_dps": [1, 0, 0], "bias_accel": [0.1, 0, 0]}] * 2
    cfg = _write_config(tmp_path, sensors=sensors, k_grid=[1, 2])
    for cmd in ("simulate", "estimate", "propagate", "report"):
        assert main([cmd, "--config", str(cfg)]) == 0, cmd
    out = tmp_path / "out"
    evaluation = json.loads((out / "evaluation_matrix.json").read_text())
    report = json.loads((out / "report.json").read_text())
    for key in ("gyro_dps", "accel"):
        block = evaluation[key]
        assert block["t0"] == {"K1": 0.0, "K2": 0.0}
        assert block["k_ratio"] is block["nk_ratio"] is block["k_ratio_db"] is None
        assert report["db_ratios"][f"{key}_k_ratio_db"] is None


def test_cancelling_gyro_noise_gives_null_k_ratio_db(tmp_path):
    """sensor_01's gyro columns negate sensor_00's, so the K=2 mean gyro is
    exactly 0: ``k_ratio`` is a measured 0, and its dB value is null."""
    t = np.arange(200) / 10.0
    rng = np.random.default_rng(2)
    rows = [np.loadtxt(io.StringIO(_recording_text(t, rng)), delimiter=",", skiprows=1)
            for _ in range(2)]
    rows[1][:, 1:4] = -rows[0][:, 1:4]
    texts = ["t,gx,gy,gz,ax,ay,az\n" + "".join(",".join(map(repr, r)) + "\n" for r in x.tolist())
             for x in rows]
    cfg = _hand_written_config(tmp_path, {"sensor_00": texts[0], "sensor_01": texts[1]}, 10.0)
    for cmd in ("estimate", "propagate", "report"):
        assert main([cmd, "--config", str(cfg)]) == 0, cmd
    out = tmp_path / "out"
    gyro = json.loads((out / "evaluation_matrix.json").read_text())["gyro_dps"]
    assert gyro["t0"]["K2"] == 0.0 < gyro["t0"]["K1"]
    assert gyro["k_ratio"] == 0.0 and gyro["k_ratio_db"] is None
    db = json.loads((out / "report.json").read_text())["db_ratios"]
    assert db["gyro_dps_k_ratio_db"] is None and db["accel_k_ratio_db"] < 0


@pytest.mark.parametrize("n_sensors", [1, 2, 10, 24, 32])
def test_prefix_means_match_the_stacked_mean(n_sensors):
    """The running sum gives, bit for bit, the mean over the first k of the
    (N, K, 6) stack, its former rule, kept here as the oracle."""
    rng = np.random.default_rng(n_sensors)
    arrays = [rng.normal(size=(500, 6)) for _ in range(n_sensors)]
    arrays[0][7, 1] = -0.0  # 0.0 from a sum started at zeros, -0.0 from one started here
    for a in arrays:
        a[:, 4] = 0.1  # a constant column: the mean of equal values
    stack = np.stack(arrays, axis=1)
    k_grid = list(range(1, n_sensors + 1))
    means = list(_prefix_means(iter(arrays), k_grid, 500))
    assert [k for k, _ in means] == k_grid
    for k, avg in means:
        expected = stack[:, :k].mean(axis=1)
        assert np.array_equal(avg.view(np.int64), expected.view(np.int64)), k


def test_estimate_memory_is_the_recordings_plus_o_of_n(tmp_path):
    """``estimate`` holds the K parsed recordings and O(N) per ``k_grid``
    entry: no (N, K, 6) residual stack and no whole-text copy of a recording.

    The bound on its tracemalloc peak, computing and writing, at K=8 and
    N=2e4 is the recordings' K*N*7*8 bytes (8.96 MB) plus twelve (N, 6)
    float arrays (11.52 MB): 20.48 MB. Measured with numpy 2.4 on Python
    3.11: 24.86 MB when the residuals were stacked and each recording was
    read whole, 17.69 MB with the running sum and the streamed read.
    """
    n_sensors, n = 8, 20_000
    cfg = _write_config(tmp_path, sensors=n_sensors, duration_s=n / 100.0, k_grid=[1, 8])
    assert main(["simulate", "--config", str(cfg)]) == 0
    tracemalloc.start()
    try:
        assert main(["estimate", "--config", str(cfg)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_sensors * n * 7 * 8 + 12 * n * 6 * 8


def test_estimate_memory_is_the_recordings_plus_o_of_n_in_process(tmp_path):
    """The same bound with every per-k job run in this process, where its
    rendering temporaries count too: 14.19 MB measured, 23.00 MB when the
    recordings were still held while the jobs ran."""
    with _other_thread():
        test_estimate_memory_is_the_recordings_plus_o_of_n(tmp_path)


def test_parsing_estimate_memory_is_the_recordings_plus_o_of_n(tmp_path):
    """The bound above when ``estimate`` parses every recording, as it does
    those that another program wrote: the rows cache is removed after
    ``simulate``, so the streamed read runs and keeps no whole-text copy.
    Measured: 13.46 MB, with the recordings parsed in worker processes."""
    n_sensors, n = 8, 20_000
    cfg = _write_config(tmp_path, sensors=n_sensors, duration_s=n / 100.0, k_grid=[1, 8])
    assert main(["simulate", "--config", str(cfg)]) == 0
    _drop_rows_cache(cfg)
    tracemalloc.start()
    try:
        assert main(["estimate", "--config", str(cfg)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_sensors * n * 7 * 8 + 12 * n * 6 * 8


def test_parsing_estimate_memory_is_the_recordings_plus_o_of_n_in_process(tmp_path):
    """The same bound with every recording parsed and every per-k job run
    in this process, where the parse's temporaries count too: 13.45 MB
    measured."""
    with _other_thread():
        test_parsing_estimate_memory_is_the_recordings_plus_o_of_n(tmp_path)


def _json_leaves(obj, at=""):
    """(location, value) of each scalar in nested JSON dicts and lists."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _json_leaves(value, f"{at}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _json_leaves(value, f"{at}[{i}]")
    else:
        yield at, obj


def test_deg_per_s_manifest_matches_rad_per_s(tmp_path):
    """The simulated recordings rewritten with gyro columns in deg/s, under a
    manifest that declares them so, give the same worst-first order and the
    same products, to a relative 1e-12, through estimate, propagate and report."""
    assert main(["simulate", "--config", str(_write_config(tmp_path))]) == 0
    rad_dir, deg_dir = tmp_path / "out" / "recordings", tmp_path / "deg_recordings"
    deg_dir.mkdir()
    manifest = json.loads((rad_dir / "manifest.json").read_text())
    for entry in manifest["sensor_files"]:
        rows = _read_table(rad_dir / entry["path"])
        rows[:, 1:4] = np.rad2deg(rows[:, 1:4])
        lines = ["t,gx,gy,gz,ax,ay,az", *(",".join(map(repr, r)) for r in rows.tolist())]
        (deg_dir / entry["path"]).write_text("\n".join(lines) + "\n")
    manifest["units"]["gyro"] = "deg/s"
    (deg_dir / "manifest.json").write_text(json.dumps(manifest))
    for units, rec_dir in (("rad", rad_dir), ("deg", deg_dir)):
        cfg = _write_manifest_config(tmp_path, manifest=str(rec_dir / "manifest.json"),
                                     out_dir=str(tmp_path / units))
        for cmd in ("estimate", "propagate", "report"):
            assert main([cmd, "--config", str(cfg)]) == 0, (units, cmd)

    rad, deg = tmp_path / "rad", tmp_path / "deg"
    order = [json.loads((d / "quality.json").read_text())["order_worst_first"]
             for d in (rad, deg)]
    assert order[0] == order[1]
    products = sorted(p.name for p in rad.iterdir() if p.name != "recording_stats.json")
    assert products == sorted(p.name for p in deg.iterdir() if p.name != "recording_stats.json")
    for name in products:
        if name.endswith(".csv"):
            want, got = _read_table(rad / name), _read_table(deg / name)
            assert got.shape == want.shape, name
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), name
            continue
        want, got = (json.loads((d / name).read_text()) for d in (rad, deg))
        if name == "report.json":  # its config block echoes the two configs
            del want["config"], got["config"]
        pairs = list(zip(_json_leaves(want), _json_leaves(got), strict=True))
        for (at, a), (at_got, b) in pairs:
            assert at == at_got, (name, at)
            if isinstance(a, float):
                assert abs(b - a) <= 1e-12 * abs(a), (name, at, a, b)
            else:
                assert a == b, (name, at)


def test_json_tables_equal_csv_tables(tmp_path):
    """Every table that ``fmt: csv`` writes, ``fmt: json`` writes with the same
    columns, in order, and the same values."""
    for fmt in ("csv", "json"):
        cfg = _write_config(tmp_path, fmt=fmt, out_dir=str(tmp_path / fmt))
        for cmd in ("simulate", "estimate", "propagate"):
            assert main([cmd, "--config", str(cfg)]) == 0, (fmt, cmd)
    tables = sorted((tmp_path / "csv").glob("*.csv"))
    assert len(tables) == 10  # series, kde and running_std for K1 and K4; two per K from propagate
    for table in tables:
        header, *rows = table.read_text().splitlines()
        columns = dict(zip(header.split(","), zip(*(map(float, r.split(",")) for r in rows))))
        as_json = json.loads((tmp_path / "json" / f"{table.stem}.json").read_text())
        assert list(as_json) == list(columns), table.name
        for name, values in columns.items():
            assert as_json[name] == list(values), (table.name, name)


@pytest.mark.parametrize("cmd, override", [
    ("estimate", {"k_grid": [50]}),
    ("propagate", {"tau_grid": [-1.0, 1.0]}),
    ("propagate", {"k_grid": [50]}),
])
def test_config_error_writes_nothing(tmp_path, capsys, cmd, override):
    assert main(["simulate", "--config", str(_write_config(tmp_path))]) == 0
    cfg = _write_manifest_config(tmp_path, out_dir=str(tmp_path / "products"), **override)
    capsys.readouterr()
    assert main([cmd, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "products").exists()


class TestPropagate:
    def test_products_and_sqrtk_law(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["propagate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        for name in (
            "mean_error_K1.csv", "mean_error_K4.csv",
            "uncertainty_K1.csv", "uncertainty_K4.csv",
            "ellipsoid_K1.json", "ratio_matrices.json",
        ):
            assert (out / name).exists(), name
        ratios = json.loads((out / "ratio_matrices.json").read_text())
        unc = np.asarray(ratios["uncertainty_ratio"], float)
        assert unc.shape == (3, 3)
        assert np.allclose(unc, 0.5, atol=1e-9)  # 1/sqrt(4)

    def test_zero_bias_zero_mean_error(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            sensors=[{"sigma_gyro_dps": 0.033, "sigma_accel": 0.007}] * 2,
            k_grid=[1, 2],
        )
        assert main(["propagate", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "mean_error_K2.csv").read_text().strip().split("\n")
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")[1:]]
            assert all(v == 0.0 for v in vals)

    def test_mean_error_growth_orders(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            sensors=[{"bias_gyro_dps": [2.0, 0, 0], "bias_accel": [0.18, 0, 0]}],
            k_grid=[1],
            tau_grid=[0.0, 10.0, 100.0],
        )
        assert main(["propagate", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "mean_error_K1.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        rows = {float(r.split(",")[0]): dict(zip(header, map(float, r.split(","))))
                for r in lines[1:]}
        # accel bias alone drives dp_x ~ tau^2; gyro bias tilts and adds tau^3.
        assert rows[100.0]["dv_x"] / rows[10.0]["dv_x"] == pytest.approx(10, rel=0.5)
        assert rows[100.0]["dp_y"] / rows[10.0]["dp_y"] == pytest.approx(1000, rel=1e-6)

    def test_linalg_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        import imulab.cli as cli

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cli, "ellipsoid_from_cov", failing)
        assert main(["propagate", "--config", str(_write_config(tmp_path))]) == 4
        assert capsys.readouterr().err.startswith(
            "numerical failure: Eigenvalues did not converge")
        assert not (tmp_path / "out").exists()

    def test_negative_tau_exits_2(self, tmp_path):
        cfg = _write_config(tmp_path, tau_grid=[-1.0, 1.0])
        assert main(["propagate", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("override, message", [
        pytest.param({"tau_grid": [0.0, 1e60]},
                     "tau_grid: the propagated errors overflow at tau = 1e+60 s", id="tau"),
        pytest.param({"sensors": [{"sigma_accel": 1e200}] * 3},
                     "sensors: noise sigmas up to (sigma_accel 1e+200,", id="sigma"),
        pytest.param({"gravity_mps2": 1e200},
                     "gravity_mps2: 1e+200 m/s2 overflows the propagated errors", id="gravity"),
    ])
    def test_overflow_exits_2_naming_field_and_writes_nothing(
        self, tmp_path, capsys, override, message
    ):
        cfg = _write_config(tmp_path, **{"sensors": 3, "duration_s": 2.0, "rate_hz": 10.0,
                                         "k_grid": [1, 3], **override})
        assert main(["propagate", "--config", str(cfg)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflow_from_manifest_writes_no_stats(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(_write_config(tmp_path))]) == 0
        cfg = _write_manifest_config(tmp_path, out_dir=str(tmp_path / "products"),
                                     tau_grid=[0.0, 1e60])
        capsys.readouterr()
        assert main(["propagate", "--config", str(cfg)]) == 2
        assert "config error: tau_grid: " in capsys.readouterr().err
        assert not (tmp_path / "products").exists()

    def test_manifest_matches_sensors_config_for_noiseless_sensors(self, tmp_path):
        # Listed out of worst-first order, so both paths must sort them alike.
        sensors = [
            {"bias_gyro_dps": [0.5, 0, 0], "bias_accel": [0.05, 0, 0.1]},
            {"bias_gyro_dps": [2.0, -1.0, 0.3], "bias_accel": [0.2, 0.1, -0.1]},
            {"bias_gyro_dps": [0, 0, 0], "bias_accel": [0, 0, 0]},
            {"bias_gyro_dps": [1.0, 0.5, 0], "bias_accel": [0, 0.1, 0.05]},
        ]
        tau_grid = [0.0, 1.0, 10.0, 100.0]
        cfg = _write_config(tmp_path, sensors=sensors, k_grid=[1, 2, 3, 4],
                            tau_grid=tau_grid, duration_s=1.0)
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert main(["propagate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        from_params = {k: _read_table(out / f"mean_error_K{k}.csv") for k in range(1, 5)}
        manifest_cfg = _write_manifest_config(tmp_path, k_grid=[1, 2, 3, 4],
                                              tau_grid=tau_grid)
        assert main(["propagate", "--config", str(manifest_cfg)]) == 0
        for k, want in from_params.items():
            got = _read_table(out / f"mean_error_K{k}.csv")
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), k

    def test_bias_score_ties_keep_config_order(self, tmp_path):
        # Axis-permuted biases: equal bias_score, different K=1 mean error.
        x = {"bias_gyro_dps": [1.0, 0, 0], "bias_accel": [0.1, 0, 0]}
        y = {"bias_gyro_dps": [0, 1.0, 0], "bias_accel": [0, 0.1, 0]}
        scores = {bias_score(np.concatenate([np.deg2rad(s["bias_gyro_dps"]), s["bias_accel"]]))
                  for s in (x, y)}
        assert len(scores) == 1
        for first, second, axis, other in ((x, y, "x", "y"), (y, x, "y", "x")):
            run = tmp_path / axis
            run.mkdir()
            cfg = _write_config(run, sensors=[first, second], k_grid=[1, 2])
            assert main(["propagate", "--config", str(cfg)]) == 0
            lines = (run / "out" / "mean_error_K1.csv").read_text().split("\n")
            row = dict(zip(lines[0].split(","), map(float, lines[-2].split(","))))
            assert row[f"eps_{axis}"] > 0 and row[f"eps_{other}"] == 0.0

    @staticmethod
    def _uncertainty(tmp_path: Path, rate_hz: float, interpretation: str) -> Path:
        run = tmp_path / f"{interpretation}_{rate_hz:g}hz"
        run.mkdir()
        cfg = _write_config(
            run,
            sensors=[{"sigma_gyro_dps": 0.033, "sigma_accel": 0.007}],
            k_grid=[1], rate_hz=rate_hz, tau_grid=[0.0, 1.0, 10.0, 100.0],
            noise_interpretation=interpretation,
        )
        assert main(["propagate", "--config", str(cfg)]) == 0
        return run / "out" / "uncertainty_K1.csv"

    def test_psd_equals_per_sample_at_1hz(self, tmp_path):
        psd = self._uncertainty(tmp_path, 1.0, "psd")
        per_sample = self._uncertainty(tmp_path, 1.0, "per_sample")
        assert psd.read_bytes() == per_sample.read_bytes()

    def test_psd_exceeds_per_sample_by_sqrt_rate(self, tmp_path):
        # White noise only: per_sample divides each PSD by the 100 Hz rate.
        psd = _read_table(self._uncertainty(tmp_path, 100.0, "psd"))[1:]
        per_sample = _read_table(self._uncertainty(tmp_path, 100.0, "per_sample"))[1:]
        dv = slice(4, 7)  # columns: tau, dp_xyz, dv_xyz, eps_xyz
        assert np.all(per_sample[:, dv] > 0)
        np.testing.assert_allclose(psd[:, dv] / per_sample[:, dv], np.sqrt(100.0), rtol=1e-12)


class TestReport:
    def test_full_pipeline_report(self, tmp_path):
        cfg = _write_config(tmp_path)
        for cmd in ("simulate", "estimate", "propagate"):
            assert main([cmd, "--config", str(cfg)]) == 0
        assert main(["report", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["gravity_mps2"] == 9.81
        assert report["dataset_summary"]["aggregates"]
        assert "uncertainty_ratio_db_mean" in report["db_ratios"]
        audit = report["q_coefficient_audit"]
        assert audit["closed_form_rel_error"] < 1e-6

    def test_report_regeneration_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path)
        for cmd in ("simulate", "estimate", "propagate", "report"):
            assert main([cmd, "--config", str(cfg)]) == 0
        dest = tmp_path / "out" / "report.json"
        first = dest.read_bytes()
        assert main(["report", "--config", str(cfg)]) == 0
        assert dest.read_bytes() == first

    def test_overflowing_audit_exits_2_naming_gravity(self, tmp_path, capsys):
        for cmd in ("simulate", "estimate", "propagate"):
            assert main([cmd, "--config", str(_write_config(tmp_path))]) == 0
        before = _dir_bytes(tmp_path / "out")
        capsys.readouterr()
        cfg = _write_config(tmp_path, gravity_mps2=1e200)
        assert main(["report", "--config", str(cfg)]) == 2
        assert ("config error: gravity_mps2: 1e+200 m/s2 overflows the Q-coefficient audit"
                in capsys.readouterr().err)
        assert _dir_bytes(tmp_path / "out") == before

    def test_manifest_config_takes_the_manifests_gravity(self, tmp_path):
        assert main(["simulate", "--config", str(_write_config(tmp_path, gravity_mps2=9.7))]) == 0
        cfg = _write_manifest_config(tmp_path)
        for cmd in ("estimate", "propagate", "report"):
            assert main([cmd, "--config", str(cfg)]) == 0, cmd
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["gravity_mps2"] == 9.7
        assert report["config"]["gravity_mps2"] == 9.81
        audit = json.loads(json.dumps(q_coefficient_audit(GravityModel(9.7))))
        assert audit != json.loads(json.dumps(q_coefficient_audit(GravityModel(9.81))))
        assert report["q_coefficient_audit"] == audit

    def test_overflowing_manifest_gravity_exits_3_naming_it(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(_write_config(tmp_path))]) == 0
        cfg = _write_manifest_config(tmp_path)
        for cmd in ("estimate", "propagate"):
            assert main([cmd, "--config", str(cfg)]) == 0, cmd
        manifest = tmp_path / "out" / "recordings" / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "gravity_mps2": 1e200}))
        before = _dir_bytes(tmp_path / "out")
        capsys.readouterr()
        assert main(["report", "--config", str(cfg)]) == 3
        assert (f"data error: {manifest}: gravity_mps2: 1e+200 m/s2 overflows the "
                "Q-coefficient audit" in capsys.readouterr().err)
        assert _dir_bytes(tmp_path / "out") == before

    def test_missing_manifest_exits_3_keeping_the_report(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(_write_config(tmp_path))]) == 0
        for cmd in ("estimate", "propagate", "report"):
            assert main([cmd, "--config", str(_write_manifest_config(tmp_path))]) == 0, cmd
        before = _dir_bytes(tmp_path / "out")
        missing = tmp_path / "elsewhere" / "manifest.json"
        cfg = _write_manifest_config(tmp_path, manifest=str(missing))
        capsys.readouterr()
        assert main(["report", "--config", str(cfg)]) == 3
        assert f"data error: cannot read {missing}" in capsys.readouterr().err
        assert _dir_bytes(tmp_path / "out") == before

    def test_report_without_products_exits_2(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["report", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("product, edit", [
        pytest.param("evaluation_matrix.json", lambda raw: [], id="eval_list"),
        pytest.param("evaluation_matrix.json", lambda raw: {}, id="eval_empty"),
        pytest.param("evaluation_matrix.json", lambda raw: {"gyro_dps": 1, "accel": 2},
                     id="eval_numbers_for_blocks"),
        pytest.param("evaluation_matrix.json",
                     lambda raw: {**raw, "accel": {"n_ratio_db": -30.0}},
                     id="eval_missing_k_ratio_db"),
        pytest.param("evaluation_matrix.json",
                     lambda raw: {**raw, "accel": {**raw["accel"], "k_ratio_db": "-10"}},
                     id="eval_string_k_ratio_db"),
        pytest.param("evaluation_matrix.json",
                     lambda raw: {**raw, "accel": {**raw["accel"], "k_ratio_db": float("nan")}},
                     id="eval_nan_k_ratio_db"),
        pytest.param("evaluation_matrix.json", lambda raw: {**raw, "n_samples": float("inf")},
                     id="eval_inf_elsewhere"),
        pytest.param("ratio_matrices.json", lambda raw: [], id="ratios_list"),
        pytest.param("ratio_matrices.json", lambda raw: {**raw, "uncertainty_ratio": ["a"]},
                     id="ratios_string_row"),
        pytest.param("ratio_matrices.json",
                     lambda raw: {**raw, "uncertainty_ratio": [[0.5, True]]},
                     id="ratios_bool_cell"),
        pytest.param("ratio_matrices.json", lambda raw: {**raw, "tau": float("-inf")},
                     id="ratios_inf_elsewhere"),
        pytest.param("ratio_matrices.json",
                     lambda raw: {**raw, "uncertainty_ratio": [[0.5, 10**400]]},
                     id="ratios_huge_int_cell"),
        pytest.param("evaluation_matrix.json",
                     lambda raw: {**raw, "accel": {**raw["accel"], "n_ratio_db": -10**400}},
                     id="eval_huge_int_n_ratio_db"),
    ])
    def test_bad_product_exits_3_naming_it(self, tmp_path, capsys, product, edit):
        cfg = _write_config(tmp_path)
        for cmd in ("simulate", "estimate", "propagate"):
            assert main([cmd, "--config", str(cfg)]) == 0, cmd
        path = tmp_path / "out" / product
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        capsys.readouterr()
        assert main(["report", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.startswith(f"data error: {path}: ")
        assert not (tmp_path / "out" / "report.json").exists()

    def test_product_int_beyond_conversion_limit_exits_3_naming_it(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        for cmd in ("simulate", "estimate"):
            assert main([cmd, "--config", str(cfg)]) == 0, cmd
        path = tmp_path / "out" / "evaluation_matrix.json"
        raw = json.loads(path.read_text())
        path.write_bytes(json.dumps({**raw, "n_samples": "N"}).encode().replace(
            b'"N"', _TOO_MANY_DIGITS))
        capsys.readouterr()
        assert main(["report", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.startswith(
            f"data error: {path}: invalid JSON value: Exceeds the limit")
        assert not (tmp_path / "out" / "report.json").exists()

    def test_undecodable_product_exits_3_naming_it(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        for cmd in ("simulate", "estimate"):
            assert main([cmd, "--config", str(cfg)]) == 0, cmd
        path = tmp_path / "out" / "evaluation_matrix.json"
        path.write_bytes(path.read_bytes() + b"\xff")
        capsys.readouterr()
        assert main(["report", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.startswith(f"data error: {path}: not UTF-8 text")
        assert not (tmp_path / "out" / "report.json").exists()

    def test_interrupted_write_keeps_previous_file(self, tmp_path, capsys, monkeypatch):
        cfg = _write_config(tmp_path)
        for cmd in ("propagate", "report"):
            assert main([cmd, "--config", str(cfg)]) == 0, cmd
        out = tmp_path / "out"
        before = _dir_bytes(out)
        real_write_text = Path.write_text

        def write_half_then_fail(self, data, *args, **kwargs):
            real_write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        capsys.readouterr()
        assert main(["report", "--config", str(cfg)]) == 2
        dest = out / "report.json"
        assert f"config error: cannot write report to {dest}: No space left" in (
            capsys.readouterr().err)
        assert _dir_bytes(out) == before  # report.json as it was, and no temp file

    def test_unwritable_report_exits_2_naming_path(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["propagate", "--config", str(cfg)]) == 0
        dest = tmp_path / "out" / "report.json"
        dest.mkdir()
        assert main(["report", "--config", str(cfg)]) == 2
        assert f"config error: cannot write report to {dest}" in capsys.readouterr().err

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_product_readers_match_the_validators(self, tmp_path_factory, data):
        """Each product reader accepts exactly the products that the
        validators it replaced accept, and takes the same ``db_ratios``
        entries from them as ``collect_db``; a rejected product gets the
        same message. Half the products are well formed, half have one
        place replaced by any JSON value or one entry deleted."""
        out = tmp_path_factory.mktemp("products")
        cases = [
            ("evaluation_matrix.json", _evaluation_products, oracles.has_evaluation_fields,
             cli._evaluation_db, lambda p: oracles.collect_db(p, None)),
            ("ratio_matrices.json", _ratio_products, oracles.has_ratio_fields,
             cli._ratio_db, lambda p: oracles.collect_db(None, p)),
        ]
        for name, products, has_fields, take, collect in cases:
            product = data.draw(products, name)
            if data.draw(st.booleans(), f"{name} edited"):
                product = _edit_one_place(data, product)
            path = out / name
            assert cli._read_product(path, take) == (None, {})
            path.write_text(json.dumps(product))
            try:
                want = oracles.read_product(path, has_fields)
                want = (want, repr(list(collect(want).items())))
            except dataio.DataError as exc:
                want = str(exc)
            except TypeError:  # numpy's log10 of an int beyond 64 bits
                want = None
            try:
                got, entries = cli._read_product(path, take)
                got = (got, repr(list(entries.items())))
            except dataio.DataError as exc:
                got = str(exc)
            if want is None:
                assert any(abs(v) >= 2**64 for row in product["uncertainty_ratio"] for v in row)
                assert isinstance(got, tuple)
            else:
                assert got == want, name

    @pytest.mark.parametrize("levels", [cli._PRODUCT_NESTING - 1, cli._PRODUCT_NESTING, 900])
    def test_product_nested_too_deeply_exits_3_naming_it(self, tmp_path, capsys, levels):
        """A product nested deeper than ``_PRODUCT_NESTING`` is the
        product's data error, and report writes nothing; one that deep is
        written into report.json. 900 levels decode, but writing them into
        report.json would run out of stack."""
        cfg = _write_config(tmp_path)
        for cmd in ("simulate", "estimate", "propagate"):
            assert main([cmd, "--config", str(cfg)]) == 0, cmd
        path = tmp_path / "out" / "evaluation_matrix.json"
        deep = 1.0
        for _ in range(levels):
            deep = [deep]
        path.write_text(json.dumps({**json.loads(path.read_text()), "n_grid": deep}))
        before = _dir_bytes(tmp_path)
        capsys.readouterr()
        if levels < cli._PRODUCT_NESTING:
            assert main(["report", "--config", str(cfg)]) == 0
            report = json.loads((tmp_path / "out" / "report.json").read_text())
            assert report["evaluation_matrix"]["n_grid"] == deep
            return
        assert main(["report", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == (
            f"data error: {path}: missing, non-numeric or non-finite product field\n")
        assert _dir_bytes(tmp_path) == before

    def test_ratio_cell_beyond_64_bit_ints_is_a_number(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["propagate", "--config", str(cfg)]) == 0
        path = tmp_path / "out" / "ratio_matrices.json"
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "uncertainty_ratio": [[2**64, 1.0]]}))
        assert main(["report", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["db_ratios"] == {
            "uncertainty_ratio_db_mean": pytest.approx(5.0 * math.log10(2**64), rel=1e-15)}


# Any JSON value: nan, inf and ints beyond float range included.
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=2),
              st.sampled_from([10**400, -10**400])),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                  max_size=3),
    max_leaves=6,
)
# Ints reach past 64 bits, where numpy's log10 takes no int.
_finite = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-2**70, 2**70)
_ratio_block = st.fixed_dictionaries(
    {"k_ratio_db": st.none() | _finite, "n_ratio_db": _finite}, optional={"k": _json_values})
_evaluation_products = st.fixed_dictionaries(
    {"gyro_dps": _ratio_block, "accel": _ratio_block}, optional={"n_grid": _json_values})
_ratio_products = st.fixed_dictionaries(
    {"uncertainty_ratio": st.lists(st.lists(_finite, max_size=4), max_size=3)},
    optional={"tau": _json_values})


def _places(value, at=()):
    """The path of keys and indices to each place in a JSON value, its root first."""
    yield at
    inner = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in inner:
        yield from _places(item, at + (key,))


def _edit_one_place(data, product):
    """``product`` with one place drawn from ``_places`` replaced by any JSON
    value, or, in a dict, deleted."""
    at = data.draw(st.sampled_from(list(_places(product))), "place")
    if not at:
        return data.draw(_json_values, "product")
    parent = reduce(operator.getitem, at[:-1], product)
    if isinstance(parent, dict) and data.draw(st.booleans(), "delete"):
        del parent[at[-1]]
    else:
        parent[at[-1]] = data.draw(_json_values, "value")
    return product

def _stage_outputs(out: Path) -> dict:
    """Bytes of the outputs that propagate and report derive from recording stats."""
    names = ["report.json", "ratio_matrices.json"]
    names += [p.name for p in out.glob("mean_error_K*")]
    names += [p.name for p in out.glob("uncertainty_K*")]
    return {name: (out / name).read_bytes() for name in sorted(names)}


class TestRecordingStats:
    """estimate stores per-sensor stats; propagate and report only read them."""

    @pytest.fixture()
    def pipeline(self, tmp_path):
        assert main(["simulate", "--config", str(_write_config(tmp_path))]) == 0
        cfg = _write_manifest_config(tmp_path)
        for cmd in ("estimate", "propagate", "report"):
            assert main([cmd, "--config", str(cfg)]) == 0, cmd
        return cfg

    def test_recordings_parsed_once_per_run(self, tmp_path, monkeypatch):
        import imulab.cli as cli

        parsed = []
        real = cli.parse_recording_csv

        def counting(path, sensor_id, *args, **kwargs):
            parsed.append(sensor_id)
            return real(path, sensor_id, *args, **kwargs)

        monkeypatch.setattr(cli, "parse_recording_csv", counting)
        assert main(["simulate", "--config", str(_write_config(tmp_path))]) == 0
        cfg = _write_manifest_config(tmp_path)
        counts = {}
        for cmd in ("estimate", "propagate", "report"):
            parsed.clear()
            assert main([cmd, "--config", str(cfg)]) == 0, cmd
            counts[cmd] = len(parsed)
        assert counts == {"estimate": 4, "propagate": 0, "report": 0}

        out = tmp_path / "out"
        before = json.loads((out / "report.json").read_text())["dataset_summary"]
        victim = out / "recordings" / "sensor_02.csv"
        lines = victim.read_text().split("\n")
        cells = lines[5].split(",")
        cells[4] = repr(float(cells[4]) + 0.5)  # ax of one sample
        lines[5] = ",".join(cells)
        victim.write_text("\n".join(lines))
        parsed.clear()
        assert main(["report", "--config", str(cfg)]) == 0
        assert len(parsed) == 4
        after = json.loads((out / "report.json").read_text())["dataset_summary"]
        changed = [
            i for i, (a, b) in enumerate(zip(before["per_sensor"]["accel_bias_rms"],
                                             after["per_sensor"]["accel_bias_rms"]))
            if a != b
        ]
        assert changed == [before["per_sensor"]["sensor_ids"].index("sensor_02")]

    def test_hit_and_miss_give_identical_outputs(self, tmp_path, pipeline):
        out = tmp_path / "out"
        hit = _stage_outputs(out)
        (out / "recording_stats.json").unlink()
        for cmd in ("propagate", "report"):
            assert main([cmd, "--config", str(pipeline)]) == 0, cmd
            assert not (out / "recording_stats.json").exists()
        assert _stage_outputs(out) == hit

    @pytest.mark.parametrize("damage", ["truncated", "not_json", "wrong_shape", "stale_key",
                                        "non_finite", "above_bound",
                                        "int_beyond_conversion_limit"])
    def test_bad_stats_file_is_a_miss(self, tmp_path, pipeline, damage):
        out = tmp_path / "out"
        path = out / "recording_stats.json"
        good = path.read_bytes()
        hit = _stage_outputs(out)
        raw = json.loads(good)
        if damage == "wrong_shape":
            raw["sensors"][0]["bias"] = raw["sensors"][0]["bias"][:5]
        elif damage in ("non_finite", "above_bound"):
            raw["sensors"][1]["noise"][2] = float("nan") if damage == "non_finite" else 1e101
        elif damage == "int_beyond_conversion_limit":
            raw["key"] = "K"  # replaced below: json.dumps refuses to write the integer
        elif damage == "stale_key":
            # Poisoned values under another version: using them would show.
            raw["key"]["software_version"] = "0.0.0"
            for entry in raw["sensors"]:
                entry["bias"] = [1.0] * 6
        bad = {
            "truncated": good[: len(good) // 2],
            "not_json": b"\x00\xffnot json",
        }.get(damage, json.dumps(raw).encode())
        if damage == "int_beyond_conversion_limit":
            bad = bad.replace(b'"K"', _TOO_MANY_DIGITS)
        path.write_bytes(bad)
        for cmd in ("propagate", "report"):
            assert main([cmd, "--config", str(pipeline)]) == 0, cmd
            assert path.read_bytes() == bad
        assert _stage_outputs(out) == hit


def _note_reads(monkeypatch, log: Path) -> None:
    """Make each ``dataio._recording_rows`` call, in any process, append its
    sensor id to the file ``log``."""
    read = dataio._recording_rows

    def noting(path, sensor_id):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{sensor_id}\n")
        return read(path, sensor_id)

    monkeypatch.setattr(dataio, "_recording_rows", noting)


def _reads(log: Path) -> list[str]:
    return sorted(log.read_text().split()) if log.exists() else []


def _outputs_but_rows_cache(out: Path) -> dict:
    return {name: data for name, data in _dir_bytes(out).items()
            if not name.startswith("recordings/.rows/")}


class TestRowsCache:
    """``estimate``, and ``propagate`` and ``report`` on a recording stats
    miss, take the rows that ``simulate`` wrote beside its recordings
    instead of parsing them, and write the same bytes."""

    @pytest.mark.parametrize("duration_s", [10.0, 40.0], ids=["in_process", "pooled"])
    def test_hits_give_the_bytes_of_parses(self, tmp_path, monkeypatch, duration_s):
        cfg = _write_config(tmp_path, duration_s=duration_s)
        manifest_cfg = _write_manifest_config(tmp_path)
        out, log = tmp_path / "out", tmp_path / "reads.log"
        _note_reads(monkeypatch, log)

        def run(parse: bool) -> dict:
            shutil.rmtree(out, ignore_errors=True)
            log.unlink(missing_ok=True)
            assert main(["simulate", "--config", str(cfg)]) == 0
            if parse:
                _drop_rows_cache(cfg)
            assert main(["estimate", "--config", str(cfg)]) == 0
            (out / "recording_stats.json").unlink()  # a stats miss: they load the array
            for stage in ("propagate", "report"):
                assert main([stage, "--config", str(manifest_cfg)]) == 0, stage
            return _outputs_but_rows_cache(out)

        hit = run(parse=False)
        assert _reads(log) == []
        assert run(parse=True) == hit
        assert _reads(log) == [f"sensor_0{i}" for i in range(4) for _ in range(3)]
        assert _no_child_left()

    @pytest.mark.parametrize("damage", ["truncated", "reshaped", "nan", "pickled"])
    def test_damaged_entry_is_parsed_and_the_outputs_are_unchanged(
        self, tmp_path, monkeypatch, damage
    ):
        cfg = _write_config(tmp_path)
        out, log = tmp_path / "out", tmp_path / "reads.log"
        for stage in ("simulate", "estimate", "propagate", "report"):
            assert main([stage, "--config", str(cfg)]) == 0, stage
        want = _outputs_but_rows_cache(out)
        digest = json.loads((out / "recording_stats.json").read_text())["key"][
            "recordings_sha256"][1]
        entry = out / "recordings" / ".rows" / f"{digest}.npy"
        rows = np.load(entry)
        if damage == "truncated":
            entry.write_bytes(entry.read_bytes()[:-8])
        elif damage == "reshaped":
            np.save(entry, rows.reshape(-1, 14))
        elif damage == "nan":
            rows[0, 4] = np.nan
            np.save(entry, rows)
        else:
            np.save(entry, rows.astype(object), allow_pickle=True)
        _note_reads(monkeypatch, log)
        for stage in ("estimate", "propagate", "report"):
            assert main([stage, "--config", str(cfg)]) == 0, stage
        assert _reads(log) == ["sensor_01"]
        assert _outputs_but_rows_cache(out) == want

    def test_edited_recording_is_parsed_and_its_fault_named(self, tmp_path, monkeypatch,
                                                            capsys):
        cfg = _write_config(tmp_path, duration_s=40.0)  # 4 x 4000 x 7 values
        assert main(["simulate", "--config", str(cfg)]) == 0
        victim = tmp_path / "out" / "recordings" / "sensor_02.csv"
        lines = victim.read_text().split("\n")
        lines[4] = lines[4].replace(",", ",1_0", 1)
        victim.write_text("\n".join(lines))
        log = tmp_path / "reads.log"
        _note_reads(monkeypatch, log)
        capsys.readouterr()
        assert main(["estimate", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.startswith(
            "data error: sensor_02: line 5: could not convert string to float: ")
        assert _reads(log) == ["sensor_02"]
        assert not (tmp_path / "out" / "quality.json").exists()
