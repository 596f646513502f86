"""Benchmark of the imulab simulate -> estimate -> propagate -> report pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper --seed 7 --seconds 55 --trace 0

Each workload runs in its own child process (``worker.py``), which calls
``imulab.cli.main`` in-process for the four stages, one after another, with
one caller (a closed loop), for ``--seconds`` seconds, and checks every
pass's outputs; between passes it times ``import imulab.cli`` in fresh
interpreters for ``setup_s``. A fixed probe (``hostspeed.py``) is timed
between the stages and after each import, and the end-to-end timings are
corrected for the host speed the probes saw over the run. ``--trace 0``
reports the end-to-end metrics named in ``BENCHMARK.json``; ``--trace 1``
reports its per-layer metrics from spans recorded around calls into each
package module. ``--workload all`` runs every workload in turn. For each workload a ``{"details": ...}`` line
(percentiles, sample counts, failures, environment) comes first, then one
line per metric; the last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

This file uses the standard library only, so the parent process stays small.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import STAGES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_GRACE_S = 100.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def tail(values: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    out = {"n": len(ordered), "median": statistics.median(ordered),
           "tail_pct": None, "tail": None, "samples": values}
    for pct in (99, 95, 90, 75, 50):
        idx = max(0, math.ceil(len(ordered) * pct / 100.0) - 1)  # nearest rank
        if len(ordered) - idx - 1 >= 10:
            out["tail_pct"], out["tail"] = pct, ordered[idx]
            break
    return out


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                            capture_output=True, text=True, timeout=30)
    return {"commit": head.stdout.strip() or None,
            "dirty": bool(status.stdout.strip()) if status.returncode == 0 else None}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args, workload: str) -> dict:
    """Run one workload in a child process; its outputs go to a temporary
    directory under ``.bench_tmp/`` that is removed however the child ends."""
    tmp_parent = ROOT / ".bench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_parent)
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--tmp", tmp, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=args.seconds + WORKER_GRACE_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_parent.rmdir()
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _timings(passes: list[dict], setup: list[float], scale: float) -> dict:
    def scaled(values):
        return [v * scale for v in values]
    timings = {"pipeline_s": tail(scaled([sum(p["times"].values()) for p in passes])),
               "setup_s": tail(scaled(setup))}
    timings.update({f"{s}_s": tail(scaled([p["times"][s] for p in passes]))
                    for s in STAGES})
    return timings


def end_to_end(raw: dict) -> tuple[dict, dict, dict]:
    """End-to-end metric values from untraced passes, with the details of
    their host-speed-corrected timings and of the measured wall timings."""
    passes = [p for p in raw["passes"] if not p["traced"]]
    timings = _timings(passes, raw["setup_wall"], raw["host_scale"])
    wall = _timings(passes, raw["setup_wall"], 1.0)
    values = {name: t["median"] for name, t in timings.items()}
    values["samples_per_s"] = raw["sensors"] * raw["n_samples"] / values["pipeline_s"]
    values["peak_rss_mb"] = raw["peak_rss_mb"]
    return values, timings, wall


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(raw: dict, names: list[str]) -> tuple[dict, dict]:
    """Per-layer metric values (medians over traced passes) and the details."""
    traced = [p for p in raw["passes"] if p["traced"]]
    untraced = [p for p in raw["passes"] if not p["traced"]]
    traces = [p["trace"] for p in traced]

    def field(span: str, key: str) -> float:
        return _median([t.get(span, {}).get(key, 0) for t in traces])

    # Passes alternate traced/untraced; each traced pass is compared with the
    # untraced pass right after it, which met nearly the same host speed.
    pairs = zip(raw["passes"][0::2], raw["passes"][1::2])
    derived = {
        "tracing_overhead_frac": _median([
            sum(t["times"].values()) / sum(u["times"].values()) - 1.0 for t, u in pairs]),
        "dataio.parse_recording_csv.useful_ratio":
            raw["sensors"] / field("dataio.parse_recording_csv", "calls"),
        "computed.dataio.rows_written": field("dataio.write_recording_csv", "rows"),
        "computed.dataio.rows_read": field("dataio.parse_recording_csv", "rows"),
        "computed.dataio.bytes_written": field("dataio.write_recording_csv", "bytes")
            + field("dataio.write_report", "bytes"),
        "computed.dataio.bytes_read": field("dataio.parse_recording_csv", "bytes"),
        "computed.estimation.kernel_evals": field("estimation.kde_density", "kernel_evals"),
        "computed.ins_error_model.q_closed_calls": field("ins_error_model.q_closed", "calls"),
    }
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
        else:
            span, key = name.rsplit(".", 1)
            values[name] = field(span, key)
    accounting = {}
    for stage in STAGES:
        span = f"cli.{stage}"
        accounting[stage] = {
            key: field(span, key)
            for key in ("busy_s", "self_s", "child_busy_s", "child_union_s")
        }
    details = {
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        # Self time plus the busy time of child spans accounts for each
        # stage's wall time; child_busy_s exceeds child_union_s by the overlap
        # of spans in the parse thread pool.
        "stage_accounting": accounting,
        "parse_threads": field("dataio.parse_recording_csv", "threads"),
        "computed_counts": {k: v for k, v in derived.items() if k.startswith("computed.")},
    }
    return values, details


def run_workload(args, spec: dict, workload: str) -> tuple[dict, dict]:
    raw = run_worker(args, workload)
    passes = raw["passes"]
    attempted = sum(sum(p["calls"].values()) for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f"pass {i} {msg}" for i, p in enumerate(passes) for msg in p["failures"]]
    details = {
        "workload": workload, "seed": args.seed, "size": raw["size"],
        "sensors": raw["sensors"], "n_samples": raw["n_samples"],
        "passes": len(passes), "failed_frac": failed / attempted,
        "failures": failures[:20],
        "outputs_identical": raw["outputs_identical"],
        "environment": {**raw["environment"], **git_state()},
    }
    if args.trace:
        values, extra = per_layer(raw, [m["name"] for m in spec["per_layer"]])
        details.update(extra)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values, timings, wall = end_to_end(raw)
        details["timings"] = timings
        details["wall_timings"] = wall
        details["host_scale"] = raw["host_scale"]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload for the harness self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "imulab" / "cli.py").is_file():
        return fail(f"no imulab source tree at {ROOT / 'src'}; run from a checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    gated = {w["name"] for w in spec["workloads"]}
    results = {}
    for name in names:
        try:
            result, details = run_workload(args, spec, name)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            return fail(f"{name}: {exc}")
        print(json.dumps({"details": details}))
        for metric, m in result["metrics"].items():
            print(f"{name:>16}  {metric:<45} {m['value']:.6g} {m['unit']}")
        for metric, t in details.get("timings", {}).items():
            if metric not in result["metrics"]:
                print(f"{name:>16}  {metric:<45} {t['median']:.6g} s (not gated)")
        for metric, t in details.get("wall_timings", {}).items():
            print(f"{name:>16}  {'wall.' + metric:<45} {t['median']:.6g} s"
                  " (measured, not corrected for host speed)")
        if name not in gated:
            print(f"{name:>16}  not gated in BENCHMARK.json: its runs spread too"
                  " widely for the bounds (perfbench/README.md, Steadiness)")
        print(f"{name:>16}  failed_frac {details['failed_frac']:.6g}"
              f" ({result['failed']}/{result['attempted']} stage calls)"
              f"  outputs_identical={details['outputs_identical']}")
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
