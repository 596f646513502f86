#!/usr/bin/env python3
"""Print the peak resident memory of one benchmark workload, stage by stage.

Runs simulate -> estimate -> propagate -> report in this process, through
``imulab.cli.main``, with the config files that ``perfbench/workloads.py``
writes for the workload, as ``scripts/output_sha256.py`` does. It prints
one JSON object: the process's peak RSS (``getrusage``'s ``ru_maxrss``, in
MB) after ``import imulab.cli`` and after each stage, and the largest peak
RSS of the worker processes that the stages forked and reaped so far
(``RUSAGE_CHILDREN``), after each stage. Both are high-water marks, so a
stage's reading is the peak up to its end; a stage that raises no reading
above the one before it did not set the peak. It also prints each stage's
minor page faults (``ru_minflt``), its own for this process and for the
workers it reaped, each as the count during that stage alone.

``--sensors`` and ``--duration`` resize the workload; with ``--sensors``
its ``k_grid`` is ``[1, sensors]``:

    PYTHONPATH=src python3 scripts/peak_rss.py --workload wide_manifest --out runs/rss
    PYTHONPATH=src python3 scripts/peak_rss.py --workload wide_manifest --sensors 32 \\
        --duration 300 --out runs/rss32

``--out`` must be empty or absent; the outputs stay there.
"""

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import STAGES, WORKLOADS  # noqa: E402


def _peak_mb(who: int) -> float:
    """``ru_maxrss`` of ``who`` in MB: Linux gives kilobytes, macOS bytes."""
    peak = resource.getrusage(who).ru_maxrss
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def peak_rss(workload, seed: int, out_dir: Path) -> dict:
    """Run ``workload``'s four stages in the empty directory ``out_dir`` and
    return the peak RSS readings, in MB: ``self`` after ``import`` and after
    each stage, and ``children`` after each stage; and ``minor_faults``, the
    ``self`` and ``children`` minor page faults taken during each stage.

    A stage that exits non-zero raises ``RuntimeError`` naming it.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    if any(out_dir.iterdir()):
        raise RuntimeError(f"{out_dir} is not empty")
    import imulab.cli

    readings = {"self": {"import": _peak_mb(resource.RUSAGE_SELF)}, "children": {}}
    faults = {"self": {}, "children": {}}
    who = {"self": resource.RUSAGE_SELF, "children": resource.RUSAGE_CHILDREN}
    configs = workload.stage_configs(seed, out_dir)
    cwd = os.getcwd()
    os.chdir(out_dir)  # the configs name their output directory relative to it
    try:
        for stage in STAGES:
            before = {side: resource.getrusage(w).ru_minflt for side, w in who.items()}
            with contextlib.redirect_stdout(sys.stderr):
                code = imulab.cli.main([stage, "--config", configs[stage].name])
            if code != 0:
                raise RuntimeError(f"{workload.name}: {stage} exited {code}")
            for side, w in who.items():
                faults[side][stage] = resource.getrusage(w).ru_minflt - before[side]
            readings["self"][stage] = _peak_mb(resource.RUSAGE_SELF)
            readings["children"][stage] = _peak_mb(resource.RUSAGE_CHILDREN)
    finally:
        os.chdir(cwd)
    return {"workload": workload.name, "sensors": workload.sensors,
            "n_samples": workload.n_samples, "seed": seed, **readings,
            "minor_faults": faults}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--sensors", type=int)
    parser.add_argument("--duration", type=float, help="seconds per recording")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.sensors is not None:
        workload = dataclasses.replace(workload, sensors=args.sensors,
                                       k_grid=(1, args.sensors))
    if args.duration is not None:
        workload = dataclasses.replace(workload, duration_s=args.duration)
    try:
        readings = peak_rss(workload, args.seed, args.out.resolve())
    except RuntimeError as exc:
        sys.exit(f"peak_rss: {exc}")
    print(json.dumps(readings, indent=2))
