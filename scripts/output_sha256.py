#!/usr/bin/env python3
"""Print the SHA-256 of every output of one benchmark workload, or of all.

Runs simulate -> estimate -> propagate -> report in this process, through
``imulab.cli.main``, with the config files that ``perfbench/workloads.py``
writes for the workload, and prints one JSON object mapping each output
file (relative to ``--out``) to its SHA-256. Every file is hashed, the
rows cache entries that ``simulate`` writes in ``recordings/.rows``
included: they are deterministic, and a change to them should show. With
``--workload all`` each workload runs in ``--out/<workload>`` and the
object maps each workload's name to its own object. Two checkouts produce
the same outputs exactly when their objects are equal:

    PYTHONPATH=src python3 scripts/output_sha256.py --workload all --seed 7 --out runs/sha

``--out`` (for ``all``, each ``--out/<workload>``) must be empty or absent;
the outputs stay there.
"""

import argparse
import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import OUT_DIR, STAGES, WORKLOADS  # noqa: E402

from imulab.cli import main as imulab_main  # noqa: E402


def output_sha256(workload, seed: int, out_dir: Path) -> dict[str, str]:
    """Run ``workload``'s four stages in the empty directory ``out_dir`` and
    return {output path relative to ``out_dir``: SHA-256}, sorted by path.

    A stage that exits non-zero raises ``RuntimeError`` naming it.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    if any(out_dir.iterdir()):
        raise RuntimeError(f"{out_dir} is not empty")
    configs = workload.stage_configs(seed, out_dir)
    cwd = os.getcwd()
    os.chdir(out_dir)  # the configs name OUT_DIR relative to it
    try:
        for stage in STAGES:
            with contextlib.redirect_stdout(sys.stderr):
                code = imulab_main([stage, "--config", configs[stage].name])
            if code != 0:
                raise RuntimeError(f"{workload.name}: {stage} exited {code}")
    finally:
        os.chdir(cwd)
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((out_dir / OUT_DIR).rglob("*")) if path.is_file()
    }


def all_output_sha256(workloads, seed: int, out_dir: Path) -> dict[str, dict[str, str]]:
    """{workload name: ``output_sha256`` of it in ``out_dir/<name>``} for each
    of ``workloads``, in order."""
    return {w.name: output_sha256(w, seed, out_dir / w.name) for w in workloads}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    out = args.out.resolve()
    try:
        if args.workload == "all":
            digests = all_output_sha256(WORKLOADS.values(), args.seed, out)
        else:
            digests = output_sha256(WORKLOADS[args.workload], args.seed, out)
    except RuntimeError as exc:
        sys.exit(f"output_sha256: {exc}")
    print(json.dumps(digests, indent=2))
