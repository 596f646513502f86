"""Run one workload in this process: timed pipeline passes plus output checks.

Started by ``run.py`` as a child process, so the process's peak RSS belongs
to this workload alone. Between untraced passes, outside their timing, it
times ``import imulab.cli`` in fresh interpreters, one at a time, for
``setup_s``. The host-speed probe of ``hostspeed.py`` runs between stages
and after every import. Prints one JSON object (raw per-pass samples, import
times, probe times, trace summaries, check results and environment) as its
last line of output.

Usage: python3 perfbench/worker.py --root DIR --tmp DIR --workload NAME
       --seed N --seconds S --trace 0|1 [--size full|tiny]

``--tmp`` is an empty directory for the pass outputs; the caller removes it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks
import hostspeed
import tracing
from workloads import STAGES, WORKLOADS

DEFAULT_SEED = 7
MIN_STAGE_S = 0.5
# Import timings take this share of the time spent in untraced passes, and
# whatever is left of the window after the last pass. They are interleaved
# with the passes so both sample the same stretches of the host's speed.
SETUP_SHARE = 0.2
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import imulab.cli; "
    "print(time.perf_counter() - t0)"
)
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def run_pass(cli, workload, seed: int, pass_dir: Path, tracer=None,
             min_stage_s: float = 0.0, probe: bool = False) -> dict:
    """One pass through the four stages.

    A stage whose call takes less than ``min_stage_s`` is called again (its
    outputs are rewritten with the same bytes) until its calls add up to
    ``min_stage_s``; its time is then the mean per call. Returns per stage
    the time, the number of calls and the messages of calls that failed.
    With ``probe``, the host-speed probe runs before the first stage and
    after each stage; ``probe_s`` holds its times.
    """
    if pass_dir.exists():
        shutil.rmtree(pass_dir)
    pass_dir.mkdir(parents=True)
    configs = workload.stage_configs(seed, pass_dir)
    times, calls, errors = {}, {}, {}
    speeds = [hostspeed.probe()] if probe else []
    cwd = os.getcwd()
    os.chdir(pass_dir)
    try:
        for stage in STAGES:
            argv = [stage, "--config", configs[stage].name]
            total, calls[stage] = 0.0, 0
            while calls[stage] == 0 or total < min_stage_s:
                # Each stage is its own CLI process in real use, so garbage
                # left by the previous call is collected here, untimed.
                gc.collect()
                captured = io.StringIO()
                span = tracer.stage(stage) if tracer else contextlib.nullcontext()
                with contextlib.redirect_stdout(captured), \
                        contextlib.redirect_stderr(captured), span:
                    t0 = time.perf_counter()
                    code = cli.main(argv)
                    total += time.perf_counter() - t0
                calls[stage] += 1
                if code != 0:
                    errors.setdefault(stage, []).append(
                        f"exit {code}: {captured.getvalue().strip()[-2000:]}")
                    break
            times[stage] = total / calls[stage]
            if probe:
                speeds.append(hostspeed.probe())
    finally:
        os.chdir(cwd)
    out = {"times": times, "calls": calls, "errors": errors}
    if probe:
        out["probe_s"] = speeds
    return out


def import_time(root: Path) -> float:
    """Wall time of ``import imulab.cli`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"import imulab.cli failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def later_pass_problems(pass_dir: Path, workload, first_hashes: dict,
                        first_problems: list, reference) -> list:
    """Check a pass after the first. Outputs byte-identical to the first
    pass's check exactly as it did; otherwise the pass is checked in full."""
    for rel in workload.expected_outputs():
        path = pass_dir / rel
        if not path.is_file() or checks.sha256(path) != first_hashes.get(rel):
            return checks.check_pass(pass_dir, workload, reference)[0]
    return first_problems


def count_failures(result: dict, problems: list) -> tuple[int, list[str]]:
    """Failed stage calls in one pass (non-zero exit, or last call's outputs
    failing a check) and the reasons."""
    failed = sum(len(v) for v in result["errors"].values())
    reasons = [f"{stage}: {msg}" for stage, msgs in result["errors"].items() for msg in msgs]
    failed += len({stage for stage, _ in problems} - set(result["errors"]))
    reasons += [f"{stage}: {msg}" for stage, msg in problems]
    return failed, reasons


def environment(numpy, scipy) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "IMULAB_THREADS": os.environ.get("IMULAB_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--tmp", required=True, type=Path)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import imulab
    import imulab.cli as cli

    if not Path(imulab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imulab imported from {imulab.__file__}, not from {src}")

    workload = WORKLOADS[args.workload]
    if args.size == "tiny":
        workload = workload.tiny()
    reference = None
    if args.size == "full" and args.seed == DEFAULT_SEED:
        reference = json.loads((REFERENCE_DIR / f"{workload.name}.json").read_text())

    tmp = args.tmp
    tracer = tracing.Tracer() if args.trace else None
    passes, setup_wall, probes = [], [], []
    pass_total = setup_total = 0.0

    def time_import() -> None:
        nonlocal setup_total
        t0 = time.perf_counter()
        setup_wall.append(import_time(args.root))
        probes.append(hostspeed.probe())
        setup_total += time.perf_counter() - t0
    try:
        # Warm-up: a tiny pass runs every code path once, and the probe runs
        # once, so first-call costs inside numpy/scipy are not charged to
        # the first timed pass or probe batch.
        run_pass(cli, workload.tiny(), args.seed, tmp / "warmup")
        hostspeed.probe()

        start = time.perf_counter()
        first_hashes = None
        while True:
            # In a traced run, passes alternate traced/untraced so the
            # tracing overhead is measured on the same process and inputs.
            traced = tracer is not None and len(passes) % 2 == 0
            if traced:
                tracer.spans = []
                tracer.install(imulab)
            pass_start = time.perf_counter()
            try:
                # In a traced run every pass calls each stage once, so the
                # counts are per pass and the overhead compares like with
                # like; untraced runs repeat short stages.
                result = run_pass(cli, workload, args.seed, tmp / "pass",
                                  tracer if traced else None,
                                  0.0 if tracer else MIN_STAGE_S, probe=tracer is None)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                result["trace"] = tracing.summarize(tracer.spans)
            result["traced"] = traced
            if first_hashes is None:
                first_problems, first_hashes, _ = checks.check_pass(
                    tmp / "pass", workload, reference)
                problems = first_problems
            else:
                problems = later_pass_problems(tmp / "pass", workload, first_hashes,
                                               first_problems, reference)
            result["failed"], result["failures"] = count_failures(result, problems)
            del result["errors"]
            passes.append(result)
            if tracer is None:
                probes.extend(result["probe_s"])
                pass_total += sum(t * result["calls"][s] for s, t in result["times"].items())
                while setup_total < SETUP_SHARE * pass_total and (
                        not setup_wall or time.perf_counter() - start < args.seconds):
                    time_import()
            # Stop when another pass like the last one, with its import
            # timings, would overrun the window; a traced run needs at least
            # one traced and one untraced pass.
            elapsed = time.perf_counter() - start
            last = time.perf_counter() - pass_start
            need_more = tracer is not None and len(passes) < 2
            if not need_more and elapsed + last > args.seconds:
                break
        # What is left of the window goes to more imports, so a run lasts
        # about --seconds however long its passes take.
        while tracer is None and (time.perf_counter() - start
                                  + setup_total / len(setup_wall) < args.seconds):
            time_import()
    finally:
        shutil.rmtree(tmp / "warmup", ignore_errors=True)
        shutil.rmtree(tmp / "pass", ignore_errors=True)

    outputs_identical = None
    if reference is not None:
        outputs_identical = first_hashes == reference["sha256"]
    report = {
        "workload": workload.name,
        "size": args.size,
        "sensors": workload.sensors,
        "n_samples": workload.n_samples,
        "passes": passes,
        "setup_wall": setup_wall,
        # The end-to-end timings of the run are corrected for host speed by
        # this factor; a traced run takes no probes.
        "host_scale": hostspeed.scale(probes) if probes else None,
        "outputs_identical": outputs_identical,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(numpy, scipy),
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
