#!/usr/bin/env python3
"""Compare two checkouts on the benchmark's end-to-end metrics, in pairs.

Runs ``perfbench/run.py --workload W`` in the ``--base`` checkout and in the
``--change`` checkout, one after the other, ``--pairs`` times; the side that
runs first alternates from pair to pair, so a drift in host speed falls on
both sides alike. Then, for each end-to-end metric that ``BENCHMARK.json``
names, and for each timing as measured before run.py's host-speed
correction (``wall.<timing>``), it prints each side's median and quartiles,
the pairs the change won, and whether the change meets the gain rule:
better in at least nine of ten pairs, and a median better by more than the
base's interquartile range. For each metric with a ``bound`` it also prints
the no-regression verdict: ``within bound``, ``regressed`` or
``unresolved`` (see ``summarize``).

    python3 scripts/bench_pairs.py --base ../parent --change . --workload paper --pairs 10

Both checkouts need ``perfbench/run.py``; the standard library is enough.
The last line of output is one JSON object: {metric: ``summarize``'s
summary, with each side's values under ``values``}.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def summarize(base: list[float], change: list[float], better: str,
              bound: float | None = None) -> dict:
    """Compare one metric's values from paired runs, ``base[i]`` with
    ``change[i]``, where ``better`` is ``"lower"`` or ``"higher"``.

    Returns each side's median and quartiles (``statistics.quantiles``,
    inclusive method), ``wins`` (pairs in which the change is strictly
    better), ``pairs``, the base's ``iqr``, the change's ``gap``, its
    median's lead over the base's (positive when the change is better), and
    ``meets``: at least nine tenths of the pairs won and a gap larger than
    the base's interquartile range.

    Given the metric's ``bound``, a fraction of the base's median, it also
    returns the no-regression ``verdict``: ``"within bound"`` when every
    change run is better than every base run, else ``"unresolved"`` when the
    base's iqr exceeds the bound, else ``"regressed"`` when the change's
    median is worse than the base's by more than the bound, else
    ``"within bound"``.
    """
    if len(base) != len(change) or len(base) < 2:
        raise ValueError("need at least two pairs of values")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    sides = {}
    for name, values in (("base", base), ("change", change)):
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        sides[name] = {"median": median, "q1": q1, "q3": q3}
    iqr = sides["base"]["q3"] - sides["base"]["q1"]
    gap = sign * (sides["base"]["median"] - sides["change"]["median"])
    out = {**sides, "wins": wins, "pairs": len(base), "iqr": iqr, "gap": gap,
           "meets": wins >= math.ceil(0.9 * len(base)) and gap > iqr}
    if bound is not None:
        allowed = bound * abs(sides["base"]["median"])
        # sign * v is lower when v is better.
        if max(sign * v for v in change) < min(sign * v for v in base):
            out["verdict"] = "within bound"
        elif iqr > allowed:
            out["verdict"] = "unresolved"
        else:
            out["verdict"] = "regressed" if -gap > allowed else "within bound"
    return out


def run_bench(checkout: Path, args) -> dict[str, float]:
    """The end-to-end metric values of one ``perfbench/run.py`` run in
    ``checkout``, and as ``wall.<timing>`` the median of each timing as
    measured, before the host-speed correction."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: run.py reports failed stage calls")
    details = next(json.loads(line)["details"] for line in lines
                   if line.startswith('{"details"'))
    return {**{name: m["value"] for name, m in result["metrics"].items()},
            **{f"wall.{name}": t["median"] for name, t in details["wall_timings"].items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout of the parent")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run.py's)")
    args = ap.parse_args(argv)
    spec = json.loads((args.base / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_bench(getattr(args, side), args))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    # The wall times show how much of a corrected gain the host-speed
    # correction carries: it rests on a probe timed in the benchmark's
    # process, whose speed that process's earlier work can move.
    metrics.update({name: "lower" for name in runs["base"][0] if name.startswith("wall.")})
    summary = {}
    for name, better in metrics.items():
        values = {side: [r[name] for r in runs[side]] for side in runs}
        s = summarize(values["base"], values["change"], better, bounds.get(name))
        summary[name] = {**s, "values": values}
        print(f"{args.workload:>14} {name:<16} base {s['base']['median']:.5g} "
              f"[{s['base']['q1']:.5g}, {s['base']['q3']:.5g}]  change "
              f"{s['change']['median']:.5g} [{s['change']['q1']:.5g}, {s['change']['q3']:.5g}]"
              f"  wins {s['wins']}/{s['pairs']}  gap {s['gap']:.4g} vs iqr {s['iqr']:.4g}"
              f"  {'meets' if s['meets'] else 'does not meet'} the gain rule"
              + (f", {s['verdict']}" if "verdict" in s else ""))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
