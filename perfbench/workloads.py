"""Workload definitions: each one is a set of CLI configs built from a seed.

The program under test sees only the config files written here (and, for
``wide_manifest``, the recordings its own ``simulate`` stage wrote). Why each
workload exists is recorded in ``README.md`` and in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

STAGES = ("simulate", "estimate", "propagate", "report")
RATE_HZ = 100.0
OUT_DIR = "run"  # relative to the pass directory, so report.json is path-free


@dataclass(frozen=True)
class Workload:
    name: str
    sensors: int
    duration_s: float
    k_grid: tuple[int, ...]
    tau_grid: tuple[float, ...]
    fmt: str
    # Run estimate/propagate/report from a manifest config pointing at the
    # recordings simulate wrote, instead of from the sensors config.
    manifest: bool = False

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * RATE_HZ))

    def stage_configs(self, seed: int, pass_dir: Path) -> dict[str, Path]:
        """Write the config files for one pass; returns stage -> config path."""
        base = {
            "seed": seed,
            "duration_s": self.duration_s,
            "rate_hz": RATE_HZ,
            "k_grid": list(self.k_grid),
            "tau_grid": list(self.tau_grid),
            "out_dir": OUT_DIR,
            "fmt": self.fmt,
        }
        sensors_cfg = pass_dir / "sensors_config.json"
        sensors_cfg.write_text(json.dumps({**base, "sensors": self.sensors}))
        paths = {stage: sensors_cfg for stage in STAGES}
        if self.manifest:
            manifest_cfg = pass_dir / "manifest_config.json"
            manifest_cfg.write_text(json.dumps(
                {**base, "manifest": f"{OUT_DIR}/recordings/manifest.json"}
            ))
            for stage in STAGES[1:]:
                paths[stage] = manifest_cfg
        return paths

    def expected_outputs(self) -> dict[str, str]:
        """Output file (relative to the pass directory) -> stage that writes it."""
        out = {f"{OUT_DIR}/recordings/manifest.json": "simulate"}
        for i in range(self.sensors):
            out[f"{OUT_DIR}/recordings/sensor_{i:02d}.csv"] = "simulate"
        out[f"{OUT_DIR}/quality.json"] = "estimate"
        out[f"{OUT_DIR}/evaluation_matrix.json"] = "estimate"
        out[f"{OUT_DIR}/ratio_matrices.json"] = "propagate"
        out[f"{OUT_DIR}/report.json"] = "report"
        for k in self.k_grid:
            for stem in ("series", "kde", "running_std"):
                out[f"{OUT_DIR}/{stem}_K{k}.{self.fmt}"] = "estimate"
            for stem in ("mean_error", "uncertainty"):
                out[f"{OUT_DIR}/{stem}_K{k}.{self.fmt}"] = "propagate"
            out[f"{OUT_DIR}/ellipsoid_K{k}.json"] = "propagate"
        return out

    def tiny(self) -> "Workload":
        """The same workload shape at a size that runs in well under a second."""
        sensors = min(self.sensors, 3)
        k_grid = tuple(sorted({k for k in self.k_grid if k < sensors} | {sensors}))
        return replace(
            self,
            sensors=sensors,
            duration_s=2.0,
            k_grid=k_grid,
            tau_grid=self.tau_grid[:11],
        )


def _tau(step: float, stop: float) -> tuple[float, ...]:
    count = int(round(stop / step))
    return tuple(round(i * step, 10) for i in range(count + 1))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper", 10, 100.0, (1, 10), _tau(1.0, 100.0), "csv"),
        Workload("wide_manifest", 24, 100.0, (1, 24), _tau(1.0, 100.0), "csv",
                 manifest=True),
        Workload("long_record_json", 4, 300.0, (1, 2, 4), _tau(1.0, 100.0), "json"),
        Workload("dense_horizon", 10, 10.0, tuple(range(1, 11)),
                 _tau(0.05, 100.0), "csv"),
    )
}
