"""Output checks for one pass of the pipeline.

Three kinds of check, all outside the timed region:

* every expected output file exists and parses (CSV tables and recordings
  with a header and numeric rows, everything else as JSON);
* the paper's exact ratios hold: nonzero ``uncertainty_ratio`` entries equal
  ``expected_uncertainty_ratio`` = 1/sqrt(K_hi/K_lo), each ``n_ratio`` equals
  1/sqrt(N), both to ``RATIO_RTOL``; the Q-coefficient audit error is at
  most ``AUDIT_MAX``;
* for the default seed, every numeric output matches the reference taken at
  the seed commit (``reference/<workload>.json``) to ``REFERENCE_RTOL``.

KDE mass is deliberately not gated: the trapezoid integral over the 201-point
grid reads 0.93-1.03 at the seed because the raw gyro densities are
under-resolved.

A fingerprint summarises each file as groups of values keyed by CSV column or
by JSON path with list indices dropped. Groups of at most ``FULL_LIMIT``
values are stored whole; longer numeric groups keep their count, min, max,
sum, sum of magnitudes and a weighted sum, which moves when any one value
changes by more than ``REFERENCE_RTOL`` of the group's summed magnitude.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import OUT_DIR

RATIO_RTOL = 1e-12
AUDIT_MAX = 1e-6
REFERENCE_RTOL = 1e-9
FULL_LIMIT = 64


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _flatten(obj, path: str, groups: dict) -> None:
    if isinstance(obj, dict):
        for key, val in obj.items():
            _flatten(val, f"{path}.{key}" if path else str(key), groups)
    elif isinstance(obj, list):
        for val in obj:
            _flatten(val, path + "[]", groups)
    else:
        groups.setdefault(path, []).append(obj)


def load_groups(path: Path) -> dict[str, list]:
    """Parse one output file into value groups; raises ValueError if it cannot."""
    if path.suffix == ".csv":
        with path.open(newline="") as fh:
            header = next(csv.reader(fh))
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] != len(header):
            raise ValueError(f"{path.name}: {data.shape[1]} columns, header has {len(header)}")
        return {name: data[:, j].tolist() for j, name in enumerate(header)}
    groups: dict[str, list] = {}
    _flatten(json.loads(path.read_text()), "", groups)
    return groups


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _weights(n: int) -> np.ndarray:
    return np.random.default_rng(20230717).uniform(0.5, 1.5, n)


def fingerprint(groups: dict[str, list]) -> dict:
    out = {}
    for key, vals in groups.items():
        if len(vals) <= FULL_LIMIT or not all(_is_number(v) for v in vals):
            out[key] = {"values": vals}
            continue
        x = np.asarray(vals, dtype=float)
        out[key] = {
            "n": int(x.size),
            "min": float(x.min()),
            "max": float(x.max()),
            "sum": float(x.sum()),
            "sum_abs": float(np.abs(x).sum()),
            "wsum": float(_weights(x.size) @ x),
        }
    return out


def _close(a, b, scale: float) -> bool:
    if _is_number(a) and _is_number(b):
        return abs(a - b) <= REFERENCE_RTOL * max(abs(b), scale)
    return a == b


def compare_fingerprint(got: dict, ref: dict) -> list[str]:
    """Differences between a file's fingerprint and its reference."""
    problems = []
    for key in sorted(set(got) | set(ref)):
        if key not in got or key not in ref:
            problems.append(f"{key}: present in only one of output and reference")
            continue
        g, r = got[key], ref[key]
        if "values" in r:
            vals = r["values"]
            scale = max((abs(v) for v in vals if _is_number(v)), default=0.0)
            if "values" not in g or len(g["values"]) != len(vals) or not all(
                _close(a, b, scale) for a, b in zip(g["values"], vals)
            ):
                problems.append(f"{key}: values differ from reference")
            continue
        if g.get("n") != r["n"]:
            problems.append(f"{key}: {g.get('n')} values, reference has {r['n']}")
            continue
        scale = max(abs(r["min"]), abs(r["max"]))
        for stat in ("min", "max"):
            if not _close(g[stat], r[stat], scale):
                problems.append(f"{key}: {stat} {g[stat]!r} != reference {r[stat]!r}")
        for stat in ("sum", "sum_abs", "wsum"):
            if not _close(g[stat], r[stat], r["sum_abs"]):
                problems.append(f"{key}: {stat} {g[stat]!r} != reference {r[stat]!r}")
    return problems


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def invariant_problems(outputs: dict[str, dict], workload) -> list[tuple[str, str]]:
    """Check the exact ratios and the Q audit; returns (stage, message) pairs."""
    problems = []
    out = OUT_DIR
    evaluation = outputs[f"{out}/evaluation_matrix.json"]
    n_ratio = 1.0 / math.sqrt(workload.n_samples)
    for key in ("gyro_dps.n_ratio", "accel.n_ratio"):
        for v in evaluation[key]["values"]:
            if _rel_err(v, n_ratio) > RATIO_RTOL:
                problems.append(("estimate", f"evaluation_matrix {key} = {v!r}, expected {n_ratio!r}"))
    ratios = outputs[f"{out}/ratio_matrices.json"]
    k_lo, k_hi = min(workload.k_grid), max(workload.k_grid)
    expected = 1.0 / math.sqrt(k_hi / k_lo)
    (stated,) = ratios["expected_uncertainty_ratio"]["values"]
    if _rel_err(stated, expected) > RATIO_RTOL:
        problems.append(("propagate", f"expected_uncertainty_ratio = {stated!r}, expected {expected!r}"))
    for v in ratios["uncertainty_ratio[][]"]["values"]:
        if v != 0 and _rel_err(v, stated) > RATIO_RTOL:
            problems.append(("propagate", f"uncertainty_ratio entry {v!r} != {stated!r}"))
    report = outputs[f"{out}/report.json"]
    (audit,) = report["q_coefficient_audit.closed_form_rel_error"]["values"]
    if not audit <= AUDIT_MAX:
        problems.append(("report", f"q_coefficient_audit closed_form_rel_error = {audit!r}"))
    return problems


def check_pass(pass_dir: Path, workload, reference: dict | None):
    """Full check of one pass's outputs.

    Returns ``(problems, hashes, fingerprints)`` where ``problems`` is a list
    of ``(stage, message)``; ``reference`` is the stored reference for the
    default seed, or None to skip the reference comparison.
    """
    expected = workload.expected_outputs()
    problems, hashes, prints = [], {}, {}
    for rel, stage in expected.items():
        path = pass_dir / rel
        if not path.is_file():
            problems.append((stage, f"{rel}: missing"))
            continue
        hashes[rel] = sha256(path)
        try:
            prints[rel] = fingerprint(load_groups(path))
        except (ValueError, StopIteration, UnicodeDecodeError) as exc:
            problems.append((stage, f"{rel}: does not parse: {exc}"))
    if problems:
        return problems, hashes, prints
    try:
        problems += invariant_problems(prints, workload)
    except (KeyError, ValueError) as exc:
        problems.append(("report", f"ratio or audit field missing: {exc!r}"))
    if reference is not None:
        for rel, stage in expected.items():
            ref = reference["fingerprints"].get(rel)
            if ref is None:
                problems.append((stage, f"{rel}: not in reference"))
                continue
            problems += [(stage, f"{rel}: {p}") for p in compare_fingerprint(prints[rel], ref)]
    return problems, hashes, prints
