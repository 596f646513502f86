"""Spans around calls into the package's modules, recorded from outside it.

``Tracer.install`` replaces every function that ``imulab.cli`` imports by a
timing wrapper in the ``imulab.cli`` namespace, plus two functions that are
only reached through a nested call (``dataio.write_recording_csv`` from
``write_array`` and ``ins_error_model.q_numeric_oracle`` from
``q_coefficient_audit``). ``uninstall`` puts the originals back. No package
code changes.

A span is named ``<module>.<function>``, where the module is the one that
defines the function. Stage spans (``cli.<stage>``) are opened by the
benchmark around each ``cli.main`` call. Spans opened in the CSV-parse thread
pool have an empty per-thread stack, so their parent is the open stage span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import threading
import time
from dataclasses import dataclass, field

NESTED = (("dataio", "write_recording_csv"), ("ins_error_model", "q_numeric_oracle"))


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _counts(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Work done by one call, derived from its arguments and result."""
    if name == "dataio.write_recording_csv":
        dest = args[1] if len(args) > 1 else kwargs["dest"]
        return {"bytes": _file_size(dest), "rows": args[0].n_samples}
    if name == "dataio.parse_recording_csv":
        return {"bytes": _file_size(args[0]), "rows": result.n_samples}
    if name == "dataio.write_report":
        dest = args[2] if len(args) > 2 else kwargs["dest"]
        return {"bytes": _file_size(dest)}
    if name == "estimation.kde_density":
        samples = args[0]
        grid = args[1] if len(args) > 1 else kwargs["eval_points"]
        return {"kernel_evals": int(samples.size) * int(grid.size)}
    return {}


class Tracer:
    """Collects spans in memory for one traced pass at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stage: Span | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._stage
        with self._lock:
            span = Span(len(self.spans), name,
                        None if parent is None else parent.sid,
                        threading.get_ident(), 0.0)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()

    @contextlib.contextmanager
    def stage(self, name: str):
        """Span for one ``cli.main`` call, named ``cli.<name>``."""
        span = self._stage = self._open(f"cli.{name}")
        try:
            yield span
        finally:
            self._close(span)
            self._stage = None

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.counts = _counts(name, args, kwargs, result)
            return result

        return wrapper

    def install(self, package) -> None:
        cli = package.cli
        targets = [
            (cli, attr, getattr(cli, attr))
            for attr in sorted(vars(cli))
            if inspect.isfunction(getattr(cli, attr))
            and getattr(cli, attr).__module__.startswith(package.__name__ + ".")
            and getattr(cli, attr).__module__ != cli.__name__
        ]
        for mod_name, attr in NESTED:
            mod = getattr(package, mod_name)
            targets.append((mod, attr, getattr(mod, attr)))
        for owner, attr, fn in targets:
            layer = fn.__module__.rsplit(".", 1)[-1]
            setattr(owner, attr, self._wrap(fn, f"{layer}.{fn.__name__}"))
            self._patched.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans: list[Span]) -> dict:
    """Per-name busy/self time, call counts and summed work counts of one pass.

    ``busy_s`` sums span durations over all threads; ``self_s`` subtracts the
    part of each span's interval that its child spans cover (their union, so
    parse spans overlapping in the thread pool are not counted twice).
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[str, dict] = {}
    for s in spans:
        kids = children.get(s.sid, [])
        covered = _union_length([(k.start, k.end) for k in kids])
        entry = out.setdefault(
            s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                     "child_busy_s": 0.0, "child_union_s": 0.0,
                     "threads": set()},
        )
        entry["calls"] += 1
        entry["busy_s"] += s.duration
        entry["self_s"] += s.duration - covered
        entry["child_busy_s"] += sum(k.duration for k in kids)
        entry["child_union_s"] += covered
        entry["threads"].add(s.thread)
        for key, val in s.counts.items():
            entry[key] = entry.get(key, 0) + val
    for entry in out.values():
        entry["threads"] = len(entry["threads"])
    return out
