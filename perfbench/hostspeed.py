"""Host-speed probe: a fixed piece of work timed next to every measurement.

The benchmark runs on shared VMs whose CPU speed wanders with the host's
other load: interpreter-heavy code slows by 20-40% for stretches of seconds
to minutes, long enough to move the median of a whole run. The probe below
does the same kinds of work as the pipeline (formatting floats with
``repr``, parsing them back with ``float``, a Gaussian-kernel sum in numpy)
on fixed inputs, so its time follows the host's current speed and nothing
else. ``worker.py`` times a batch of probe calls before the first stage of
every pass, after every stage and after every timed import, and reports
``scale`` of all the run's batches; ``run.py`` multiplies every end-to-end
timing of the run by it. The result is a host-speed-corrected time, in
seconds of a host on which one probe call takes ``REFERENCE_S``.

The host's speed also changes within a second (consecutive batches of 0.2 s
differ by up to 2x), so a few batches say little about the stage between
them; correcting each stage or each pass by its own batches was tried and
was no steadier than one factor for the whole run, which rests on dozens
of batches.

Nothing in the package runs during a probe, so no change to the package can
move it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REPEATS = 20
# Typical time of one probe call on the 2-vCPU Xeon VM the benchmark was
# tuned on, so corrected times read close to the wall times seen there.
REFERENCE_S = 0.010

_VALUES = tuple(math.sin(i) * 10.0 ** (i % 7 - 3) for i in range(3000))
_GRID = np.linspace(-1.0, 1.0, 64)


def _work() -> float:
    text = "\n".join(",".join(repr(v) for v in _VALUES[i:i + 6])
                     for i in range(0, len(_VALUES), 6))
    rows = [[float(c) for c in line.split(",")] for line in text.split("\n")]
    x = np.asarray(rows).ravel()
    return float(np.exp(-0.5 * ((x[:, None] - _GRID[None, :]) / 0.1) ** 2).sum())


def probe() -> float:
    """Mean wall time of one probe call, over ``REPEATS`` calls in a row."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        _work()
    return (time.perf_counter() - t0) / REPEATS


def scale(probes: list[float]) -> float:
    """Factor that turns a time measured while ``probes`` were taken into
    seconds at the reference host speed."""
    return REFERENCE_S / statistics.fmean(probes)
