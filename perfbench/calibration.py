"""Host-speed calibration.

The benchmark runs on shared hosts whose speed swings by 2x for seconds to
minutes at a time, for every process alike.  The benchmark therefore times
:func:`calibrate`, a fixed pure-Python kernel shaped like the program's hot
paths (dict building, float powers, type checks, a best-of scan over
operating points; it never calls ``repro``), and scales each timed value by
``REFERENCE_S / calibration``: it reads as the time the same work takes on
the reference host when uncontended.  A change to the program moves the
scaled value; a slow period of the host moves the calibration by the same
factor and cancels out.

Short timed intervals (one ``run_once``) are scaled by samples taken between
them.  Long ones (a build, a set-up) drift with the host while they run, so
:class:`Sampler` takes samples *during* them from a timer signal and
subtracts the time it spent.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

#: One round of :func:`calibrate` on the reference host (an Intel Xeon VM
#: with 2 vCPUs, CPython 3.11) when nothing else loads it.
REFERENCE_S = 0.675e-3
#: :class:`Sampler` takes a one-round sample this often (seconds).
SAMPLE_INTERVAL_S = 0.025

_POINTS = [
    (
        {"compiler": f"cf{i % 8}", "threads": 1 + i % 32, "binding": ("close", "spread")[i % 2]},
        {
            "time": 0.5 + (i * 37 % 101) / 100.0,
            "power": 40.0 + (i * 53 % 97),
            "throughput": 1.0 / (0.5 + (i * 37 % 101) / 100.0),
        },
    )
    for i in range(512)
]


def calibrate(rounds: int = 4) -> float:
    """Seconds one round of fixed interpreter work takes right now (the
    mean over ``rounds``)."""
    start = time.perf_counter()
    for _ in range(rounds):
        best_value = float("-inf")
        for knobs, metrics in _POINTS:
            values = {name: mean * 1.01 for name, mean in metrics.items()}
            for name, value in knobs.items():
                if isinstance(value, (int, float)) and name not in values:
                    values[name] = float(value)
            score = 1.0
            for name, exponent in (("throughput", 1.0), ("power", -2.0)):
                score *= values[name] ** exponent
            best_value = max(best_value, score)
    return (time.perf_counter() - start) / rounds


class Sampler:
    """Calibration samples taken every ``SAMPLE_INTERVAL_S`` while the block
    runs, from a ``SIGALRM`` handler in the main thread.

    ``spent`` is the time the handler took; subtract it from the block's
    wall time.  ``factor()`` converts the remaining time to reference time:
    the mean, over equal slices of wall time, of reference over measured
    speed.
    """

    def __enter__(self) -> "Sampler":
        self.samples: List[float] = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a block shorter than one interval
            self.samples.append(calibrate(rounds=1))

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibrate(rounds=1))
        self.spent += time.perf_counter() - start

    def factor(self) -> float:
        return statistics.fmean(REFERENCE_S / sample for sample in self.samples)
