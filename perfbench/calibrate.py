"""Host-speed calibration: a fixed reference loop timed between repetitions.

A shared cloud VM changes speed by 10-20% over tens of seconds (other
tenants share its host), which swamps the differences a benchmark must
resolve.  A fixed piece of reference work -- pure-Python
arithmetic plus NumPy sorts, the two kinds of work the simulator does --
is therefore timed right before and after every repetition, while
nothing else of the benchmark runs, and each repetition's host time is
scaled to a reference host speed::

    scaled = measured * REFERENCE_S / mean(probe before, probe after)

Reported times are these scaled host times; the raw times and the
measured speed factors are printed beside them in the traffic line.
The reference work lives here and nowhere in the program under test, so
no change to the program can move it.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import List

#: Nominal duration of one reference pass (what :func:`probe` returns) on
#: the reference host, an idle 2-vCPU cloud VM.
REFERENCE_S = 0.0125


def _reference_work() -> None:
    import numpy as np

    total = 0
    for i in range(40_000):
        total += i * i % 7
    keys = np.arange(60_000, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for _ in range(3):
        np.sort(keys)
        np.argsort(keys, kind="stable")


def _timed_pass() -> float:
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


def probe() -> float:
    """Median time of three passes of the reference work, in seconds."""
    return statistics.median(_timed_pass() for _ in range(3))


class Calibrator:
    """Scales each repetition by the host speed measured around it.

    ``processes > 1`` probes with that many worker processes running the
    reference work at once (their mean pass time), which tracks the
    speed a multi-process workload gets from a shared host better than
    one process alone.  Call :meth:`close` (or use it as a context
    manager) so the workers stop.
    """

    def __init__(self, processes: int = 1) -> None:
        self._workers: List[subprocess.Popen] = []
        for _ in range(processes if processes > 1 else 0):
            self._workers.append(subprocess.Popen(
                [sys.executable, __file__, "--worker"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            ))
        if self._workers:
            self.probe()  # the workers' first pass pays their imports
        self.probes: List[float] = [self.probe()]
        self.factors: List[float] = []

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        for worker in self._workers:
            worker.stdin.close()
        for worker in self._workers:
            try:
                worker.wait(timeout=10)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
            worker.stdout.close()
        self._workers = []

    def probe(self) -> float:
        if not self._workers:
            return probe()
        return statistics.median(self._parallel_pass() for _ in range(3))

    def _parallel_pass(self) -> float:
        """Mean pass time of all workers, started together."""
        for worker in self._workers:
            worker.stdin.write("go\n")
            worker.stdin.flush()
        return statistics.fmean(float(w.stdout.readline()) for w in self._workers)

    def scale(self, measured: float) -> float:
        """Call right after a repetition that started after the last probe."""
        after = self.probe()
        factor = REFERENCE_S / ((self.probes[-1] + after) / 2)
        self.probes.append(after)
        self.factors.append(factor)
        return measured * factor

    def median_factor(self) -> float:
        return statistics.median(self.factors) if self.factors else 1.0


def _worker() -> None:
    """Probe worker: one timed reference pass per line read from stdin."""
    for _line in sys.stdin:
        print(repr(_timed_pass()), flush=True)


if __name__ == "__main__":
    _worker()
