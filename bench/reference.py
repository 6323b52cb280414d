"""Host-speed reference: a fixed computation that uses no skalab code.

The machines this benchmark runs on share their cores with other tenants,
and the same session's wall time swings by up to 1.6x from minute to minute
and between 100 ms windows of one run.  While the loop runs, SIGALRM times
the reference task every 25 ms (also in the middle of a unit, so units that
last seconds are covered too), and each unit's time, less those
measurements, is scaled by the mean of NOMINAL_NS / reference time over the
measurements taken during the unit and the nearest one on either side.
Over ten 20 s runs of pair-affine on a 2-core VM, the spread (interquartile
range over median) of sessions per second was 0.30 raw and 0.029 scaled.

The task mimics what a session spends its time on: bit-vector objects
built and validated, big-integer AND/popcount/XOR, and dict inserts.  It
imports nothing, so it can run before the program is imported.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Scaled times read as wall time on a host where the reference takes this long
# (about the median on the 2-core Xeon VM the benchmark was tuned on).
NOMINAL_NS = 170_000
INTERVAL_S = 0.025
_REPEATS = 3
_MASK = (1 << 128) - 1
_ROWS = [(0x9E3779B97F4A7C15F39CC0605CEDC834 * (i + 1)) & _MASK for i in range(64)]


class _Vec:
    __slots__ = ("n", "v")

    def __init__(self, n: int, v: int) -> None:
        if v >> n:
            raise ValueError("value wider than its length")
        self.n = n
        self.v = v


def reference_task() -> int:
    x = 0x2545F4914F6CDD1D8A5B2C3D4E5F6071
    table = {}
    for k in range(6):
        bits = 0
        for i, row in enumerate(_ROWS):
            bits |= ((row & x).bit_count() & 1) << i
            x = (x * 0x5851F42D4C957F2D + 0x14057B7EF767814F) & _MASK
        vec = _Vec(64, bits)
        table[(k, vec.v)] = vec
    return sum(v.v & 0xFFFF for v in table.values())


def measure() -> int:
    """Fastest of a few runs of the reference task, in ns."""
    best = None
    for _ in range(_REPEATS):
        start = time.perf_counter_ns()
        reference_task()
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class Speedometer:
    """Reference measurements over time; scales intervals to nominal speed.

    While ticking, SIGALRM measures the reference every INTERVAL_S, also in
    the middle of a unit; `paused_ns` sums the time those measurements took,
    so that a unit's timer can leave it out."""

    def __init__(self) -> None:
        self.times: list[int] = []
        self.refs: list[int] = []
        self.paused_ns = 0
        self._measuring = False

    def sample(self) -> None:
        if self._measuring:  # a tick that lands inside a measurement is dropped
            return
        self._measuring = True
        start = time.perf_counter_ns()
        self.refs.append(measure())
        self.times.append(start)
        self.paused_ns += time.perf_counter_ns() - start
        self._measuring = False

    def start_ticking(self) -> None:
        signal.signal(signal.SIGALRM, lambda _signum, _frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop_ticking(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start_ns: int, end_ns: int) -> float:
        """Mean of NOMINAL_NS / reference over the measurements taken during
        [start_ns, end_ns] and the nearest one on either side."""
        first = max(bisect.bisect_right(self.times, start_ns) - 1, 0)
        last = min(bisect.bisect_left(self.times, end_ns), len(self.times) - 1)
        return statistics.fmean(NOMINAL_NS / ref for ref in self.refs[first : last + 1])
