"""Wall time rescaled to a fixed host speed.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over seconds to minutes, as other tenants load the physical cores.
A run cannot outlast those swings, so raw wall times of two runs of the same
code can differ by 30%. The drift hits any code running at that moment
alike: a fixed probe kernel timed right next to a clear slows down by about
the same factor. Across 25 s windows, the quartile spread of clear time over
adjacent probe time was 0.7%, against 23% for the clear time alone.

So while a workload runs, a timer signal interrupts it every PERIOD_S and
times the probe kernel, a fixed numpy loop over 31x31 arrays that shares no
code with peermarket. A wall-time interval is then converted piece by piece:
the time between two probes counts REFERENCE_S / (probe time nearby), and
the probes' own time is left out. The result estimates what the interval
would take on a host where the probe takes REFERENCE_S, roughly an idle
core of the 2-core VM the benchmark was tuned on.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05       # one probe every 50 ms, about 2% of the run
REFERENCE_S = 5e-4    # probe time that counts as full speed
SMOOTHING = 5         # probes whose median gives the speed around a gap

_rng = np.random.default_rng(0)
_VALUES = _rng.random((31, 31))
_MASK = _VALUES > 0.3


def probe_kernel():
    """A fixed mix of the small masked numpy operations the engine uses."""
    x, y = _VALUES, np.zeros_like(_VALUES)
    for k in range(1, 25):
        w = np.where(_MASK, np.abs(y) + k ** -0.5, 0.0)
        w = w / w.sum(axis=1, keepdims=True)
        y = np.where(_MASK, np.maximum(0.0, y + w * (x - y.sum(axis=1)[:, None])), 0.0)
        y = 0.5 * (y - y.T)
    return y


class HostSpeed:
    """Probe samples taken during ``sampling()`` and the conversion of
    intervals inside it."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self._factors = None

    def _probe(self, signum, frame):
        start = time.perf_counter()
        probe_kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._factors = None

    def factors(self):
        """REFERENCE_S over the running median of probe times."""
        if self._factors is None:
            durations = [e - s for s, e in zip(self.starts, self.ends)]
            half = SMOOTHING // 2
            self._factors = [
                REFERENCE_S / statistics.median(durations[max(0, j - half):j + half + 1])
                for j in range(len(durations))]
        return self._factors

    def seconds(self, start, end):
        """Reference-speed seconds of the wall interval [start, end]."""
        factors = self.factors()
        if not factors:
            raise RuntimeError("no host-speed probe ran during the measurement")
        total = 0.0
        # gap j runs from the end of probe j-1 to the start of probe j; the
        # gap before the first probe borrows its factor
        for j in range(bisect.bisect_right(self.ends, start), len(factors) + 1):
            gap_start = self.ends[j - 1] if j > 0 else float("-inf")
            gap_end = self.starts[j] if j < len(factors) else float("inf")
            if gap_start >= end:
                break
            overlap = min(end, gap_end) - max(start, gap_start)
            if overlap > 0:
                total += overlap * factors[max(j - 1, 0)]
        return total
