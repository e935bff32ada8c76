"""Host-speed probe: a fixed reference loop, timed again and again while a pass runs.

The benchmark runs on a share of a machine that other jobs load too, and the
speed it gets drifts by a third within minutes, in CPU time as much as in
wall time, so raw pass times of the same code differ by more than a change
worth measuring. The probe times a reference loop (complex ``exp`` and ``log``
over 4096 points with numpy; no siegel3 code) at the start and end of a pass
and, on a wall-clock timer, every ``INTERVAL_S`` in between. A pass's
normalised time is its raw time (the probe's own time left out) times the
mean of ``REF_SAMPLE_S / sample``: the seconds the pass would take on this
host running at the reference speed. A change to siegel3 moves the raw time
and leaves the samples alone, so it moves the normalised time by the same
share.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.1
# Median time of one sample on the host that defined the benchmark (2-vCPU
# Intel Xeon, numpy 2.4); it only sets the scale of normalised times.
REF_SAMPLE_S = 3.2e-3
_POINTS = np.linspace(0.1, 1.0, 4096) + 0.3j


def reference_loop():
    for _ in range(4):
        np.exp(np.log(_POINTS) * 1.5).sum()


class SpeedProbe:
    """Samples the reference loop while a pass runs.

    ``start`` and ``stop`` each take a sample; with ``timer`` set, SIGALRM
    takes one every ``INTERVAL_S`` of wall time in between. Each sample is
    kept as (start time, duration).
    """

    def __init__(self, timer=True):
        self.timer = timer
        self.samples = []
        self._busy = False
        self._previous = None

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        reference_loop()
        self.samples.append((t0, perf_counter() - t0))
        self._busy = False

    def start(self):
        self._sample()
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def spent_between(self, t0, t1):
        """Time the samples that started within [t0, t1] took."""
        return sum(dt for start, dt in self.samples if t0 <= start <= t1)

    def speed_factor(self):
        """Mean of REF_SAMPLE_S / sample: above 1 when the host ran fast."""
        return sum(REF_SAMPLE_S / dt for _, dt in self.samples) / len(self.samples)
