"""Timing at a reference machine speed.

The benchmark's host changes speed by up to 2x within a minute (other
tenants share its cores), and process CPU time changes with it. So the
benchmark samples the machine's speed while it works and scales every
time it reports to a fixed reference speed.

While a SpeedClock is entered, a wall-clock timer runs a small fixed probe
every INTERVAL_S. The probe shares no code with the package, so a change to
the package moves the measured times but not the probe. Measured work is
grouped into slices that end when a probe has run; a slice's raw times,
less the time spent probing inside them, are multiplied by REFERENCE_S over
the mean of the probes taken in the slice and of the last probe before it.
A long operation is thus scaled by the speed sampled all through it, a
short one by the probes around its slice.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median of probe_s() on a 2-vCPU Intel Xeon VM at 2.0 GHz; on a machine
# running at that speed, scaled and raw times agree.
REFERENCE_S = 6.0e-4
# About 2% of the run goes to probing.
INTERVAL_S = 0.025

_RNG = np.random.default_rng(12345)
_MATRIX = np.eye(4) + 0.01 * _RNG.random((4, 4))
_VALUES = _RNG.random(64).tolist()


def probe_s() -> float:
    """Seconds taken by a fixed mix of small numpy calls and Python loops."""
    a, b = _MATRIX, np.ones(4)
    start = time.perf_counter()
    for _ in range(6):
        x = np.linalg.solve(a, b)
        np.argsort(a[0] * b)
        table = {}
        acc = 0.0
        for i, v in enumerate(_VALUES):
            acc += v * x[i % 4] if i % 3 else v / (1.0 + acc)
            table[(i, i % 5)] = acc
        sorted(table.items(), key=lambda kv: kv[1])
    return time.perf_counter() - start


class SpeedClock:
    """Measures calls in seconds at the reference speed.

    Use as a context manager; after it exits, `times` holds one (key,
    seconds) pair per measured call, in the order of the calls, and
    `factor` the ratio of their scaled to their raw total.
    """

    def __init__(self):
        self.times: list[tuple] = []
        self._raw_s = 0.0
        self._scaled_s = 0.0
        self._samples: list[float] = []
        self._probing_s = 0.0
        self._busy = False
        self._pending: list[tuple] = []  # (key, raw seconds) of the open slice
        self._slice_start = 0  # index of the first probe taken in the open slice
        self._old_handler = None

    def _sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        took = probe_s()
        self._samples.append(took)
        self._probing_s += took
        self._busy = False

    def __enter__(self) -> SpeedClock:
        self._sample()
        self._slice_start = len(self._samples)
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        if self._pending:
            self._sample()
            self._close_slice()

    @property
    def factor(self) -> float:
        return self._scaled_s / self._raw_s if self._raw_s else 1.0

    def measure(self, key, fn, *args):
        """Call fn(*args) and return its result; its time goes to `times` under key."""
        probing_before = self._probing_s
        start = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - start - (self._probing_s - probing_before)
        self._pending.append((key, raw))
        if len(self._samples) > self._slice_start:
            self._close_slice()
        return result

    def _close_slice(self) -> None:
        factor = REFERENCE_S / statistics.fmean(self._samples[self._slice_start - 1 :])
        for key, raw in self._pending:
            self.times.append((key, raw * factor))
            self._raw_s += raw
            self._scaled_s += raw * factor
        self._pending.clear()
        self._slice_start = len(self._samples)
