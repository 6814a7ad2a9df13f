"""Machine-speed probe: wall-clock intervals expressed in reference seconds.

On a shared host the processor's speed drifts while the program stays the
same: on the 2-core VM the baseline was recorded on, a fixed loop took
between 52 and 104 ms per 5-second window within one minute, and raw
per-run medians of a workload moved by 35% from run to run.  That swamps a
regression bound of a few tens of percent.

So a fixed piece of work that uses none of the library is timed between
conversions, at least every PROBE_INTERVAL_S.  An interval's reference
duration integrates REFERENCE_PROBE_S / probe_time(t) over it, with the
probe time averaged over SMOOTH_S around each sample and interpolated
linearly between samples: a machine that runs the probe in exactly
REFERENCE_PROBE_S leaves wall time unchanged.  Probe runs are not part of any
measured interval.  Being independent of the library, the probe cannot hide
a change in the library's speed.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

perf = time.perf_counter

PROBE_INTERVAL_S = 0.2
# Probe times are averaged over this many seconds on either side: a
# conversion lasts up to a second, and one probe sample is itself noisy.
SMOOTH_S = 1.0
# The probe's median time on the VM the baseline was recorded on, so that
# reference seconds read close to wall seconds there.
REFERENCE_PROBE_S = 0.004

_P = 2013265921
_ARRAY_LEN = 1 << 14


class SpeedClock:
    """Probe samples, and the conversion of wall intervals to reference time."""

    def __init__(self):
        self._perm = np.random.default_rng(0).permutation(_ARRAY_LEN)
        self._times = []       # probe midpoints, increasing
        self._secs = []        # probe durations
        self._smooth = []      # probe durations averaged over +-SMOOTH_S
        self.excluded = []     # wall intervals that belong to no measurement

    def _work(self):
        """Interpreter work (list building, integer arithmetic) and array
        work (gathers, modular products, reshapes) in about equal parts, the
        mix of the library's schoolbook and transform kernels.  A probe with
        a working set of a few MB tracked the transform-heavy workload worse
        than this cache-sized one."""
        xs = list(range(1, 1501))
        acc = 0
        for _ in range(4):
            xs = [x * 48271 % _P for x in xs]
            for x in xs:
                acc = (acc + x * x) % _P
        a = np.arange(1, _ARRAY_LEN + 1, dtype=np.int64)
        for _ in range(12):
            a = a[self._perm] * 48271 % _P
            b = a.reshape(-1, 64)
            a = ((b[:, :32] + b[:, 32:]) % _P).repeat(2, axis=1).reshape(-1)
        return acc + int(a[0])

    def probe(self):
        t0 = perf()
        self._work()
        t1 = perf()
        self._times.append((t0 + t1) / 2)
        self._secs.append(t1 - t0)
        self.excluded.append((t0, t1))

    def maybe_probe(self):
        if not self._times or perf() - self._times[-1] >= PROBE_INTERVAL_S:
            self.probe()

    def _smoothed(self):
        ts, ds = self._times, self._secs
        if len(self._smooth) != len(ts):
            self._smooth = []
            for t in ts:
                near = ds[bisect.bisect_left(ts, t - SMOOTH_S):bisect.bisect_right(ts, t + SMOOTH_S)]
                self._smooth.append(sum(near) / len(near))
        return self._smooth

    def _probe_at(self, t):
        ts, ds = self._times, self._smoothed()
        i = bisect.bisect_left(ts, t)
        if i == 0:
            return ds[0]
        if i == len(ts):
            return ds[-1]
        w = (t - ts[i - 1]) / (ts[i] - ts[i - 1])
        return ds[i - 1] + w * (ds[i] - ds[i - 1])

    def scaled(self, a, b):
        """Reference seconds of the wall interval [a, b]."""
        ts = self._times
        cuts = [a, *ts[bisect.bisect_right(ts, a):bisect.bisect_left(ts, b)], b]
        return sum(
            (hi - lo) * REFERENCE_PROBE_S / self._probe_at((lo + hi) / 2)
            for lo, hi in zip(cuts, cuts[1:])
        )

    def net(self, a, b, scale=True):
        """Seconds of [a, b] without the excluded intervals inside it,
        in reference time, or in wall time with scale=False."""
        inside = [(x, y) for x, y in self.excluded if a <= x and y <= b]
        if not scale:
            return (b - a) - sum(y - x for x, y in inside)
        return self.scaled(a, b) - sum(self.scaled(x, y) for x, y in inside)
