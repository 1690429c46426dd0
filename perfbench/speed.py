"""Machine-speed calibration for a shared, noisy host.

On a machine shared with other tenants, CPU-bound Python runs up to 1.6x
slower for stretches from seconds to minutes, and the slowdown reaches CPU
time as well as wall time.  A run therefore times a fixed interpreter loop
every CALIBRATE_EVERY seconds between ops.  Each op's time is scaled by
REFERENCE_S over the mean loop time in the second around the op, so times
read as they would on this machine at the reference speed.
"""

from __future__ import annotations

import bisect
import time

CALIBRATE_EVERY = 0.05  # seconds between calibration samples
REFERENCE_S = 0.002     # the loop's time at the reference speed
WINDOW_S = 0.5          # samples this close to an op set its scale


def _loop():
    d, s = {}, 0
    for i in range(20_000):
        s += (i * i) % 7
        d[i & 63] = s
    return s


class SpeedLog:
    """Calibration samples: (midpoint, loop time), in time order."""

    def __init__(self):
        self.at, self.took = [], []
        self.last = float("-inf")

    def sample(self):
        t0 = time.perf_counter()
        _loop()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.last = t1

    def maybe_sample(self):
        if time.perf_counter() - self.last >= CALIBRATE_EVERY:
            self.sample()

    def scale(self, start, end):
        """REFERENCE_S over the mean loop time near [start, end]."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        near = self.took[lo:hi] or self.took
        return REFERENCE_S * len(near) / sum(near)
