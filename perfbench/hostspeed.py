"""A fixed host-speed probe, for correcting timings for the host's drift.

The host this benchmark was built on changes speed on its own, by up to
1.8x within minutes (see README.md, *Host spread*), and the change hits pure
Python and NumPy code alike.  A run therefore also times a fixed mix of
both, a few times at each boundary between its timed intervals, and scales
its timings by ``REFERENCE_S / median(probe times)``.  The end-to-end
timings then read as they would on a host where the probe takes
``REFERENCE_S``, and the raw timings are printed next to them.

The probe is the benchmark's own code and never calls the library, so a
change to the library cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe time that defines the reference host speed.
REFERENCE_S = 0.15
#: Probes per boundary between timed intervals.
PROBES_PER_BOUNDARY = 2


class HostProbe:
    """Times one fixed unit of mixed Python and NumPy work, repeatedly.

    The arrays are small (3 MiB) and made once, so a probe neither page-faults
    fresh memory (which would make it depend on the process's memory state)
    nor raises the resident high-water mark of a run.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._keys = rng.integers(0, 1 << 40, size=1 << 17)
        self._perm = rng.permutation(1 << 18)
        self.times = []

    def __call__(self) -> None:
        for _ in range(PROBES_PER_BOUNDARY):
            self.times.append(self._once())

    def _once(self) -> float:
        started = time.perf_counter()
        perm = self._perm
        for _ in range(12):
            np.sort(self._keys)
            np.bincount(perm[perm & 1023 == 7] & 65535)
            perm[perm].sum()
        table = {}
        for i in range(200_000):
            key = (i * 2654435761) & 8191
            table[key] = table.get(key, 0) + 1
        seen = set()
        for v in range(200_000):
            if v % 3:
                seen.add(v)
        return time.perf_counter() - started

    def speed(self) -> float:
        """Host speed over the run relative to the reference (>1 is faster)."""
        return REFERENCE_S / statistics.median(self.times)
