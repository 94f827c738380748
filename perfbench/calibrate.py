"""Machine-speed calibration for timings taken on a shared, drifting host.

A calibration chunk is a fixed piece of pure-Python and small-numpy work
(dict and set updates, tuple hashing, a blake2b digest, a few tiny array
operations), the same mix the stochmatch hot paths spend their time on.  It
never calls stochmatch.  Chunks run between the benchmark's units of work,
never inside a timed unit, and the first chunk of each group is not recorded,
so the caches the previous work left behind matter little.

On the shared 2-vCPU VM the benchmark was built on, neighbours' load slows
every piece of code by a factor that drifts between about 1.0 and 2.7 over
seconds to minutes.  The chunk's time, next to a unit of work, measures that
factor; dividing the unit's time by it gives the unit's time at reference
speed: the speed at which one chunk takes ``REFERENCE_S``.
"""

from __future__ import annotations

import hashlib
from time import perf_counter

import numpy as np

# Fastest time of one chunk seen on the reference machine (Intel Xeon 2-vCPU
# VM, Python 3.11, numpy 2.4), in seconds.
REFERENCE_S = 0.0012
# Chunk times taken into each speed estimate: the ones nearest to the unit.
NEAREST = 6


def chunk() -> int:
    table: dict = {}
    seen = set()
    for i in range(3000):
        key = (i, i % 7, "k")
        table[key] = hash(key) & 0xFFFF
        seen.add(table[key] % 1009)
    digest = hashlib.blake2b(b"calibration")
    for i in range(300):
        digest.update(i.to_bytes(4, "little"))
    a = np.arange(64.0)
    for _ in range(50):
        a = a * 0.5 + 1.0
    return len(seen) + int(a[0])


class Calibration:
    """Chunk times along a run, and the speed factor at any interval of it."""

    def __init__(self):
        self.mids: list[float] = []
        self.seconds: list[float] = []

    def run(self, chunks: int = 2):
        # The first chunk after other work runs with cold caches, which says
        # more about that work than about the machine: it is not recorded.
        chunk()
        for _ in range(chunks):
            start = perf_counter()
            chunk()
            took = perf_counter() - start
            self.mids.append(start + took / 2)
            self.seconds.append(took)

    def slowdown(self) -> float:
        """Slowdown against reference speed over all chunks run so far."""
        return float(np.median(self.seconds)) / REFERENCE_S

    def factors(self, starts, ends) -> np.ndarray:
        """Slowdown against reference speed over each interval [start, end]:
        the median of the ``NEAREST`` chunk times closest to it, over
        ``REFERENCE_S``."""
        mids = np.asarray(self.mids)
        secs = np.asarray(self.seconds)
        k = min(NEAREST, mids.size)
        out = np.empty(len(starts))
        for j, (start, end) in enumerate(zip(starts, ends)):
            dist = np.maximum(np.maximum(start - mids, mids - end), 0.0)
            near = np.argpartition(dist, k - 1)[:k]
            out[j] = np.median(secs[near]) / REFERENCE_S
        return out
