"""Machine-speed probe, for throughput at a fixed machine speed.

On a shared 2-vCPU KVM guest (Xeon, Sapphire Rapids) the same code runs
up to 1.6x slower for seconds at a time, because of load outside the
guest.  A probe -- a fixed mix of an interpreted Python loop,
small-array numpy calls and a small float32 matrix multiply, the three
kinds of work the library does -- is timed between units of timed work.
A phase's throughput is scaled by how much slower than ``REFERENCE_S``
its probes ran, which gives samples per second at the machine's fast
speed.  Probe time is kept out of the timed work.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.0085   # probe seconds on that 2-vCPU Xeon guest at its fast speed
MIN_GAP_S = 0.05       # least work between probes, so probing costs at most ~15%

_RNG = np.random.default_rng(0)
_KEYS = _RNG.integers(0, 1 << 40, 2000)
_A = _RNG.standard_normal((96, 96)).astype(np.float32)


def probe() -> float:
    """Seconds for one run of the fixed mix (about 9 ms)."""
    t = time.perf_counter()
    x = 0
    for j in range(20000):
        x += j
    for _ in range(12):
        s = np.sort(_KEYS)
        np.unique(_KEYS)
        np.searchsorted(s, _KEYS)
    for _ in range(10):
        _A @ _A
    return time.perf_counter() - t


def warm_up():
    """Run the probe until its first-call costs are paid; the first runs in
    a process take up to 3x longer."""
    for _ in range(5):
        probe()


class Meter:
    """Probe samples taken between units of one phase's timed work."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.last = float("-inf")

    def tick(self, *_, force: bool = False):
        """Probe, unless less than ``MIN_GAP_S`` of work ran since the last probe."""
        t = time.perf_counter()
        if force or t - self.last >= MIN_GAP_S:
            self.samples.append(probe())
            self.last = time.perf_counter()
            self.spent += self.last - t

    def slowdown(self) -> float:
        """How much slower than ``REFERENCE_S`` the probes ran, on average."""
        return statistics.fmean(self.samples) / REFERENCE_S
