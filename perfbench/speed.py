"""Machine-speed probe.

The machines this benchmark runs on are shared: the same CPU-bound Python
code runs up to 1.7x slower for stretches of 10-30 seconds, and that noise
swamps any change worth measuring.  ``probe`` times a fixed piece of pure
Python integer work of the same kind the program does (fraction-free row
elimination and denominator clearing on small integer matrices) and shares
no code with the program.  The benchmark runs it before and after every op,
and through ``Sampler`` during it, and scales the op's time to a machine on
which the probe takes exactly ``PROBE_REF_S``:

    scaled time = measured time * PROBE_REF_S / mean(probes before, during, after)

so a slow stretch of the machine cancels out while a change in the program
does not.  Garbage collection is off during the probe, so the program's heap
size does not leak into it.
"""

from __future__ import annotations

import gc
import random
import signal
from fractions import Fraction
from math import gcd
from time import perf_counter

PROBE_REF_S = 0.001

# Fixed integer matrices; the probe eliminates them the way the program's
# kernel does (fraction-free, exact division) and clears the denominators of
# the last row.
_RNG = random.Random(20060101)
_MATRICES = [[[_RNG.randint(-31, 31) for _ in range(12)] for _ in range(10)] for _ in range(6)]


def probe() -> float:
    """Seconds taken by the fixed reference work (about 1 ms)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for rows in _MATRICES:
            m = [list(r) for r in rows]
            prev = 1
            for c in range(len(m)):
                p = m[c][c] or 1
                for i in range(c + 1, len(m)):
                    q = m[i][c]
                    m[i] = [(p * a - q * b) // prev for a, b in zip(m[i], m[c])]
                prev = p
            lcm = 1
            for x in m[-1]:
                den = Fraction(x, prev).denominator
                lcm = lcm // gcd(lcm, den) * den
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(*probes: float) -> float:
    """Factor that maps a time measured among these probes to the reference machine."""
    return PROBE_REF_S * len(probes) / sum(probes)


class Sampler:
    """Probes the machine's speed every ``INTERVAL_S`` while an op runs.

    An op of several seconds outlasts the machine's fast and slow stretches,
    so the probes around it alone do not say how fast the machine ran during
    it.  Between ``start`` and ``stop`` a SIGALRM timer runs ``probe`` inside
    the op; ``stolen`` is the time those probes took, which the caller
    subtracts from the op's measured time.
    """

    INTERVAL_S = 0.25

    def __init__(self):
        self.samples = []
        self.stolen = 0.0

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(probe())
        self.stolen += perf_counter() - t0

    def start(self):
        self.samples = []
        self.stolen = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
