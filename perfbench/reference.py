"""A fixed reference kernel, timed next to every timed `reduce` call.

On a shared virtual machine the same code runs up to 2x slower for
minutes at a time, and the slowdown is on-CPU time, not time spent waiting
for a CPU, so no clock of the process leaves it out.  A call's time divided
by the mean time of a fixed piece of work run just before and just after
it cancels most of that slowdown.  The kernel does the kinds of work `reduce` does: Pauli-
product style dict accumulation in pure Python, and small dense numpy
linear algebra.  It never changes with the program, so a change to
fermiperm moves only the numerator.
"""

from __future__ import annotations

import gc
import random
import time

import numpy


class ReferenceKernel:
    """Fixed inputs, built once; ``seconds()`` times one run of the kernel."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self.terms = [
            (rng.getrandbits(12), rng.getrandbits(12), complex(rng.random(), rng.random()))
            for _ in range(300)
        ]
        m = numpy.random.default_rng(0).standard_normal((160, 160))
        self.matrix = m + m.T

    def _python(self) -> dict:
        acc: dict = {}
        for x1, z1, c1 in self.terms:
            for x2, z2, c2 in self.terms:
                key = (x1 ^ x2, z1 ^ z2)
                acc[key] = acc.get(key, 0) + c1 * c2 * 1j ** (bin(x1 & z2).count("1") & 3)
        return acc

    def _numpy(self) -> float:
        total = 0.0
        for _ in range(24):
            total += numpy.linalg.eigh(self.matrix)[0][-1]
        v = numpy.arange(1 << 14, dtype=complex)
        for _ in range(40):
            v = v.reshape(-1, 2, 1 << 6)
            v = numpy.concatenate([v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]], axis=1).ravel()
        return total + abs(v[1])

    def seconds(self) -> float:
        gc.collect()
        start = time.perf_counter()
        self._python()
        self._numpy()
        return time.perf_counter() - start
