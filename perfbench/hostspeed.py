"""Host-speed scaling of measured times.

The machines this benchmark runs on are shared: over spells of a fraction of
a second to minutes the same code runs up to 2x slower, whatever the program
does, and a median over one run cannot average that away.  So every timed
interval of the end-to-end metrics is bracketed by one pass of a fixed
reference task, just before and just after it, and scaled by

    NOMINAL_S / mean(reference before, reference after)

A scaled time reads as seconds on a host where the reference takes
NOMINAL_S, about its time on an unloaded core of the reference machine.  The
reference mixes the kinds of work the program does: an interpreted loop,
numpy calls on arrays of tens of thousands of values, many numpy calls on
small arrays, and passes over an 8 MB array, the size of the selector's
(series x grid) working arrays on paper_detect, so that the reference meets
the same contention for caches and memory bandwidth as the program.  It is the benchmark's own code and never calls the program, so
a change to the program moves scaled times by the same share as wall times.
"""
from __future__ import annotations

import time
from typing import Callable

import numpy as np

NOMINAL_S = 0.018


class HostSpeed:
    """The reference task and its fixed inputs; import numpy only after pinning threads."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.vec = rng.random(20_000)
        self.mat = rng.random((200, 500))
        self.small = np.sort(self.vec[:1000])
        self.big = rng.random(1_000_000)
        self.big_out = np.empty_like(self.big)

    def reference_s(self) -> float:
        """Seconds taken by one pass of the reference task."""
        t0 = time.perf_counter()
        total = 0
        for i in range(75_000):
            total += i * i
        for _ in range(3):
            np.cumsum(np.sort(self.vec))
            (self.mat * self.mat).sum(axis=1)
            np.exp(-self.mat).mean(axis=0)
        for _ in range(40):
            np.searchsorted(self.small, self.vec[:500])
            float(np.maximum(self.vec[:300], 0.5).sum())
        np.multiply(self.big, self.big, out=self.big_out)
        self.big_out.sum()
        np.cumsum(self.big, out=self.big_out)
        return time.perf_counter() - t0

    def timed(self, fn: Callable, *args):
        """Run fn(*args) between two reference passes; return (result, wall s, scale)."""
        before = self.reference_s()
        t0 = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - t0
        return result, seconds, NOMINAL_S / ((before + self.reference_s()) / 2.0)
