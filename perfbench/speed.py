"""Tracking how fast the CPU runs while the timed operations run.

On a small shared machine the same work can take twice as long from one
minute to the next, because other tenants load the physical cores.  While
a run measures, a timer interrupts the main thread every ``PERIOD_S`` and
runs a tiny fixed reference computation, recording the CPU time it took.
Each timed operation's wall time, less the time spent in those
interruptions, is then scaled by ``NOMINAL_S / mean reference time during
the operation``: the time the operation would have taken at the speed at
which the reference takes ``NOMINAL_S``.

The reference mixes the three kinds of work the program does (keyed
hashing, interpreted Python and numpy).  It calls nothing in ldphist, and
it must never change: changing it rescales every timed metric.
"""

from __future__ import annotations

import hashlib
import signal
import time

import numpy as np

NOMINAL_S = 0.001
PERIOD_S = 0.1

_KEY = bytes(range(32))
_DATA = np.random.default_rng(20150415).random(20_000)


def reference() -> None:
    """The fixed reference computation (about a millisecond)."""
    h = hashlib.blake2b(key=_KEY, digest_size=64)
    for i in range(400):
        part = h.copy()
        part.update(i.to_bytes(8, "little"))
        part.digest()
    acc, table = 0, {}
    for i in range(3_000):
        acc += i * i % 7
        table[i & 255] = acc
    np.sort(_DATA)


def reference_cpu_s() -> float:
    """CPU time of one run of the reference, outside a sampler."""
    cpu = time.thread_time()
    reference()
    return time.thread_time() - cpu


class SpeedSampler:
    """Runs the reference on a timer in the main thread while active,
    every ``period_s`` seconds.

    ``samples`` holds the CPU time and the wall time of each run of the
    reference.  CPU time is what scales the operations, so that time the
    main thread spends waiting for the service's client threads does not
    count as a slower machine; wall time is kept for the record.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame):
        wall, cpu = time.perf_counter(), time.thread_time()
        reference()
        self.samples.append((time.thread_time() - cpu, time.perf_counter() - wall))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> int:
        return len(self.samples)

    def since(self, mark: int) -> tuple:
        """(mean reference CPU time, mean reference wall time, total
        interruption time) of the samples taken since ``mark``; the means
        are None if there are none."""
        taken = self.samples[mark:]
        if not taken:
            return None, None, 0.0
        walls = [w for _, w in taken]
        return sum(c for c, _ in taken) / len(taken), sum(walls) / len(walls), sum(walls)

    def run_mean(self) -> float:
        """Mean reference CPU time over the whole run."""
        return sum(c for c, _ in self.samples) / len(self.samples)
