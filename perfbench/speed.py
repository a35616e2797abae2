"""Timing at a reference speed, for a machine whose speed keeps changing.

On a shared machine the same Python code runs up to a third slower or
faster from one second to the next, also in the middle of a ten-second
call. The clock therefore runs a small fixed reference task every PERIOD
seconds, from a timer signal, also while a call of hcs is running. A
call's wall time, less the time the samples took, is scaled by
REFERENCE_S over the mean reference time sampled during the call and
within WINDOW of it, so that figures read as if the reference always took
REFERENCE_S. The reference is breadth-first search over a fixed random
graph in plain Python, the kind of work the connectivity kernel does; it
does not touch hcs, so a change to hcs cannot move it.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from collections import deque
from time import perf_counter

PERIOD = 0.05
WINDOW = 0.1  # samples this close to a span count for it; speed decorrelates within ~0.5 s
REFERENCE_S = 0.0012


class Reference:
    """A seeded random graph and a timed breadth-first sweep over it."""

    def __init__(self, n: int = 400, m: int = 2400, sources: int = 8, seed: int = 5) -> None:
        rng = random.Random(seed)
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for _ in range(m):
            u, v = rng.randrange(n), rng.randrange(n)
            self.adj[u].append(v)
            self.adj[v].append(u)
        self.sources = range(0, n, n // sources)

    def seconds(self) -> float:
        """Wall time of one breadth-first search from each source."""
        adj, n = self.adj, len(self.adj)
        start = perf_counter()
        for source in self.sources:
            level = [-1] * n
            level[source] = 0
            queue = deque([source])
            while queue:
                u = queue.popleft()
                for w in adj[u]:
                    if level[w] < 0:
                        level[w] = level[u] + 1
                        queue.append(w)
        return perf_counter() - start


class Clock:
    """Samples the reference every PERIOD seconds while in a ``with`` block."""

    def __init__(self) -> None:
        self.reference = Reference()
        self.times: list[float] = []  # when each sample started
        self.samples: list[float] = []  # how long each sample took
        self.stolen = 0.0  # total time spent sampling
        self._busy = False
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = perf_counter()
            took = self.reference.seconds()
            self.times.append(start)
            self.samples.append(took)
            self.stolen += perf_counter() - start
        except RecursionError:  # the interrupted call sits at the recursion limit; skip
            pass
        finally:
            self._busy = False

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self._sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float]:
        return perf_counter(), self.stolen

    def since(self, mark: tuple[float, float]) -> tuple[float, float, float]:
        """(start, end, wall seconds less sampling) of the span from mark."""
        start, stolen = mark
        end = perf_counter()
        return start, end, end - start - (self.stolen - stolen)

    def scaled(self, start: float, end: float, wall: float) -> float:
        """wall seconds of the span [start, end] at the reference speed."""
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        window = self.samples[lo:hi] or self.samples[max(0, lo - 1):lo + 1]
        return wall * REFERENCE_S / statistics.fmean(window)
