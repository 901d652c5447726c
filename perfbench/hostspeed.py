"""Host speed reference for normalising times.

The machine this benchmark was built on shares its cores with other
tenants, and its speed for single-threaded Python drifts by up to a third
over minutes: on 2 cores, one workload's raw wall time ranged from 5.7 s
to 8.7 s across 10 consecutive runs of nearly the same work.  A fixed pure-Python
kernel, run between jobs in the same process, slows down and speeds up
with it (it tracked a 27% speed change to within 5%).  The speed can
switch between a slow and a fast state several times within one round,
so a round is scaled by the mean of the kernel runs after each of its
jobs, which weights each state by the time spent in it.  Timings are
therefore reported at a reference speed:

    normalised = raw * REFERENCE_KERNEL_S / mean(kernel seconds near it)

The kernel touches no code of the program, so a change to the program
moves the normalised times exactly as it moves the raw ones.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from collections import deque

# typical kernel time on the machine the bounds were set on (2 shared cores)
REFERENCE_KERNEL_S = 0.006


class HostSpeed:
    def __init__(self) -> None:
        rng = random.Random(12345)
        n = 2000
        self._adj: list[list[int]] = [[] for _ in range(n)]
        for u in range(n):
            for _ in range(2):
                v = rng.randrange(n)
                self._adj[u].append(v)
                self._adj[v].append(u)
        self._keys = [(rng.randrange(n), rng.randrange(n)) for _ in range(3000)]
        self._big = rng.getrandbits(20000) | 1

    def sample(self) -> float:
        """Seconds of one kernel run: dict-and-deque BFS, tuple sort, big-int
        products.  The collector is off while it runs: its pauses scale with
        the program's live heap, not with the host's speed."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            return self._run()
        finally:
            if enabled:
                gc.enable()

    def _run(self) -> float:
        start = time.perf_counter()
        for root in (0, 500, 1000):
            dist = {root: 0}
            queue = deque([root])
            while queue:
                x = queue.popleft()
                d = dist[x] + 1
                for y in self._adj[x]:
                    if y not in dist:
                        dist[y] = d
                        queue.append(y)
        sorted(self._keys)
        square = self._big * self._big
        square * square
        return time.perf_counter() - start


def factor(samples: list[float]) -> float:
    """Multiply raw seconds by this to get seconds at the reference speed."""
    return REFERENCE_KERNEL_S / statistics.fmean(samples)
