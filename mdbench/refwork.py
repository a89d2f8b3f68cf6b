"""A fixed pure-Python task timed next to every command of an untraced run.

On a 2-vCPU shared virtual machine the host's speed drifts by 15-30% for
tens of seconds at a time, for every kind of work alike.  Timing this task
right before and right after each command, in the same process, and dividing
the command's time by the mean of the two takes most of that drift out: over
six 36 s runs of ``det-sparse`` the median solve time spread by 27% of its
median (interquartile range) in seconds and by 4% divided by this task.  The
task does the kinds of work the solvers do: dict and set building, a graph
search, ``Fraction`` sums and sorting.  It never changes with the package,
so a command that does more work still reads higher.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import deque
from fractions import Fraction

REPEATS = 5
# The task's median time on the 2-vCPU host the benchmark was sized on.
# ``setup_s`` is the set-up time scaled to a host this fast.
NOMINAL_S = 0.004

_rng = random.Random("mdbench-reference-task")
_NODES = 400
_PAIRS = [(_rng.randrange(_NODES), _rng.randrange(_NODES)) for _ in range(2000)]
_FRACTIONS = [Fraction(_rng.randint(0, 240), _rng.randint(1, 12)) for _ in range(200)]


def task() -> int:
    adjacency: dict[int, set[int]] = {}
    for a, b in _PAIRS:
        adjacency.setdefault(a, set()).add(b)
    reached = 0
    for start in range(0, _NODES, 40):
        seen = {start}
        queue = deque([start])
        while queue:
            for b in adjacency.get(queue.popleft(), ()):
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
        reached += len(seen)
    total = sum(_FRACTIONS, Fraction(0))
    ordered = sorted(_PAIRS, key=lambda p: (p[1], -p[0]))
    return reached + total.denominator + ordered[0][0]


def seconds() -> float:
    """Median wall time of ``REPEATS`` runs of the task."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        task()
        times.append(time.perf_counter() - started)
    return statistics.median(times)
