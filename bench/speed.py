"""Machine-speed reference for the benchmark's time metrics.

The benchmark shares a few cores of a host whose speed drifts by up to a
factor of two over minutes, as neighbours come and go; a time measured in
one run then says as much about the host as about `groupca`.  `probe()` runs
a fixed amount of work written here (it does not touch `groupca`) whose mix
resembles the program's inner loops: integer arithmetic, tuples built and
looked up in sets and dicts, and `Fraction` sums.  Timing it next to the jobs
tracks the host's speed at that moment, and the time metrics are reported as
`seconds * REFERENCE_S / probe seconds`, with the probe time the mean of the
probes just before and just after: seconds on a host running at the
reference speed.  A change to `groupca` moves the jobs and not the probe.
The host's CPUs drift apart as well, so the process and its children are
pinned to one CPU, and a probe in this process tracks a CLI child too.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

# The probe's duration at a typical moment on a 2-core shared x86-64 host
# (CPython 3.11), so that reported values stay close to raw seconds there.
REFERENCE_S = 0.028


def _work() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    gens = ((1, 2, 0), (0, 1, 2), (2, 0, 1))
    seen = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % 11 for a, b in zip(x, g))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    counts: dict = {}
    for i in range(30_000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(1, i)
    return total + len(seen) + len(counts) + acc.denominator % 7


def probe() -> float:
    """Seconds one fixed unit of reference work takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two probes, taking
    `before` and `after` seconds, into seconds at the reference speed."""
    return 2 * REFERENCE_S / (before + after)


def pin() -> None:
    """Keep this process, and the children it starts from now on, on one of
    the CPUs it may use, so that the probes measure the CPU the jobs run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
