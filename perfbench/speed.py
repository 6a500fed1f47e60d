"""Host speed probe: times reported at a fixed reference speed.

The shared VMs this benchmark runs on change speed by themselves: a
fixed pure-Python loop, timed over and over in one process, took 40%
longer at the end of a minute than at its start, with CPU time equal to
wall time.  Every op of a run would move with it, so the end-to-end
timings would spread across runs by as much as the host does.

The benchmark therefore times a fixed piece of pure-Python work, the
probe, after each op and each set-up step, outside their clocks, and
scales the run's measured times by ``(REF_PROBE_NS / probe time) **
SENSITIVITY``, with the mean of the run's probes.  The result
estimates the run's times on a host where the probe takes
``REF_PROBE_NS``: a change to the program moves it, a change in the
host's speed largely does not.  The probe's work resembles the
simulator's inner loops (slotted-object attributes, list indexing over
about 1 MB of objects, dict counts, small tuples) and uses nothing from
``repro``, so no change to the program can change it.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter_ns
from typing import List

#: The probe's time on the reference host (a 2-vCPU x86-64 VM in a calm
#: period, median of its probes); scaled times are what an op would
#: take there.
REF_PROBE_NS = 1_700_000

#: How closely op times follow the probe: ops slow by the probe's
#: slowdown to this power.  When the host went from a calm to a slow
#: period, the probe's typical time went from 1.70 to 3.9-4.7 ms (2.3x to 2.7x)
#: and the three workloads' measured throughput fell 2.0-2.2x: 0.79 to
#: 0.82 as a power.  Scaling by the full ratio read the slow period's
#: timings 8-18% faster than the calm period's.
SENSITIVITY = 0.8

#: Timings per probe; the probe reports their median.
PROBE_REPEATS = 5


class _Cell:
    __slots__ = ("index", "value")

    def __init__(self, index: int):
        self.index = index
        self.value = 0


#: The probe's working set, built once: about 1 MB of objects.
_CELLS = [_Cell(i) for i in range(1 << 14)]


def _work(steps: int = 6000) -> int:
    """The same work on every call: each step touches another cell, and
    every branch depends only on the step and the cell's index."""
    cells = _CELLS
    mask = len(cells) - 1
    table = {}
    queue: List[tuple] = []
    acc = 0
    for i in range(steps):
        cell = cells[(i * 40503) & mask]
        value = (cell.index * 7 + i * 2654435761) & 0xFFFFFFFF
        cell.value = value
        key = value & 1023
        table[key] = table.get(key, 0) + 1
        if value & 4:
            queue.append((key, i))
            acc += key
        elif queue:
            acc ^= queue.pop()[0]
    return acc


def probe_ns() -> int:
    """Median time of ``PROBE_REPEATS`` runs of the probe's work.

    One untimed run goes first: the op before the probe has pushed the
    probe's working set out of the caches, and that first run took 1.6x
    as long as the rest.  The garbage collector is off while the probe
    runs, so its time does not depend on how large the workload's heap
    has grown.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        for _ in range(PROBE_REPEATS):
            start = perf_counter_ns()
            _work()
            times.append(perf_counter_ns() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def factor(probe: float) -> float:
    """What a time measured while the probe took *probe* ns is
    multiplied by to give the time at the reference speed."""
    return (REF_PROBE_NS / probe) ** SENSITIVITY
