"""Lockstep multi-core co-simulation for multi-programmed mixes.

``run_mix`` gives each program its own :class:`Processor` — private
L1/LVC, ports, window, one captured trace — and attaches every
processor's miss path to one :class:`repro.mem.shared.SharedMemory`, the
L2 tags and L1/L2 bus the cores share.  It then steps the cores' kernels
(:meth:`Processor.cycles`, the specialized kernel by default, the
portable one under ``REPRO_PORTABLE_KERNEL=1``) on one global clock: at
each global cycle it resumes, in core order, every core due then.  A
core is due one cycle after the cycle its last resume yielded, so a
core whose cycle skip jumped ahead sleeps until its next event, and the
clock jumps to the earliest due core.  Each kernel is the one a solo run
drains, under its solo cycle limit, so a mix of **one** program is
bit-identical to a solo run of that program — the anchor the mix tests
pin.  With two or more programs the only coupling is the shared miss
path, which is where the interference counters (``mix.*``) come from.
"""

from __future__ import annotations

import gc
from typing import List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.core.config import MachineConfig
from repro.core.metrics import SimResult
from repro.core.processor import Processor
from repro.mem.shared import SharedMemory
from repro.vm.trace import DynInst


def run_mix(
    traces: Sequence[Tuple[str, Sequence[DynInst]]],
    config: MachineConfig,
) -> List[SimResult]:
    """Co-schedule *traces* on independent cores sharing L2 + bus.

    *traces* is a sequence of ``(program name, committed stream)``
    pairs, one core each.  Returns one :class:`SimResult` per program,
    in input order: ``cycles`` is the cycle its core finished (global
    clock — programs in a mix share time), counters are that core's own
    plus its ``mix.*`` interference counters.  A core that exceeds its
    cycle limit raises :class:`SimulationError` naming its program.
    """
    if not traces:
        raise SimulationError("a mix needs at least one trace")
    processors = [Processor(config) for _ in traces]
    shared = SharedMemory(config.mem, len(processors))
    for index, processor in enumerate(processors):
        shared.attach(processor.hierarchy, index)
    kernels = [processor.cycles(insts)
               for processor, (_name, insts) in zip(processors, traces)]

    results: List[Optional[SimResult]] = [None] * len(kernels)
    due = [1] * len(kernels)  # a fresh core's first cycle
    live = list(range(len(kernels)))
    # One pause for the whole mix: each kernel then finds GC disabled
    # and leaves it alone, so a core that finishes early cannot turn
    # it back on under the others.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        while live:
            now = min(due[i] for i in live)
            for i in live:
                if due[i] == now:
                    try:
                        due[i] = next(kernels[i]) + 1
                    except StopIteration:
                        results[i] = processors[i].result(traces[i][0])
            live = [i for i in live if results[i] is None]
    finally:
        # Runs every unfinished kernel's finally before an error leaves.
        for kernel in kernels:
            kernel.close()
        if gc_was_enabled:
            gc.enable()
    return results
