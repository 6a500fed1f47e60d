"""The cycle-stepped out-of-order processor model.

This is the reproduction of the paper's simulator: a 16-issue RUU/ROB
machine (derived conceptually from SimpleScalar's sim-outorder) with a
conventional LSQ + L1 path and — when configured — the decoupled
LVAQ + LVC path with fast data forwarding and access combining.  The
frontend and the first-level port arbiters are pluggable policies
(``perfect``/``gshare``, ``ideal``/``finite``/…); the defaults model the
paper's machine (perfect front end, ideal per-cycle port budgets —
Section 3.1).

Stage order within a cycle (processed so results flow forward):

1. **commit** — retire completed instructions in order; stores write their
   cache (consuming a port) at commit.
2. **writeback** — completions scheduled for this cycle wake dependents.
3. **memory** — loads with known addresses access their cache or forward
   from an earlier store in their queue; fast forwarding matches
   sp-relative pairs before address generation; access combining merges
   same-line LVAQ references into one port transaction.
4. **issue** — ready instructions grab issue slots and functional units
   (memory ops issue their address generation here).
5. **dispatch** — decode up to ``issue_width`` instructions from the
   committed stream into the ROB and the memory queues, steering each
   memory reference to the LSQ or LVAQ (stream partitioning), gated by
   the frontend policy.

Because the simulated stream is the committed dynamic stream, frontend
effects (branch mispredicts, I-cache misses) are timing-independent
given the stream: the ``gshare`` policy pre-computes them once and the
dispatch stage charges the bubbles (see ``repro.core.frontend``).  Under
the default ``perfect`` policy there is no wrong-path work and trace
timing is exactly execution-driven timing.

Implementation notes
--------------------

This is the hot loop of every experiment, so it is written for speed
while staying **bit-identical** — same cycle counts, same counter
values — to the straightforward model it replaced (kept verbatim as
``repro.perf.reference.ReferenceProcessor`` and enforced by the golden
equivalence suite in ``tests/perf``).

The stage logic lives in :mod:`repro.core.stages`: one component per
stage, each a ``bind(state)`` factory closing over the shared
:class:`~repro.core.stages.state.CoreState` and returning ``(tick,
finish)``.  The kernel steps cycles, running each tick behind a guard
that is provably a no-op check (an empty calendar slot cannot wake
anyone, a non-COMPLETED ROB head cannot commit, …), so quiet stages
cost one truth test per cycle.  Two compositions of the same stage
sources exist: the default **specialized** kernel splices the tick
bodies into one generated function (:mod:`repro.core.stages.compose`)
and folds the machine's configuration into it
(:mod:`repro.core.stages.specialize`), and the **portable** kernel
(``REPRO_PORTABLE_KERNEL=1``) calls the bound closures per tick; tests
pin them bit-identical.  Both are generators that yield once per loop
iteration (:meth:`Processor.cycles`): :meth:`Processor.run` drains one,
and :func:`repro.core.multicore.run_mix` steps one per core of a mix on
a shared clock, so solo runs and mixes share one cycle loop.
The performance tricks the components inherit from the fused-loop
ancestor — the 256-slot calendar ring, the two seq-ordered issue lanes,
the ROB free list, simple port arbiters and ALU pools as local integer
budgets, counters as plain ints folded once at the end, the cycle skip
to the next scheduled event, GC paused for the run — are documented in
``docs/perf.md``; the stage interface contracts and state-ownership map
are in ``docs/timing_model.md``.
"""

from __future__ import annotations

import gc
import os
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.isa.opcodes import FuClass, LATENCY_BY_INT
from repro.core.classify import StreamPartitioner
from repro.core.config import MachineConfig
from repro.core.frontend import make_frontend
from repro.core.metrics import SimResult
from repro.core.stages import commit as commit_stage
from repro.core.stages import dispatch as dispatch_stage
from repro.core.stages import issue as issue_stage
from repro.core.stages import memory as memory_stage
from repro.core.stages import writeback as writeback_stage
from repro.core.stages.state import CoreState, MASK, RING
from repro.mem.system import MemorySystem
from repro.pipeline.fu import FuPool
from repro.pipeline.memqueue import INF_SEQ
from repro.pipeline.rob import Rob, RobEntry
from repro.stats.counters import CounterSet
from repro.vm.trace import DynInst


class Processor:
    """One simulated machine instance; reusable across runs is NOT supported
    — construct a fresh Processor per workload run."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self.counters = CounterSet()
        self.memsys = MemorySystem(config.mem, config.lsq_size,
                                   config.lvaq_size, self.counters)
        # Aliases into the facade, bound once (hot paths and the many
        # existing callers address these directly).
        self.hierarchy = self.memsys.hierarchy
        self.lsq = self.memsys.lsq
        self.lvaq = self.memsys.lvaq
        self.rob = Rob(config.rob_size)
        self.fus = FuPool(config.ialu_units, config.falu_units,
                          config.imultdiv_units, config.fmultdiv_units)
        self.partitioner = StreamPartitioner(
            config.decoupled, config.decouple.predictor
        )
        self.frontend = make_frontend(config.frontend)
        self.now = 0
        # Completion calendar: ring for near events, dict for far ones.
        self._ring: List[Optional[List[RobEntry]]] = [None] * RING
        self._overflow: Dict[int, List[RobEntry]] = {}
        # The issuable set is two seq-ordered lanes merged at issue time:
        # dispatch-ready entries arrive in seq order and ride a plain FIFO
        # (no tuple, no heap op); entries woken later by writeback arrive
        # out of order and go through a (seq, entry) heap.
        self._ready_fifo: "deque[RobEntry]" = deque()
        self._issuable: List[Tuple[int, RobEntry]] = []
        self._producer: List[Optional[RobEntry]] = [None] * 64
        self._seq = 0
        self._committed = 0
        self._rob_entries = self.rob.entries
        self._rob_size = config.rob_size
        # Left by the kernel as it stops: (total, dispatch index,
        # finish() shares, cycle limit exceeded, skipped rob-full
        # stalls), read by result().
        self._outcome = None

    # ------------------------------------------------------------------ run

    def run(self, insts: Sequence[DynInst],
            workload_name: str = "<trace>") -> SimResult:
        """Simulate the dynamic stream to completion and return the result.

        Drains :meth:`cycles` without running any Python code per cycle,
        then builds the result through :meth:`result`.
        """
        deque(self.cycles(insts), maxlen=0)
        return self.result(workload_name)

    def cycles(self, insts: Sequence[DynInst]):
        """The kernel for *insts*, as a generator not yet started.

        Binds the five stage components to a fresh :class:`CoreState`
        and picks one of two composition modes of the *same* stage
        sources:

        - the **specialized** kernel (default): the stage tick bodies
          spliced into one generated function
          (:mod:`repro.core.stages.compose`) with this config's
          scalars constant-folded in and dead policy arms deleted,
          compiled once per machine description and kept warm for the
          life of the process (:mod:`repro.core.stages.specialize`) —
          one frame, no per-tick call overhead;
        - the **portable** kernel (``REPRO_PORTABLE_KERNEL=1``): plain
          closure calls per tick, the shape the stage interface
          contract is written against, kept as the readable
          reference (``tests/core/test_kernel_compose.py`` and
          ``tests/core/test_kernel_specialize.py`` pin the two
          bit-identical).

        Each resume simulates one cycle, or one cycle skip, and yields
        the last cycle simulated (``target - 1`` after a skip to
        ``target``), so the next resume is due one cycle later.  When
        the generator stops, :meth:`result` reads its outcome.
        """
        state = CoreState(self, insts)
        if os.environ.get("REPRO_PORTABLE_KERNEL", "") not in ("", "0"):
            return self._portable_kernel(state)
        from repro.core.stages.specialize import kernel_for
        return kernel_for(self, state)(self, state)

    def result(self, workload_name: str) -> SimResult:
        """The stopped kernel's outcome as a :class:`SimResult`.

        Raises :class:`SimulationError` with the livelock report when the
        kernel stopped at its cycle limit; otherwise folds the kernel's
        shares and the skip's stalls into the counters.
        """
        total, index, shares, exceeded, n_skip_rob_full = self._outcome
        if exceeded:
            report = self._livelock_report(total * 80 + 1000, total, index)
            raise SimulationError(f"{workload_name}: {report}")
        counters = self.counters
        if n_skip_rob_full:
            shares["stall.rob_full"] = (
                shares.get("stall.rob_full", 0) + n_skip_rob_full)
        for name, value in shares.items():
            if value:
                counters.add(name, value)
        conflict_stalls = self.memsys.conflict_stalls()
        if conflict_stalls:
            counters.add("ports.conflict_stalls", conflict_stalls)
        counters.set("cycles", self.now)
        counters.set("instructions", total)
        return SimResult(self.config.notation(), workload_name,
                         self.now, total, counters)

    def _portable_kernel(self, state: CoreState):
        """The call-composed kernel loop, a generator like the fused one.

        Steps cycles calling each stage's bound tick behind its
        activity guard, with the per-cycle scalars (port budgets, ROB
        occupancy, dispatch index, unserviced-load counts) owned here
        and threaded through tick arguments/returns.  Yields as
        :meth:`cycles` describes; on stopping, leaves the kernel
        scalars and the merged finish() shares in ``self._outcome``
        for :meth:`result`.
        """
        total = state.total
        index = 0
        limit = total * 80 + 1000
        commit_tick, commit_finish = commit_stage.bind(state)
        writeback_tick, writeback_finish = writeback_stage.bind(state)
        memory_tick, memory_finish = memory_stage.bind(state)
        issue_tick, issue_finish = issue_stage.bind(state)
        dispatch_tick, dispatch_finish = dispatch_stage.bind(state)

        rob_entries = state.rob_entries
        rob_count = len(rob_entries)
        rob_size = state.rob_size
        ready_fifo = state.ready_fifo
        woken = state.woken
        sleep = state.sleep
        store_done = state.store_done
        ring = state.ring
        overflow = state.overflow

        lsq = self.lsq
        lvaq = self.lvaq
        lsq_unserviced = lsq.unserviced_loads
        lvaq_unserviced = lvaq.unserviced_loads

        # Simple arbiters (the exact PortArbiter type) are pure per-cycle
        # budgets tracked as kernel-local integers and written back at
        # the end; contended policies keep their method calls.
        l1_simple = state.l1_simple
        lvc_simple = state.lvc_simple
        have_lvc = state.have_lvc
        l1_ports = state.l1_ports
        lvc_ports = state.lvc_ports
        l1_new_cycle = l1_ports.new_cycle
        lvc_new_cycle = lvc_ports.new_cycle if have_lvc else None
        l1_nports = l1_ports.ports
        l1_avail = l1_ports._available if l1_simple else 0
        l1_sat = 0
        lvc_nports = lvc_ports.ports if have_lvc else 0
        lvc_avail = lvc_ports._available if lvc_simple else 0
        lvc_sat = 0

        now = self.now
        committed_total = self._committed
        # The cycle skip charges the reference's one-rob-full-stall-per-
        # skipped-cycle here; merged with dispatch's share at the end.
        n_skip_rob_full = 0
        exceeded = False

        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while committed_total < total:
                now += 1
                if now > limit:
                    # Raised after the finally block has written every
                    # stage's state back (the report reads it).
                    exceeded = True
                    break

                # ---- new cycle: refill the port budgets ---------------
                if l1_simple:
                    if l1_avail == 0:
                        l1_sat += 1
                    l1_avail = l1_nports
                else:
                    l1_new_cycle()
                if have_lvc:
                    if lvc_simple:
                        if lvc_avail == 0:
                            lvc_sat += 1
                        lvc_avail = lvc_nports
                    else:
                        lvc_new_cycle()

                # ---- the five stages, each behind its activity guard --
                if rob_count and rob_entries[0].state == 2:
                    (rob_count, committed_total,
                     l1_avail, lvc_avail) = commit_tick(
                        now, rob_count, committed_total,
                        l1_avail, lvc_avail)
                if store_done or overflow or ring[now & MASK]:
                    writeback_tick(now)
                if lsq_unserviced or lvaq_unserviced:
                    (l1_avail, lvc_avail,
                     lsq_unserviced, lvaq_unserviced) = memory_tick(
                        now, l1_avail, lvc_avail,
                        lsq_unserviced, lvaq_unserviced)
                if sleep or ready_fifo or woken:
                    issue_tick(now)
                if index < total:
                    (index, rob_count,
                     lsq_unserviced, lvaq_unserviced) = dispatch_tick(
                        now, index, rob_count,
                        lsq_unserviced, lvaq_unserviced)

                # ---- cycle skip: when nothing can happen until the
                # next scheduled completion, jump there.  Safe only when
                # every stage is provably a no-op for the skipped cycles;
                # see docs/perf.md for the invariant and the stall
                # accounting.
                if (not ready_fifo
                        and not woken
                        and not store_done
                        and (index >= total or rob_count >= rob_size)
                        and lsq_unserviced == 0
                        and lvaq_unserviced == 0
                        and committed_total < total
                        and rob_count
                        and rob_entries[0].state != 2):
                    target = None
                    for k in range(1, RING):
                        if ring[(now + k) & MASK]:
                            target = now + k
                            break
                    if overflow:
                        for t in overflow:
                            if t > now and (target is None
                                            or t < target):
                                target = t
                    # Sleeping entries wake at known cycles too (issue
                    # pops the bucket for each cycle it ticks), so the
                    # skip may jump straight to the earliest of them.
                    if sleep:
                        for t in sleep:
                            if t > now and (target is None
                                            or t < target):
                                target = t
                    cap = limit + 1
                    if target is None or target > cap:
                        target = cap
                    if target > now + 1:
                        if index < total:
                            # The reference charges one rob-full
                            # dispatch stall per skipped cycle.
                            n_skip_rob_full += target - now - 1
                        now = target - 1
                yield now
        finally:
            if gc_was_enabled:
                gc.enable()
            # Write kernel-owned state back to its objects and run every
            # stage's finish() so the post-run machine looks exactly as
            # if each stage had run through the normal method calls.
            self.now = now
            self._committed = committed_total
            lsq.unserviced_loads = lsq_unserviced
            lvaq.unserviced_loads = lvaq_unserviced
            shares: Dict[str, int] = {}
            for fin in (commit_finish, writeback_finish,
                        memory_finish, dispatch_finish):
                for name, value in fin().items():
                    shares[name] = shares.get(name, 0) + value
            for name, value in issue_finish(now).items():
                shares[name] = shares.get(name, 0) + value
            l1_busy = shares.pop("_l1_busy", 0)
            lvc_busy = shares.pop("_lvc_busy", 0)
            if l1_simple:
                l1_ports._available = l1_avail
                l1_ports.busy_transactions += l1_busy
                l1_ports.cycles_saturated += l1_sat
            if lvc_simple:
                lvc_ports._available = lvc_avail
                lvc_ports.busy_transactions += lvc_busy
                lvc_ports.cycles_saturated += lvc_sat
            # Fast-path cache hits accumulated in stage-local ints; fold
            # them into the shared counter dict (additive,
            # order-independent).
            n_l1_fast = shares.pop("_l1_fast", 0)
            n_lvc_fast = shares.pop("_lvc_fast", 0)
            if n_l1_fast or n_lvc_fast:
                counts = state.counts
                counts_get = counts.get
                if n_l1_fast:
                    k = state.l1_ka
                    counts[k] = counts_get(k, 0) + n_l1_fast
                    k = state.l1_kh
                    counts[k] = counts_get(k, 0) + n_l1_fast
                if n_lvc_fast:
                    k = state.lvc_ka
                    counts[k] = counts_get(k, 0) + n_lvc_fast
                    k = state.lvc_kh
                    counts[k] = counts_get(k, 0) + n_lvc_fast
            self._outcome = (total, index, shares, exceeded,
                             n_skip_rob_full)

    def _livelock_report(self, limit: int, total: int, index: int) -> str:
        """Diagnosable cycle-limit message (satellite of ISSUE 2)."""
        rob_entries = self._rob_entries
        head = rob_entries[0] if rob_entries else None
        pending_events = sum(
            len(b) for b in self._ring if b
        ) + sum(len(b) for b in self._overflow.values())
        queues = "; ".join(
            f"{queue.name} {len(queue.entries)}/{queue.size} "
            f"(unserviced_loads={queue.unserviced_loads}, "
            f"oldest_unknown_store_seq="
            f"{_oldest_unknown_store_seq(queue)})"
            for queue in (self.lsq, self.lvaq))
        return (
            f"cycle limit exceeded ({limit}) at "
            f"{self._committed}/{total} committed; "
            f"dispatch index {index}; "
            f"rob {len(rob_entries)}/{self._rob_size} head={head!r}; "
            f"{queues}; "
            f"issuable={len(self._ready_fifo) + len(self._issuable)}; "
            f"scheduled_events={pending_events}"
        )


def _oldest_unknown_store_seq(queue) -> int:
    """Sequence number of *queue*'s oldest unknown-address store."""
    for entry in queue.entries:
        if entry.is_store and not entry.addr_known:
            return entry.rob.seq
    return INF_SEQ
