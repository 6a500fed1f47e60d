"""Shared second-level memory for multi-programmed mixes.

In a mix run (:mod:`repro.core.multicore`) each program gets its own
core — a whole :class:`~repro.core.processor.Processor` with private
L1/LVC, ports, MSHRs and counters — but the L2 tags and the L1/L2 bus
are one physical resource.  :class:`SharedMemory` models both, replacing
each private hierarchy's miss path via the ``shared`` hook in
:meth:`repro.mem.hierarchy.MemoryHierarchy._miss`.  It is the only state
the cores share: ``run_mix`` resumes each core's unmodified kernel in
core order once per global cycle, so within a cycle misses reach this
model in core order, and with one core attached every call is the one
the solo run makes.

Accounting is **requester-attributed**: every transaction bumps the
counters of the core that issued it, under the same names the private
hierarchy uses (``bus.transactions``, ``l2.accesses``/``hits``/
``misses``/``writebacks``), so a one-program mix produces a counter
dictionary identical to a solo run — the property the mix equivalence
test pins.  On top of those, four interference counters appear only
when programs actually collide:

``mix.bus_conflicts`` / ``mix.bus_conflict_stalls``
    Transactions delayed behind a bus transfer issued by a *different*
    core, and the total cycles lost waiting.  Self-queueing (present in
    solo runs too) is deliberately not counted.
``mix.l2_evictions_caused`` / ``mix.l2_evictions_suffered``
    LRU fills by one core that evicted a line last touched by another;
    counted against the evictor and for the victim respectively.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.mem.cache import CacheGeometry
from repro.mem.hierarchy import MemoryHierarchy, MemSystemConfig


class SharedMemory:
    """One L2 + bus shared by every core of a mix run."""

    def __init__(self, config: MemSystemConfig, n_cores: int):
        self.config = config
        self.n_cores = n_cores
        self.geom = CacheGeometry(config.l2_size, config.l2_assoc,
                                  config.line_bytes)
        self._sets: List[List[int]] = [[] for _ in range(self.geom.num_sets)]
        self._dirty: Set[int] = set()
        #: line -> index of the core that last touched it (attribution
        #: for inter-program evictions).
        self._line_owner: Dict[int, int] = {}
        self._bus_busy_until = 0
        self._bus_owner = -1
        #: id(hierarchy) -> (core index, that core's counter dict).
        self._cores: Dict[int, Tuple[int, Dict[str, int]]] = {}

    def attach(self, hierarchy: MemoryHierarchy, core_index: int) -> None:
        """Route *hierarchy*'s miss path through this shared model."""
        hierarchy.shared = self
        self._cores[id(hierarchy)] = (core_index,
                                      hierarchy.counters._counts)

    def miss(self, hierarchy: MemoryHierarchy, start: int, addr: int,
             is_store: bool) -> int:
        """One first-level miss: bus queueing + shared-L2 lookup.

        Mirrors the private :meth:`MemoryHierarchy._miss` /
        :meth:`repro.mem.cache.Cache.access` pair exactly (same latency
        math, same counter keys, same LRU/fill/writeback behaviour), so
        with one core attached the observable result is bit-identical
        to a solo run.
        """
        index, counts = self._cores[id(hierarchy)]
        config = self.config

        busy_until = self._bus_busy_until
        if busy_until > start:
            bus_at = busy_until
            if self._bus_owner != index:
                counts["mix.bus_conflicts"] = counts.get(
                    "mix.bus_conflicts", 0) + 1
                counts["mix.bus_conflict_stalls"] = counts.get(
                    "mix.bus_conflict_stalls", 0) + (bus_at - start)
        else:
            bus_at = start
        self._bus_busy_until = bus_at + config.bus_occupancy
        self._bus_owner = index
        counts["bus.transactions"] = counts.get("bus.transactions", 0) + 1

        # Each program owns a disjoint physical address space: the core
        # index lands in high tag bits, leaving set-index bits untouched
        # (identical page coloring), so two programs can conflict in the
        # L2 only through capacity/associativity — never false-share a
        # line.  Core 0's lines are unchanged, keeping a one-program mix
        # bit-identical to a solo run.
        line = (addr >> self.geom.line_shift) | (index << 48)
        ways = self._sets[line & self.geom.set_mask]
        counts["l2.accesses"] = counts.get("l2.accesses", 0) + 1
        if line in ways:
            counts["l2.hits"] = counts.get("l2.hits", 0) + 1
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
            if is_store:
                self._dirty.add(line)
            self._line_owner[line] = index
            return bus_at + config.l2_latency
        counts["l2.misses"] = counts.get("l2.misses", 0) + 1
        if len(ways) >= self.geom.assoc:
            victim = ways.pop()
            victim_owner = self._line_owner.pop(victim, index)
            if victim in self._dirty:
                self._dirty.discard(victim)
                counts["l2.writebacks"] = counts.get(
                    "l2.writebacks", 0) + 1
            if victim_owner != index:
                counts["mix.l2_evictions_caused"] = counts.get(
                    "mix.l2_evictions_caused", 0) + 1
                victim_counts = None
                for _hid, (other, other_counts) in self._cores.items():
                    if other == victim_owner:
                        victim_counts = other_counts
                        break
                if victim_counts is not None:
                    victim_counts["mix.l2_evictions_suffered"] = \
                        victim_counts.get("mix.l2_evictions_suffered",
                                          0) + 1
        ways.insert(0, line)
        self._line_owner[line] = index
        if is_store:
            self._dirty.add(line)
        return bus_at + config.l2_latency + config.mem_latency

    def __repr__(self) -> str:
        return (f"SharedMemory({self.n_cores} cores, "
                f"{self.geom.size_bytes}B L2)")
