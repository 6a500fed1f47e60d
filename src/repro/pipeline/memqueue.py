"""Memory access queues.

One :class:`MemQueue` instance is the conventional load/store queue (LSQ);
a second instance, fed only with local-variable accesses, is the paper's
local variable access queue (LVAQ).  Both follow the sim-outorder
discipline:

* a load may go to memory only when every earlier store *in its own queue*
  has a known address (conservative disambiguation);
* a load whose address matches an earlier store's is satisfied by
  store-to-load forwarding with a one-cycle delay.

The LVAQ additionally supports the paper's **fast data forwarding**:
``$sp``-relative accesses carry a (frame, offset) key that is known at
dispatch, before effective-address computation, so a store→load pair can be
matched (and non-matching sp-relative stores disambiguated) without waiting
for address generation.

A queue is state only: the kernel stages (:mod:`repro.core.stages`) bind
its fields and maintain them inline — dispatch appends, issue fills
addresses, the memory stage disambiguates and forwards, commit retires
the head.  The fields are incremental indexes, so the per-cycle memory
stage never rescans every resident entry: the age-ordered load list with
a serviced-prefix cursor, lazy cursors over the unknown-address store
lists (an address, once known, never becomes unknown again), the
known-address stores bucketed by word, the sp-relative stores by
(frame, offset) key, the non-sp stores in age order, and the loads
bucketed by the first cycle they can act (address known, misprediction
penalty served).  The scan-based semantics those indexes implement
live, frozen, in ``repro.perf.reference._RefMemQueue``; the golden
equivalence suite and the micro-streams in
``tests/core/test_processor.py`` pin the kernel to them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.pipeline.rob import RobEntry

#: Sentinel "no unknown store" sequence number.
INF_SEQ = 1 << 62


class MemQueueEntry:
    """One load or store resident in a memory access queue."""

    __slots__ = (
        "rob", "is_store", "word", "line", "addr_known_time",
        "dispatch_time", "serviced", "sp_based", "frame_key",
        "use_lvc", "penalty", "pos",
    )

    def __init__(self, rob: RobEntry, is_store: bool, dispatch_time: int,
                 sp_based: bool = False,
                 frame_key: Optional[Tuple[int, int]] = None,
                 use_lvc: bool = False, penalty: int = 0):
        self.rob = rob
        self.is_store = is_store
        self.word = -1  # addr >> 2, filled at address generation
        self.line = -1  # line number, filled at address generation
        self.addr_known_time = -1  # -1 while the address is unknown
        self.dispatch_time = dispatch_time
        self.serviced = False
        self.sp_based = sp_based
        self.frame_key = frame_key
        self.use_lvc = use_lvc
        self.penalty = penalty  # extra cycles (classification mispredict)
        self.pos = -1  # queue-lifetime position, assigned at dispatch

    @property
    def addr_known(self) -> bool:
        """True once address generation has completed."""
        return self.addr_known_time >= 0

    def __repr__(self) -> str:
        kind = "ST" if self.is_store else "LD"
        return (
            f"MemQueueEntry({kind}, seq={self.rob.seq}, "
            f"addr_known={self.addr_known}, serviced={self.serviced})"
        )


class MemQueue:
    """A bounded, age-ordered queue of in-flight memory operations."""

    def __init__(self, size: int, name: str = "lsq"):
        if size <= 0:
            raise SimulationError("memory queue size must be positive")
        self.size = size
        self.name = name
        self.entries: List[MemQueueEntry] = []
        #: ``pos`` of ``entries[0]`` — ``entries[e.pos - base] is e``.
        self.base = 0
        #: Loads the memory stage still has to service.
        self.unserviced_loads = 0
        self._loads: List[MemQueueEntry] = []
        self._load_head = 0
        self._unknown_stores: List[MemQueueEntry] = []
        self._us_head = 0
        self._unknown_nonsp_stores: List[MemQueueEntry] = []
        self._un_head = 0
        self._nonsp_stores: List[MemQueueEntry] = []
        self._ns_head = 0
        self._stores_by_word: Dict[int, List[MemQueueEntry]] = {}
        self._sp_stores: Dict[Tuple[int, int], List[MemQueueEntry]] = {}
        #: Loads bucketed by the first cycle they can act: the cycle
        #: their address becomes known, plus the misprediction penalty
        #: for a load in recovery.  Filled by the issue stage's address
        #: generation, in age order except that a bucket's penalized
        #: loads come first; drained, sorted by age, by the memory
        #: stage's eligibility walk.
        self._addr_ready: Dict[int, List[MemQueueEntry]] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"MemQueue({self.name!r}, {len(self.entries)}/{self.size})"
