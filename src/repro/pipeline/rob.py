"""The reorder buffer (Register Update Unit in Sohi's terminology).

Entries live from dispatch to commit.  Each entry tracks the dataflow state
of one dynamic instruction: how many source operands are still outstanding,
which later entries consume its result, and when its result becomes
available.  Register renaming falls out of the ``producer`` map kept by the
processor: at dispatch each destination register is re-bound to the new
instruction (its position, in the timing kernel), so anti/output
dependences never stall anything.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.errors import SimulationError

# Entry lifecycle states.
DISPATCHED = 0
ISSUED = 1
COMPLETED = 2
COMMITTED = 3

_STATE_NAMES = {
    DISPATCHED: "DISPATCHED",
    ISSUED: "ISSUED",
    COMPLETED: "COMPLETED",
    COMMITTED: "COMMITTED",
}


class RobEntry:
    """One in-flight dynamic instruction.

    ``seq`` is the instruction's position in the committed stream, its
    one name in the timing kernel: the stages read the stream's columns
    at it, and the entry lives in slot ``seq & wmask`` of the
    processor's window ring, reused once it commits.  The kernel leaves
    ``inst``, ``earliest``, ``in_issuable``, ``issue_time`` and
    ``complete_time`` untouched; the frozen reference core, which
    shares this class, numbers its entries the same way and keeps its
    instruction record in ``inst``.
    """

    __slots__ = (
        "seq", "inst", "state", "pending", "earliest", "issue_time",
        "complete_time", "consumers", "mem", "in_issuable",
    )

    def __init__(self, seq: int, inst):
        self.seq = seq
        self.inst = inst
        self.state = DISPATCHED
        self.pending = 0  # outstanding source operands
        self.earliest = 0  # earliest cycle this entry may issue
        self.issue_time = -1
        self.complete_time = -1
        self.consumers: List["RobEntry"] = []
        self.mem = None  # MemQueueEntry for loads/stores
        self.in_issuable = False

    @property
    def completed(self) -> bool:
        """True once the result (or store address+data) is available."""
        return self.state == COMPLETED

    def __repr__(self) -> str:
        return (
            f"RobEntry(seq={self.seq}, {_STATE_NAMES[self.state]}, "
            f"pending={self.pending})"
        )


class Rob:
    """A bounded in-order window of :class:`RobEntry`."""

    def __init__(self, size: int):
        if size <= 0:
            raise SimulationError("ROB size must be positive")
        self.size = size
        # Public so the processor hot loop can bind the deque directly;
        # mutate only through push/pop_head unless you are the processor.
        self.entries: Deque[RobEntry] = deque()

    @property
    def full(self) -> bool:
        """True when no dispatch slot is free."""
        return len(self.entries) >= self.size

    @property
    def empty(self) -> bool:
        """True when nothing is in flight."""
        return not self.entries

    def push(self, entry: RobEntry) -> None:
        """Append a newly dispatched entry; raises when full."""
        if self.full:
            raise SimulationError("dispatch into a full ROB")
        self.entries.append(entry)

    def head(self) -> Optional[RobEntry]:
        """The oldest in-flight entry, or None."""
        return self.entries[0] if self.entries else None

    def pop_head(self) -> RobEntry:
        """Retire the oldest entry."""
        if not self.entries:
            raise SimulationError("commit from an empty ROB")
        entry = self.entries.popleft()
        entry.state = COMMITTED
        return entry

    def occupancy(self) -> int:
        """Entries currently in flight."""
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self) -> str:
        return f"Rob({len(self.entries)}/{self.size})"
