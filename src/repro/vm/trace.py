"""The committed dynamic instruction stream and its containers.

A :class:`Stream` is the committed stream as columns: one Python list
per field, indexed by the instruction's position in the stream.  It is
the interface between every producer (the functional VM, the synthetic
workload generator, the trace decoder and the pre-decoded sidecar
loader) and the timing simulator, which reads the columns by index and
never sees a per-instruction object.  Because the paper's machine model
uses a perfect I-cache and a perfect (oracle) branch predictor, timing
simulation over the committed stream is exactly equivalent to
execution-driven simulation — there is never any wrong-path work to
model.

:class:`DynInst` is the per-instruction *record* view of the same data:
the frozen reference models (:mod:`repro.perf.reference`,
:mod:`repro.perf.reference_vm`) work in records, and the stream's
adapter (``stream[i]``, ``iter(stream)``, :meth:`Stream.from_insts`,
:meth:`Stream.append`) converts between the two for them, for hand-built
test streams and for offline analyses.  Nothing on a simulation path
builds records.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (Callable, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.isa.opcodes import FuClass
from repro.stats.histogram import Histogram

#: Sentinel register index meaning "no destination".
NO_REG = -1

# ``fu`` is stored as a plain int; comparing against these avoids an
# enum ``__eq__`` per query.
_LOAD = int(FuClass.LOAD)
_STORE = int(FuClass.STORE)


class DynInst:
    """One dynamic (committed) instruction as a record.

    Attributes:
        fu: functional-unit class (``FuClass`` value, stored as int).
        dst: flat destination register index, or ``NO_REG``.
        srcs: flat source register indices.
        addr: effective byte address (memory ops only, else 0).
        size: access width in bytes (memory ops only, else 0).
        local_hint: compile-time classification presented to the hardware —
            True (local), False (non-local) or None (ambiguous; the
            access-region predictor decides at dispatch).
        is_local: ground truth — whether the address lies in the stack
            region.  Used for predictor verification and statistics.
        sp_based: the access is addressed off ``$sp``/``$fp`` with a static
            offset, so the LVAQ may match it by (frame, offset) *before*
            effective-address computation (fast data forwarding).
        frame_id: unique id of the activation record being accessed.
        offset: static offset from the frame base (fast-forwarding key).
        pc: static instruction index (predictor table index).
    """

    __slots__ = (
        "fu", "dst", "srcs", "addr", "size", "local_hint", "is_local",
        "sp_based", "frame_id", "offset", "pc",
    )

    def __init__(
        self,
        fu: int,
        dst: int = NO_REG,
        srcs: Tuple[int, ...] = (),
        addr: int = 0,
        size: int = 0,
        local_hint: Optional[bool] = None,
        is_local: bool = False,
        sp_based: bool = False,
        frame_id: int = 0,
        offset: int = 0,
        pc: int = 0,
    ):
        self.fu = fu
        self.dst = dst
        self.srcs = srcs
        self.addr = addr
        self.size = size
        self.local_hint = local_hint
        self.is_local = is_local
        self.sp_based = sp_based
        self.frame_id = frame_id
        self.offset = offset
        self.pc = pc

    @property
    def is_load(self) -> bool:
        """True for loads."""
        return self.fu == _LOAD

    @property
    def is_store(self) -> bool:
        """True for stores."""
        return self.fu == _STORE

    @property
    def is_mem(self) -> bool:
        """True for loads and stores."""
        return self.fu == _LOAD or self.fu == _STORE

    def __repr__(self) -> str:
        kind = FuClass(self.fu).name
        if self.is_mem:
            return (
                f"DynInst({kind}, addr={self.addr:#x}, local={self.is_local}, "
                f"hint={self.local_hint}, frame={self.frame_id})"
            )
        return f"DynInst({kind}, dst={self.dst}, srcs={self.srcs})"


class Stream:
    """The committed stream as one list per field (struct-of-arrays).

    Columns, all of the stream's length:

    ========= ==========================================================
    fu        functional-unit class (``FuClass`` value, int)
    dst       destination register, ``NO_REG`` = none
    srcs      source registers (a tuple; equal tuples are shared)
    addr      effective byte address (memory ops; else 0)
    size      access width in bytes (memory ops; else 0)
    hint      compile-time classification: True, False or None
    is_local  the address lies in the stack region (ground truth)
    sp_based  ``$sp``/``$fp``-relative access with a static offset
    frame     activation-record id of an sp-based access (else 0)
    offset    static offset from the frame base (else 0)
    pc        static instruction index
    ========= ==========================================================

    The fields mean what the :class:`DynInst` attributes of the same
    names mean (``hint`` is ``local_hint``, ``frame`` is ``frame_id``).
    Producers append to or build the columns directly; consumers read
    ``stream.fu[i]``-style.  A stream is read-only once built: the
    kernel and the per-process memos share it.
    """

    COLUMNS = ("fu", "dst", "srcs", "addr", "size", "hint", "is_local",
               "sp_based", "frame", "offset", "pc")
    __slots__ = COLUMNS

    def __init__(self, **columns: List) -> None:
        """A stream of the given columns (lists, by name); every column
        not given starts empty."""
        for name in self.COLUMNS:
            setattr(self, name, columns.pop(name, None) or [])
        if columns:
            raise TypeError(f"not stream columns: {sorted(columns)}")

    def __len__(self) -> int:
        return len(self.fu)

    def __repr__(self) -> str:
        return f"Stream({len(self.fu)} insts)"

    # -- the record adapter --------------------------------------------------

    def __getitem__(self, index):
        """``stream[i]`` as a :class:`DynInst` built on demand;
        ``stream[a:b]`` as a :class:`Stream` of the column slices."""
        if isinstance(index, slice):
            return Stream(**{name: getattr(self, name)[index]
                             for name in self.COLUMNS})
        return DynInst(self.fu[index], self.dst[index], self.srcs[index],
                       self.addr[index], self.size[index],
                       self.hint[index], self.is_local[index],
                       self.sp_based[index], self.frame[index],
                       self.offset[index], self.pc[index])

    def __iter__(self) -> Iterator[DynInst]:
        return map(DynInst, self.fu, self.dst, self.srcs, self.addr,
                   self.size, self.hint, self.is_local, self.sp_based,
                   self.frame, self.offset, self.pc)

    def append(self, inst: DynInst) -> None:
        """Append one record's fields to the columns."""
        self.fu.append(inst.fu)
        self.dst.append(inst.dst)
        self.srcs.append(inst.srcs)
        self.addr.append(inst.addr)
        self.size.append(inst.size)
        self.hint.append(inst.local_hint)
        self.is_local.append(inst.is_local)
        self.sp_based.append(inst.sp_based)
        self.frame.append(inst.frame_id)
        self.offset.append(inst.offset)
        self.pc.append(inst.pc)

    @classmethod
    def from_insts(cls, insts: Iterable[DynInst]) -> "Stream":
        """A stream holding *insts* (hand-built test streams)."""
        stream = cls()
        for inst in insts:
            stream.append(inst)
        return stream


def gatherer(keys: Sequence[int]) -> Callable[[Sequence], Sequence]:
    """A function taking ``table`` to the sequence of ``table[k]`` for
    each of *keys*.

    The gather loops in C (one ``itemgetter`` over every key), so a
    producer builds a column from a small per-pc or per-code table at
    C speed; one gatherer serves every table indexed by the same keys.
    A key outside a table raises ``IndexError``.
    """
    if len(keys) > 1:
        return itemgetter(*keys)
    return lambda table: [table[k] for k in keys]


class TraceStats:
    """Aggregate statistics over a dynamic instruction stream."""

    def __init__(self) -> None:
        self.instructions = 0
        self.loads = 0
        self.stores = 0
        self.local_loads = 0
        self.local_stores = 0
        self.sp_based_refs = 0
        self.ambiguous_refs = 0
        self.calls = 0
        self.frame_sizes = Histogram()
        self.max_call_depth = 0

    def observe(self, inst: DynInst) -> None:
        """Fold one dynamic instruction record into the statistics."""
        self.instructions += 1
        fu = inst.fu
        if fu == _LOAD:
            self.loads += 1
            if inst.is_local:
                self.local_loads += 1
        elif fu == _STORE:
            self.stores += 1
            if inst.is_local:
                self.local_stores += 1
        else:
            return
        if inst.sp_based:
            self.sp_based_refs += 1
        if inst.local_hint is None:
            self.ambiguous_refs += 1

    @property
    def mem_refs(self) -> int:
        """Total loads + stores."""
        return self.loads + self.stores

    @property
    def local_refs(self) -> int:
        """Loads + stores whose address is in the stack region."""
        return self.local_loads + self.local_stores

    @property
    def local_fraction(self) -> float:
        """Fraction of all memory references that are local."""
        return self.local_refs / self.mem_refs if self.mem_refs else 0.0

    @property
    def load_fraction(self) -> float:
        """Loads as a fraction of all instructions."""
        return self.loads / self.instructions if self.instructions else 0.0

    @property
    def store_fraction(self) -> float:
        """Stores as a fraction of all instructions."""
        return self.stores / self.instructions if self.instructions else 0.0


class Trace:
    """A committed :class:`Stream` plus its aggregate statistics.

    ``insts`` is the stream; producers fill its columns and keep
    ``stats`` in step themselves.  :meth:`append` and :meth:`extend` are
    the record path (the frozen reference VM, hand-built traces).
    """

    def __init__(self, name: str = "<trace>",
                 insts: Optional[Stream] = None):
        self.name = name
        self.insts = Stream() if insts is None else insts
        self.stats = TraceStats()

    def append(self, inst: DynInst) -> None:
        """Append one dynamic instruction record, updating statistics."""
        self.insts.append(inst)
        self.stats.observe(inst)

    def extend(self, insts: Iterable[DynInst]) -> None:
        """Append many dynamic instruction records."""
        for inst in insts:
            self.append(inst)

    def __len__(self) -> int:
        return len(self.insts)

    def __iter__(self) -> Iterator[DynInst]:
        return iter(self.insts)

    def save(self, path: str) -> str:
        """Serialize this trace to *path* in the ``repro.trace`` format.

        Convenience hook for capture callers holding a VM's trace;
        the format lives in :mod:`repro.trace.format` (imported lazily —
        the VM layer has no hard dependency on the trace subsystem).
        """
        from repro.trace.format import write_trace

        return write_trace(self, path)

    @staticmethod
    def load(path: str) -> "Trace":
        """Deserialize a trace previously written with :meth:`save`."""
        from repro.trace.format import read_trace

        return read_trace(path)

    def __repr__(self) -> str:
        return f"Trace({self.name!r}, {len(self.insts)} insts)"
