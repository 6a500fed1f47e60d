"""Pre-decoded sidecar: a trace's stream in its directly loadable form.

A predecoded sidecar is a **derived** artifact of one captured trace:
the committed :class:`~repro.vm.trace.Stream`'s columns as flat
little-endian tables, laid out so that loading them is a handful of
C-level bulk conversions — ``tolist`` per column, and ``itemgetter``
gathers through small lookup tables for operands and flags — with no
per-instruction Python work:

========== ==== =======================================================
name       type contents
========== ==== =======================================================
fu         B    functional-unit class (``FuClass`` value)
dst        b    destination register, ``-1`` = none
src_id     I    the instruction's operand list, as an index into the
                distinct-list table below
addr       I    effective byte address (memory ops; else 0)
size       B    access width in bytes (memory ops; else 0)
flags      B    bit0 ``is_local``, bit1 ``sp_based``,
                bits2-3 ``hint`` (0=None, 1=False, 2=True)
frame      I    activation-record id of the access (region table)
offset     i    static offset from the frame base (region table)
pc         I    static instruction index
src_count  B    the distinct operand lists' lengths, in first-use order
src_regs   b    the distinct operand lists, concatenated
========== ==== =======================================================

Every table feeds one column of the loaded stream; none is written that
the loader does not read.  A stream has few distinct operand lists (130.li
uses 383 in 55k instructions), so ``src_id`` plus the small table replace
the raw trace's per-instruction operand counts and flat operand table,
and the loaded ``srcs`` column shares one tuple per distinct list.  The
on-disk layout mirrors the trace format: magic, canonical-JSON header
(sorted keys, no whitespace — deterministic bytes), then the section
tables back to back, checksummed with the payload's SHA-256.  The header
records ``source_sha256`` — the payload hash of the trace the sidecar was
derived from — which makes sidecars content-addressed to their source: a
re-captured trace can never be replayed through a stale sidecar, and a
sidecar of an older layout (another ``PREDECODE_VERSION``) is refused and
re-derived.

Every defect — bad magic, truncated payload, checksum mismatch, version
skew, source mismatch — raises :class:`repro.errors.TraceError`.

Loading (:func:`load_stream`) builds the stream's columns and memoizes
the stream per process keyed by ``source_sha256``, so a benchmark repeat
or a config sweep over one workload pays the build once.  The memoized
stream is shared: the kernel treats the committed stream as read-only
(the golden harness already relies on this).  Only the stream is kept —
the tables it was built from are dropped with their
:class:`PredecodedTrace`.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from array import array
from collections import OrderedDict
from itertools import chain, repeat
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import TraceError
from repro.isa.opcodes import LATENCY_BY_INT
from repro.trace.format import split_srcs, unpack_flags
from repro.utils import write_atomic
from repro.vm.trace import Stream, gatherer

#: Bump on any incompatible change to the sidecar layout or semantics.
#: Version 2 replaced the per-instruction operand offsets and the
#: unread ``lat``/``word``/``line`` tables with ``src_id`` and the
#: distinct operand-list table.
PREDECODE_VERSION = 2

MAGIC = b"RPROPDT1"

_HEADER_LEN = struct.Struct("<I")
_LITTLE = sys.byteorder == "little"

#: (section name, array typecode) in on-disk order.
SECTIONS: Tuple[Tuple[str, str], ...] = (
    ("fu", "B"),
    ("dst", "b"),
    ("src_id", "I"),
    ("addr", "I"),
    ("size", "B"),
    ("flags", "B"),
    ("frame", "I"),
    ("offset", "i"),
    ("pc", "I"),
    ("src_count", "B"),
    ("src_regs", "b"),
)

#: Sections holding one entry per instruction.
_PER_INSTRUCTION = ("fu", "dst", "src_id", "addr", "size", "flags",
                    "frame", "offset", "pc")


def _canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class PredecodedTrace:
    """One sidecar held in memory: the flat tables plus identity."""

    __slots__ = ("workload", "source_sha256", "n", "tables")

    def __init__(self, workload: str, source_sha256: str, n: int,
                 tables: Dict[str, array]):
        self.workload = workload
        self.source_sha256 = source_sha256
        self.n = n
        self.tables = tables

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return (f"PredecodedTrace({self.workload!r}, n={self.n}, "
                f"source={self.source_sha256[:12]})")


#: Per-process count of decode work done: sidecar-table derivations plus
#: stream builds that missed the memo.  A warm repeat of identical replay
#: work leaves this flat — the runtime's warm-state accounting
#: (:func:`repro.runtime.worker.warm_snapshot`) reads it.
decode_count = 0


def predecode_trace(data: bytes, origin: str = "<bytes>",
                    verify: bool = True) -> PredecodedTrace:
    """Derive the sidecar tables from one *encoded* trace.

    Works straight off the raw section tables; no stream is built.
    """
    global decode_count
    decode_count += 1

    from repro.trace import format as tf

    header, offset = tf._parse_header(data, origin)
    payload = memoryview(data)[offset:]
    by_name = tf._sections_by_name(header, len(payload), origin)
    if verify:
        got = hashlib.sha256(payload).hexdigest()
        want = header.get("payload_sha256")
        if got != want:
            raise TraceError(
                f"{origin}: trace payload checksum mismatch "
                f"(header {want}, payload {got}) — corrupt file")
    source_sha = header.get("payload_sha256")
    if not source_sha:
        raise TraceError(f"{origin}: trace header lacks payload_sha256")

    n = header["instructions"]
    tables: Dict[str, array] = {
        name: tf._load_section(payload, by_name[name])
        for name in ("fu", "dst", "addr", "size", "flags", "frame",
                     "offset", "pc")}
    nsrc = tf._load_section(payload, by_name["nsrc"])
    for name, table in list(tables.items()) + [("nsrc", nsrc)]:
        if len(table) != n:
            raise TraceError(
                f"{origin}: section {name!r} holds {len(table)} entries "
                f"for {n} instructions")
    if n and max(tables["fu"]) >= len(LATENCY_BY_INT):
        raise TraceError(f"{origin}: unknown functional-unit class "
                         f"{max(tables['fu'])}")
    # Number the distinct operand lists in first-use order: each lookup
    # passes the table's size before the insert as the new id.
    ids: Dict[Tuple[int, ...], int] = {}
    tables["src_id"] = array("I", map(
        ids.setdefault,
        split_srcs(nsrc, tf._load_section(payload, by_name["srcs"]),
                   origin),
        map(len, repeat(ids))))
    try:
        tables["src_count"] = array("B", map(len, ids))
    except OverflowError:
        raise TraceError(
            f"{origin}: an operand list is longer than 255") from None
    tables["src_regs"] = array("b", chain.from_iterable(ids))
    return PredecodedTrace(header.get("workload", "<trace>"),
                           source_sha, n, tables)


def encode_predecoded(pdt: PredecodedTrace) -> bytes:
    """Serialize one sidecar; deterministic bytes (canonical header)."""
    sections: List[Dict[str, Any]] = []
    chunks: List[bytes] = []
    position = 0
    for name, typecode in SECTIONS:
        table = pdt.tables[name]
        if not _LITTLE:
            table = array(typecode, table)
            table.byteswap()
        raw = table.tobytes()
        sections.append({
            "name": name,
            "typecode": typecode,
            "count": len(pdt.tables[name]),
            "offset": position,
            "bytes": len(raw),
        })
        chunks.append(raw)
        position += len(raw)
    payload = b"".join(chunks)
    header = {
        "format": "repro.trace.predecode",
        "version": PREDECODE_VERSION,
        "workload": pdt.workload,
        "instructions": pdt.n,
        "byte_order": "little",
        "source_sha256": pdt.source_sha256,
        "sections": sections,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    header_bytes = _canonical_json(header).encode("utf-8")
    return (MAGIC + _HEADER_LEN.pack(len(header_bytes))
            + header_bytes + payload)


def decode_predecoded(data: bytes, origin: str = "<bytes>",
                      verify: bool = True) -> PredecodedTrace:
    """Deserialize one sidecar; raises ``TraceError`` on any defect."""
    if len(data) < len(MAGIC) + _HEADER_LEN.size:
        raise TraceError(f"{origin}: truncated sidecar (no header)")
    if data[:len(MAGIC)] != MAGIC:
        raise TraceError(f"{origin}: not a predecoded sidecar (bad magic)")
    (header_len,) = _HEADER_LEN.unpack_from(data, len(MAGIC))
    offset = len(MAGIC) + _HEADER_LEN.size + header_len
    if len(data) < offset:
        raise TraceError(f"{origin}: truncated sidecar header "
                         f"({header_len} bytes declared)")
    try:
        header = json.loads(
            data[len(MAGIC) + _HEADER_LEN.size:offset].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceError(
            f"{origin}: corrupt sidecar header: {exc}") from None
    version = header.get("version")
    if version != PREDECODE_VERSION:
        raise TraceError(
            f"{origin}: sidecar version {version!r} is not the version "
            f"this build reads ({PREDECODE_VERSION}); re-derive it")
    source_sha = header.get("source_sha256")
    if not source_sha:
        raise TraceError(f"{origin}: sidecar lacks source_sha256")
    payload = memoryview(data)[offset:]
    if verify:
        got = hashlib.sha256(payload).hexdigest()
        want = header.get("payload_sha256")
        if got != want:
            raise TraceError(
                f"{origin}: sidecar payload checksum mismatch "
                f"(header {want}, payload {got}) — corrupt file")
    by_name: Dict[str, Dict[str, Any]] = {}
    for section in header.get("sections", ()):
        by_name[section["name"]] = section
        end = section["offset"] + section["bytes"]
        if end > len(payload):
            raise TraceError(
                f"{origin}: truncated sidecar payload — section "
                f"{section['name']!r} needs {end} bytes, "
                f"{len(payload)} present")
    n = header["instructions"]
    tables: Dict[str, array] = {}
    for name, typecode in SECTIONS:
        section = by_name.get(name)
        if section is None:
            raise TraceError(
                f"{origin}: sidecar is missing section {name!r}")
        table = array(typecode)
        table.frombytes(
            payload[section["offset"]:section["offset"]
                    + section["bytes"]])
        if not _LITTLE:
            table.byteswap()
        tables[name] = table
    for name in _PER_INSTRUCTION:
        if len(tables[name]) != n:
            raise TraceError(
                f"{origin}: section {name!r} holds {len(tables[name])} "
                f"entries for {n} instructions")
    if len(tables["src_regs"]) != sum(tables["src_count"]):
        raise TraceError(
            f"{origin}: src_regs table has {len(tables['src_regs'])} "
            f"entries, src_count declares {sum(tables['src_count'])}")
    return PredecodedTrace(header.get("workload", "<trace>"),
                           source_sha, n, tables)


def read_predecoded(path: str, verify: bool = True) -> PredecodedTrace:
    """Load one sidecar file (``TraceError`` on any defect)."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise TraceError(
            f"cannot read sidecar {path!r}: {exc}") from None
    return decode_predecoded(data, origin=path, verify=verify)


def write_predecoded(pdt: PredecodedTrace, path: str) -> str:
    """Serialize one sidecar to *path* atomically; returns the path."""
    return write_atomic(path, encode_predecoded(pdt))


# -- loading ------------------------------------------------------------------

#: Loaded streams by source trace hash (bounded; FIFO eviction).  Shared
#: read-only with every consumer — see the module docstring.
_STREAMS: "OrderedDict[str, Stream]" = OrderedDict()
_STREAMS_CAP = 16


def clear_materialized() -> None:
    """Drop the per-process stream memo."""
    _STREAMS.clear()


def cached_stream(source_sha256: str) -> Optional[Stream]:
    """Memo probe by source trace hash (no sidecar load needed)."""
    cached = _STREAMS.get(source_sha256)
    if cached is not None:
        _STREAMS.move_to_end(source_sha256)
    return cached


def load_stream(pdt: PredecodedTrace) -> Stream:
    """The :class:`Stream` for *pdt*, memoized per process.

    Repeated calls for the same source trace (benchmark rounds, config
    sweeps) return the same stream object without rebuilding it.
    """
    global decode_count
    cached = cached_stream(pdt.source_sha256)
    if cached is not None:
        return cached
    decode_count += 1
    stream = build_stream(pdt)
    _STREAMS[pdt.source_sha256] = stream
    while len(_STREAMS) > _STREAMS_CAP:
        _STREAMS.popitem(last=False)
    return stream


def build_stream(pdt: PredecodedTrace) -> Stream:
    """The :class:`Stream` the sidecar tables hold (not memoized).

    Each column is one C-level conversion: ``tolist`` of its table, or a
    gather through the operand-list table or the flag lookup tables.
    """
    t = pdt.tables
    origin = f"<sidecar {pdt.source_sha256[:12]}>"
    try:
        srcs = list(gatherer(t["src_id"])(
            split_srcs(t["src_count"], t["src_regs"], origin)))
    except IndexError:
        raise TraceError(
            f"{origin}: src_id {max(t['src_id'])} is outside the "
            f"{len(t['src_count'])}-entry operand-list table") from None
    hint, is_local, sp_based = unpack_flags(t["flags"], origin)
    return Stream(
        fu=t["fu"].tolist(), dst=t["dst"].tolist(), srcs=srcs,
        addr=t["addr"].tolist(), size=t["size"].tolist(),
        hint=hint, is_local=is_local, sp_based=sp_based,
        frame=t["frame"].tolist(), offset=t["offset"].tolist(),
        pc=t["pc"].tolist())
