"""The versioned struct-of-arrays on-disk trace format.

A trace file is a serialized committed dynamic instruction stream — the
complete input of a timing simulation — laid out as flat per-field
tables rather than per-instruction records, so replay decodes it with a
handful of bulk ``array`` loads instead of a parser (see ``docs/trace.md``
for the byte-level layout).

Layout::

    8 bytes   magic  b"RPROTRC1"
    4 bytes   header length (u32, little-endian)
    N bytes   header: canonical JSON (sorted keys, no whitespace)
    M bytes   payload: the section tables, back to back

The header carries the format version, workload identity, the section
table (name, array typecode, element count, byte offset/length within
the payload), the trace-level statistics (:class:`~repro.vm.trace
.TraceStats`, including the frame-size histogram), optional capture
metadata, and the SHA-256 of the payload.  Every multi-byte section is
little-endian on disk regardless of host order.

Sections (one table per :class:`~repro.vm.trace.Stream` column — the
three flag columns packed into one byte — plus derived tables):

========== ==== =======================================================
name       type contents
========== ==== =======================================================
fu         B    functional-unit class (``FuClass`` value)
dst        b    destination register, ``-1`` = none
nsrc       B    source-operand count (indexes the flat ``srcs`` table)
srcs       b    all source registers, concatenated in stream order
addr       I    effective byte address (memory ops; else 0)
size       B    access width in bytes (memory ops; else 0)
flags      B    bit0 ``is_local``, bit1 ``sp_based``,
                bits2-3 ``local_hint`` (0=None, 1=False, 2=True)
frame      I    activation-record id of the access
offset     i    static offset from the frame base
pc         I    static instruction index
branch     B    taken-branch bitmap, one bit per instruction
gate_index I    frontend gate list: instruction index per gate
gate_code  B    frontend gate list: gate code per gate
========== ==== =======================================================

``branch`` and the gate pair are **derived** tables: branch outcomes
fall out of the committed stream (a branch was taken iff the next
committed instruction is not its static successor), and the gate list
is what a default-geometry gshare frontend computes over the stream
(:meth:`repro.core.frontend.GshareFrontend.prepare`).  Replay does not
consume them — the frontend recomputes gates at bind time from the same
pure function, which is what keeps replay bit-identical under *any*
frontend configuration — but they make the trace self-describing for
offline analysis and ``repro-cc trace info``.

Encoding and decoding convert whole columns at a time — ``array``
construction from a list, ``tolist``, ``map``, and ``itemgetter``
gathers through small lookup tables, all of which loop in C — so
neither walks the stream instruction by instruction in Python.  The
decoded ``srcs`` column shares one tuple per distinct operand list.

Every decode error raises :class:`repro.errors.TraceError`; a corrupt,
truncated, or version-skewed file can never silently misreplay.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
from array import array
from itertools import chain, compress, islice, repeat
from operator import add, eq, lshift, ne, or_
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import TraceError
from repro.stats.histogram import Histogram
from repro.utils import write_atomic
from repro.vm.trace import Stream, Trace, TraceStats, gatherer

#: Bump on any incompatible change to the layout or field semantics.
#: Participates in the capture code salt (``repro.trace.capture``) and in
#: the config schema description (``repro.core.registry``), so stale
#: cached traces can never be replayed against a newer decoder.
TRACE_FORMAT_VERSION = 1

MAGIC = b"RPROTRC1"

_HEADER_LEN = struct.Struct("<I")
_LITTLE = sys.byteorder == "little"

#: (section name, array typecode) in on-disk order.
SECTIONS: Tuple[Tuple[str, str], ...] = (
    ("fu", "B"),
    ("dst", "b"),
    ("nsrc", "B"),
    ("srcs", "b"),
    ("addr", "I"),
    ("size", "B"),
    ("flags", "B"),
    ("frame", "I"),
    ("offset", "i"),
    ("pc", "I"),
    ("branch", "B"),
    ("gate_index", "I"),
    ("gate_code", "B"),
)

#: ``local_hint`` tri-state by flag bits 2-3.
_HINT_BY_CODE = (None, False, True)
_CODE_BY_HINT = {None: 0, False: 1, True: 2}

#: Largest valid flags byte: bits 0-1 free, hint code at most 2.
_MAX_FLAGS = 1 | 2 | (2 << 2)

#: The three flag columns by flags byte (valid bytes only).
_HINT_BY_FLAGS = tuple(_HINT_BY_CODE[b >> 2] for b in range(_MAX_FLAGS + 1))
_LOCAL_BY_FLAGS = tuple(bool(b & 1) for b in range(_MAX_FLAGS + 1))
_SP_BASED_BY_FLAGS = tuple(bool(b & 2) for b in range(_MAX_FLAGS + 1))

from repro.isa.opcodes import FuClass  # noqa: E402 - after stdlib block

_BRANCH = int(FuClass.BRANCH)


def pack_flags(stream: Stream) -> array:
    """The stream's three flag columns packed one byte per instruction."""
    try:
        hint_codes = map(_CODE_BY_HINT.__getitem__, stream.hint)
        return array("B", map(
            or_,
            map(or_, map(bool, stream.is_local),
                map(lshift, map(bool, stream.sp_based), repeat(1))),
            map(lshift, hint_codes, repeat(2))))
    except (KeyError, TypeError) as exc:
        raise TraceError(
            f"a flag column holds a value the trace format cannot "
            f"encode: {exc!r}") from None


def unpack_flags(flags: array, origin: str
                 ) -> Tuple[List[Optional[bool]], List[bool], List[bool]]:
    """``(hint, is_local, sp_based)`` columns of a packed flags table."""
    gather = gatherer(flags)
    try:
        return (list(gather(_HINT_BY_FLAGS)), list(gather(_LOCAL_BY_FLAGS)),
                list(gather(_SP_BASED_BY_FLAGS)))
    except IndexError:
        raise TraceError(f"{origin}: flags table holds an invalid byte "
                         f"({max(flags)})") from None


class _Interned(dict):
    """Maps each operand tuple to the first equal tuple seen."""

    def __missing__(self, key):
        self[key] = key
        return key


def split_srcs(counts: Iterable[int], flat: array, origin: str
               ) -> List[Tuple[int, ...]]:
    """The ``srcs`` column from per-instruction operand counts and the
    flat operand table, one shared tuple per distinct operand list."""
    counts = list(counts)
    if sum(counts) != len(flat):
        raise TraceError(
            f"{origin}: srcs table has {len(flat)} entries, the operand "
            f"counts sum to {sum(counts)}")
    operands = iter(flat.tolist())
    return list(map(_Interned().__getitem__,
                    map(tuple, map(islice, repeat(operands), counts))))


def _canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _stats_header(stats: TraceStats) -> Dict[str, Any]:
    return {
        "instructions": stats.instructions,
        "loads": stats.loads,
        "stores": stats.stores,
        "local_loads": stats.local_loads,
        "local_stores": stats.local_stores,
        "sp_based_refs": stats.sp_based_refs,
        "ambiguous_refs": stats.ambiguous_refs,
        "calls": stats.calls,
        "max_call_depth": stats.max_call_depth,
        "frame_sizes": [[value, count]
                        for value, count in stats.frame_sizes.items()],
    }


def _stats_from_header(body: Dict[str, Any]) -> TraceStats:
    stats = TraceStats()
    for field in ("instructions", "loads", "stores", "local_loads",
                  "local_stores", "sp_based_refs", "ambiguous_refs",
                  "calls", "max_call_depth"):
        setattr(stats, field, int(body.get(field, 0)))
    histogram = Histogram()
    for value, count in body.get("frame_sizes", ()):
        histogram.add(int(value), int(count))
    stats.frame_sizes = histogram
    return stats


def _default_gates(stream: Stream) -> List[Tuple[int, int]]:
    """The gate list a default-geometry gshare frontend derives."""
    from repro.core.frontend import FrontendConfig, GshareFrontend

    return GshareFrontend(FrontendConfig(policy="gshare")).prepare(stream)


def encode_trace(trace: Trace,
                 meta: Optional[Dict[str, Any]] = None) -> bytes:
    """Serialize *trace* to the on-disk format; deterministic bytes.

    The same trace always encodes to the same bytes (canonical JSON
    header, no timestamps), so capture is content-addressable and the
    determinism test can compare files byte for byte.
    """
    stream = trace.insts
    n = len(stream)
    try:
        fu = array("B", stream.fu)
        dst = array("b", stream.dst)
        nsrc = array("B", map(len, stream.srcs))
        srcs = array("b", chain.from_iterable(stream.srcs))
        addr = array("I", stream.addr)
        size = array("B", stream.size)
        frame = array("I", stream.frame)
        offset = array("i", stream.offset)
        pc = array("I", stream.pc)
    except (OverflowError, TypeError) as exc:
        raise TraceError(
            f"the stream does not fit the trace format: {exc}") from None
    flags = pack_flags(stream)
    if not (len(dst) == len(nsrc) == len(addr) == len(size) == len(flags)
            == len(frame) == len(offset) == len(pc) == n):
        raise TraceError("the stream's columns differ in length")
    # A branch was taken iff the next committed instruction is not its
    # static successor.
    branch = bytearray((n + 7) >> 3)
    taken = map(ne, islice(stream.pc, 1, None), map(add, stream.pc,
                                                     repeat(1)))
    for i in compress(range(n - 1), map(
            bool.__and__, map(eq, stream.fu, repeat(_BRANCH)), taken)):
        branch[i >> 3] |= 1 << (i & 7)
    gates = _default_gates(stream)
    gate_index = array("I", (g for g, _code in gates))
    gate_code = array("B", (code for _g, code in gates))

    tables = {
        "fu": fu, "dst": dst, "nsrc": nsrc, "srcs": srcs, "addr": addr,
        "size": size, "flags": flags, "frame": frame, "offset": offset,
        "pc": pc, "branch": branch, "gate_index": gate_index,
        "gate_code": gate_code,
    }
    sections: List[Dict[str, Any]] = []
    chunks: List[bytes] = []
    position = 0
    for name, typecode in SECTIONS:
        table = tables[name]
        if isinstance(table, bytearray):
            raw = bytes(table)
            count = n  # bit-per-instruction table
        else:
            if not _LITTLE:
                table = array(typecode, table)
                table.byteswap()
            raw = table.tobytes()
            count = len(tables[name])
        sections.append({
            "name": name,
            "typecode": typecode,
            "count": count,
            "offset": position,
            "bytes": len(raw),
        })
        chunks.append(raw)
        position += len(raw)
    payload = b"".join(chunks)

    header: Dict[str, Any] = {
        "format": "repro.trace",
        "version": TRACE_FORMAT_VERSION,
        "workload": trace.name,
        "instructions": n,
        "byte_order": "little",
        "sections": sections,
        "stats": _stats_header(trace.stats),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    if meta:
        header["meta"] = meta
    header_bytes = _canonical_json(header).encode("utf-8")
    return (MAGIC + _HEADER_LEN.pack(len(header_bytes))
            + header_bytes + payload)


def _parse_header(data: bytes, origin: str) -> Tuple[Dict[str, Any], int]:
    """Validate magic/length/JSON/version; returns (header, payload off)."""
    if len(data) < len(MAGIC) + _HEADER_LEN.size:
        raise TraceError(f"{origin}: truncated trace (no header)")
    if data[:len(MAGIC)] != MAGIC:
        raise TraceError(f"{origin}: not a repro trace (bad magic)")
    (header_len,) = _HEADER_LEN.unpack_from(data, len(MAGIC))
    offset = len(MAGIC) + _HEADER_LEN.size + header_len
    if len(data) < offset:
        raise TraceError(f"{origin}: truncated trace header "
                         f"({header_len} bytes declared)")
    try:
        header = json.loads(
            data[len(MAGIC) + _HEADER_LEN.size:offset].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceError(f"{origin}: corrupt trace header: {exc}") from None
    version = header.get("version")
    if version != TRACE_FORMAT_VERSION:
        raise TraceError(
            f"{origin}: trace format version {version!r} is not the "
            f"version this build reads ({TRACE_FORMAT_VERSION}); "
            f"re-capture the trace")
    return header, offset


def _sections_by_name(header: Dict[str, Any], payload_len: int,
                      origin: str) -> Dict[str, Dict[str, Any]]:
    by_name: Dict[str, Dict[str, Any]] = {}
    for section in header.get("sections", ()):
        by_name[section["name"]] = section
        end = section["offset"] + section["bytes"]
        if end > payload_len:
            raise TraceError(
                f"{origin}: truncated trace payload — section "
                f"{section['name']!r} needs {end} bytes, "
                f"{payload_len} present")
    for name, _typecode in SECTIONS:
        if name not in by_name:
            raise TraceError(f"{origin}: trace is missing section {name!r}")
    return by_name


def _load_section(payload: bytes, section: Dict[str, Any]) -> array:
    table = array(section["typecode"])
    table.frombytes(
        payload[section["offset"]:section["offset"] + section["bytes"]])
    if not _LITTLE:
        table.byteswap()
    return table


def decode_trace(data: bytes, origin: str = "<bytes>",
                 verify: bool = True) -> Trace:
    """Deserialize one trace; raises :class:`TraceError` on any defect."""
    header, offset = _parse_header(data, origin)
    payload = memoryview(data)[offset:]
    by_name = _sections_by_name(header, len(payload), origin)
    if verify:
        got = hashlib.sha256(payload).hexdigest()
        want = header.get("payload_sha256")
        if got != want:
            raise TraceError(
                f"{origin}: trace payload checksum mismatch "
                f"(header {want}, payload {got}) — corrupt file")

    n = header["instructions"]
    tables = {name: _load_section(payload, by_name[name])
              for name in ("fu", "dst", "nsrc", "srcs", "addr", "size",
                           "flags", "frame", "offset", "pc")}
    for name, table in tables.items():
        if name != "srcs" and len(table) != n:
            raise TraceError(
                f"{origin}: section {name!r} holds {len(table)} entries "
                f"for {n} instructions")
    hint, is_local, sp_based = unpack_flags(tables["flags"], origin)
    stream = Stream(
        fu=tables["fu"].tolist(), dst=tables["dst"].tolist(),
        srcs=split_srcs(tables["nsrc"], tables["srcs"], origin),
        addr=tables["addr"].tolist(), size=tables["size"].tolist(),
        hint=hint, is_local=is_local, sp_based=sp_based,
        frame=tables["frame"].tolist(), offset=tables["offset"].tolist(),
        pc=tables["pc"].tolist())

    trace = Trace(header.get("workload", "<trace>"), stream)
    trace.stats = _stats_from_header(header.get("stats", {}))
    return trace


def read_trace(path: str, verify: bool = True) -> Trace:
    """Load one trace file (see :func:`decode_trace` for error behavior)."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise TraceError(f"cannot read trace {path!r}: {exc}") from None
    return decode_trace(data, origin=path, verify=verify)


def _read_header(path: str) -> Tuple[Dict[str, Any], int]:
    """Parsed header of a trace file and the payload's offset in it.

    Two reads, the magic and header length and then the header; the
    payload is never read.
    """
    try:
        with open(path, "rb") as handle:
            prefix = handle.read(len(MAGIC) + _HEADER_LEN.size)
            if len(prefix) < len(MAGIC) + _HEADER_LEN.size:
                raise TraceError(f"{path}: truncated trace (no header)")
            if prefix[:len(MAGIC)] != MAGIC:
                raise TraceError(f"{path}: not a repro trace (bad magic)")
            (header_len,) = _HEADER_LEN.unpack_from(prefix, len(MAGIC))
            header_bytes = handle.read(header_len)
    except OSError as exc:
        raise TraceError(f"cannot read trace {path!r}: {exc}") from None
    return _parse_header(prefix + header_bytes, origin=path)


def read_trace_header(path: str) -> Dict[str, Any]:
    """Parsed header of a trace file without reading the payload.

    The cheap identity probe: ``payload_sha256`` from the returned
    header is what derived artifacts (the predecode sidecar) are
    content-addressed to.
    """
    return _read_header(path)[0]


def write_trace(trace: Trace, path: str,
                meta: Optional[Dict[str, Any]] = None) -> str:
    """Serialize *trace* to *path* atomically; returns the path."""
    return write_atomic(path, encode_trace(trace, meta=meta))


def trace_info(path: str) -> Dict[str, Any]:
    """Header summary of a trace file without decoding the payload.

    Used by ``repro-cc trace info``: format version, workload, lengths,
    section table, statistics, capture metadata, and the payload hash.
    The declared payload length is checked against the file size, so a
    truncated file is reported here too.
    """
    header, offset = _read_header(path)
    try:
        file_size = os.path.getsize(path)
    except OSError as exc:
        raise TraceError(f"cannot read trace {path!r}: {exc}") from None
    payload_len = file_size - offset
    by_name = _sections_by_name(header, payload_len, path)
    declared = max(s["offset"] + s["bytes"] for s in by_name.values())
    return {
        "path": path,
        "file_bytes": file_size,
        "format": header.get("format"),
        "version": header.get("version"),
        "workload": header.get("workload"),
        "instructions": header.get("instructions"),
        "byte_order": header.get("byte_order"),
        "payload_bytes": declared,
        "payload_sha256": header.get("payload_sha256"),
        "sections": header.get("sections"),
        "stats": header.get("stats"),
        "meta": header.get("meta"),
    }
