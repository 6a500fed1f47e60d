"""On-disk trace format: round trips, determinism, corruption paths."""

from __future__ import annotations

import json
import struct

import pytest

from repro.errors import TraceError
from repro.trace.format import (
    MAGIC,
    SECTIONS,
    TRACE_FORMAT_VERSION,
    decode_trace,
    encode_trace,
    read_trace,
    trace_info,
    write_trace,
)
from repro.workloads.builder import build_trace

FIELDS = ("fu", "dst", "srcs", "addr", "size", "local_hint", "is_local",
          "sp_based", "frame_id", "offset", "pc")

_HEADER_START = len(MAGIC) + 4


@pytest.fixture(scope="module")
def trace():
    return build_trace("130.li", length=12_000, seed=3)


@pytest.fixture(scope="module")
def data(trace):
    return encode_trace(trace)


def _patch_header(data: bytes, mutate) -> bytes:
    """Rewrite the JSON header in place (payload untouched)."""
    (header_len,) = struct.unpack_from("<I", data, len(MAGIC))
    header = json.loads(data[_HEADER_START:_HEADER_START + header_len])
    mutate(header)
    raw = json.dumps(header, sort_keys=True,
                     separators=(",", ":")).encode("utf-8")
    return (MAGIC + struct.pack("<I", len(raw)) + raw
            + data[_HEADER_START + header_len:])


def test_round_trip_is_field_exact(trace, data):
    decoded = decode_trace(data)
    assert decoded.name == trace.name
    assert len(decoded) == len(trace)
    for original, copy in zip(trace.insts, decoded.insts):
        for field in FIELDS:
            assert getattr(copy, field) == getattr(original, field)


def test_round_trip_preserves_stats(trace, data):
    decoded = decode_trace(data)
    for field in ("instructions", "loads", "stores", "local_loads",
                  "local_stores", "sp_based_refs", "ambiguous_refs"):
        assert getattr(decoded.stats, field) == getattr(trace.stats, field)
    assert (sorted(decoded.stats.frame_sizes.items())
            == sorted(trace.stats.frame_sizes.items()))


def test_encode_is_deterministic(trace, data):
    assert encode_trace(trace) == data
    # And idempotent through a decode cycle.
    assert encode_trace(decode_trace(data)) == data


def test_write_is_byte_identical_across_runs(trace, tmp_path):
    first = tmp_path / "a.trace"
    second = tmp_path / "b.trace"
    write_trace(trace, str(first))
    write_trace(trace, str(second))
    assert first.read_bytes() == second.read_bytes()
    assert len(read_trace(str(first))) == len(trace)


def test_trace_info_reads_header_only(trace, tmp_path):
    path = str(tmp_path / "t.trace")
    write_trace(trace, path, meta={"kind": "trace-capture"})
    info = trace_info(path)
    assert info["version"] == TRACE_FORMAT_VERSION
    assert info["workload"] == trace.name
    assert info["instructions"] == len(trace)
    assert info["meta"] == {"kind": "trace-capture"}
    assert [s["name"] for s in info["sections"]] == [n for n, _ in SECTIONS]


def test_empty_and_short_inputs_rejected():
    with pytest.raises(TraceError, match="truncated"):
        decode_trace(b"")
    with pytest.raises(TraceError, match="truncated"):
        decode_trace(MAGIC + b"\x01")


def test_bad_magic_rejected(data):
    with pytest.raises(TraceError, match="bad magic"):
        decode_trace(b"NOTATRCE" + data[len(MAGIC):])


def test_garbage_header_rejected():
    body = b"not json!!"
    blob = MAGIC + struct.pack("<I", len(body)) + body
    with pytest.raises(TraceError, match="corrupt trace header"):
        decode_trace(blob)


def test_truncated_payload_rejected(data, tmp_path):
    truncated = data[:-64]
    with pytest.raises(TraceError):
        decode_trace(truncated)
    path = tmp_path / "cut.trace"
    path.write_bytes(truncated)
    with pytest.raises(TraceError, match="truncated trace payload"):
        trace_info(str(path))
    with pytest.raises(TraceError):
        read_trace(str(path))


def test_corrupt_payload_fails_checksum(data):
    flipped = bytearray(data)
    flipped[-1] ^= 0xFF
    with pytest.raises(TraceError, match="checksum mismatch"):
        decode_trace(bytes(flipped))


def test_verify_false_skips_checksum(data):
    # Corrupting a derived (gate) table leaves the instruction stream
    # intact, so the unverified decode still round-trips.
    flipped = bytearray(data)
    flipped[-1] ^= 0xFF
    decoded = decode_trace(bytes(flipped), verify=False)
    assert len(decoded) == len(decode_trace(data))


def test_version_skew_rejected(data):
    def bump(header):
        header["version"] = TRACE_FORMAT_VERSION + 1

    with pytest.raises(TraceError, match="format version"):
        decode_trace(_patch_header(data, bump))


def test_missing_section_rejected(data):
    def drop(header):
        header["sections"] = [s for s in header["sections"]
                              if s["name"] != "addr"]

    with pytest.raises(TraceError, match="missing section"):
        decode_trace(_patch_header(data, drop))


def test_nonexistent_file_rejected(tmp_path):
    with pytest.raises(TraceError, match="cannot read trace"):
        read_trace(str(tmp_path / "absent.trace"))


def _section_offset(data: bytes, name: str) -> int:
    """Byte offset of section *name*'s table within *data*."""
    (header_len,) = struct.unpack_from("<I", data, len(MAGIC))
    header = json.loads(data[_HEADER_START:_HEADER_START + header_len])
    section = next(s for s in header["sections"] if s["name"] == name)
    return _HEADER_START + header_len + section["offset"]


def test_invalid_flags_byte_rejected(data):
    broken = bytearray(data)
    broken[_section_offset(data, "flags")] = 0xFF
    with pytest.raises(TraceError, match="invalid byte"):
        decode_trace(bytes(broken), verify=False)


def test_inconsistent_operand_counts_rejected(data):
    broken = bytearray(data)
    broken[_section_offset(data, "nsrc")] += 1
    with pytest.raises(TraceError, match="operand counts sum"):
        decode_trace(bytes(broken), verify=False)


def test_unencodable_stream_rejected():
    from repro.vm.trace import DynInst, Stream, Trace

    trace = Trace("wide", Stream.from_insts([DynInst(1, dst=300)]))
    with pytest.raises(TraceError, match="does not fit"):
        encode_trace(trace)
