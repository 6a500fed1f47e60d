"""Pre-decoded sidecar: determinism, corruption handling, equivalence.

The sidecar (:mod:`repro.trace.predecode`) is a derived artifact, so
its whole contract is: deterministic bytes, loud failure on any defect,
and a loaded stream indistinguishable from decoding the raw trace — on
every golden-matrix configuration.
"""

from __future__ import annotations

import json
import os
import struct

import pytest

from repro.core.processor import Processor
from repro.errors import TraceError
from repro.perf.golden import GOLDEN_CONFIGS, diff_results, golden_config
from repro.trace import predecode
from repro.trace.format import decode_trace, encode_trace, write_trace
from repro.trace.predecode import (
    MAGIC,
    decode_predecoded,
    encode_predecoded,
    load_stream,
    predecode_trace,
    read_predecoded,
    write_predecoded,
)
from repro.trace.replay import replay, replay_fast, replay_insts
from repro.vm.trace import Stream


@pytest.fixture(autouse=True)
def _cold_memo():
    predecode.clear_materialized()
    yield
    predecode.clear_materialized()


@pytest.fixture(scope="module")
def li_blob(small_li_trace):
    return encode_trace(small_li_trace)


def _mutate_header(blob: bytes, **changes) -> bytes:
    """Re-pack a sidecar blob with header fields overridden."""
    (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    start = len(MAGIC) + 4
    header = json.loads(blob[start:start + header_len])
    header.update(changes)
    raw = json.dumps(header, sort_keys=True,
                     separators=(",", ":")).encode("utf-8")
    return (MAGIC + struct.pack("<I", len(raw)) + raw
            + blob[start + header_len:])


def test_round_trip_is_deterministic(li_blob):
    pdt = predecode_trace(li_blob)
    blob1 = encode_predecoded(pdt)
    blob2 = encode_predecoded(predecode_trace(li_blob))
    assert blob1 == blob2
    blob3 = encode_predecoded(decode_predecoded(blob1))
    assert blob1 == blob3


def test_derived_tables_are_consistent(li_blob, small_li_trace):
    """Every sidecar table is one the loader reads: the per-instruction
    columns plus the distinct operand-list table ``src_id`` indexes."""
    pdt = predecode_trace(li_blob)
    t = pdt.tables
    stream = small_li_trace.insts
    assert pdt.n == len(stream)
    assert sorted(t) == sorted(name for name, _ in predecode.SECTIONS)
    offsets = [0]
    for count in t["src_count"]:
        offsets.append(offsets[-1] + count)
    assert offsets[-1] == len(t["src_regs"])
    lists = [tuple(t["src_regs"][lo:hi])
             for lo, hi in zip(offsets, offsets[1:])]
    assert len(set(lists)) == len(lists)  # each distinct list once
    assert [lists[i] for i in t["src_id"]] == stream.srcs
    for name in ("fu", "dst", "addr", "size", "frame", "offset", "pc"):
        assert t[name].tolist() == getattr(stream, name)


def test_materialize_matches_raw_decode(li_blob):
    raw = decode_trace(li_blob).insts
    got = load_stream(predecode_trace(li_blob))
    assert len(raw) == len(got)
    for column in Stream.COLUMNS:
        assert getattr(got, column) == getattr(raw, column), column
    # Equal operand lists share one tuple.
    assert len({id(srcs) for srcs in got.srcs}) == len(set(got.srcs))


def test_materialization_is_memoized(li_blob):
    pdt = predecode_trace(li_blob)
    first = load_stream(pdt)
    again = load_stream(decode_predecoded(encode_predecoded(pdt)))
    assert again is first
    assert predecode.cached_stream(pdt.source_sha256) is first
    predecode.clear_materialized()
    assert predecode.cached_stream(pdt.source_sha256) is None


def test_bad_magic_raises(li_blob):
    blob = encode_predecoded(predecode_trace(li_blob))
    with pytest.raises(TraceError, match="bad magic"):
        decode_predecoded(b"NOTAPDT!" + blob[8:])


def test_truncation_raises(li_blob):
    blob = encode_predecoded(predecode_trace(li_blob))
    with pytest.raises(TraceError, match="truncated"):
        decode_predecoded(blob[:6])
    # With verification on, the checksum catches the truncation; with it
    # off, the section bounds check still refuses the short payload.
    with pytest.raises(TraceError, match="checksum mismatch"):
        decode_predecoded(blob[:len(blob) // 2])
    with pytest.raises(TraceError, match="truncated"):
        decode_predecoded(blob[:len(blob) // 2], verify=False)


def test_payload_corruption_raises(li_blob):
    blob = bytearray(encode_predecoded(predecode_trace(li_blob)))
    blob[-10] ^= 0xFF
    with pytest.raises(TraceError, match="checksum mismatch"):
        decode_predecoded(bytes(blob))


def test_version_skew_raises(li_blob):
    blob = encode_predecoded(predecode_trace(li_blob))
    skewed = _mutate_header(blob,
                            version=predecode.PREDECODE_VERSION + 1)
    with pytest.raises(TraceError, match="version"):
        decode_predecoded(skewed)


def test_missing_source_hash_raises(li_blob):
    blob = encode_predecoded(predecode_trace(li_blob))
    with pytest.raises(TraceError, match="source_sha256"):
        decode_predecoded(_mutate_header(blob, source_sha256=""))


def test_corrupt_trace_refused_at_predecode(li_blob):
    broken = bytearray(li_blob)
    broken[-1] ^= 0xFF
    with pytest.raises(TraceError, match="checksum mismatch"):
        predecode_trace(bytes(broken))


def test_unknown_functional_unit_refused_at_predecode():
    from repro.vm.trace import DynInst, Trace

    trace = Trace("bad-fu", Stream.from_insts([DynInst(99, dst=8)]))
    with pytest.raises(TraceError, match="unknown functional-unit class"):
        predecode_trace(encode_trace(trace))


def test_file_round_trip(li_blob, tmp_path):
    pdt = predecode_trace(li_blob)
    path = str(tmp_path / "li.pdt")
    write_predecoded(pdt, path)
    loaded = read_predecoded(path)
    assert loaded.source_sha256 == pdt.source_sha256
    assert loaded.tables["pc"] == pdt.tables["pc"]
    with pytest.raises(TraceError, match="cannot read"):
        read_predecoded(str(tmp_path / "absent.pdt"))


@pytest.mark.parametrize("notation", [name for name, _kw in GOLDEN_CONFIGS])
def test_sidecar_replay_matches_raw_replay(notation, small_li_trace,
                                           li_blob):
    """Golden matrix: replay from the sidecar == replay from the raw
    trace, cycles + instructions + full counter dict."""
    config = golden_config(notation)
    expected = Processor(config).run(
        decode_trace(li_blob).insts, "130.li")
    stream = load_stream(predecode_trace(li_blob))
    actual = Processor(golden_config(notation)).run(stream, "130.li")
    assert diff_results("130.li", notation, expected, actual) == []


def test_sidecar_replay_second_workload(small_vortex_trace):
    blob = encode_trace(small_vortex_trace)
    config = golden_config("2+2:opt")
    expected = Processor(config).run(decode_trace(blob).insts,
                                     "147.vortex")
    stream = load_stream(predecode_trace(blob))
    actual = Processor(golden_config("2+2:opt")).run(stream, "147.vortex")
    assert diff_results("147.vortex", "2+2:opt", expected, actual) == []


def test_replay_fast_from_file(small_li_trace, tmp_path,
                               decoupled_config):
    path = str(tmp_path / "li.trace")
    write_trace(small_li_trace, path)
    expected = replay(path, decoupled_config)
    # No sidecar yet: derived in memory.
    actual = replay_fast(path, decoupled_config)
    assert diff_results("130.li", "2+2:opt", expected, actual) == []
    # With the sidecar on disk, and again from the warm memo.
    write_predecoded(predecode_trace(open(path, "rb").read()),
                     str(tmp_path / "li.pdt"))
    predecode.clear_materialized()
    actual = replay_fast(path, decoupled_config)
    assert diff_results("130.li", "2+2:opt", expected, actual) == []
    insts_a, _ = replay_insts(path)
    insts_b, _ = replay_insts(path)
    assert insts_a is insts_b


def test_stale_sidecar_is_ignored(small_li_trace, tmp_path,
                                  decoupled_config):
    path = str(tmp_path / "li.trace")
    write_trace(small_li_trace, path)
    expected = replay(path, decoupled_config)
    pdt = predecode_trace(open(path, "rb").read())
    pdt.source_sha256 = "0" * 64
    write_predecoded(pdt, str(tmp_path / "li.pdt"))
    actual = replay_fast(path, decoupled_config)
    assert diff_results("130.li", "2+2:opt", expected, actual) == []


def test_store_derives_and_revalidates_sidecar(tmp_path):
    from repro.trace.capture import TraceJob, TraceStore, capture_trace

    job = TraceJob("mini.qsort", seed=3)
    path, cached = capture_trace(job, cache_dir=str(tmp_path))
    assert not cached
    store = TraceStore(str(tmp_path))
    sidecar = store.predecoded_path(job.key)
    assert os.path.exists(sidecar)
    good = read_predecoded(sidecar)
    # A deleted sidecar is re-derived on the next cache hit.
    os.remove(sidecar)
    _path, cached = capture_trace(job, cache_dir=str(tmp_path))
    assert cached and os.path.exists(sidecar)
    # A stale sidecar (wrong source hash) is rewritten, not trusted.
    stale = read_predecoded(sidecar)
    stale.source_sha256 = "f" * 64
    write_predecoded(stale, sidecar)
    assert store.ensure_predecoded(job.key) == sidecar
    assert read_predecoded(sidecar).source_sha256 == good.source_sha256
    # No stored trace -> no sidecar.
    assert store.ensure_predecoded("0" * 40) is None


def test_old_version_sidecar_is_rederived(tmp_path):
    """A sidecar of another layout version (e.g. version 1, which wrote
    the unread ``lat``/``word``/``line`` tables) is refused and
    rewritten, like a stale one."""
    from repro.trace.capture import TraceJob, TraceStore, capture_trace

    job = TraceJob("mini.qsort", seed=3)
    capture_trace(job, cache_dir=str(tmp_path))
    store = TraceStore(str(tmp_path))
    sidecar = store.predecoded_path(job.key)
    with open(sidecar, "rb") as handle:
        current = handle.read()
    with open(sidecar, "wb") as handle:
        handle.write(_mutate_header(current, version=1))
    with pytest.raises(TraceError, match="version"):
        read_predecoded(sidecar)
    assert store.ensure_predecoded(job.key) == sidecar
    with open(sidecar, "rb") as handle:
        assert handle.read() == current
