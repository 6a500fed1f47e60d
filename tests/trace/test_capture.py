"""Trace capture: determinism, content-addressed store, salting."""

from __future__ import annotations

import json
import os

import pytest

from repro.trace.capture import (
    TraceJob,
    TraceStore,
    build_capture,
    capture_salt,
    capture_trace,
)
from repro.trace.format import (
    TRACE_FORMAT_VERSION,
    read_trace,
    read_trace_header,
)

#: Small spec capture: scale far below the 10k-instruction floor, so the
#: functional frontend runs in milliseconds.
JOB_ARGS = dict(workload="130.li", scale=0.0001, seed=5)


def test_capture_is_byte_identical(tmp_path):
    """Same workload + config => byte-identical trace file."""
    job = TraceJob(**JOB_ARGS)
    path, cached = capture_trace(job, cache_dir=str(tmp_path))
    assert not cached
    first = open(path, "rb").read()
    path_again, cached = capture_trace(job, cache_dir=str(tmp_path),
                                       force=True)
    assert path_again == path and not cached
    assert open(path, "rb").read() == first


def test_capture_cache_hit(tmp_path):
    job = TraceJob(**JOB_ARGS)
    path, cached = capture_trace(job, cache_dir=str(tmp_path))
    assert not cached
    again, cached = capture_trace(job, cache_dir=str(tmp_path))
    assert cached and again == path


def test_store_layout_and_meta_sidecar(tmp_path):
    job = TraceJob(**JOB_ARGS)
    path, _cached = capture_trace(job, cache_dir=str(tmp_path))
    store = TraceStore(str(tmp_path))
    assert path == store.path(job.key)
    assert path.endswith(os.path.join(job.key[:2], job.key + ".trace"))
    assert os.sep + "v2" + os.sep in path
    # The job's description is the entry's meta in the shard index.
    with open(os.path.join(os.path.dirname(path), "index.json")) as handle:
        entry = json.load(handle)["entries"][job.key]
    assert entry["kind"] == "trace"
    assert entry["meta"]["kind"] == "trace-capture"
    assert entry["meta"]["workload"] == "130.li"
    # The stored file replays into the same stream the frontend built.
    assert len(read_trace(path)) == len(build_capture(job))


def test_capture_writes_one_store_entry(tmp_path):
    job = TraceJob(**JOB_ARGS)
    path, _cached = capture_trace(job, cache_dir=str(tmp_path))
    files = sorted(
        os.path.relpath(os.path.join(root, name), str(tmp_path))
        for root, _dirs, names in os.walk(str(tmp_path)) for name in names)
    shard = os.path.join("v2", capture_salt(), job.key[:2])
    assert files == [os.path.join(shard, name) for name in
                     (job.key + ".pdt", job.key + ".trace", "index.json")]
    with open(os.path.join(str(tmp_path), shard, "index.json")) as handle:
        entries = json.load(handle)["entries"]
    assert list(entries) == [job.key]
    entry = entries[job.key]
    assert entry["files"] == [".trace", ".pdt"]
    assert entry["size"] == (os.path.getsize(path) + os.path.getsize(
        TraceStore(str(tmp_path)).predecoded_path(job.key)))
    assert entry["sha256"] == read_trace_header(path)["payload_sha256"]


def test_corrupt_stored_trace_is_recaptured(tmp_path):
    job = TraceJob(**JOB_ARGS)
    path, _cached = capture_trace(job, cache_dir=str(tmp_path))
    good = open(path, "rb").read()
    with open(path, "r+b") as handle:
        handle.write(b"\0" * 8)  # overwrite the magic
    again, cached = capture_trace(job, cache_dir=str(tmp_path))
    assert again == path and not cached
    assert open(path, "rb").read() == good
    assert capture_trace(job, cache_dir=str(tmp_path)) == (path, True)


def test_capture_salt_names_format_version():
    salt = capture_salt()
    assert salt.startswith(f"trace{TRACE_FORMAT_VERSION}-")
    assert salt == capture_salt()  # memoised, stable within a process


def test_salt_override_composes(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_SALT", "pinned")
    assert capture_salt() == f"trace{TRACE_FORMAT_VERSION}-pinned"


def test_job_key_tracks_inputs():
    base = TraceJob(**JOB_ARGS)
    assert TraceJob(**JOB_ARGS).key == base.key
    assert TraceJob("130.li", scale=0.0002, seed=5).key != base.key
    assert TraceJob("130.li", scale=0.0001, seed=6).key != base.key
    assert TraceJob("129.compress", scale=0.0001, seed=5).key != base.key


def test_source_capture(tmp_path):
    job = TraceJob(
        "sum.mc", source_text=(
            "int main() {\n"
            "    int i; int total = 0;\n"
            "    for (i = 0; i < 50; i++) total += i;\n"
            "    return 0;\n"
            "}\n"),
    )
    path, cached = capture_trace(job, cache_dir=str(tmp_path))
    assert not cached
    trace = read_trace(path)
    assert trace.name == "sum.mc"
    assert len(trace) > 0


def test_empty_capture_rejected(tmp_path, monkeypatch):
    from repro.errors import TraceError
    from repro.trace import capture as capture_module
    from repro.vm.trace import Trace

    monkeypatch.setattr(capture_module, "build_capture",
                        lambda job: Trace("hollow"))
    with pytest.raises(TraceError, match="empty trace"):
        capture_trace(TraceJob(**JOB_ARGS), cache_dir=str(tmp_path))
