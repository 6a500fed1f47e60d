"""The sharded store: round-trips, salting, integrity, GC, trace entries."""

from __future__ import annotations

import hashlib
import json
import os
import pickle

import pytest

from repro.runtime.registry import JobKind, register_kind
from repro.runtime.store import (
    ResultStore,
    StoreProblem,
    default_cache_dir,
    gc_stores,
    runtime_store,
)
from repro.trace.capture import TraceJob, TraceStore, capture_trace


class BlobResult:
    """Trivial result type for store tests (fast, no simulator)."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, BlobResult) and other.value == self.value


class BlobJob:
    """Trivial job spec: content-addressed by name."""

    kind = "blob-test"

    def __init__(self, name, payload=None):
        self.name = name
        self.payload = payload if payload is not None else name
        self.workload = name
        self.scale = 1.0
        self.seed = 1

    @property
    def key(self):
        return hashlib.sha256(self.name.encode("utf-8")).hexdigest()

    def describe(self):
        return {"name": self.name}

    def label(self):
        return self.name


def execute_blob(job):
    return BlobResult(job.payload)


register_kind(JobKind("blob-test", BlobJob, BlobResult, execute_blob))


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path), salt="t")


def test_round_trip_and_counters(store):
    job = BlobJob("alpha", payload=[1, 2, 3])
    assert store.lookup(job) is None
    store.store(job, BlobResult([1, 2, 3]))
    found = store.lookup(job)
    assert found == BlobResult([1, 2, 3])
    assert store.writes == 1 and store.hits == 1 and store.misses == 1
    assert 0.0 < store.hit_rate < 1.0
    stats = store.stats()
    assert stats["writes"] == 1 and stats["hits"] == 1
    assert stats["salt"] == "t"


def test_flush_writes_shard_index(store):
    job = BlobJob("beta")
    store.store(job, BlobResult("beta"))
    store.lookup(job)
    store.flush()
    shard = job.key[:2]
    index_path = os.path.join(store.dir, shard, "index.json")
    with open(index_path) as handle:
        body = json.load(handle)
    entry = body["entries"][job.key]
    assert entry["kind"] == "blob-test"
    assert entry["hits"] == 1
    assert entry["size"] > 0
    assert len(entry["sha256"]) == 64
    assert entry["meta"] == {"name": "beta"}


def test_payload_lives_in_hash_prefixed_shard(store):
    job = BlobJob("gamma")
    store.store(job, BlobResult("gamma"))
    expected = os.path.join(store.dir, job.key[:2], job.key + ".pkl")
    assert os.path.exists(expected)


def test_corrupt_payload_is_a_miss_and_gets_dropped(store):
    job = BlobJob("delta")
    store.store(job, BlobResult("delta"))
    path = os.path.join(store.dir, job.key[:2], job.key + ".pkl")
    with open(path, "wb") as handle:
        handle.write(b"not a pickle")
    assert store.lookup(job) is None
    assert not os.path.exists(path)
    # The next run recomputes and re-stores cleanly.
    store.store(job, BlobResult("delta"))
    assert store.lookup(job) == BlobResult("delta")


def test_wrong_result_type_is_a_miss(store):
    job = BlobJob("epsilon")
    path = os.path.join(store.dir, job.key[:2], job.key + ".pkl")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as handle:
        pickle.dump({"not": "a BlobResult"}, handle)
    assert store.lookup(job) is None
    assert store.misses == 1


def test_code_salt_invalidates(tmp_path):
    """A new code version must never serve results from an old one."""
    job = BlobJob("zeta")
    old = ResultStore(str(tmp_path), salt="code-v1")
    old.store(job, BlobResult("zeta"))
    new = ResultStore(str(tmp_path), salt="code-v2")
    assert new.lookup(job) is None
    # ... while the old version's entries stay untouched.
    assert old.lookup(job) == BlobResult("zeta")


def test_unindexed_payload_adopted_on_touch(store):
    job = BlobJob("eta")
    path = os.path.join(store.dir, job.key[:2], job.key + ".pkl")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as handle:
        pickle.dump(BlobResult("eta"), handle)
    assert store.lookup(job) == BlobResult("eta")
    store.flush()
    with open(os.path.join(store.dir, job.key[:2], "index.json")) as handle:
        entries = json.load(handle)["entries"]
    assert entries[job.key]["kind"] == "blob-test"
    assert entries[job.key]["hits"] == 1


def test_verify_clean_store_reports_nothing(store):
    for name in ("a1", "a2", "a3"):
        store.store(BlobJob(name), BlobResult(name))
    assert store.verify() == []


def test_verify_reports_corruption_without_raising(store):
    good = BlobJob("good")
    bad = BlobJob("bad")
    store.store(good, BlobResult("good"))
    store.store(bad, BlobResult("bad"))
    store.flush()
    path = os.path.join(store.dir, bad.key[:2], bad.key + ".pkl")
    with open(path, "ab") as handle:
        handle.write(b"tamper")  # hash mismatch, still unpickles

    problems = store.verify()
    assert len(problems) == 1
    assert isinstance(problems[0], StoreProblem)
    assert problems[0].key == bad.key
    assert "hash mismatch" in problems[0].issue


def test_gc_evicts_lru_until_under_budget(store):
    jobs = [BlobJob(f"gc-{i}", payload="x" * 100) for i in range(4)]
    for job in jobs:
        store.store(job, BlobResult(job.payload))
    store.flush()
    # Pin distinct access times so LRU order is deterministic: gc-0 is
    # coldest, gc-3 hottest.
    for rank, job in enumerate(jobs):
        shard = job.key[:2]
        index = store._load_index(shard)
        index[job.key]["atime"] = 1000.0 + rank
        store._mark_dirty(shard)
    store.flush()

    before = store.disk_stats()
    per_entry = before["bytes"] // 4
    budget = per_entry * 2  # room for two entries

    dry = store.gc(budget, dry_run=True)
    assert dry["dry_run"] is True
    assert [e["key"] for e in dry["evicted"]] == [jobs[0].key, jobs[1].key]
    # Dry run deletes nothing.
    assert all(store.lookup(job) is not None for job in jobs)

    report = store.gc(budget)
    assert report["dry_run"] is False
    assert [e["key"] for e in report["evicted"]] == [jobs[0].key,
                                                     jobs[1].key]
    assert report["bytes_after"] <= budget
    assert report["freed_bytes"] == report["bytes_before"] - report["bytes_after"]
    assert store.lookup(jobs[0]) is None
    assert store.lookup(jobs[1]) is None
    assert store.lookup(jobs[2]) is not None
    assert store.lookup(jobs[3]) is not None
    assert store.gc(budget, dry_run=True)["evicted"] == []


def test_gc_rejects_negative_budget(store):
    with pytest.raises(ValueError):
        store.gc(-1)


def test_disk_stats_aggregates_kinds_and_shards(store):
    for name in ("s1", "s2"):
        store.store(BlobJob(name), BlobResult(name))
    stats = store.disk_stats()
    assert stats["entries"] == 2
    assert stats["bytes"] > 0
    assert stats["kinds"] == {"blob-test": 2}
    assert sum(s["entries"] for s in stats["shards"].values()) == 2


def test_runtime_store_respects_env(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert runtime_store() is None
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    store = runtime_store(salt="t")
    assert store is not None
    assert store.root == str(tmp_path)
    explicit = runtime_store(str(tmp_path / "other"), salt="t")
    assert explicit.root == str(tmp_path / "other")


def test_default_cache_dir_env(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
    assert default_cache_dir() == "/tmp/somewhere"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", "/tmp/xdg")
    assert default_cache_dir() == os.path.join("/tmp/xdg", "repro")


# -- trace entries -------------------------------------------------------------

#: Far below the 10k-instruction floor: the capture takes milliseconds.
TRACE_JOB = dict(workload="130.li", scale=0.0001, seed=5)


@pytest.fixture
def traces(tmp_path):
    job = TraceJob(**TRACE_JOB)
    capture_trace(job, cache_dir=str(tmp_path))
    return TraceStore(str(tmp_path)), job


def test_disk_stats_counts_a_trace_with_both_files(traces):
    trace_store, job = traces
    stats = trace_store.store.disk_stats()
    assert stats["entries"] == 1
    assert stats["kinds"] == {"trace": 1}
    assert stats["bytes"] == (
        os.path.getsize(trace_store.path(job.key))
        + os.path.getsize(trace_store.predecoded_path(job.key)))


def test_verify_reports_a_flipped_trace_payload_byte(traces):
    trace_store, job = traces
    assert trace_store.store.verify() == []
    path = trace_store.path(job.key)
    with open(path, "r+b") as handle:
        handle.seek(-8, os.SEEK_END)
        byte = handle.read(1)
        handle.seek(-8, os.SEEK_END)
        handle.write(bytes([byte[0] ^ 0xFF]))
    problems = trace_store.store.verify()
    assert [p.key for p in problems] == [job.key]
    assert "checksum mismatch" in problems[0].issue


def test_verify_reports_a_stale_sidecar(traces):
    from repro.trace.predecode import read_predecoded, write_predecoded

    trace_store, job = traces
    sidecar = trace_store.predecoded_path(job.key)
    stale = read_predecoded(sidecar)
    stale.source_sha256 = "f" * 64
    write_predecoded(stale, sidecar)
    problems = trace_store.store.verify()
    assert [p.key for p in problems] == [job.key]
    assert "another trace" in problems[0].issue


def test_verify_reports_a_trace_that_is_not_the_indexed_one(traces,
                                                            tmp_path):
    trace_store, job = traces
    other = TraceJob("129.compress", scale=0.0001, seed=5)
    capture_trace(other, cache_dir=str(tmp_path))
    # A well-formed trace and sidecar, but not the capture indexed here.
    for source, target in ((trace_store.path(other.key),
                            trace_store.path(job.key)),
                           (trace_store.predecoded_path(other.key),
                            trace_store.predecoded_path(job.key))):
        with open(source, "rb") as src, open(target, "wb") as dst:
            dst.write(src.read())
    problems = trace_store.store.verify()
    assert [p.key for p in problems] == [job.key]
    assert "hash mismatch" in problems[0].issue


def test_gc_evicts_a_trace_with_its_sidecar(traces):
    trace_store, job = traces
    report = trace_store.store.gc(0)
    assert [e["kind"] for e in report["evicted"]] == ["trace"]
    assert not os.path.exists(trace_store.path(job.key))
    assert not os.path.exists(trace_store.predecoded_path(job.key))
    assert trace_store.store.disk_stats()["entries"] == 0


def test_one_budget_spans_result_and_trace_trees(traces, tmp_path):
    trace_store, job = traces
    results = ResultStore(str(tmp_path), salt="t")
    blob = BlobJob("kept")
    results.store(blob, BlobResult("kept"))
    results.flush()
    # The trace is older: one budget with room for the pickle only
    # evicts the trace and keeps the newer result.
    index = trace_store.store._load_index(job.key[:2])
    index[job.key]["atime"] = 1.0
    trace_store.store._mark_dirty(job.key[:2])
    budget = results.disk_stats()["bytes"]
    report = gc_stores([results, trace_store.store], budget)
    assert [e["key"] for e in report["evicted"]] == [job.key]
    assert results.lookup(blob) == BlobResult("kept")
