"""Sharded, content-addressed store of job results and captured traces.

Everything the runtime keeps on disk — pickled job results, captured
traces and their pre-decoded sidecars — lives in one directory tree,
fanned out by hash prefix, with a per-shard index that makes the store
administrable: ``repro-cc cache stats|verify|gc`` all read it.

Layout (under ``--cache-dir``, ``$REPRO_CACHE_DIR``, or ``~/.cache/repro``)::

    <cache_dir>/
      v2/
        <salt>/                   one tree per code salt: results under
                                  the simulator's, traces under the
                                  capture salt
          <key[:2]>/              256-way shard fan-out
            index.json            shard index: key -> entry record
            <key>.pkl             a pickled result, or
            <key>.trace           a captured trace
            <key>.pdt               and its pre-decoded sidecar

An **entry** is one key: its files, one index record and one LRU slot.
The record holds the job ``kind`` (the registry validates a pickled
payload's type on the way back out), the entry's ``files`` (suffixes),
their total ``size``, the payload ``sha256`` (integrity verification),
the last-access time ``atime`` and cumulative ``hits`` (LRU-by-atime GC
and stats), and the job's ``describe()`` as ``meta``.  A pickled result
is an entry with the single file ``.pkl``; a kind that writes its own
files (trace capture) writes them at :meth:`ResultStore.path`, records
them with :meth:`ResultStore.add`, and registers a ``check_files`` hook
that ``verify`` re-runs.

File writes are atomic (temp file + ``os.replace``); index writes are
too, and the index is *soft* metadata — files present on disk but
missing from the index are adopted on first touch, never lost, so a
racing writer that loses an index update costs bookkeeping precision,
not results.

Hit-path economy: lookups and writes buffer index movements in memory
and :meth:`flush` writes the dirty shards — the engine flushes once per
run, a sweep once per chunk — so a thousand-hit sweep does not rewrite
index files a thousand times.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.errors import ReproError
from repro.runtime.registry import kind_for, registered_kinds
from repro.utils import write_atomic

_FORMAT = "v2"
INDEX_NAME = "index.json"
INDEX_VERSION = 1
#: The files of a pickled-result entry.
PICKLE = (".pkl",)


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` or the conventional per-user cache location."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


class StoreProblem:
    """One defect ``verify`` found (reported, never raised)."""

    __slots__ = ("key", "shard", "issue")

    def __init__(self, key: str, shard: str, issue: str):
        self.key = key
        self.shard = shard
        self.issue = issue

    def __repr__(self) -> str:
        return f"StoreProblem({self.shard}/{self.key[:12]}: {self.issue})"


class ResultStore:
    """On-disk entries keyed by (code salt, job key), kind-checked."""

    def __init__(self, root: str, salt: str):
        self.root = root
        self.salt = salt
        self.dir = os.path.join(root, _FORMAT, salt)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        # shard -> (index dict, dirty flag); indexes load lazily.
        self._indexes: Dict[str, Tuple[Dict[str, Any], bool]] = {}

    # -- paths and indexes ---------------------------------------------------

    def path(self, key: str, suffix: str = ".pkl") -> str:
        """Where entry *key*'s *suffix* file lives (whether or not it
        exists)."""
        return os.path.join(self.dir, key[:2], key + suffix)

    def _index_path(self, shard: str) -> str:
        return os.path.join(self.dir, shard, INDEX_NAME)

    def _load_index(self, shard: str) -> Dict[str, Any]:
        cached = self._indexes.get(shard)
        if cached is not None:
            return cached[0]
        index = self._read_index(shard)
        self._indexes[shard] = (index, False)
        return index

    def _read_index(self, shard: str) -> Dict[str, Any]:
        try:
            with open(self._index_path(shard), "r") as handle:
                payload = json.load(handle)
            entries = payload.get("entries", {})
            if isinstance(entries, dict):
                return entries
        except (OSError, ValueError):
            pass
        return {}

    def _mark_dirty(self, shard: str) -> None:
        index = self._load_index(shard)
        self._indexes[shard] = (index, True)

    def flush(self) -> None:
        """Write every dirty shard index (merging with on-disk state)."""
        for shard, (index, dirty) in list(self._indexes.items()):
            if not dirty:
                continue
            merged = self._read_index(shard)
            for key, entry in index.items():
                known = merged.get(key)
                if known is not None:
                    # Keep the larger hit count / newer atime: another
                    # process may have advanced them concurrently.
                    entry = dict(entry)
                    entry["hits"] = max(entry.get("hits", 0),
                                        known.get("hits", 0))
                    entry["atime"] = max(entry.get("atime", 0.0),
                                         known.get("atime", 0.0))
                merged[key] = entry
            # Entries we deleted locally stay deleted.
            for key in [k for k, entry in merged.items()
                        if k not in index and not os.path.exists(
                            self.path(k, _files(entry)[0]))]:
                del merged[key]
            write_atomic(
                self._index_path(shard),
                json.dumps({"version": INDEX_VERSION, "entries": merged},
                           sort_keys=True, indent=1).encode("utf-8"))
            self._indexes[shard] = (merged, False)

    # -- pickled results -----------------------------------------------------

    def lookup(self, job) -> Optional[Any]:
        """The stored result for *job*, or None (corrupt entries = miss)."""
        kind = kind_for(job)
        key = job.key
        try:
            with open(self.path(key), "rb") as handle:
                data = handle.read()
            result = pickle.loads(data)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Truncated/corrupt (e.g. a killed writer pre-os.replace on a
            # filesystem without atomic rename): drop it and recompute.
            self.drop(key)
            self.misses += 1
            return None
        if not isinstance(result, kind.result_type):
            self.misses += 1
            return None
        self._touch(job, kind, data)
        self.hits += 1
        return result

    def store(self, job, result: Any) -> None:
        """Store *result* for *job* atomically and index it."""
        data = pickle.dumps(result, protocol=4)
        write_atomic(self.path(job.key), data)
        self.add(job, hashlib.sha256(data).hexdigest())

    # -- entries -------------------------------------------------------------

    def add(self, job, sha256: str) -> None:
        """Index *job*'s entry, whose files are already written at
        :meth:`path`; *sha256* is its payload hash."""
        key = job.key
        shard = key[:2]
        index = self._load_index(shard)
        record = self._record(job, kind_for(job), sha256)
        record["hits"] = index.get(key, {}).get("hits", 0)
        index[key] = record
        self._mark_dirty(shard)
        self.writes += 1

    def lookup_files(self, job, check: Callable[[], Any]) -> bool:
        """Whether *job*'s file entry is present and passes *check*.

        *check* raises ``OSError`` or a :class:`ReproError` on any
        defect; a defective entry is dropped.  Hits and misses count as
        for :meth:`lookup`.
        """
        kind = kind_for(job)
        key = job.key
        if os.path.exists(self.path(key, kind.files[0])):
            try:
                check()
            except (OSError, ReproError):
                self.drop(key, kind.files)
            else:
                self._touch(job, kind)
                self.hits += 1
                return True
        self.misses += 1
        return False

    def drop(self, key: str, files: Sequence[str] = PICKLE) -> None:
        """Remove entry *key*: its *files* and its index record."""
        for suffix in files:
            try:
                os.remove(self.path(key, suffix))
            except OSError:
                pass
        shard = key[:2]
        index = self._load_index(shard)
        if index.pop(key, None) is not None:
            self._mark_dirty(shard)

    def _size(self, key: str, files: Sequence[str]) -> int:
        size = 0
        for suffix in files:
            try:
                size += os.path.getsize(self.path(key, suffix))
            except OSError:
                pass
        return size

    def _record(self, job, kind, sha256: Optional[str]) -> Dict[str, Any]:
        """A fresh index record for *job*'s entry, whose files exist."""
        return {"kind": kind.name, "files": list(kind.files),
                "size": self._size(job.key, kind.files), "sha256": sha256,
                "atime": time.time(), "hits": 0, "meta": job.describe()}

    def _touch(self, job, kind, data: Optional[bytes] = None) -> None:
        key = job.key
        shard = key[:2]
        index = self._load_index(shard)
        entry = index.get(key)
        if entry is None:
            # Files present but unindexed (lost index race, manual
            # copy): adopt them into the index.
            entry = index[key] = self._record(
                job, kind,
                hashlib.sha256(data).hexdigest() if data is not None
                else None)
        entry["hits"] = entry.get("hits", 0) + 1
        entry["atime"] = time.time()
        self._mark_dirty(shard)

    # -- administration (repro-cc cache) -------------------------------------

    def shards(self) -> List[str]:
        """Every shard directory name present on disk, sorted."""
        try:
            return sorted(
                name for name in os.listdir(self.dir)
                if len(name) == 2
                and os.path.isdir(os.path.join(self.dir, name)))
        except OSError:
            return []

    def _iter_entries(self) -> Iterable[Tuple[str, str, Dict[str, Any]]]:
        """(shard, key, index record) for every entry on disk.

        Files are grouped into entries by key; unindexed entries are
        surfaced with a synthesized record so no administrative pass
        can miss data.
        """
        for shard in self.shards():
            index = self._load_index(shard)
            directory = os.path.join(self.dir, shard)
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            found: Dict[str, List[str]] = {}
            for name in names:
                key, dot, suffix = name.partition(".")
                if key and dot and name != INDEX_NAME:
                    found.setdefault(key, []).append("." + suffix)
            for key in sorted(found):
                entry = index.get(key)
                if entry is None:
                    files = sorted(found[key])
                    try:
                        atime = os.path.getmtime(self.path(key, files[0]))
                    except OSError:
                        continue
                    entry = {"kind": None, "files": files,
                             "size": self._size(key, files),
                             "sha256": None, "atime": atime,
                             "hits": 0, "unindexed": True}
                yield shard, key, entry

    def disk_stats(self) -> Dict[str, Any]:
        """Shard-by-shard sizes, entry counts, and cumulative hit counts."""
        self.flush()
        shards: Dict[str, Dict[str, Any]] = {}
        kinds: Dict[str, int] = {}
        total_bytes = 0
        total_entries = 0
        total_hits = 0
        for shard, _key, entry in self._iter_entries():
            agg = shards.setdefault(
                shard, {"entries": 0, "bytes": 0, "hits": 0})
            agg["entries"] += 1
            agg["bytes"] += entry.get("size", 0)
            agg["hits"] += entry.get("hits", 0)
            kind = entry.get("kind") or "?"
            kinds[kind] = kinds.get(kind, 0) + 1
            total_bytes += entry.get("size", 0)
            total_entries += 1
            total_hits += entry.get("hits", 0)
        return {
            "dir": self.dir,
            "salt": self.salt,
            "entries": total_entries,
            "bytes": total_bytes,
            "hits": total_hits,
            "kinds": kinds,
            "shards": shards,
        }

    def verify(self) -> List[StoreProblem]:
        """Integrity pass: every entry re-reads, hashes, and type-checks.

        A pickle must unpickle to its kind's result type; a file entry
        must pass its kind's ``check_files``.  Corrupt entries are
        *reported*, never raised — the caller (the ``repro-cc cache
        verify`` verb) decides what to do.
        """
        kinds = registered_kinds()
        problems: List[StoreProblem] = []
        for shard, key, entry in self._iter_entries():
            issue = self._check(key, entry, kinds)
            if issue is not None:
                problems.append(StoreProblem(key, shard, issue))
        return problems

    def _check(self, key: str, entry: Dict[str, Any],
               kinds: Dict[str, Any]) -> Optional[str]:
        """What is wrong with one entry, or None."""
        files = _files(entry)
        name = entry.get("kind")
        if name is not None and name not in kinds:
            return f"unknown kind {name!r}"
        if files != PICKLE:
            # An unindexed entry belongs to the kind that writes
            # exactly these files.
            kind = kinds[name] if name is not None else next(
                (k for k in kinds.values()
                 if sorted(k.files) == sorted(files)), None)
            if kind is None or kind.check_files is None:
                return f"no registered kind checks files {list(files)}"
            try:
                got = kind.check_files(self.path(key, ""))
            except Exception as exc:  # noqa: BLE001 - reported
                return f"{type(exc).__name__}: {exc}"
            return _hash_issue(entry, got)
        try:
            with open(self.path(key), "rb") as handle:
                data = handle.read()
        except OSError as exc:
            return f"unreadable: {exc}"
        issue = _hash_issue(entry, hashlib.sha256(data).hexdigest())
        if issue is not None:
            return issue
        try:
            result = pickle.loads(data)
        except Exception as exc:  # noqa: BLE001 - reported
            return f"does not unpickle: {type(exc).__name__}: {exc}"
        kind = kinds.get(name)
        if kind is not None and not isinstance(result, kind.result_type):
            return (f"payload is {type(result).__name__}, kind "
                    f"{name!r} expects {kind.result_type.__name__}")
        return None

    def gc(self, budget_bytes: int,
           dry_run: bool = False) -> Dict[str, Any]:
        """Evict least-recently-used entries until under *budget_bytes*
        (see :func:`gc_stores`)."""
        return gc_stores([self], budget_bytes, dry_run)

    # -- session counters ----------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Hits over lookups this session (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        """Session counters for the run manifest."""
        return {
            "dir": self.dir,
            "salt": self.salt,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return (f"ResultStore({self.dir!r}, hits={self.hits}, "
                f"misses={self.misses})")


def _files(entry: Dict[str, Any]) -> Tuple[str, ...]:
    return tuple(entry.get("files", PICKLE))


def _hash_issue(entry: Dict[str, Any], got: str) -> Optional[str]:
    want = entry.get("sha256")
    if want is None or got == want:
        return None
    return f"payload hash mismatch (index {want[:12]}, disk {got[:12]})"


def gc_stores(stores: Sequence[ResultStore], budget_bytes: int,
              dry_run: bool = False) -> Dict[str, Any]:
    """Evict least-recently-used entries of *stores* until their total
    size is under *budget_bytes*.

    One budget and one LRU order span every store, and an entry goes
    with all of its files.  Returns a report; with ``dry_run`` nothing
    is deleted and the report describes what *would* go.
    """
    if budget_bytes < 0:
        raise ValueError("GC budget must be >= 0 bytes")
    entries = []
    for store in stores:
        store.flush()
        entries.extend((store, shard, key, entry)
                       for shard, key, entry in store._iter_entries())
    entries.sort(key=lambda item: (item[3].get("atime", 0.0), item[2]))
    total = sum(entry.get("size", 0) for *_rest, entry in entries)
    evicted: List[Dict[str, Any]] = []
    freed = 0
    remaining = total
    for store, shard, key, entry in entries:
        if remaining <= budget_bytes:
            break
        size = entry.get("size", 0)
        evicted.append({"key": key, "shard": shard, "salt": store.salt,
                        "size": size, "kind": entry.get("kind"),
                        "atime": entry.get("atime", 0.0)})
        freed += size
        remaining -= size
        if not dry_run:
            store.drop(key, _files(entry))
    if not dry_run:
        for store in stores:
            store.flush()
    return {
        "budget_bytes": budget_bytes,
        "bytes_before": total,
        "bytes_after": remaining,
        "freed_bytes": freed,
        "evicted": evicted,
        "kept": len(entries) - len(evicted),
        "dry_run": dry_run,
    }


def runtime_store(cache_dir: Optional[str] = None,
                  salt: Optional[str] = None) -> Optional[ResultStore]:
    """The standard-location result store, or None when caching is off.

    Mirrors the session policy every runtime entry point shares: an
    explicit directory wins, then ``$REPRO_CACHE_DIR``, else no store.
    """
    from repro.runtime.signature import code_salt

    root = cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if not root:
        return None
    return ResultStore(root, salt if salt else code_salt())
