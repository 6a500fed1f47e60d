"""Trace capture: run the functional frontend once, serialize forever.

A :class:`TraceJob` names everything that determines a committed dynamic
stream — the workload (or inline source), its scale/seed, and the
compile-relevant options — exactly the frontend half of a
:class:`repro.runtime.job.SimJob` (the machine configuration is absent:
the committed stream does not depend on it).  A captured trace is one
``trace`` entry of the sharded :class:`~repro.runtime.store.ResultStore`::

    <cache_dir>/v2/<capture_salt>/<key[:2]>/<key>.trace   (+ <key>.pdt)

under its **own code salt**: :func:`capture_salt` hashes only the
sources that can change a committed stream (lang/vm/isa/asm/workloads —
see ``TRACE_SALT_SOURCES``) plus the trace-format version, so editing
the timing kernel keeps captured traces valid while editing the
compiler or VM — or bumping the format — invalidates them all.  The
shard index records the entry like any other (size, payload hash,
atime, hits, the job's ``describe()``), so ``repro-cc cache
stats|verify|gc`` cover traces too.

Next to each ``.trace`` the entry keeps a derived ``.pdt`` sidecar
(:mod:`repro.trace.predecode`): the stream's columns in the form the
replay fast path loads in bulk instead of re-parsing the trace.  Sidecars
are content-addressed to the trace's payload hash and re-derived on
demand, so they are pure cache — deleting one costs a rebuild, never
correctness.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Tuple

from repro.errors import TraceError
from repro.runtime.registry import JobKind, register_kind
from repro.runtime.signature import (
    TRACE_SALT_SOURCES,
    canonical_json,
    digest,
    source_salt,
)
from repro.runtime.store import ResultStore, default_cache_dir
from repro.trace import predecode
from repro.trace.format import (
    TRACE_FORMAT_VERSION,
    encode_trace,
    read_trace_header,
)
from repro.utils import write_atomic
from repro.vm.trace import Trace

_CAPTURE_SALT: Dict[str, str] = {}


def capture_salt() -> str:
    """The code-salt entry captured traces are stored under.

    ``trace<version>-<hash>``: the format version is spelled out in the
    directory name (debuggability), and the hash covers the frontend
    sources.  ``REPRO_CACHE_SALT`` composes rather than replaces — the
    override still gets a distinct trace entry, so pinned-salt test
    caches can never confuse a pickled SimResult with a trace file.
    """
    override = os.environ.get("REPRO_CACHE_SALT")
    if override:
        return f"trace{TRACE_FORMAT_VERSION}-{override}"
    cached = _CAPTURE_SALT.get("salt")
    if cached is None:
        cached = (f"trace{TRACE_FORMAT_VERSION}-"
                  f"{source_salt(TRACE_SALT_SOURCES)}")
        _CAPTURE_SALT["salt"] = cached
    return cached


class TraceJob:
    """Spec of one capture: the frontend half of a ``SimJob``.

    Field-compatible with the attributes
    :func:`repro.runtime.worker.trace_for_job` reads, so the same worker
    code builds traces for capture and for execution-driven simulation.
    """

    __slots__ = ("workload", "scale", "seed", "source_text", "optimize",
                 "opt_level", "max_instructions", "_key")

    kind = "trace"

    def __init__(
        self,
        workload: str,
        scale: float = 1.0,
        seed: int = 1,
        source_text: Optional[str] = None,
        optimize: bool = True,
        opt_level: Optional[int] = None,
        max_instructions: Optional[int] = None,
    ):
        self.workload = workload
        self.scale = scale
        self.seed = seed
        self.source_text = source_text
        self.optimize = optimize
        self.opt_level = opt_level
        self.max_instructions = max_instructions
        self._key: Optional[str] = None

    def describe(self) -> Dict[str, Any]:
        """Everything that can affect the captured stream (JSON-able)."""
        body: Dict[str, Any] = {
            "kind": "trace-capture",
            "format_version": TRACE_FORMAT_VERSION,
            "workload": self.workload,
            "scale": self.scale,
            "seed": self.seed,
        }
        if self.source_text is not None:
            body["source"] = {
                "sha256": digest(self.source_text),
                "optimize": self.optimize,
                "opt_level": self.opt_level,
                "max_instructions": self.max_instructions,
            }
        return body

    @property
    def key(self) -> str:
        """Content-addressed identity of the capture."""
        if self._key is None:
            self._key = digest(canonical_json(self.describe()))
        return self._key

    def label(self) -> str:
        """Short human-readable tag for progress lines."""
        return f"capture {self.workload}"

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__
                if name != "_key"}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        self._key = None

    def __repr__(self) -> str:
        return (f"TraceJob({self.workload!r}, scale={self.scale}, "
                f"seed={self.seed})")


class TraceStore:
    """Captured traces as ``trace`` entries of a :class:`ResultStore`.

    An entry holds the trace (``.trace``, the raw format: checksummed and
    versioned by :mod:`repro.trace.format`) and its derived sidecar
    (``.pdt``) under one key.  The result store owns the layout, the
    index and the LRU; this class does the trace-specific work:
    serializing a capture and deriving its sidecar.
    """

    FILES = (".trace", ".pdt")

    def __init__(self, root: Optional[str] = None,
                 salt: Optional[str] = None):
        self.store = ResultStore(root if root else default_cache_dir(),
                                 salt if salt else capture_salt())

    def path(self, key: str) -> str:
        """Where the trace for *key* lives (whether or not it exists)."""
        return self.store.path(key, ".trace")

    def predecoded_path(self, key: str) -> str:
        """Where the pre-decoded sidecar for *key* lives."""
        return self.store.path(key, ".pdt")

    def lookup(self, job: TraceJob) -> Optional[str]:
        """The stored trace path for *job*, or None.

        A stored trace that fails a check — unreadable, bad header, or a
        payload checksum mismatch when its sidecar has to be derived —
        counts as a miss and is dropped.
        """
        if self.store.lookup_files(
                job, lambda: self.ensure_predecoded(job.key)):
            return self.path(job.key)
        return None

    def put(self, job: TraceJob, trace: Trace) -> str:
        """Serialize *trace* and its sidecar as *job*'s entry; returns
        the trace path."""
        data = encode_trace(trace, meta=job.describe())
        path = write_atomic(self.path(job.key), data)
        # Fresh bytes: their checksum was just computed, not re-checked.
        pdt = predecode.predecode_trace(data, origin=path, verify=False)
        predecode.write_predecoded(pdt, self.predecoded_path(job.key))
        self.store.add(job, pdt.source_sha256)
        return path

    def ensure_predecoded(self, key: str) -> Optional[str]:
        """Derive (or find) the sidecar for *key*'s stored trace.

        Returns the sidecar path, or None when no trace is stored.  An
        existing sidecar is trusted only if its ``source_sha256``
        matches the stored trace's payload hash — a re-captured trace
        invalidates its stale sidecar automatically.  A defective trace
        raises :class:`TraceError`.
        """
        trace_path = self.path(key)
        if not os.path.exists(trace_path):
            return None
        source_sha = read_trace_header(trace_path).get("payload_sha256")
        sidecar = self.predecoded_path(key)
        try:
            existing = predecode.read_predecoded(sidecar, verify=False)
            if existing.source_sha256 == source_sha:
                return sidecar
        except TraceError:
            pass  # absent, corrupt or stale — rewrite below
        with open(trace_path, "rb") as handle:
            data = handle.read()
        predecode.write_predecoded(
            predecode.predecode_trace(data, origin=trace_path), sidecar)
        return sidecar

    def __repr__(self) -> str:
        return f"TraceStore({self.store.dir!r})"


def check_trace_entry(base: str) -> str:
    """The ``trace`` kind's ``check_files``: re-read a stored entry.

    The trace must decode with a matching payload checksum and the
    sidecar must decode and derive from it.  Returns the payload hash;
    raises :class:`TraceError` on any defect.
    """
    trace_path = base + ".trace"
    with open(trace_path, "rb") as handle:
        source_sha = predecode.predecode_trace(
            handle.read(), origin=trace_path).source_sha256
    sidecar = predecode.read_predecoded(base + ".pdt")
    if sidecar.source_sha256 != source_sha:
        raise TraceError(f"{base}.pdt: sidecar derives from another "
                         f"trace ({sidecar.source_sha256[:12]})")
    return source_sha


def build_capture(job: TraceJob) -> Trace:
    """Run the functional frontend for *job* and return the fresh trace.

    Named workloads go through the builder **uncached** — capture is the
    one consumer that must pay the honest build cost (the benchmark
    compares it against replay), and in-process memo hits would let a
    mutated cached trace leak into a file.
    """
    if job.source_text is not None:
        from repro.runtime.worker import _trace_from_source

        trace = _trace_from_source(job)
        trace.name = job.workload
        return trace
    from repro.workloads.builder import build_trace_uncached
    from repro.workloads.spec import get_spec

    if job.workload.startswith("mini."):
        return build_trace_uncached(job.workload, seed=job.seed)
    length = max(10_000, int(get_spec(job.workload).default_length
                             * job.scale))
    return build_trace_uncached(job.workload, length=length, seed=job.seed)


def capture_trace(job: TraceJob, cache_dir: Optional[str] = None,
                  force: bool = False) -> Tuple[str, bool]:
    """Capture (or find) the trace for *job*; returns ``(path, cached)``.

    ``cached`` is True when the store already held the capture and the
    functional frontend did not run.
    """
    traces = TraceStore(cache_dir)
    path = None if force else traces.lookup(job)
    cached = path is not None
    if not cached:
        trace = build_capture(job)
        if not len(trace):
            raise TraceError(f"capture of {job.workload!r} produced an "
                             f"empty trace")
        path = traces.put(job, trace)
    traces.store.flush()
    return path, cached


class CaptureResult:
    """What one executed capture job reports (the trace stays on disk)."""

    __slots__ = ("path", "cached")

    def __init__(self, path: str, cached: bool):
        self.path = path
        self.cached = cached

    def __repr__(self) -> str:
        return f"CaptureResult({self.path!r}, cached={self.cached})"


def execute_trace_job(job: TraceJob) -> CaptureResult:
    """The ``trace`` kind's executor (top-level; pool-picklable).

    Captures into the standard :class:`TraceStore` location; the result
    is a small pointer record.  Capture writes its own store entry (the
    ``.trace`` and ``.pdt`` files), which is why this kind opts out of
    the engine's pickling (``cacheable=False``).
    """
    path, cached = capture_trace(job)
    return CaptureResult(path, cached)


def trace_job_from_payload(payload: Dict[str, Any]) -> TraceJob:
    """The ``trace`` kind's submission decoder."""
    workload = payload.get("workload")
    if not isinstance(workload, str) or not workload:
        raise TraceError("trace job payload needs a 'workload' name")
    return TraceJob(
        workload,
        scale=float(payload.get("scale", 1.0)),
        seed=int(payload.get("seed", 1)),
        source_text=payload.get("source_text"),
        optimize=bool(payload.get("optimize", True)),
        opt_level=payload.get("opt_level"),
        max_instructions=payload.get("max_instructions"),
    )


def encode_capture_result(result: CaptureResult) -> Dict[str, Any]:
    """The ``trace`` kind's JSON rendering."""
    return {"path": result.path, "cached": result.cached}


register_kind(JobKind(
    "trace", TraceJob, CaptureResult, execute_trace_job,
    decode_spec=trace_job_from_payload,
    encode_result=encode_capture_result,
    cacheable=False,
    files=TraceStore.FILES,
    check_files=check_trace_entry,
))
