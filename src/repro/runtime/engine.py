"""The job engine: deduplicated fan-out over a warm worker pool, with store.

Scheduling model
----------------

``JobEngine.run`` takes any iterable of job specs (any registered kind —
see :mod:`repro.runtime.registry`) and:

1. **dedupes** them by content-addressed key (the (2+0) baseline shows up
   in four different figures — it runs once);
2. answers what it can from the result store (kinds that own their own
   persistence, like trace captures, opt out via ``cacheable=False``);
3. fans the misses out across a :class:`WorkerPool`, dispatching in
   workload order so each worker's per-process trace memo gets reuse;
4. enforces a **per-job timeout** (a wave-dispatch deadline per future),
   **bounded retries with deterministic exponential backoff**, and
   **graceful degradation**: a hung worker is killed and the pool rebuilt;
   a died worker (``BrokenProcessPool``) retries and finally falls back to
   in-process execution; an engine that cannot create a pool at all just
   runs everything inline.

Warm pools: an engine can borrow a caller-owned :class:`WorkerPool`
instead of building an ephemeral one.  The pool's worker processes — and
with them the per-process trace memos, specialized-kernel caches, and
pre-decoded sidecars — survive across ``run`` calls, so a second
submission of the same work recompiles nothing; every outcome carries the
warm-state deltas (:func:`repro.runtime.worker.run_with_stats`) that
prove it.

Determinism: a simulation is a pure function of its job spec, so parallel
execution is bit-identical to sequential execution — the engine only
changes *when* a result is computed, never *what* it is.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.runtime.registry import kind_for
from repro.runtime.signature import code_salt
from repro.runtime.worker import execute_any, run_job_batch, run_with_stats

ProgressFn = Callable[[str, "JobOutcome", int, int], None]

#: The warm-state counter names every outcome's ``stats`` dict carries.
WARM_COUNTERS = ("kernel_compiles", "trace_builds", "trace_decodes")


def _stop_executor(pool: ProcessPoolExecutor) -> None:
    """Tear an executor down even when a worker is hung."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except TypeError:  # pragma: no cover - Python < 3.9
        pool.shutdown(wait=False)
    except Exception:  # noqa: BLE001
        pass
    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.terminate()
        except Exception:  # noqa: BLE001
            pass


class WorkerPool:
    """A process pool whose workers — and their warm state — persist.

    The pool is the unit of *warmth*: each worker process accumulates the
    per-process trace memo, the specialized-kernel cache, and the streams
    loaded from pre-decoded sidecars as it executes jobs.  A caller that
    keeps one ``WorkerPool`` across engine runs (the job service does)
    gets second submissions that recompile nothing.

    The executor is created lazily and can be :meth:`rebuild`-t after a
    worker death or hang — rebuilding sacrifices the warm state, which is
    exactly right: a crashed worker's memos are gone anyway, and a hung
    worker must die.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("worker count must be >= 1")
        self.workers = workers
        self.rebuilds = 0
        self.submissions = 0
        self._pool: Optional[ProcessPoolExecutor] = None

    def executor(self) -> Optional[ProcessPoolExecutor]:
        """The live executor, creating it on first use (None = no MP)."""
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            except Exception:  # noqa: BLE001 - no multiprocessing here
                return None
        return self._pool

    @property
    def alive(self) -> bool:
        return self._pool is not None

    def submit(self, fn, *args):
        """Submit work; raises RuntimeError when no executor exists."""
        pool = self.executor()
        if pool is None:
            raise RuntimeError("no process pool available")
        self.submissions += 1
        return pool.submit(fn, *args)

    def rebuild(self) -> Optional[ProcessPoolExecutor]:
        """Kill the workers (hung ones included) and start fresh ones."""
        if self._pool is not None:
            _stop_executor(self._pool)
            self._pool = None
        self.rebuilds += 1
        return self.executor()

    def stop(self) -> None:
        """Kill the workers and release the executor."""
        if self._pool is not None:
            _stop_executor(self._pool)
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "live" if self.alive else "cold"
        return (f"WorkerPool({self.workers} workers, {state}, "
                f"rebuilds={self.rebuilds})")


class JobOutcome:
    """What happened to one deduplicated job."""

    __slots__ = ("job", "status", "result", "wall", "attempts", "worker",
                 "error", "stats")

    def __init__(self, job, status: str,
                 result: Optional[Any] = None, wall: float = 0.0,
                 attempts: int = 0, worker: str = "inline",
                 error: Optional[str] = None,
                 stats: Optional[Dict[str, int]] = None):
        self.job = job
        self.status = status      # "cached" | "ran" | "failed" | "timeout"
        self.result = result
        self.wall = wall
        self.attempts = attempts
        self.worker = worker      # "cache" | "pool" | "inline"
        self.error = error
        # Warm-state deltas measured around the execution (kernel
        # compiles, trace builds, sidecar decodes); None for cache hits.
        self.stats = stats

    @property
    def ok(self) -> bool:
        return self.status in ("cached", "ran")

    def __repr__(self) -> str:
        return (f"JobOutcome({self.job.label()}, {self.status}, "
                f"wall={self.wall:.2f}s)")


class EngineReport:
    """Aggregate view of one ``JobEngine.run`` call."""

    def __init__(self, outcomes: Dict[str, JobOutcome], elapsed: float,
                 duplicates: int, workers: int):
        self.outcomes = outcomes
        self.elapsed = elapsed
        self.duplicates = duplicates
        self.workers = workers

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.status == "cached")

    @property
    def ran(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.status == "ran")

    @property
    def failed(self) -> List[JobOutcome]:
        return [o for o in self.outcomes.values() if not o.ok]

    @property
    def cache_hit_rate(self) -> float:
        total = len(self.outcomes)
        return self.cached / total if total else 0.0

    @property
    def busy(self) -> float:
        """Total worker-seconds spent simulating (excludes cache hits)."""
        return sum(o.wall for o in self.outcomes.values()
                   if o.status == "ran")

    @property
    def utilization(self) -> float:
        """Busy worker-seconds over available worker-seconds."""
        capacity = self.elapsed * max(1, self.workers)
        return min(1.0, self.busy / capacity) if capacity else 0.0

    def warm(self) -> Dict[str, int]:
        """Summed warm-state movement across every executed job.

        All-zero on a fully warm repeat (every trace, kernel, and
        sidecar came out of per-process memos) — the number the service
        surfaces so a warm second submission can *prove* it recompiled
        nothing.
        """
        total = {name: 0 for name in WARM_COUNTERS}
        for outcome in self.outcomes.values():
            if outcome.stats:
                for name in WARM_COUNTERS:
                    total[name] += outcome.stats.get(name, 0)
        return total

    def results(self) -> Dict[str, Any]:
        """key -> result for every successful job."""
        return {key: o.result for key, o in self.outcomes.items()
                if o.result is not None}


class JobEngine:
    """Runs a batch of jobs with dedup, store, pool, timeout and retries."""

    def __init__(self, jobs: int = 1, cache=None,
                 timeout: Optional[float] = None, retries: int = 1,
                 progress: Optional[ProgressFn] = None,
                 max_pool_rebuilds: int = 3, batch: int = 1,
                 pool: Optional[WorkerPool] = None,
                 backoff_base: float = 0.05, backoff_cap: float = 2.0,
                 sleep: Callable[[float], None] = time.sleep):
        if jobs < 1:
            raise ValueError("worker count must be >= 1")
        if batch < 1:
            raise ValueError("batch size must be >= 1")
        self.jobs = jobs
        # The ResultStore (anything with lookup/store/flush), or None.
        self.cache = cache
        self.timeout = timeout
        self.retries = retries
        self.progress = progress
        self.max_pool_rebuilds = max_pool_rebuilds
        self.batch = batch
        # A caller-owned warm pool; None means each run builds (and
        # tears down) an ephemeral one.
        self.pool = pool
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._sleep = sleep
        self._rebuilds = 0

    # -- public entry -------------------------------------------------------

    def run(self, jobs: Iterable[Any],
            execute: Callable[[Any], Any] = execute_any
            ) -> EngineReport:
        """Execute every job (deduplicated), returning per-job outcomes."""
        started = time.monotonic()
        unique: Dict[str, Any] = {}
        duplicates = 0
        for job in jobs:
            if job.key in unique:
                duplicates += 1
            else:
                unique[job.key] = job
        self._total = len(unique)
        self._done = 0
        outcomes: Dict[str, JobOutcome] = {}
        pending: List[str] = []
        for key, job in unique.items():
            cached = (self.cache.lookup(job)
                      if self._cacheable(job) else None)
            if cached is not None:
                self._finish(outcomes, key,
                             JobOutcome(job, "cached", cached,
                                        worker="cache"))
            else:
                pending.append(key)
        # Workload-major order maximises per-process trace-memo reuse.
        pending.sort(key=lambda k: (unique[k].workload, unique[k].scale,
                                    unique[k].seed))
        if pending:
            # The pool path is also what enforces per-job timeouts, so a
            # single pending job still goes parallel when one is set.
            if self.jobs > 1 and (len(pending) > 1
                                  or self.timeout is not None):
                if self.batch > 1:
                    self._run_pool_batched(unique, pending, outcomes,
                                           execute)
                else:
                    self._run_pool(unique, pending, outcomes, execute)
            else:
                self._run_inline(unique, pending, outcomes, execute)
        if self.cache is not None:
            self.cache.flush()
        ordered = {key: outcomes[key] for key in unique}
        return EngineReport(ordered, time.monotonic() - started,
                            duplicates, self.jobs)

    # -- bookkeeping --------------------------------------------------------

    def _cacheable(self, job) -> bool:
        """Whether *job*'s results route through the result store.

        Kind-registered jobs follow their kind's ``cacheable`` flag
        (trace captures own their store); legacy kindless specs driven
        by an explicit ``execute`` callable default to cacheable.
        """
        if self.cache is None:
            return False
        kind = kind_for(job, required=False)
        return kind.cacheable if kind is not None else True

    def _finish(self, outcomes: Dict[str, JobOutcome], key: str,
                outcome: JobOutcome) -> None:
        outcomes[key] = outcome
        self._done += 1
        if outcome.status == "ran" and self._cacheable(outcome.job):
            self.cache.store(outcome.job, outcome.result)
        if self.progress is not None:
            self.progress(outcome.status, outcome, self._done, self._total)

    def _backoff(self, attempt: int) -> None:
        """Deterministic exponential backoff before retry ``attempt+1``.

        ``base * 2**(attempt-1)`` capped at ``backoff_cap`` — no jitter:
        reproducibility beats thundering-herd avoidance in a
        single-machine engine, and tests can assert the exact schedule.
        """
        if attempt < 1 or self.backoff_base <= 0:
            return
        delay = min(self.backoff_cap,
                    self.backoff_base * (2 ** (attempt - 1)))
        self._sleep(delay)

    # -- sequential path ----------------------------------------------------

    def _run_inline(self, unique: Dict[str, Any], pending: List[str],
                    outcomes: Dict[str, JobOutcome],
                    execute: Callable[[Any], Any]) -> None:
        for key in pending:
            job = unique[key]
            t0 = time.monotonic()
            try:
                result, stats = run_with_stats(execute, job)
            except Exception as exc:  # noqa: BLE001 - recorded, not hidden
                self._finish(outcomes, key,
                             JobOutcome(job, "failed", None,
                                        time.monotonic() - t0, 1, "inline",
                                        f"{type(exc).__name__}: {exc}"))
            else:
                self._finish(outcomes, key,
                             JobOutcome(job, "ran", result,
                                        time.monotonic() - t0, 1, "inline",
                                        stats=stats))

    # -- parallel path ------------------------------------------------------

    def _acquire_pool(self):
        """(pool, owned): the caller's warm pool, or a fresh ephemeral one."""
        if self.pool is not None:
            return self.pool, False
        return WorkerPool(self.jobs), True

    def _rebuild_pool(self, worker_pool: WorkerPool
                      ) -> Optional[ProcessPoolExecutor]:
        self._rebuilds += 1
        if self._rebuilds > self.max_pool_rebuilds:
            # Out of budget: the (possibly hung) workers still must die.
            worker_pool.stop()
            return None
        return worker_pool.rebuild()

    def _run_pool_batched(self, unique: Dict[str, Any],
                          pending: List[str],
                          outcomes: Dict[str, JobOutcome],
                          execute: Callable[[Any], Any]) -> None:
        """Chunked fan-out: ``batch`` jobs per worker round trip.

        One submission amortizes IPC plus the worker's warm per-process
        state (trace memo, specialized-kernel cache).  This loop only
        handles the happy path; any anomaly — a worker death, a blown
        deadline, a per-job error — routes the affected keys back
        through the proven single-job pool machinery, which owns
        retries and pool rebuilds.
        """
        worker_pool, owned = self._acquire_pool()
        if worker_pool.executor() is None:
            if owned:
                worker_pool.stop()
            self._run_inline(unique, pending, outcomes, execute)
            return
        chunks = deque(
            pending[i:i + self.batch]
            for i in range(0, len(pending), self.batch))
        in_flight: Dict[object, tuple] = {}  # future -> (keys, t0, ddl)
        fallback: List[str] = []
        poisoned = False
        while chunks or in_flight:
            while chunks and len(in_flight) < self.jobs:
                chunk = chunks.popleft()
                now = time.monotonic()
                deadline = (now + self.timeout * len(chunk)
                            if self.timeout is not None else None)
                try:
                    future = worker_pool.submit(
                        run_job_batch, execute,
                        [unique[key] for key in chunk])
                except Exception:  # noqa: BLE001 - pool broken
                    poisoned = True
                    fallback.extend(chunk)
                    continue
                in_flight[future] = (chunk, now, deadline)
            if not in_flight:
                continue
            wait_for = None
            now = time.monotonic()
            deadlines = [d for (_k, _t, d) in in_flight.values()
                         if d is not None]
            if deadlines:
                wait_for = max(0.0, min(deadlines) - now)
            done, _ = wait(set(in_flight), timeout=wait_for,
                           return_when=FIRST_COMPLETED)
            anomaly = False
            for future in done:
                chunk, _t0, _deadline = in_flight.pop(future)
                try:
                    statuses = future.result()
                except Exception:  # noqa: BLE001 - incl. broken pool
                    anomaly = True
                    poisoned = True
                    fallback.extend(chunk)
                    continue
                for key, (status, payload, wall,
                          stats) in zip(chunk, statuses):
                    if status == "ok":
                        self._finish(outcomes, key,
                                     JobOutcome(unique[key], "ran",
                                                payload, wall, 1,
                                                "pool", stats=stats))
                    else:
                        # Give the failure the single-job path's
                        # full retry budget.
                        fallback.append(key)
            if not done:
                now = time.monotonic()
                if any(d is not None and now >= d
                       for (_k, _t, d) in in_flight.values()):
                    anomaly = True
                    poisoned = True
            if anomaly:
                for _future, (chunk, _t0, _d) in in_flight.items():
                    fallback.extend(chunk)
                in_flight.clear()
                while chunks:
                    fallback.extend(chunks.popleft())
        if poisoned:
            # Hung or dead workers: fresh processes before the fallback
            # path touches the pool (the warm state died with them).
            worker_pool.rebuild()
        if fallback:
            self._run_pool_with(worker_pool, owned, unique, fallback,
                                outcomes, execute)
        elif owned:
            worker_pool.stop()

    def _run_pool(self, unique: Dict[str, Any], pending: List[str],
                  outcomes: Dict[str, JobOutcome],
                  execute: Callable[[Any], Any]) -> None:
        worker_pool, owned = self._acquire_pool()
        self._run_pool_with(worker_pool, owned, unique, pending, outcomes,
                            execute)

    def _run_pool_with(self, worker_pool: WorkerPool, owned: bool,
                       unique: Dict[str, Any], pending: List[str],
                       outcomes: Dict[str, JobOutcome],
                       execute: Callable[[Any], Any]) -> None:
        pool = worker_pool.executor()
        if pool is None:
            if owned:
                worker_pool.stop()
            self._run_inline(unique, pending, outcomes, execute)
            return
        queue = deque(pending)
        attempts: Dict[str, int] = {key: 0 for key in pending}
        in_flight: Dict[object, tuple] = {}  # future -> (key, t0, deadline)
        inline_later: List[str] = []
        try:
            while queue or in_flight:
                if pool is None:
                    inline_later.extend(queue)
                    queue.clear()
                    break
                while queue and len(in_flight) < self.jobs:
                    key = queue.popleft()
                    attempts[key] += 1
                    now = time.monotonic()
                    deadline = (now + self.timeout
                                if self.timeout is not None else None)
                    try:
                        future = pool.submit(run_with_stats, execute,
                                             unique[key])
                    except Exception:  # noqa: BLE001 - pool already broken
                        pool = self._rebuild_pool(worker_pool)
                        queue.appendleft(key)
                        attempts[key] -= 1
                        break
                    worker_pool.submissions += 1
                    in_flight[future] = (key, now, deadline)
                if not in_flight:
                    continue
                wait_for = None
                now = time.monotonic()
                deadlines = [d for (_k, _t, d) in in_flight.values()
                             if d is not None]
                if deadlines:
                    wait_for = max(0.0, min(deadlines) - now)
                done, _ = wait(set(in_flight), timeout=wait_for,
                               return_when=FIRST_COMPLETED)
                if done:
                    broke = False
                    for future in done:
                        key, t0, _deadline = in_flight.pop(future)
                        job = unique[key]
                        wall = time.monotonic() - t0
                        try:
                            result, stats = future.result()
                        except BrokenProcessPool:
                            broke = True
                            queue.appendleft(key)
                            break
                        except Exception as exc:  # noqa: BLE001
                            if attempts[key] <= self.retries:
                                self._backoff(attempts[key])
                                queue.append(key)
                            else:
                                self._finish(
                                    outcomes, key,
                                    JobOutcome(job, "failed", None, wall,
                                               attempts[key], "pool",
                                               f"{type(exc).__name__}: "
                                               f"{exc}"))
                        else:
                            self._finish(outcomes, key,
                                         JobOutcome(job, "ran", result,
                                                    wall, attempts[key],
                                                    "pool", stats=stats))
                    if broke:
                        # Every other in-flight future died with the pool.
                        for future, (key, _t0, _d) in in_flight.items():
                            if attempts[key] <= self.retries:
                                queue.append(key)
                            else:
                                inline_later.append(key)
                        in_flight.clear()
                        pool = self._rebuild_pool(worker_pool)
                    continue
                # wait() timed out: at least one job blew its deadline.
                now = time.monotonic()
                expired = [f for f, (_k, _t, d) in in_flight.items()
                           if d is not None and now >= d]
                if not expired:
                    continue
                for future in expired:
                    key, t0, _d = in_flight.pop(future)
                    job = unique[key]
                    if attempts[key] <= self.retries:
                        self._backoff(attempts[key])
                        queue.append(key)
                    else:
                        self._finish(outcomes, key,
                                     JobOutcome(job, "timeout", None,
                                                now - t0, attempts[key],
                                                "pool",
                                                f"exceeded {self.timeout}s"))
                # The hung worker poisons its slot; survivors are requeued
                # (no attempt charged) and the pool is rebuilt.
                for future, (key, _t0, _d) in in_flight.items():
                    attempts[key] -= 1
                    queue.appendleft(key)
                in_flight.clear()
                pool = self._rebuild_pool(worker_pool)
        finally:
            if owned:
                worker_pool.stop()
        if inline_later:
            # Workers died repeatedly on these jobs: last resort inline.
            self._run_inline(unique, inline_later, outcomes, execute)


class RuntimeSession:
    """The facade ``experiments.common``, the CLIs, and the service use.

    Owns the result-store handle, the engine knobs, and — when asked —
    a persistent :class:`WorkerPool` whose warm workers survive across
    engine runs; ``simulate`` is the single-job fast path ``run_sim``
    uses, ``prewarm`` is the batch entry the experiment runner uses to
    fill the store in parallel.
    """

    def __init__(self, jobs: int = 1, cache_dir: Optional[str] = None,
                 no_cache: bool = False, timeout: Optional[float] = None,
                 retries: int = 1, progress: Optional[ProgressFn] = None,
                 batch: int = 1, keep_pool: bool = False):
        from repro.runtime.store import runtime_store

        self.jobs = max(1, jobs)
        self.timeout = timeout
        self.retries = retries
        self.progress = progress
        self.batch = max(1, batch)
        self.salt = code_salt()
        self.cache = None if no_cache else runtime_store(cache_dir,
                                                         self.salt)
        # With keep_pool the session pins one warm pool for its whole
        # life; engines borrow it instead of building their own.
        self.pool = (WorkerPool(self.jobs)
                     if keep_pool and self.jobs > 1 else None)

    def engine(self) -> JobEngine:
        """A fresh engine with this session's knobs (pool shared)."""
        return JobEngine(jobs=self.jobs, cache=self.cache,
                         timeout=self.timeout, retries=self.retries,
                         progress=self.progress, batch=self.batch,
                         pool=self.pool)

    def simulate(self, job) -> Any:
        """Run one job inline, going through the store."""
        if self.cache is not None:
            cached = self.cache.lookup(job)
            if cached is not None:
                return cached
        result = execute_any(job)
        if self.cache is not None:
            self.cache.store(job, result)
            self.cache.flush()
        return result

    def prewarm(self, jobs: Iterable[Any],
                execute: Callable[[Any], Any] = execute_any
                ) -> EngineReport:
        """Dedupe + fan out *jobs*, filling the store; returns the report."""
        return self.engine().run(jobs, execute=execute)

    def close(self) -> None:
        """Stop the warm pool (if any) and flush buffered store state."""
        if self.pool is not None:
            self.pool.stop()
        if self.cache is not None:
            self.cache.flush()

    def __enter__(self) -> "RuntimeSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_sim_jobs(jobs: Iterable[Any], engine_jobs: int = 1,
                 cache_dir: Optional[str] = None, no_cache: bool = False,
                 timeout: Optional[float] = None):
    """Run *jobs* through the engine; returns ``(job, result)`` in order.

    The canonical **direct** path — the service smoke tests compare
    their streamed results byte-for-byte against this.  Raises
    :class:`repro.errors.SimulationError` if any job failed.
    """
    from repro.errors import SimulationError

    jobs = list(jobs)
    with RuntimeSession(jobs=engine_jobs, cache_dir=cache_dir,
                        no_cache=no_cache, timeout=timeout) as session:
        report = session.prewarm(jobs)
    failed = report.failed
    if failed:
        first = failed[0]
        raise SimulationError(
            f"{len(failed)} job(s) failed; first: "
            f"{first.job.label()}: {first.error}")
    by_key = report.results()
    return [(job, by_key[job.key]) for job in jobs]
