"""Job engine behaviour: dedupe, caching, timeouts, dead workers, and
parallel-vs-sequential determinism."""

from __future__ import annotations

import os
import time

from repro.core.config import MachineConfig
from repro.core.metrics import SimResult
from repro.experiments.common import nm_config
from repro.runtime.engine import JobEngine
from repro.runtime.job import SimJob
from repro.runtime.store import ResultStore
from repro.stats.counters import CounterSet

MAIN_PID = os.getpid()
SCALE = 0.12


def _job(workload: str = "stub", n: int = 2, m: int = 0,
         **kwargs) -> SimJob:
    return SimJob(workload, nm_config(n, m), scale=SCALE, **kwargs)


def _stub_result(job: SimJob) -> SimResult:
    counters = CounterSet()
    counters.add("pid", os.getpid())
    return SimResult(job.config.notation(), job.workload, 100, 200,
                     counters)


# Top-level so the pool can pickle references to them; fork-started
# workers resolve them against the inherited module.

def quick_stub(job: SimJob) -> SimResult:
    return _stub_result(job)


def hang_if_marked(job: SimJob) -> SimResult:
    if job.workload == "hang":
        time.sleep(120)
    return _stub_result(job)


def die_in_worker(job: SimJob) -> SimResult:
    if os.getpid() != MAIN_PID:
        os._exit(3)
    return _stub_result(job)


def raise_always(job: SimJob) -> SimResult:
    raise RuntimeError(f"boom for {job.workload}")


def test_dedupes_identical_jobs():
    calls = []

    def counting(job):
        calls.append(job.workload)
        return _stub_result(job)

    engine = JobEngine(jobs=1)
    report = engine.run([_job("a"), _job("a"), _job("a"), _job("b")],
                        execute=counting)
    assert sorted(calls) == ["a", "b"]
    assert report.duplicates == 2
    assert len(report.outcomes) == 2
    assert report.ran == 2 and report.cached == 0


def test_cache_round_trip_through_engine(tmp_path):
    cache = ResultStore(str(tmp_path), salt="t")
    cold = JobEngine(jobs=1, cache=cache).run([_job("a")],
                                              execute=quick_stub)
    assert cold.ran == 1 and cold.cached == 0
    warm = JobEngine(jobs=1, cache=cache).run([_job("a")],
                                              execute=quick_stub)
    assert warm.ran == 0 and warm.cached == 1
    assert warm.cache_hit_rate == 1.0
    outcome = next(iter(warm.outcomes.values()))
    assert outcome.worker == "cache"
    assert outcome.result.cycles == 100


def test_inline_failure_is_recorded_not_raised():
    report = JobEngine(jobs=1).run([_job("a")], execute=raise_always)
    outcome = next(iter(report.outcomes.values()))
    assert outcome.status == "failed"
    assert "boom" in outcome.error
    assert report.failed == [outcome]


def test_pool_runs_and_matches_inline_results():
    jobs = [_job(w) for w in ("a", "b", "c", "d")]
    parallel = JobEngine(jobs=2).run(jobs, execute=quick_stub)
    assert parallel.ran == 4
    workers = {o.worker for o in parallel.outcomes.values()}
    assert workers == {"pool"}
    # Stub results carry the executing pid: at least one must not be ours.
    pids = {o.result.counters.get("pid")
            for o in parallel.outcomes.values()}
    assert any(pid != MAIN_PID for pid in pids)


def test_hanging_job_times_out_and_others_complete():
    jobs = [_job("hang"), _job("a"), _job("b")]
    engine = JobEngine(jobs=2, timeout=1.0, retries=0)
    started = time.monotonic()
    report = engine.run(jobs, execute=hang_if_marked)
    elapsed = time.monotonic() - started
    assert elapsed < 30  # nowhere near the stub's 120s sleep
    by_name = {o.job.workload: o for o in report.outcomes.values()}
    assert by_name["hang"].status == "timeout"
    assert by_name["hang"].error and "1.0" in by_name["hang"].error
    assert by_name["a"].status == "ran"
    assert by_name["b"].status == "ran"


def test_timeout_retries_are_bounded():
    engine = JobEngine(jobs=2, timeout=0.5, retries=1)
    report = engine.run([_job("hang")], execute=hang_if_marked)
    outcome = next(iter(report.outcomes.values()))
    assert outcome.status == "timeout"
    assert outcome.attempts == 2  # initial try + one retry


def test_dead_workers_fall_back_to_in_process():
    """A job whose worker always dies must still complete (inline)."""
    report = JobEngine(jobs=2, retries=1).run(
        [_job("a"), _job("b")], execute=die_in_worker)
    assert report.ran == 2
    for outcome in report.outcomes.values():
        assert outcome.status == "ran"
        assert outcome.result.counters.get("pid") == MAIN_PID


def test_progress_events_fire():
    events = []

    def progress(event, outcome, done, total):
        events.append((event, outcome.job.workload, done, total))

    JobEngine(jobs=1, progress=progress).run(
        [_job("a"), _job("b")], execute=quick_stub)
    assert events == [("ran", "a", 1, 2), ("ran", "b", 2, 2)]


def test_parallel_is_bit_identical_to_sequential():
    """The engine must never change *what* is computed, only when."""
    def jobs():
        return [SimJob(name, config, scale=SCALE)
                for name in ("130.li", "129.compress")
                for config in (nm_config(2, 0),
                               nm_config(2, 2, fast_forwarding=True,
                                         combining=2))]

    sequential = JobEngine(jobs=1).run(jobs())
    parallel = JobEngine(jobs=2).run(jobs())
    assert list(sequential.outcomes) == list(parallel.outcomes)
    for key, seq in sequential.outcomes.items():
        par = parallel.outcomes[key]
        assert seq.result.cycles == par.result.cycles
        assert seq.result.instructions == par.result.instructions
        assert (seq.result.counters.as_dict()
                == par.result.counters.as_dict())


def test_engine_report_utilization_bounds():
    report = JobEngine(jobs=2).run([_job(w) for w in "abcd"],
                                   execute=quick_stub)
    assert 0.0 <= report.utilization <= 1.0
    assert report.busy >= 0.0


def test_rejects_bad_worker_count():
    import pytest

    with pytest.raises(ValueError):
        JobEngine(jobs=0)

