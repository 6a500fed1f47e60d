"""Worker-pool failure paths: backoff, rebuilds, inline fallback, warmth."""

from __future__ import annotations

import os
import time

from repro.core.metrics import SimResult
from repro.experiments.common import nm_config
from repro.runtime.engine import JobEngine, WorkerPool
from repro.runtime.job import SimJob
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


def raise_always(job: SimJob) -> SimResult:
    raise RuntimeError(f"boom for {job.workload}")


def hang_if_marked(job: SimJob) -> SimResult:
    if job.workload == "hang":
        time.sleep(120)
    return _stub_result(job)


def die_in_worker(job: SimJob) -> SimResult:
    if os.getpid() != MAIN_PID:
        os._exit(3)
    return _stub_result(job)


def flaky_until_third(job: SimJob) -> SimResult:
    """Fails the first two attempts, succeeds on the third.

    Attempts are counted with marker files in a directory the test
    communicates through the environment (fork-started workers inherit
    it), so the count survives worker-process boundaries.
    """
    root = os.environ["REPRO_TEST_FLAKY_DIR"]
    n = len([name for name in os.listdir(root)
             if name.startswith(job.workload)])
    with open(os.path.join(root, f"{job.workload}.{n}"), "w"):
        pass
    if n < 2:
        raise RuntimeError(f"flaky attempt {n}")
    return _stub_result(job)


# -- deterministic exponential backoff ---------------------------------------


def test_backoff_schedule_doubles_and_caps():
    delays = []
    engine = JobEngine(jobs=1, backoff_base=0.5, backoff_cap=0.8,
                       sleep=delays.append)
    for attempt in (1, 2, 3, 4):
        engine._backoff(attempt)
    assert delays == [0.5, 0.8, 0.8, 0.8]
    # attempt 0 (first try) never sleeps.
    engine._backoff(0)
    assert len(delays) == 4


def test_flaky_worker_retries_with_recorded_backoff(tmp_path,
                                                    monkeypatch):
    """A job that fails twice then succeeds must complete after exactly
    the deterministic backoff schedule [base, 2*base]."""
    monkeypatch.setenv("REPRO_TEST_FLAKY_DIR", str(tmp_path))
    delays = []
    engine = JobEngine(jobs=2, retries=2, timeout=60.0,
                       sleep=delays.append)
    report = engine.run([_job("flaky")], execute=flaky_until_third)
    outcome = next(iter(report.outcomes.values()))
    assert outcome.status == "ran"
    assert outcome.attempts == 3
    assert delays == [0.05, 0.1]
    # Three attempt markers prove the executions really happened.
    assert len(os.listdir(str(tmp_path))) == 3


def test_exhausted_retries_record_failure_after_full_schedule():
    delays = []
    engine = JobEngine(jobs=2, retries=2, timeout=60.0,
                       sleep=delays.append)
    report = engine.run([_job("doomed")], execute=raise_always)
    outcome = next(iter(report.outcomes.values()))
    assert outcome.status == "failed"
    assert outcome.attempts == 3
    assert "boom" in outcome.error
    # Backoff ran before each of the two retries, never after the last.
    assert delays == [0.05, 0.1]


# -- pool lifecycle and ownership --------------------------------------------


def test_worker_pool_rejects_zero_workers():
    import pytest

    with pytest.raises(ValueError):
        WorkerPool(0)


def test_worker_pool_context_manager_stops():
    with WorkerPool(1) as pool:
        future = pool.submit(quick_stub, _job("a"))
        assert future.result().cycles == 100
        assert pool.alive
        assert pool.submissions == 1
    assert not pool.alive


def test_borrowed_pool_survives_engine_run():
    """Engines must never stop a caller-owned pool on the happy path —
    its warm workers are the whole point."""
    with WorkerPool(2) as pool:
        report = JobEngine(jobs=2, pool=pool).run(
            [_job(w) for w in "abcd"], execute=quick_stub)
        assert report.ran == 4
        assert pool.alive
        assert pool.rebuilds == 0
        first_submissions = pool.submissions
        assert first_submissions >= 4
        # And it keeps serving a second engine run.
        again = JobEngine(jobs=2, pool=pool).run(
            [_job(w) for w in "ef"], execute=quick_stub)
        assert again.ran == 2
        assert pool.submissions > first_submissions


def test_crashed_worker_rebuilds_pool_and_falls_back_inline():
    """Workers that die mid-job: the pool is rebuilt (bounded), and the
    jobs still complete in-process."""
    with WorkerPool(2) as pool:
        report = JobEngine(jobs=2, retries=1, pool=pool).run(
            [_job("a"), _job("b")], execute=die_in_worker)
        assert report.ran == 2
        assert pool.rebuilds >= 1
        for outcome in report.outcomes.values():
            assert outcome.result.counters.get("pid") == MAIN_PID


def test_hung_worker_is_killed_and_pool_rebuilt():
    with WorkerPool(2) as pool:
        started = time.monotonic()
        report = JobEngine(jobs=2, timeout=0.5, retries=0,
                           pool=pool).run([_job("hang"), _job("a")],
                                          execute=hang_if_marked)
        assert time.monotonic() - started < 30
        by_name = {o.job.workload: o for o in report.outcomes.values()}
        assert by_name["hang"].status == "timeout"
        assert by_name["a"].status == "ran"
        assert pool.rebuilds >= 1


class DeadPool(WorkerPool):
    """A pool that can never create an executor (no multiprocessing)."""

    def executor(self):
        return None


def test_inline_fallback_when_pool_cannot_start():
    report = JobEngine(jobs=2, pool=DeadPool(2)).run(
        [_job("a"), _job("b")], execute=quick_stub)
    assert report.ran == 2
    for outcome in report.outcomes.values():
        assert outcome.worker == "inline"
        assert outcome.result.counters.get("pid") == MAIN_PID


# -- warm-pool reuse ----------------------------------------------------------


def test_warm_pool_repeat_recompiles_nothing():
    """The acceptance criterion in miniature: a second submission of the
    same jobs through the SAME warm pool must show zero kernel compiles
    and zero trace builds/decodes — everything comes out of the worker
    process's memos."""
    # A config/scale combination nothing else in the suite simulates:
    # fork-started workers inherit the parent's warm memos, so common
    # configs could arrive pre-compiled and hide a cold run.  The odd
    # lvaq_size enters the kernel-specialization cache key, so these
    # kernels cannot exist anywhere before this test compiles them.
    def jobs():
        base = nm_config(3, 1)
        base.lvaq_size = 48
        opt = nm_config(3, 3, fast_forwarding=True, combining=2)
        opt.lvaq_size = 48
        return [SimJob("mini.matmul", base, scale=0.11),
                SimJob("mini.matmul", opt, scale=0.11)]

    # One worker so both submissions land in the same process and the
    # warm counters are deterministic.
    with WorkerPool(1) as pool:
        cold = JobEngine(jobs=2, pool=pool).run(jobs())
        assert cold.ran == 2
        cold_warm = cold.warm()
        assert cold_warm["kernel_compiles"] > 0
        assert cold_warm["trace_builds"] > 0

        warm = JobEngine(jobs=2, pool=pool).run(jobs())
        assert warm.ran == 2
        assert warm.warm() == {"kernel_compiles": 0, "trace_builds": 0,
                               "trace_decodes": 0}
        assert pool.rebuilds == 0
        # Same pool, same results: warmth never changes the numbers.
        for key, outcome in cold.outcomes.items():
            assert (outcome.result.cycles
                    == warm.outcomes[key].result.cycles)
