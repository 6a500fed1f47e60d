"""The per-process inline-source trace memo is a bounded LRU."""

from __future__ import annotations

from collections import OrderedDict

import pytest

from repro.perf.golden import golden_config
from repro.runtime import worker
from repro.runtime.job import SimJob


def _job(value: int) -> SimJob:
    source = f"int main() {{\n    print({value});\n    return 0;\n}}\n"
    return SimJob(f"memo-{value}.mc", golden_config("2+0"),
                  source_text=source)


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(worker, "_SOURCE_TRACES", OrderedDict())


def test_distinct_sources_leave_at_most_the_slots(empty_memo):
    slots = worker.SOURCE_TRACE_SLOTS
    for value in range(slots + 3):
        worker.trace_for_job(_job(value))
    assert len(worker._SOURCE_TRACES) == slots
    # The newest sources are the ones kept.
    kept = {key[0] for key in worker._SOURCE_TRACES}
    assert kept == {f"memo-{v}.mc" for v in range(3, slots + 3)}


def test_repeat_inside_the_window_builds_nothing(empty_memo):
    slots = worker.SOURCE_TRACE_SLOTS
    traces = [worker.trace_for_job(_job(v)) for v in range(slots)]
    before = worker.warm_snapshot()
    # The oldest entry is still inside the window; using it makes it the
    # newest, so the next new source evicts value 1 instead.
    assert worker.trace_for_job(_job(0)) is traces[0]
    assert worker.warm_delta(before)["trace_builds"] == 0
    worker.trace_for_job(_job(slots))
    before = worker.warm_snapshot()
    assert worker.trace_for_job(_job(0)) is traces[0]
    assert worker.warm_delta(before)["trace_builds"] == 0
    worker.trace_for_job(_job(1))
    assert worker.warm_delta(before)["trace_builds"] == 1


def test_seeded_trace_is_served_without_a_build(empty_memo):
    job = _job(7)
    trace = worker.trace_for_job(_job(8))
    worker.seed_source_trace(job, trace)
    before = worker.warm_snapshot()
    assert worker.trace_for_job(job) is trace
    assert worker.warm_delta(before)["trace_builds"] == 0
