"""Job execution — runs inside worker processes (and in-process fallback).

Kept import-light and top-level so :mod:`concurrent.futures` can ship jobs
to freshly spawned interpreters on any start method.  Traces are memoised
per process: a worker that receives several configs of the same workload
(the common case — the scheduler dispatches jobs in workload order) only
builds the trace once.  Inline-source traces are kept in a small LRU
(:data:`SOURCE_TRACE_SLOTS` entries), so a long-lived process holds a
bounded number of them.

This module registers the ``sim`` job kind and hosts
:func:`execute_any`, the registry-dispatched executor every pool worker
can resolve — the engine never switches on a job's type itself.

Warm-state accounting: :func:`warm_snapshot` reads the per-process
counters behind the expensive lazily-built state (specialized-kernel
compiles, trace builds, sidecar decodes); :func:`run_with_stats` wraps
one execution and returns the deltas, so the engine can prove a warm
pool did zero recompiles on a repeat.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Tuple

from repro.core.metrics import SimResult
from repro.core.processor import Processor
from repro.runtime.job import MixJob, SimJob, sim_job_from_payload
from repro.runtime.registry import JobKind, kind_for, register_kind
from repro.trace.mix import MixResult
from repro.vm.trace import Trace

#: Inline-source traces one process keeps.  Consecutive configs of one
#: source (the scheduler's order) and ``seed_source_trace`` need one
#: entry; a few more cover interleaved sources.
SOURCE_TRACE_SLOTS = 4

#: Source key -> trace, least recently used first.
_SOURCE_TRACES: "OrderedDict[Tuple, Trace]" = OrderedDict()

#: Per-process count of traces built from inline source text (the named
#: workload path is counted via ``trace_for``'s lru_cache misses).
source_build_count = 0


def _source_key(job: SimJob) -> Tuple:
    return (job.workload, job.source_text, job.optimize, job.opt_level,
            job.max_instructions)


def _remember_source_trace(key: Tuple, trace: Trace) -> None:
    _SOURCE_TRACES[key] = trace
    _SOURCE_TRACES.move_to_end(key)
    while len(_SOURCE_TRACES) > SOURCE_TRACE_SLOTS:
        _SOURCE_TRACES.popitem(last=False)


def trace_for_job(job: SimJob) -> Trace:
    """Build (or fetch from the per-process memo) the job's trace."""
    if job.source_text is None:
        from repro.experiments.common import trace_for

        return trace_for(job.workload, job.scale, job.seed)
    key = _source_key(job)
    cached = _SOURCE_TRACES.get(key)
    if cached is not None:
        _SOURCE_TRACES.move_to_end(key)
        return cached
    trace = _trace_from_source(job)
    _remember_source_trace(key, trace)
    return trace


def seed_source_trace(job: SimJob, trace: Trace) -> None:
    """Pre-populate the per-process memo with an already-built trace.

    Callers that have executed the program once (e.g. ``repro-cc sim``
    prints trace statistics before timing) seed the memo so fork-started
    workers inherit the trace instead of recompiling.
    """
    _remember_source_trace(_source_key(job), trace)


def _trace_from_source(job: SimJob) -> Trace:
    global source_build_count

    from repro.asm import assemble
    from repro.lang import CompilerOptions, compile_source
    from repro.vm.machine import Machine

    source_build_count += 1
    if job.workload.endswith(".s"):
        program = assemble(job.source_text, source_name=job.workload)
    else:
        program = compile_source(
            job.source_text,
            CompilerOptions(source_name=job.workload,
                            optimize=job.optimize,
                            opt_level=job.opt_level),
        )
    vm = Machine(program, trace=True)
    vm.run(max_instructions=job.max_instructions or 5_000_000)
    trace = vm.trace
    assert trace is not None
    return trace


def execute_job(job: SimJob) -> SimResult:
    """Run one timing simulation to completion (pure; no cache I/O)."""
    trace = trace_for_job(job)
    return Processor(job.config).run(trace.insts, job.workload)


def execute_any(job) -> Any:
    """Execute *job* through its registered kind.

    The single executor the engine defaults to: top-level (picklable),
    kind-dispatched, and loud about unknown kinds — a spec whose kind is
    not registered raises ``RuntimeError`` naming the registered kinds.
    """
    return kind_for(job).execute(job)


# -- warm-state accounting ---------------------------------------------------

def warm_snapshot() -> Dict[str, int]:
    """Per-process counters behind the expensive warm state.

    * ``kernel_compiles`` — specialized-kernel compilations
      (:mod:`repro.core.stages.specialize`);
    * ``trace_builds``    — traces built by the functional frontend
      (named-workload memo misses plus inline-source builds);
    * ``trace_decodes``   — pre-decoded sidecar derivations and stream
      loads that missed the memo (:mod:`repro.trace.predecode`).

    A warm repeat of identical work leaves every counter unchanged.
    """
    from repro.core.stages import specialize
    from repro.experiments.common import trace_for
    from repro.trace import predecode

    return {
        "kernel_compiles": specialize.compile_count,
        "trace_builds": (trace_for.cache_info().misses
                         + source_build_count),
        "trace_decodes": predecode.decode_count,
    }


def warm_delta(before: Dict[str, int]) -> Dict[str, int]:
    """Counter movement since *before* (a :func:`warm_snapshot`)."""
    after = warm_snapshot()
    return {name: after[name] - before.get(name, 0) for name in after}


def run_with_stats(execute, job):
    """Run one job, returning ``(result, warm-state deltas)``.

    Top-level so the engine can submit it to a pool around any execute
    callable; the deltas are measured inside the worker process that
    actually ran the job.
    """
    before = warm_snapshot()
    result = execute(job)
    return result, warm_delta(before)


def execute_mix_job(job):
    """Run one multi-programmed mix to completion (pure; no cache I/O).

    *job* is a :class:`repro.runtime.job.MixJob`; per-program traces
    come from the same per-process memo path as solo jobs, and the
    result is a :class:`repro.trace.mix.MixResult`.
    """
    from repro.core.multicore import run_mix
    from repro.experiments.common import trace_for

    streams = [(name, trace_for(name, job.scale, job.seed).insts)
               for name in job.workloads]
    results = run_mix(streams, job.config)
    return MixResult(job.config.notation(), results)


register_kind(JobKind(
    "sim", SimJob, SimResult, execute_job,
    decode_spec=sim_job_from_payload,
))

register_kind(JobKind("mix", MixJob, MixResult, execute_mix_job))
