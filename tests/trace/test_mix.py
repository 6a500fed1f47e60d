"""Multi-programmed mixes: solo equivalence, interference, caching."""

from __future__ import annotations

import gc
import heapq

import pytest

from repro.core.multicore import run_mix
from repro.core.processor import Processor
from repro.core.stages import specialize
from repro.errors import SimulationError
from repro.mem.shared import SharedMemory
from repro.perf.golden import GOLDEN_CONFIGS, diff_results, golden_config
from repro.runtime.job import MixJob
from repro.trace.mix import (
    INTERFERENCE_COUNTERS,
    MixResult,
    run_mix_jobs,
)
from repro.workloads.builder import build_trace


def test_one_program_mix_is_bit_identical(small_li_trace):
    """A 1-program mix must reproduce the solo run exactly — the shared
    hierarchy with one core attached is the solo hierarchy — down to an
    empty stream, whose kernel simulates no cycle at all."""
    streams = (small_li_trace.insts, [], small_li_trace.insts[:1])
    for name, _kwargs in GOLDEN_CONFIGS:
        config = golden_config(name)
        for insts in streams:
            solo = Processor(config).run(insts, "130.li")
            (mixed,) = run_mix([("130.li", insts)], config)
            assert diff_results("130.li", name, solo, mixed) == []


def _policy_config(notation, ports, frontend):
    config = golden_config(notation)
    config.mem.l1_port_policy = ports
    config.mem.lvc_port_policy = ports
    config.frontend.policy = frontend
    return config


#: The six golden machines, plus the contended port policies under both
#: frontends on the conventional and the optimized machine.
MIX_CONFIGS = (
    [(name, lambda name=name: golden_config(name))
     for name, _kwargs in GOLDEN_CONFIGS]
    + [(f"{notation}-{ports}-{frontend}",
        lambda n=notation, p=ports, f=frontend: _policy_config(n, p, f))
       for ports in ("finite", "banked", "replicated")
       for frontend in ("perfect", "gshare")
       for notation in ("2+0", "2+2:opt")])


@pytest.fixture(scope="module")
def short_streams():
    return {name: build_trace(name, length=3000, seed=3).insts
            for name in ("130.li", "147.vortex", "099.go", "129.compress",
                         "126.gcc")}


@pytest.mark.parametrize("label,make", MIX_CONFIGS,
                         ids=[label for label, _make in MIX_CONFIGS])
def test_n_program_mix_matches_portable(label, make, short_streams,
                                        monkeypatch):
    """Two- and three-program mixes step N specialized kernels, sharing
    one compiled kernel, bit-identical to N portable ones."""
    mixes = (("130.li", "147.vortex"),
             ("099.go", "129.compress", "126.gcc"))
    monkeypatch.delenv("REPRO_PORTABLE_KERNEL", raising=False)
    specialize.clear_cache()
    before = specialize.compile_count
    specialized = [run_mix([(n, short_streams[n]) for n in mix], make())
                   for mix in mixes]
    assert specialize.compile_count == before + 1
    monkeypatch.setenv("REPRO_PORTABLE_KERNEL", "1")
    portable = [run_mix([(n, short_streams[n]) for n in mix], make())
                for mix in mixes]
    for fast, reference in zip(specialized, portable):
        assert len(fast) == len(reference)
        for program, expected in zip(fast, reference):
            assert diff_results(expected.workload_name, label, expected,
                                program) == []


def _heap_mix(traces, config):
    """The driver's contract, restated with a heap: resume cores in
    (due cycle, core index) order, each due one cycle after the cycle
    it last yielded."""
    processors = [Processor(config) for _ in traces]
    shared = SharedMemory(config.mem, len(processors))
    for index, processor in enumerate(processors):
        shared.attach(processor.hierarchy, index)
    kernels = [processor.cycles(insts)
               for processor, (_name, insts) in zip(processors, traces)]
    heap = [(1, index) for index in range(len(kernels))]
    while heap:
        _due, index = heapq.heappop(heap)
        cycle = next(kernels[index], None)
        if cycle is not None:
            heapq.heappush(heap, (cycle + 1, index))
    return [processor.result(name)
            for processor, (name, _insts) in zip(processors, traces)]


@pytest.mark.parametrize("notation", ["2+0", "2+2:opt"])
def test_mix_schedule_matches_its_contract(notation, short_streams):
    traces = [(n, short_streams[n])
              for n in ("099.go", "129.compress", "126.gcc")]
    mixed = run_mix(traces, golden_config(notation))
    # Every core loses bus arbitration to another, so the order in
    # which cores are resumed shows in the result.
    assert all(p.counters.get("mix.bus_conflicts") for p in mixed)
    for program, expected in zip(mixed,
                                 _heap_mix(traces, golden_config(notation))):
        assert diff_results(expected.workload_name, notation, expected,
                            program) == []


@pytest.mark.parametrize("gc_enabled", [True, False],
                         ids=["gc-on", "gc-off"])
def test_mix_error_closes_every_kernel(gc_enabled, short_streams,
                                       monkeypatch):
    """An error inside one core leaves no kernel suspended: every
    kernel's finally has run, and GC is as the caller left it."""
    kernels = []
    cycles = Processor.cycles

    def recording_cycles(self, insts):
        kernel = cycles(self, insts)
        kernels.append((self, kernel))
        return kernel

    monkeypatch.setattr(Processor, "cycles", recording_cycles)
    miss = SharedMemory.miss
    calls = []

    def failing_miss(self, *args):
        calls.append(1)
        if len(calls) == 5:
            raise RuntimeError("injected miss failure")
        return miss(self, *args)

    monkeypatch.setattr(SharedMemory, "miss", failing_miss)
    was_enabled = gc.isenabled()
    if not gc_enabled:
        gc.disable()
    try:
        with pytest.raises(RuntimeError, match="injected miss failure"):
            run_mix([(n, short_streams[n])
                     for n in ("130.li", "147.vortex", "099.go")],
                    golden_config("2+2:opt"))
        assert gc.isenabled() is gc_enabled
    finally:
        if was_enabled:
            gc.enable()
    assert len(kernels) == 3
    for processor, kernel in kernels:
        assert kernel.gi_frame is None
        assert processor._outcome is not None


def test_mix_core_runs_under_its_solo_cycle_limit(short_streams,
                                                  monkeypatch):
    """A core that cannot finish stops at its own solo limit, and the
    error names its program and carries its livelock report."""
    monkeypatch.setattr(SharedMemory, "miss",
                        lambda self, hierarchy, start, addr, is_store:
                        start + 10 ** 9)
    long_stream = short_streams["130.li"]
    short_stream = short_streams["147.vortex"][:1000]
    with pytest.raises(SimulationError) as info:
        run_mix([("130.li", long_stream), ("147.vortex", short_stream)],
                golden_config("2+0"))
    message = str(info.value)
    assert message.startswith("147.vortex: cycle limit exceeded (81000) ")
    assert "committed; dispatch index" in message


def test_two_program_mix_interferes(small_li_trace, small_vortex_trace,
                                    decoupled_config):
    results = run_mix(
        [("130.li", small_li_trace.insts),
         ("147.vortex", small_vortex_trace.insts)],
        decoupled_config,
    )
    assert [r.workload_name for r in results] == ["130.li", "147.vortex"]
    for result, solo_insts in zip(
            results, (small_li_trace.insts, small_vortex_trace.insts)):
        solo = Processor(decoupled_config).run(
            solo_insts, result.workload_name)
        # Sharing can only slow a program down, never speed it up
        # (disjoint per-core address spaces: no prefetch gifts).
        assert result.cycles >= solo.cycles
        assert result.instructions == solo.instructions
    # Somebody must have observed the contention.
    total_conflicts = sum(
        r.counters.get("mix.bus_conflicts") for r in results)
    assert total_conflicts > 0


def test_mix_result_slices_and_summary(small_li_trace, small_vortex_trace,
                                       base_config):
    programs = run_mix(
        [("130.li", small_li_trace.insts),
         ("147.vortex", small_vortex_trace.insts)],
        base_config,
    )
    mix = MixResult("(2+0)", programs)
    assert mix.cycles == max(p.cycles for p in programs)
    assert mix.instructions == sum(p.instructions for p in programs)
    assert mix.slice("147.vortex").workload_name == "147.vortex"
    with pytest.raises(KeyError):
        mix.slice("no-such-program")
    interference = mix.interference()
    assert set(interference) == {"130.li", "147.vortex"}
    for counters in interference.values():
        assert set(counters) == set(INTERFERENCE_COUNTERS)
    summary = mix.summary()
    assert summary["config"] == "(2+0)"
    assert len(summary["programs"]) == 2


def test_mix_job_engine_and_cache_round_trip(tmp_path, decoupled_config):
    job = MixJob(("130.li", "129.compress"), decoupled_config, scale=0.001)
    [(returned, first)] = run_mix_jobs([job], cache_dir=str(tmp_path))
    assert returned is job
    [(_, second)] = run_mix_jobs(
        [MixJob(("130.li", "129.compress"), decoupled_config,
                scale=0.001)],
        cache_dir=str(tmp_path))
    assert isinstance(second, MixResult)
    assert second.summary() == first.summary()


def test_mix_job_identity():
    config = golden_config("2+0")
    job = MixJob(("130.li", "129.compress"), config, scale=0.5)
    same = MixJob(("130.li", "129.compress"), config, scale=0.5)
    assert job.key == same.key
    assert job.workload == "130.li+129.compress"
    # Order is part of the identity: core 0 vs core 1 placement differs.
    swapped = MixJob(("129.compress", "130.li"), config, scale=0.5)
    assert swapped.key != job.key
    with pytest.raises(ValueError):
        MixJob((), config)
