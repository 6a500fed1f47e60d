"""Tests for the trace-analysis tools."""

from repro.analysis import (
    burstiness_profile,
    classification_report,
    reuse_distance_profile,
    working_set_words,
)
from repro.isa.opcodes import FuClass
from repro.vm.trace import DynInst, Stream

IALU = int(FuClass.IALU)
LOAD = int(FuClass.LOAD)
STORE = int(FuClass.STORE)

STACK = 0x7FFF0000
DATA = 0x10000000


def load(addr, local=True, hint=True):
    return DynInst(LOAD, dst=8, srcs=(29,), addr=addr, size=4,
                   local_hint=hint, is_local=local)


def store(addr, local=True, hint=True):
    return DynInst(STORE, srcs=(29, 8), addr=addr, size=4,
                   local_hint=hint, is_local=local)


def alu():
    return DynInst(IALU, dst=8)


def test_reuse_distance_basic():
    trace = Stream.from_insts([store(STACK), alu(), alu(), load(STACK)])
    profile = reuse_distance_profile(trace)
    assert profile.total == 1
    assert profile.min() == 3


def test_reuse_distance_latest_store_wins():
    trace = Stream.from_insts([store(STACK), store(STACK), load(STACK)])
    profile = reuse_distance_profile(trace)
    assert profile.min() == 1


def test_reuse_distance_skips_never_stored():
    profile = reuse_distance_profile(Stream.from_insts([load(STACK)]))
    assert profile.total == 0


def test_reuse_distance_local_filter():
    trace = Stream.from_insts([store(DATA, local=False),
                               load(DATA, local=False)])
    assert reuse_distance_profile(trace, local_only=True).total == 0
    assert reuse_distance_profile(trace, local_only=False).total == 1


def test_working_set_split():
    trace = Stream.from_insts([store(STACK), load(STACK), load(STACK + 4),
                               load(DATA, local=False)])
    local, other = working_set_words(trace)
    assert local == 2
    assert other == 1


def test_burstiness_runs():
    trace = Stream.from_insts([
        store(STACK), store(STACK + 4), store(STACK + 8),  # run of 3
        load(DATA, local=False),
        load(STACK),                                        # run of 1
        alu(),                                              # doesn't break
        load(STACK + 4),                                    # still run -> 2
    ])
    profile = burstiness_profile(trace)
    assert profile.count(3) == 1
    assert profile.count(2) == 1
    assert profile.total == 2


def test_burstiness_trailing_run_counted():
    profile = burstiness_profile(Stream.from_insts([store(STACK)]))
    assert profile.count(1) == 1


def test_classification_report_counts():
    trace = Stream.from_insts([
        load(STACK, local=True, hint=True),       # correct local hint
        load(DATA, local=False, hint=False),      # correct nonlocal hint
        load(STACK, local=True, hint=None),       # ambiguous, local
        load(DATA, local=False, hint=None),       # ambiguous, nonlocal
        load(DATA, local=False, hint=True),       # WRONG hint
    ])
    report = classification_report(trace)
    assert report.total == 5
    assert report.ambiguous == 2
    assert report.ambiguous_actually_local == 1
    assert report.hint_wrong == 1
    assert report.hint_accuracy == 1 - 1 / 3
    assert report.ambiguous_fraction == 2 / 5


def test_classification_on_real_workload():
    """Paper Section 2.2.3: hints are near-perfect, ambiguity is rare."""
    from repro.workloads.builder import build_trace

    trace = build_trace("147.vortex", length=20_000, seed=4)
    report = classification_report(trace.insts)
    assert report.hint_accuracy > 0.99
    assert report.ambiguous_fraction < 0.02


def test_compress_has_short_reuse_distances():
    """Calibration check via the analysis tools themselves."""
    from repro.workloads.builder import build_trace

    compress = reuse_distance_profile(
        build_trace("129.compress", length=30_000, seed=4).insts
    )
    m88k = reuse_distance_profile(
        build_trace("124.m88ksim", length=30_000, seed=4).insts
    )
    assert compress.percentile(0.5) < m88k.percentile(0.5)
