"""Tests for the timing simulator.

A mix of micro-traces with hand-checkable timing properties and invariants
over real workload traces.
"""

import pytest

from repro.core.config import MachineConfig
from repro.core.processor import Processor
from repro.isa.opcodes import FuClass
from repro.perf.golden import diff_results
from repro.perf.reference import ReferenceProcessor
from repro.pipeline.memqueue import INF_SEQ, MemQueueEntry
from repro.pipeline.rob import RobEntry
from repro.vm.trace import DynInst, Stream

IALU = int(FuClass.IALU)
IDIV = int(FuClass.IDIV)
LOAD = int(FuClass.LOAD)
STORE = int(FuClass.STORE)

STACK_ADDR = 0x7FFF0000
DATA_ADDR = 0x10000000


def run(insts, **baseline_kwargs):
    config = MachineConfig.baseline(**baseline_kwargs)
    return Processor(config).run(Stream.from_insts(insts), "micro")


def run_checked(insts, lsq_size=None, **baseline_kwargs):
    """``run``, also requiring cycles and counters equal to the frozen
    reference core's on the same stream."""
    def config():
        config = MachineConfig.baseline(**baseline_kwargs)
        if lsq_size is not None:
            config.lsq_size = lsq_size
        return config

    stream = Stream.from_insts(insts)
    result = Processor(config()).run(stream, "micro")
    expected = ReferenceProcessor(config()).run(stream, "micro")
    assert diff_results("micro", "micro", expected, result) == []
    return result


def alu(dst, srcs=()):
    return DynInst(IALU, dst=dst, srcs=tuple(srcs))


def load(dst, addr, local=False, srcs=(5,), sp_based=False, frame=0, off=0):
    return DynInst(LOAD, dst=dst, srcs=tuple(srcs), addr=addr, size=4,
                   local_hint=local, is_local=local, sp_based=sp_based,
                   frame_id=frame, offset=off)


def store(addr, local=False, srcs=(5, 6), sp_based=False, frame=0, off=0):
    return DynInst(STORE, srcs=tuple(srcs), addr=addr, size=4,
                   local_hint=local, is_local=local, sp_based=sp_based,
                   frame_id=frame, offset=off)


# -- basic sanity ------------------------------------------------------------

def test_empty_like_trace_terminates():
    result = run([alu(8)])
    assert result.instructions == 1
    assert result.cycles >= 1


def test_independent_ops_superscalar():
    """16 independent ALU ops should take only a few cycles, not 16."""
    result = run([alu(8 + i) for i in range(16)])
    assert result.cycles < 10


def test_dependent_chain_serialises():
    """A chain of N dependent 1-cycle ops needs at least N cycles."""
    insts = [alu(8)]
    for _ in range(20):
        insts.append(alu(8, srcs=(8,)))
    result = run(insts)
    assert result.cycles >= 21


def test_divide_latency_on_critical_path():
    fast = run([alu(8), alu(9, srcs=(8,))])
    slow = run([DynInst(IDIV, dst=8, srcs=()), alu(9, srcs=(8,))])
    assert slow.cycles >= fast.cycles + 30  # ~34-cycle divide


def test_ipc_counts():
    result = run([alu(8 + (i % 8)) for i in range(100)])
    assert result.instructions == 100
    assert result.ipc == pytest.approx(100 / result.cycles)


# -- memory behaviour --------------------------------------------------------

def test_load_hit_faster_than_miss():
    warm = [load(8, DATA_ADDR), load(9, DATA_ADDR)]
    cold = [load(8, DATA_ADDR), load(9, DATA_ADDR + 0x4000)]
    assert run(warm).cycles <= run(cold).cycles


def test_store_to_load_forwarding_beats_cold_miss():
    forwarded = [store(DATA_ADDR), load(8, DATA_ADDR)]
    result = run(forwarded)
    # The load forwards from the queue: no second miss on the bus.
    assert result.counters.get("lsq.forwards") == 1


def test_port_limit_throttles():
    """32 independent loads to distinct warm lines: ports gate throughput."""
    lines = [DATA_ADDR + 32 * i for i in range(32)]
    warmup = [load(8, a) for a in lines]
    insts = warmup + [load(8 + (i % 8), a) for i, a in enumerate(lines * 4)]
    one = run(insts, l1_ports=1)
    many = run(insts, l1_ports=8)
    assert one.cycles > many.cycles


def test_local_refs_use_lvc_when_decoupled():
    insts = [store(STACK_ADDR, local=True), load(8, STACK_ADDR + 64,
                                                 local=True)]
    result = run(insts, l1_ports=2, lvc_ports=2)
    assert result.counters.get("lvaq.stores") == 1
    assert result.counters.get("lvaq.loads") == 1
    assert result.counters.get("lsq.loads") == 0


def test_local_refs_use_lsq_when_not_decoupled():
    insts = [store(STACK_ADDR, local=True), load(8, STACK_ADDR, local=True)]
    result = run(insts, l1_ports=2, lvc_ports=0)
    assert result.counters.get("lsq.stores") == 1
    assert result.counters.get("lvaq.stores") == 0


def test_ambiguous_ref_predicted_and_counted():
    ambiguous = DynInst(LOAD, dst=8, srcs=(5,), addr=STACK_ADDR, size=4,
                        local_hint=None, is_local=True, pc=77)
    result = run([ambiguous] * 3, l1_ports=2, lvc_ports=2)
    # first dynamic instance mispredicts (table cold), later ones do not
    assert result.counters.get("classify.mispredictions") == 1
    assert result.counters.get("lvaq.loads") == 3


def test_fast_forwarding_counted():
    pair = [
        store(STACK_ADDR + 8, local=True, sp_based=True, frame=1, off=8),
        load(8, STACK_ADDR + 8, local=True, sp_based=True, frame=1, off=8),
    ]
    result = run(pair * 10, l1_ports=2, lvc_ports=2, fast_forwarding=True)
    assert result.counters.get("lvaq.fast_forwards") > 0


def test_fast_forwarding_does_not_cross_frames():
    pair = [
        store(STACK_ADDR + 8, local=True, sp_based=True, frame=1, off=8),
        load(8, STACK_ADDR + 108, local=True, sp_based=True, frame=2, off=8),
    ]
    result = run(pair * 5, l1_ports=2, lvc_ports=2, fast_forwarding=True)
    assert result.counters.get("lvaq.fast_forwards", ) == 0


def test_combining_reduces_lvc_transactions():
    # bursts of adjacent same-line local loads (a restore sequence)
    burst = [load(8 + i, STACK_ADDR + 4 * i, local=True, srcs=(29,))
             for i in range(8)]
    warm = [load(8, STACK_ADDR, local=True, srcs=(29,))]
    insts = warm + burst * 8
    plain = run(insts, l1_ports=2, lvc_ports=1)
    combined = run(insts, l1_ports=2, lvc_ports=1, combining=4)
    assert combined.counters.get("lvaq.load_combined") > 0
    assert combined.cycles <= plain.cycles


def test_store_combining_at_commit():
    burst = [store(STACK_ADDR + 4 * i, local=True, srcs=(29, 6),
                   sp_based=True, frame=1, off=4 * i) for i in range(8)]
    result = run(burst * 6, l1_ports=2, lvc_ports=1, combining=4)
    assert result.counters.get("lvaq.store_combined") > 0


# -- memory-queue disambiguation and forwarding ------------------------------
#
# Micro-streams through the kernel's inlined queue indexes, each pinned
# to the scan-based queues of the frozen reference core.

def test_youngest_earlier_same_word_store_forwards():
    insts = [store(DATA_ADDR), store(DATA_ADDR, srcs=(5, 7)),
             load(8, DATA_ADDR), store(DATA_ADDR, srcs=(5, 9))]
    result = run_checked(insts)
    assert result.counters.get("lsq.forwards") == 1


def test_younger_same_word_store_does_not_forward():
    insts = [store(DATA_ADDR + 64), load(8, DATA_ADDR), store(DATA_ADDR)]
    result = run_checked(insts)
    assert result.counters.get("lsq.forwards") == 0


def test_fast_forward_different_offset_in_frame_matches_nothing():
    insts = [
        store(STACK_ADDR + 8, local=True, sp_based=True, frame=1, off=8),
        load(8, STACK_ADDR + 12, local=True, sp_based=True, frame=1,
             off=12),
    ]
    result = run_checked(insts, lvc_ports=2, fast_forwarding=True)
    assert result.counters.get("lvaq.fast_forwards") == 0


def test_unknown_address_non_sp_store_blocks_fast_forwarding():
    sp_store = store(STACK_ADDR + 8, local=True, sp_based=True, frame=1,
                     off=8)
    sp_load = load(8, STACK_ADDR + 8, local=True, sp_based=True, frame=1,
                   off=8)
    # A non-sp local store whose base register waits on a divide keeps
    # its address unknown while the load looks for a source.
    slow_base = DynInst(IDIV, dst=9, srcs=())
    blocker = store(STACK_ADDR + 64, local=True, srcs=(9, 6))
    clear = run_checked([slow_base, sp_store, sp_load], lvc_ports=2,
                        fast_forwarding=True)
    assert clear.counters.get("lvaq.fast_forwards") == 1
    blocked = run_checked([slow_base, sp_store, blocker, sp_load],
                          lvc_ports=2, fast_forwarding=True)
    assert blocked.counters.get("lvaq.fast_forwards") == 0


def test_non_sp_load_never_fast_forwards():
    insts = [
        store(STACK_ADDR + 8, local=True, sp_based=True, frame=1, off=8),
        load(8, STACK_ADDR + 8, local=True),
    ]
    result = run_checked(insts, lvc_ports=2, fast_forwarding=True)
    assert result.counters.get("lvaq.fast_forwards") == 0
    assert result.counters.get("lvaq.forwards") == 1


def test_full_lsq_stalls_dispatch():
    # Cold misses to distinct lines hold their LSQ entries for the
    # memory latency, so a four-entry LSQ fills behind them.
    insts = [load(8 + i % 8, DATA_ADDR + 4096 * i) for i in range(16)]
    result = run_checked(insts, lsq_size=4)
    assert result.counters.get("stall.lsq_full") > 0
    assert run_checked(insts).counters.get("stall.lsq_full") == 0


def test_livelock_report_names_oldest_unknown_address_store():
    processor = Processor(MachineConfig.baseline())
    known = MemQueueEntry(RobEntry(3, store(DATA_ADDR)), True, 0)
    known.addr_known_time = 1
    unknown = MemQueueEntry(RobEntry(5, store(DATA_ADDR)), True, 0)
    later = MemQueueEntry(RobEntry(7, store(DATA_ADDR)), True, 0)
    processor.lsq.entries.extend([known, unknown, later])
    report = processor._livelock_report(100, 10, 3)
    assert ("lsq 3/64 (unserviced_loads=0, oldest_unknown_store_seq=5)"
            in report)
    assert (f"lvaq 0/64 (unserviced_loads=0, "
            f"oldest_unknown_store_seq={INF_SEQ})" in report)


# -- invariants over real traces ----------------------------------------------

def test_all_instructions_commit(small_li_trace):
    result = Processor(MachineConfig.baseline(2, 2)).run(
        small_li_trace.insts, "li"
    )
    assert result.instructions == len(small_li_trace)
    assert result.counters.get("cycles") == result.cycles


def test_queue_accounting_conserved(small_li_trace):
    result = Processor(MachineConfig.baseline(2, 2)).run(
        small_li_trace.insts, "li"
    )
    c = result.counters
    total_mem = (c.get("lsq.loads") + c.get("lsq.stores")
                 + c.get("lvaq.loads") + c.get("lvaq.stores"))
    assert total_mem == small_li_trace.stats.mem_refs


def test_more_l1_ports_never_slower(small_vortex_trace):
    insts = small_vortex_trace.insts
    two = Processor(MachineConfig.baseline(2, 0)).run(insts, "v")
    eight = Processor(MachineConfig.baseline(8, 0)).run(insts, "v")
    assert eight.cycles <= two.cycles


def test_determinism(small_li_trace):
    a = Processor(MachineConfig.baseline(3, 2)).run(small_li_trace.insts, "li")
    b = Processor(MachineConfig.baseline(3, 2)).run(small_li_trace.insts, "li")
    assert a.cycles == b.cycles


def test_lvc_hit_rate_high_on_li(small_li_trace):
    result = Processor(MachineConfig.baseline(2, 2)).run(
        small_li_trace.insts, "li"
    )
    assert result.lvc_miss_rate < 0.05


def test_wider_issue_helps_or_equal(small_li_trace):
    narrow = MachineConfig.baseline(4, 0)
    narrow.issue_width = 4
    wide = MachineConfig.baseline(4, 0)
    a = Processor(narrow).run(small_li_trace.insts, "li")
    b = Processor(wide).run(small_li_trace.insts, "li")
    assert b.cycles <= a.cycles
