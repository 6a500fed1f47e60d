"""Property-based fuzzing of the timing simulator.

Random (but well-formed) dynamic traces across random machine
configurations must always simulate to completion with conserved
accounting — no deadlocks, no lost instructions, no negative statistics.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.config import MachineConfig
from repro.core.processor import Processor
from repro.isa.opcodes import FuClass
from repro.vm.trace import DynInst, Stream

IALU = int(FuClass.IALU)
IMULT = int(FuClass.IMULT)
IDIV = int(FuClass.IDIV)
FADD = int(FuClass.FADD)
LOAD = int(FuClass.LOAD)
STORE = int(FuClass.STORE)
BRANCH = int(FuClass.BRANCH)

STACK = 0x7FFE0000
DATA = 0x10000000


@st.composite
def dyn_insts(draw):
    """One random well-formed dynamic instruction."""
    kind = draw(st.sampled_from(
        ["alu", "mul", "div", "fp", "branch", "load", "store"]
    ))
    srcs = tuple(draw(st.lists(st.integers(1, 30), max_size=2)))
    if kind == "alu":
        return DynInst(IALU, dst=draw(st.integers(1, 30)), srcs=srcs)
    if kind == "mul":
        return DynInst(IMULT, dst=draw(st.integers(1, 30)), srcs=srcs)
    if kind == "div":
        return DynInst(IDIV, dst=draw(st.integers(1, 30)), srcs=srcs)
    if kind == "fp":
        return DynInst(FADD, dst=draw(st.integers(33, 60)),
                       srcs=tuple(draw(st.lists(st.integers(33, 60),
                                                max_size=2))))
    if kind == "branch":
        return DynInst(BRANCH, srcs=srcs, pc=draw(st.integers(0, 255)))
    local = draw(st.booleans())
    hint = draw(st.sampled_from([True, False, None]))
    word = draw(st.integers(0, 255))
    addr = (STACK if local else DATA) + 4 * word
    sp_based = local and draw(st.booleans())
    if kind == "load":
        return DynInst(LOAD, dst=draw(st.integers(1, 30)), srcs=srcs,
                       addr=addr, size=4,
                       local_hint=hint if not local else
                       draw(st.sampled_from([True, None])),
                       is_local=local, sp_based=sp_based,
                       frame_id=draw(st.integers(0, 3)),
                       offset=4 * draw(st.integers(0, 15)),
                       pc=draw(st.integers(0, 255)))
    return DynInst(STORE, srcs=srcs or (29,), addr=addr, size=4,
                   local_hint=hint if not local else
                   draw(st.sampled_from([True, None])),
                   is_local=local, sp_based=sp_based,
                   frame_id=draw(st.integers(0, 3)),
                   offset=4 * draw(st.integers(0, 15)),
                   pc=draw(st.integers(0, 255)))


@st.composite
def machine_configs(draw):
    return MachineConfig.baseline(
        l1_ports=draw(st.integers(1, 4)),
        lvc_ports=draw(st.integers(0, 3)),
        fast_forwarding=draw(st.booleans()),
        combining=draw(st.sampled_from([1, 2, 4])),
    )


@settings(max_examples=40, deadline=None)
@given(st.lists(dyn_insts(), min_size=1, max_size=120), machine_configs())
def test_any_trace_completes_with_conserved_accounting(insts, config):
    result = Processor(config).run(Stream.from_insts(insts), "fuzz")
    assert result.instructions == len(insts)
    assert result.cycles >= 1
    c = result.counters
    mem_refs = sum(1 for i in insts if i.is_mem)
    routed = (c.get("lsq.loads") + c.get("lsq.stores")
              + c.get("lvaq.loads") + c.get("lvaq.stores"))
    assert routed == mem_refs
    # every counted statistic is non-negative
    assert all(value >= 0 for _, value in c.items())


@settings(max_examples=15, deadline=None)
@given(st.lists(dyn_insts(), min_size=1, max_size=80))
def test_simulation_deterministic(insts):
    config = MachineConfig.baseline(2, 2, fast_forwarding=True, combining=2)
    a = Processor(config).run(Stream.from_insts(insts), "a")
    b = Processor(config).run(Stream.from_insts(insts), "b")
    assert a.cycles == b.cycles
    assert a.counters.as_dict() == b.counters.as_dict()


@settings(max_examples=15, deadline=None)
@given(st.lists(dyn_insts(), min_size=1, max_size=80))
def test_prefix_takes_no_longer_than_whole(insts):
    """Simulating a prefix never takes more cycles than the full trace."""
    config = MachineConfig.baseline(2, 0)
    full = Processor(config).run(Stream.from_insts(insts), "full")
    half = Processor(config).run(
        Stream.from_insts(insts[: len(insts) // 2 + 1]), "half")
    assert half.cycles <= full.cycles
