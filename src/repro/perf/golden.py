"""Golden-equivalence harness: the optimized core vs the frozen seed core.

The tentpole requirement of the performance work is that the optimized
:class:`repro.core.processor.Processor` is **bit-identical** to the seed
model — same cycle counts, same instruction counts, same counter values —
on every workload/configuration pair the experiment suite uses.  This
module runs both cores over a matrix of (workload, config) pairs and
reports every divergence, field by field.

``repro.perf.reference.ReferenceProcessor`` is a frozen, vendored copy of
the seed core; it shares the memory hierarchy, trace, and counter code
with the live core (those layers carry the modelled state machines), so a
comparison here exercises exactly the parts the optimization rewrote: the
pipeline loop, the calendar queue, the issue lanes, and the memory-queue
index maintenance.

The same harness holds the functional VM to its frozen seed interpreter:
:func:`diff_machines` runs a program on :class:`repro.vm.machine.Machine`
and on :class:`repro.perf.reference_vm.ReferenceMachine` and reports
every field that differs — each ``DynInst`` slot, every ``TraceStats``
count and the frame-size histogram, the output, exit code, instruction
count, registers, memory words and any fault raised.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.core.config import MachineConfig
from repro.core.metrics import SimResult
from repro.core.processor import Processor
from repro.isa.program import Program
from repro.perf.reference import ReferenceProcessor
from repro.perf.reference_vm import ReferenceMachine
from repro.vm.machine import Machine
from repro.vm.trace import DynInst

#: The configuration axes of the paper's evaluation, by notation.  The
#: fig9 pair (2+2 with fast forwarding and combining) is the headline
#: configuration; the rest cover the sweeps the figures run.
GOLDEN_CONFIGS: Tuple[Tuple[str, Dict], ...] = (
    ("2+0", dict(l1_ports=2, lvc_ports=0)),
    ("1+1", dict(l1_ports=1, lvc_ports=1)),
    ("2+2", dict(l1_ports=2, lvc_ports=2)),
    ("4+0", dict(l1_ports=4, lvc_ports=0)),
    ("2+2:opt", dict(l1_ports=2, lvc_ports=2,
                     fast_forwarding=True, combining=2)),
    ("3+1:opt", dict(l1_ports=3, lvc_ports=1,
                     fast_forwarding=True, combining=2)),
)

#: Notation of the paper's Figure 9 configuration.
FIG9_CONFIG = "2+2:opt"


def golden_config(notation: str) -> MachineConfig:
    """The :class:`MachineConfig` for a :data:`GOLDEN_CONFIGS` notation."""
    for name, kwargs in GOLDEN_CONFIGS:
        if name == notation:
            return MachineConfig.baseline(**kwargs)
    raise KeyError(notation)


class Mismatch:
    """One observed divergence between the two cores."""

    __slots__ = ("workload", "config", "field", "expected", "actual")

    def __init__(self, workload: str, config: str, field: str,
                 expected, actual):
        self.workload = workload
        self.config = config
        self.field = field
        self.expected = expected
        self.actual = actual

    def __repr__(self) -> str:
        return (
            f"{self.workload} on {self.config}: {self.field} "
            f"expected {self.expected!r}, got {self.actual!r}"
        )


def diff_results(workload: str, config: str,
                 expected: SimResult, actual: SimResult) -> List[Mismatch]:
    """Field-by-field comparison of two simulation results.

    Cycle and instruction counts must match exactly, and the counter
    dictionaries must be *equal as dictionaries*: a counter absent on one
    side and zero on the other is still a divergence, because the seed
    core only materialises counters it actually bumped.
    """
    mismatches: List[Mismatch] = []
    if actual.cycles != expected.cycles:
        mismatches.append(Mismatch(workload, config, "cycles",
                                   expected.cycles, actual.cycles))
    if actual.instructions != expected.instructions:
        mismatches.append(
            Mismatch(workload, config, "instructions",
                     expected.instructions, actual.instructions))
    want = expected.counters.as_dict()
    got = actual.counters.as_dict()
    if want != got:
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                mismatches.append(
                    Mismatch(workload, config, f"counters[{key}]",
                             want.get(key), got.get(key)))
    return mismatches


def compare_on_trace(
    insts: Sequence[DynInst],
    config: MachineConfig,
    workload: str = "<trace>",
    config_name: str = "<config>",
    optimized: Type = Processor,
    reference: Type = ReferenceProcessor,
) -> List[Mismatch]:
    """Run both cores over one prepared trace and diff the results."""
    expected = reference(config).run(insts, workload)
    actual = optimized(config).run(insts, workload)
    return diff_results(workload, config_name, expected, actual)


def check_equivalence(
    workloads: Sequence[str],
    configs: Optional[Iterable[Tuple[str, Dict]]] = None,
    length: int = 20_000,
    seed: int = 1,
    optimized: Type = Processor,
    reference: Type = ReferenceProcessor,
) -> List[Mismatch]:
    """Equivalence sweep over a workload/config matrix.

    Returns every mismatch found (an empty list is a pass).  The trace
    for each workload is built once and shared by every configuration —
    the cores must not mutate it.
    """
    from repro.workloads.builder import build_trace

    if configs is None:
        configs = GOLDEN_CONFIGS
    mismatches: List[Mismatch] = []
    for workload in workloads:
        insts = build_trace(workload, length=length, seed=seed).insts
        for config_name, kwargs in configs:
            config = MachineConfig.baseline(**kwargs)
            mismatches.extend(
                compare_on_trace(insts, config, workload, config_name,
                                 optimized=optimized, reference=reference))
    return mismatches


# -- the functional VM --------------------------------------------------------

#: ``TraceStats`` counts compared by :func:`diff_machines` (the frame-size
#: histogram is compared bin by bin).
_TRACE_STATS_FIELDS = ("instructions", "loads", "stores", "local_loads",
                       "local_stores", "sp_based_refs", "ambiguous_refs",
                       "calls", "max_call_depth")


def _run_vm(machine_type: Type, program: Program, max_instructions: int,
            trace: bool):
    """Run one VM; a raised error becomes ``(type name, message)``."""
    vm = machine_type(program, trace=trace)
    try:
        vm.run(max_instructions=max_instructions)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return vm, (type(exc).__name__, str(exc))
    return vm, None


def _vm_state(vm, error) -> Dict[str, object]:
    """Every scalar field of a finished VM that must match."""
    return {
        "error": error, "exit_code": vm.exit_code,
        "instructions_executed": vm.instructions_executed, "pc": vm.pc,
        "brk": vm.brk, "output": vm.output, "call_depth": vm.call_depth,
        "current_frame_id": vm.current_frame_id,
        "traced": vm.trace is not None,
    }


def diff_machines(program: Program,
                  max_instructions: int = 50_000_000,
                  trace: bool = True,
                  machine: Type = Machine,
                  reference: Type = ReferenceMachine) -> List[Mismatch]:
    """Run *program* on both VMs and report every field that differs.

    Values are compared by ``repr``, so an int where the reference holds
    a float (or a bool) is a mismatch too.  Registers, memory words and
    trace entries report the first differing element only.
    """
    name = program.source_name
    label = f"budget {max_instructions}" + ("" if trace else ", untraced")
    expected, want_error = _run_vm(reference, program, max_instructions,
                                   trace)
    actual, got_error = _run_vm(machine, program, max_instructions, trace)
    out: List[Mismatch] = []

    def compare(field: str, want, got) -> bool:
        if repr(want) == repr(got):
            return True
        out.append(Mismatch(name, label, field, want, got))
        return False

    want_state = _vm_state(expected, want_error)
    got_state = _vm_state(actual, got_error)
    for field in want_state:
        compare(field, want_state[field], got_state[field])
    for index, (want, got) in enumerate(zip(expected.regs, actual.regs)):
        if not compare(f"regs[{index}]", want, got):
            break
    want_words = expected.memory.words()
    got_words = actual.memory.words()
    for addr in sorted(set(want_words) | set(got_words)):
        if not compare(f"memory[{addr:#x}]", want_words.get(addr),
                       got_words.get(addr)):
            break
    if expected.trace is None or actual.trace is None:
        return out
    want_stats, got_stats = expected.trace.stats, actual.trace.stats
    for field in _TRACE_STATS_FIELDS:
        compare(f"stats.{field}", getattr(want_stats, field),
                getattr(got_stats, field))
    compare("stats.frame_sizes", list(want_stats.frame_sizes.items()),
            list(got_stats.frame_sizes.items()))
    want_insts, got_insts = expected.trace.insts, actual.trace.insts
    compare("len(insts)", len(want_insts), len(got_insts))
    for index, (want, got) in enumerate(zip(want_insts, got_insts)):
        if type(got) is not DynInst:
            compare(f"insts[{index}] type", DynInst, type(got))
            break
        if not all([compare(f"insts[{index}].{slot}", getattr(want, slot),
                            getattr(got, slot))
                    for slot in DynInst.__slots__]):
            break
    return out
