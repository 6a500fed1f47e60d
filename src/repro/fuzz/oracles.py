"""The differential oracles: seven independent ways to catch a bug.

``opt``
    Compile the program at ``-O0`` and with the optimizer on, run both on
    the VM, and compare *architectural* results: exit code, everything
    printed, and the final memory words of every named global.  Register
    contents are deliberately excluded — allocation differs between the
    two builds — so this is exactly the state a correct compiler must
    preserve.  This is the oracle that catches constant-folding
    miscompiles.

``timing``
    Run the timing core over the optimized build's trace and check the
    retired-state invariants that hold for *any* correct core: it retires
    exactly the committed instruction stream, in no fewer cycles than the
    issue width allows, and its committed load/store counters agree with
    the trace it was fed.

``golden``
    Run both the optimized :class:`repro.core.processor.Processor` and the
    frozen :class:`repro.perf.reference.ReferenceProcessor` over the same
    trace and require bit-identical results (cycles, instructions, every
    counter) — the standing gate every performance PR must keep green.

``analyze``
    Run the :mod:`repro.analyze` static verifier over the optimized build
    — stack discipline, frame metadata, ``local_hint`` soundness — plus
    its dynamic cross-check against the trace.  Generated programs must
    verify clean; any error-severity diagnostic is a divergence.

``replay``
    Push the committed trace through the full :mod:`repro.trace` round
    trip (encode → decode) and require the replayed stream to simulate
    bit-identically to the execution-driven one — same cycles, same
    counters.  Every fuzz campaign thereby exercises the serialized
    trace format against freshly generated programs, not just the
    golden workloads.

``tv``
    Recompile at ``-O2`` with full translation validation
    (``CompilerOptions(verify="tv")``, see :mod:`repro.analyze.tv`):
    every SSA pass application is snapshot-diffed and its claimed
    rewrites are re-proved against the pre/post states.  Any
    certificate finding is a divergence — this is the oracle that
    catches a pass that *lies* about what it did, even when the
    miscompile happens not to change architectural results.

``vm``
    Run the optimized build on the predecoded
    :class:`repro.vm.machine.Machine` and on the frozen seed interpreter
    :class:`repro.perf.reference_vm.ReferenceMachine`
    (:func:`repro.perf.golden.diff_machines`): every instruction field,
    the trace statistics, the output, exit code, instruction count,
    registers and memory words must match.  This is the oracle that
    catches a handler the predecoder gets wrong on a shape the golden
    programs never execute.

A divergence is **data**, not an exception: campaigns collect and report
them; only infrastructure failures raise.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import MachineConfig
from repro.core.processor import Processor
from repro.errors import ReproError
from repro.lang import CompilerOptions, compile_source
from repro.vm.machine import Machine

#: Every oracle, in the order campaigns run them.
ALL_ORACLES = ("opt", "timing", "golden", "analyze", "replay", "tv",
               "vm")

#: The paper's Figure 9 machine — fast forwarding and combining on, which
#: exercises the most timing-core machinery per fuzzed trace.
DEFAULT_CONFIG_NOTATION = "2+2:opt"


class Divergence:
    """One observed disagreement between two views of the same program."""

    __slots__ = ("oracle", "seed", "detail")

    def __init__(self, oracle: str, detail: str, seed: Optional[int] = None):
        self.oracle = oracle
        self.detail = detail
        self.seed = seed

    def __repr__(self) -> str:
        tag = f"seed={self.seed} " if self.seed is not None else ""
        return f"<{tag}{self.oracle}: {self.detail}>"


def default_config() -> MachineConfig:
    """The machine configuration fuzzed timing runs use."""
    from repro.perf.golden import golden_config

    return golden_config(DEFAULT_CONFIG_NOTATION)


def realism_config() -> MachineConfig:
    """The default machine under contended ports and a gshare frontend.

    The timing oracle runs this alongside the ideal configuration so the
    realism counters (``ports.conflict_stalls``, the ``frontend.*``
    bubbles) stay covered by the fuzzer's conservation invariants.
    """
    config = default_config()
    config.mem.l1_port_policy = "finite"
    if config.decoupled:
        config.mem.lvc_port_policy = "finite"
    config.frontend.policy = "gshare"
    return config


def _globals_snapshot(vm: Machine) -> Dict[str, Tuple[int, ...]]:
    """Final memory words of every named (non-pool) global."""
    snapshot: Dict[str, Tuple[int, ...]] = {}
    for item in vm.program.data:
        if item.name.startswith("__flt"):
            continue  # float-literal pool: immutable, layout-dependent
        addr = vm.program.data_address(item.name)
        words = tuple(int(vm.memory.load_word(addr + 4 * i))
                      for i in range(len(item.values)))
        snapshot[item.name] = words
    return snapshot


def _run(source: str, name: str, optimize: bool, trace: bool,
         max_instructions: int) -> Machine:
    program = compile_source(
        source, CompilerOptions(source_name=name, optimize=optimize))
    vm = Machine(program, trace=trace)
    vm.run(max_instructions=max_instructions)
    return vm


def check_opt(vm_opt: Machine, vm_noopt: Machine) -> List[Divergence]:
    """Compare the two builds' architectural results."""
    out: List[Divergence] = []
    if vm_opt.exit_code != vm_noopt.exit_code:
        out.append(Divergence(
            "opt", f"exit code {vm_opt.exit_code} (optimized) != "
                   f"{vm_noopt.exit_code} (-O0)"))
    if vm_opt.stdout != vm_noopt.stdout:
        out.append(Divergence(
            "opt", f"output {_clip(vm_opt.stdout)!r} (optimized) != "
                   f"{_clip(vm_noopt.stdout)!r} (-O0)"))
    mem_opt = _globals_snapshot(vm_opt)
    mem_noopt = _globals_snapshot(vm_noopt)
    for gname in sorted(set(mem_opt) | set(mem_noopt)):
        if mem_opt.get(gname) != mem_noopt.get(gname):
            out.append(Divergence(
                "opt", f"global {gname!r} ends as {mem_opt.get(gname)} "
                       f"(optimized) vs {mem_noopt.get(gname)} (-O0)"))
    return out


def check_timing(vm: Machine, config: MachineConfig,
                 name: str) -> List[Divergence]:
    """Retired-state/counter invariants of the timing core on *vm*'s trace."""
    trace = vm.trace
    assert trace is not None
    result = Processor(config).run(trace.insts, name)
    out: List[Divergence] = []
    committed = len(trace.insts)
    if result.instructions != committed:
        out.append(Divergence(
            "timing", f"core retired {result.instructions} instructions, "
                      f"trace committed {committed}"))
    if committed:
        floor = -(-committed // config.issue_width)  # ceil division
        if result.cycles < floor:
            out.append(Divergence(
                "timing", f"{result.cycles} cycles retires {committed} "
                          f"instructions past the {config.issue_width}-wide "
                          f"issue limit (floor {floor})"))
    counters = result.counters
    # Conservation: every committed load/store enters exactly one of the
    # two queues, and every cache tracks accesses = hits + misses.
    queued_loads = counters.get("lsq.loads") + counters.get("lvaq.loads")
    if queued_loads != trace.stats.loads:
        out.append(Divergence(
            "timing", f"LSQ+LVAQ queued {queued_loads} loads, trace "
                      f"committed {trace.stats.loads}"))
    queued_stores = counters.get("lsq.stores") + counters.get("lvaq.stores")
    if queued_stores != trace.stats.stores:
        out.append(Divergence(
            "timing", f"LSQ+LVAQ queued {queued_stores} stores, trace "
                      f"committed {trace.stats.stores}"))
    for cache in ("l1", "lvc"):
        split = (counters.get(f"{cache}.hits")
                 + counters.get(f"{cache}.misses"))
        accesses = counters.get(f"{cache}.accesses")
        if split != accesses:
            out.append(Divergence(
                "timing", f"{cache} hits+misses = {split} but "
                          f"{accesses} accesses"))
    # Realism conservation: the contended-port and frontend counters are
    # bounded by the events that can charge them.  Every first-level
    # port conflict is a failed take at a site that also charges one of
    # the three named port stalls; every redirect stall run is at most
    # 1 + redirect_penalty cycles per mispredicted branch; every fetch
    # stall run is at most icache_miss_latency cycles per I-cache miss.
    conflicts = counters.get("ports.conflict_stalls")
    port_stalls = (counters.get("stall.store_port")
                   + counters.get("stall.lsq_port")
                   + counters.get("stall.lvaq_port"))
    if conflicts > port_stalls:
        out.append(Divergence(
            "timing", f"{conflicts} port conflicts exceed the "
                      f"{port_stalls} port stalls that can cause them"))
    redirect_cap = (counters.get("frontend.mispredicts")
                    * (1 + config.frontend.redirect_penalty))
    if counters.get("frontend.redirect_bubbles") > redirect_cap:
        out.append(Divergence(
            "timing", f"{counters.get('frontend.redirect_bubbles')} "
                      f"redirect bubbles exceed "
                      f"{redirect_cap} (mispredicts x (1 + penalty))"))
    fetch_cap = (counters.get("frontend.icache_misses")
                 * config.frontend.icache_miss_latency)
    if counters.get("frontend.fetch_bubbles") > fetch_cap:
        out.append(Divergence(
            "timing", f"{counters.get('frontend.fetch_bubbles')} fetch "
                      f"bubbles exceed {fetch_cap} "
                      f"(icache misses x miss latency)"))
    return out


def check_golden(vm: Machine, config: MachineConfig, name: str,
                 config_name: str = DEFAULT_CONFIG_NOTATION
                 ) -> List[Divergence]:
    """Optimized core vs the frozen reference core, bit for bit."""
    from repro.perf.golden import compare_on_trace

    trace = vm.trace
    assert trace is not None
    mismatches = compare_on_trace(trace.insts, config, workload=name,
                                  config_name=config_name)
    return [Divergence("golden", repr(m)) for m in mismatches]


def check_replay(vm: Machine, config: MachineConfig, name: str,
                 config_name: str = DEFAULT_CONFIG_NOTATION
                 ) -> List[Divergence]:
    """Both replay paths, bit for bit vs execution-driven.

    The trace is serialized once and read back two ways: decoded as a
    raw trace (what ``replay`` reads), and derived into a sidecar that is
    serialized, deserialized and loaded (what ``replay_fast`` reads).
    Reuses the golden plumbing: each replayed stream must produce the
    exact SimResult of the direct stream.  A round trip that *fails to
    decode* is also a divergence — both formats must accept every trace
    the VM can emit.
    """
    from repro.errors import TraceError
    from repro.perf.golden import diff_results
    from repro.trace import predecode
    from repro.trace.format import decode_trace, encode_trace

    trace = vm.trace
    assert trace is not None
    origin = f"<fuzz:{name}>"
    try:
        blob = encode_trace(trace)
        raw = decode_trace(blob, origin=origin).insts
        sidecar = predecode.build_stream(predecode.decode_predecoded(
            predecode.encode_predecoded(
                predecode.predecode_trace(blob, origin=origin)),
            origin=origin))
    except TraceError as exc:
        return [Divergence("replay", f"round trip failed: {exc}")]
    expected = Processor(config).run(trace.insts, name)
    out: List[Divergence] = []
    for path, stream in (("trace", raw), ("sidecar", sidecar)):
        actual = Processor(config).run(stream, name)
        out.extend(Divergence("replay", f"{path}: {m!r}")
                   for m in diff_results(name, config_name, expected,
                                         actual))
    return out


def check_analyze(source: str, vm: Machine, name: str) -> List[Divergence]:
    """Static verification + dynamic cross-check of the optimized build.

    Recompiles with IR capture (cheap next to the VM run the caller
    already paid for) so the IR lints see what codegen consumed, then
    reuses *vm*'s committed trace for the dynamic hint cross-check.
    """
    from repro.analyze import analyze_program

    ir_map: Dict[str, object] = {}
    program = compile_source(
        source, CompilerOptions(source_name=name, optimize=True),
        ir_out=ir_map)
    report = analyze_program(program, ir_map=ir_map, trace=vm.trace,
                             name=name)
    return [Divergence("analyze", diag.render()) for diag in report.errors]


def check_tv(source: str, name: str) -> List[Divergence]:
    """Full translation validation of the ``-O2`` pipeline on *source*.

    Recompiles with ``verify="tv"`` (compile-only — no VM run needed)
    and surfaces every pass-certificate finding.  The certificate log
    itself must also be non-trivial: a fuzzed compile that produced no
    certificates at all means the verification hook silently fell off.
    """
    from repro.lang import CompileStats

    stats = CompileStats()
    compile_source(
        source, CompilerOptions(source_name=name, optimize=True,
                                verify="tv"),
        stats=stats)
    out = [Divergence("tv", diag.render())
           for _fname, cert in stats.certificates
           for diag in cert.findings]
    if not stats.certificates:
        out.append(Divergence(
            "tv", "verified compile produced no pass certificates"))
    return out


def check_vm(vm: Machine, max_instructions: int) -> List[Divergence]:
    """The predecoded VM vs the frozen seed VM on *vm*'s program."""
    from repro.perf.golden import diff_machines

    return [Divergence("vm", repr(m))
            for m in diff_machines(vm.program, max_instructions)]


def run_oracles(
    source: str,
    name: str = "<fuzz>",
    oracles: Sequence[str] = ALL_ORACLES,
    config: Optional[MachineConfig] = None,
    max_instructions: int = 2_000_000,
) -> List[Divergence]:
    """Run the selected oracles over one program; divergences returned.

    A program that exhausts its instruction budget yields a single
    ``budget`` divergence: generated programs terminate by construction,
    so hitting the budget is itself a finding worth surfacing.
    """
    for oracle in oracles:
        if oracle not in ALL_ORACLES:
            raise ReproError(f"unknown oracle {oracle!r}; "
                             f"expected one of {ALL_ORACLES}")
    need_trace = ("timing" in oracles or "golden" in oracles
                  or "analyze" in oracles or "replay" in oracles)
    vm_opt = _run(source, name, optimize=True, trace=need_trace,
                  max_instructions=max_instructions)
    if vm_opt.exit_code == -1:
        return [Divergence("budget",
                           f"optimized build still running after "
                           f"{max_instructions} instructions")]
    divergences: List[Divergence] = []
    if "opt" in oracles:
        vm_noopt = _run(source, name, optimize=False, trace=False,
                        max_instructions=max_instructions)
        if vm_noopt.exit_code == -1:
            divergences.append(Divergence(
                "budget", f"-O0 build still running after "
                          f"{max_instructions} instructions"))
        else:
            divergences.extend(check_opt(vm_opt, vm_noopt))
    if ("timing" in oracles or "golden" in oracles
            or "replay" in oracles):
        machine_config = config if config is not None else default_config()
        if "timing" in oracles:
            divergences.extend(check_timing(vm_opt, machine_config, name))
            if config is None:
                # Same trace under contended ports + gshare frontend:
                # keeps the realism counters under the invariants above.
                divergences.extend(
                    check_timing(vm_opt, realism_config(), name))
        if "golden" in oracles:
            divergences.extend(check_golden(vm_opt, machine_config, name))
        if "replay" in oracles:
            divergences.extend(check_replay(vm_opt, machine_config, name))
    if "analyze" in oracles:
        divergences.extend(check_analyze(source, vm_opt, name))
    if "tv" in oracles:
        divergences.extend(check_tv(source, name))
    if "vm" in oracles:
        divergences.extend(check_vm(vm_opt, max_instructions))
    return divergences


def _clip(text: str, limit: int = 160) -> str:
    return text if len(text) <= limit else text[:limit] + "..."
