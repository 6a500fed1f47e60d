"""Top-level analysis entry points.

``analyze_program`` runs every static check over a compiled image:
frame-metadata validation + stack discipline (:mod:`.stackcheck`),
local-hint soundness (:mod:`.hints`), and — when the caller passes the
per-function IR the compiler produced — the IR lints (:mod:`.lints`).
Given a committed trace it also cross-checks every static claim against
dynamic ground truth: a ``local_hint`` that disagrees with the address
actually touched is a hard error no matter what the prover concluded,
and the access-region predictor's accuracy over the ambiguous remainder
is reported alongside the static coverage metrics (the paper's
Section 2.2.3 hybrid).

``analyze_source`` / ``analyze_workload`` wrap compile(+run) so the CLI,
the fuzz oracle, and CI can verify a program in one call.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analyze.hints import check_program_hints
from repro.analyze.lints import lint_function
from repro.analyze.report import AnalysisReport, Diagnostic
from repro.analyze.stackcheck import check_program
from repro.isa.opcodes import FuClass
from repro.isa.program import Program

_LOAD = int(FuClass.LOAD)
_STORE = int(FuClass.STORE)


def analyze_program(program: Program, ir_map=None, trace=None,
                    name: Optional[str] = None) -> AnalysisReport:
    """Run all applicable checks over one compiled *program*."""
    report = AnalysisReport(name or program.source_name)
    if not program.frames:
        report.add(Diagnostic(
            "note", "frames.missing", None, None,
            "program carries no frame metadata (hand-assembled?); "
            "machine-level verification skipped"))
    else:
        for fname, frame in sorted(program.frames.items()):
            report.frames[fname] = frame.describe()
        stack_diags, cfgs = check_program(program)
        report.extend(stack_diags)
        hint_diags, counts = check_program_hints(program, cfgs)
        report.extend(hint_diags)
        total = counts.get("mem_total", 0)
        tagged = counts.get("hint_local", 0) + counts.get("hint_global", 0)
        report.metrics.update({
            "static.mem_accesses": total,
            "static.hint_local": counts.get("hint_local", 0),
            "static.hint_global": counts.get("hint_global", 0),
            "static.hint_none": counts.get("hint_none", 0),
            "static.hint_coverage": tagged / total if total else 1.0,
            "static.missed_local": counts.get("missed_local", 0),
            "static.provable_data": counts.get("provable_data", 0),
        })
        missed = counts.get("missed_local", 0)
        if missed:
            report.add(Diagnostic(
                "note", "hint.missed-local", None, None,
                f"{missed} untagged accesses are provably stack — "
                f"LVAQ steering opportunities the compiler left to the "
                f"predictor"))
    if ir_map:
        for fname in sorted(ir_map):
            report.extend(lint_function(fname, ir_map[fname].body))
    if trace is not None:
        _dynamic_crosscheck(report, trace)
    return report


def _dynamic_crosscheck(report: AnalysisReport, trace) -> None:
    """Compare static hints against the addresses a run actually touched."""
    from repro.core.classify import StreamPartitioner

    partitioner = StreamPartitioner(decoupled=True)
    unsound_pcs = {}
    mem = 0
    stream = trace.insts
    for index, (fu, hint, is_local, pc) in enumerate(zip(
            stream.fu, stream.hint, stream.is_local, stream.pc)):
        if fu != _LOAD and fu != _STORE:
            continue
        mem += 1
        if hint is None:
            partitioner.resolve(pc, is_local)
        elif hint != is_local and pc not in unsound_pcs:
            unsound_pcs[pc] = index
    for pc, index in sorted(unsound_pcs.items()):
        region = "stack" if stream.is_local[index] else "non-stack"
        report.add(Diagnostic(
            "error", "hint.dynamic-unsound", None, pc,
            f"local_hint={stream.hint[index]} but the access at pc {pc} "
            f"touched a {region} address ({stream.addr[index]:#x}) at "
            f"run time"))
    predictor = partitioner.predictor
    report.metrics.update({
        "dynamic.mem_refs": mem,
        "dynamic.local_fraction": trace.stats.local_fraction,
        "dynamic.unsound_hint_pcs": len(unsound_pcs),
        "dynamic.predictor_predictions": predictor.predictions,
        "dynamic.predictor_accuracy": predictor.accuracy,
    })


def analyze_source(source: str, name: str = "<mini-c>",
                   optimize: bool = True, static_only: bool = False,
                   max_instructions: int = 2_000_000,
                   opt_level=None, verify: str = "off") -> AnalysisReport:
    """Compile *source* and verify it; optionally run it and cross-check.

    ``verify`` turns on translation validation of the SSA pipeline
    (``"ssa"`` or ``"tv"``, see :mod:`repro.analyze.tv`): every pass
    certificate's findings land in the report as error diagnostics and
    the ``tv.*`` metrics summarize the certificate log.
    """
    from repro.lang import CompileStats, CompilerOptions, compile_source

    ir_map: Dict[str, object] = {}
    cstats = CompileStats() if verify != "off" else None
    program = compile_source(
        source, CompilerOptions(source_name=name, optimize=optimize,
                                opt_level=opt_level, verify=verify),
        stats=cstats, ir_out=ir_map)
    trace = None
    budget_note = None
    if not static_only:
        from repro.vm.machine import Machine

        vm = Machine(program, trace=True)
        vm.run(max_instructions=max_instructions)
        if vm.exit_code == -1:
            budget_note = Diagnostic(
                "note", "dynamic.budget", None, None,
                f"program still running after {max_instructions} "
                f"instructions; dynamic cross-check skipped")
        else:
            trace = vm.trace
    report = analyze_program(program, ir_map=ir_map, trace=trace,
                             name=name)
    if cstats is not None:
        _merge_certificates(report, cstats)
    if budget_note is not None:
        report.add(budget_note)
    return report


def _merge_certificates(report: AnalysisReport, cstats) -> None:
    """Fold the translation-validation certificate log into *report*."""
    certs = cstats.certificates
    findings = 0
    events = 0
    for _fname, cert in certs:
        events += cert.events
        for diag in cert.findings:
            findings += 1
            report.add(diag)
    report.metrics.update({
        "tv.certificates": len(certs),
        "tv.events": events,
        "tv.findings": findings,
        "tv.certified": 1.0 if certs and not findings else 0.0,
    })


def analyze_workload(workload: str, optimize: bool = True,
                     static_only: bool = False,
                     max_instructions: int = 20_000_000,
                     opt_level=None, verify: str = "off") -> AnalysisReport:
    """Verify one named mini-C workload (see repro.workloads.minic)."""
    from repro.workloads.minic import minic_source

    return analyze_source(minic_source(workload), name=workload,
                          optimize=optimize, static_only=static_only,
                          max_instructions=max_instructions,
                          opt_level=opt_level, verify=verify)
