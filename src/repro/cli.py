"""Command-line toolchain driver: ``repro-cc``.

Subcommands:

* ``run file.mc``      — compile a mini-C file and execute it on the VM;
* ``disasm file.mc``   — compile and print the generated assembly;
* ``sim file.mc``      — compile, execute, and time the committed stream
  on one or more ``(N+M)`` machine configurations;
* ``stats file.mc``    — trace characterisation (local fraction, frames,
  reuse, classification);
* ``perf``             — benchmark the simulator core itself against the
  frozen seed model (see :mod:`repro.perf`);
* ``fuzz``             — differential fuzzing campaign: random programs
  checked by the ``opt``/``timing``/``golden``/``analyze``/``replay``/
  ``tv`` oracles (see :mod:`repro.fuzz`);
* ``trace``            — capture, inspect, replay, and mix serialized
  traces (see :mod:`repro.trace` and docs/trace.md);
* ``analyze``          — static verification: stack discipline, frame
  metadata, ``local_hint`` soundness, IR lints, a dynamic cross-check,
  and (with ``--tv``) translation validation of the SSA optimization
  pipeline (see :mod:`repro.analyze` and docs/static_analysis.md).

``file.mc`` may be ``-`` to read from stdin.  Assembly files (``.s``) are
accepted everywhere a ``.mc`` file is.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Tuple

from repro.analysis import classification_report, reuse_distance_profile
from repro.asm import assemble
from repro.core import MachineConfig, Processor
from repro.errors import ReproError
from repro.isa.disasm import disassemble_program
from repro.isa.program import Program
from repro.lang import CompilerOptions, compile_source
from repro.lang.frontend import CompileStats
from repro.vm.machine import Machine


def _load_source(path: str) -> Tuple[str, str]:
    if path == "-":
        return sys.stdin.read(), "<stdin>"
    with open(path, "r") as handle:
        return handle.read(), path


def _build_text(source: str, name: str, optimize: bool = True,
                opt_level=None) -> Tuple[Program, CompileStats]:
    stats = CompileStats()
    if name.endswith(".s"):
        program = assemble(source, source_name=name)
    else:
        program = compile_source(
            source, CompilerOptions(source_name=name, optimize=optimize,
                                    opt_level=opt_level),
            stats=stats,
        )
    return program, stats


def _build(path: str, optimize: bool = True,
           opt_level=None) -> Tuple[Program, CompileStats]:
    source, name = _load_source(path)
    return _build_text(source, name, optimize, opt_level)


def _opt_level(args):
    """Resolve -O / --no-opt into the CompilerOptions opt_level."""
    if args.opt_level is not None:
        return args.opt_level
    return 0 if args.no_opt else None  # None -> compiler default (O2)


def _parse_config(text: str) -> MachineConfig:
    """Parse "N+M[:opt]" — e.g. "2+0", "3+2", "2+2:opt"."""
    from repro.runtime.job import parse_notation

    return parse_notation(text)


def cmd_run(args) -> int:
    program, _ = _build(args.file, optimize=not args.no_opt,
                        opt_level=_opt_level(args))
    vm = Machine(program, trace=False)
    code = vm.run(max_instructions=args.max_instructions)
    sys.stdout.write(vm.stdout)
    if code == -1:
        print(f"\n[stopped after {args.max_instructions} instructions]",
              file=sys.stderr)
        return 2
    return code


def cmd_disasm(args) -> int:
    program, stats = _build(args.file, optimize=not args.no_opt,
                            opt_level=_opt_level(args))
    print(disassemble_program(program))
    if stats.functions:
        print(f"\n# {stats.functions} functions, "
              f"{stats.instructions} instructions, "
              f"{stats.spilled_vregs} spilled vregs", file=sys.stderr)
    return 0


def cmd_sim(args) -> int:
    source, name = _load_source(args.file)
    program, _ = _build_text(source, name, optimize=not args.no_opt,
                             opt_level=_opt_level(args))
    vm = Machine(program, trace=True)
    vm.run(max_instructions=args.max_instructions)
    trace = vm.trace
    assert trace is not None
    print(f"{len(trace)} dynamic instructions "
          f"({trace.stats.local_fraction:.0%} of memory refs local)")
    configs = [(text, _parse_config(text)) for text in args.config]
    for _text, config in configs:
        if args.ports:
            config.mem.l1_port_policy = args.ports
            config.mem.lvc_port_policy = args.ports
        if args.frontend:
            config.frontend.policy = args.frontend
    results: List[Tuple[str, float]] = []
    for text, result in _sim_results(args, source, trace, configs):
        results.append((text, result.ipc))
        print(f"  ({text:8s}) IPC {result.ipc:6.3f}   "
              f"cycles {result.cycles}")
    if len(results) > 1:
        base = results[0][1]
        best = max(results[1:], key=lambda r: r[1])
        print(f"best vs {results[0][0]}: {best[0]} "
              f"({best[1] / base - 1:+.1%})")
    return 0


def _sim_results(args, source, trace, configs):
    """Yield (config text, SimResult) — on a worker pool when --jobs > 1."""
    if getattr(args, "jobs", 1) > 1 and len(configs) > 1:
        from repro.runtime.engine import JobEngine
        from repro.runtime.job import SimJob
        from repro.runtime.worker import seed_source_trace

        jobs = {}
        for text, config in configs:
            job = SimJob(args.file, config, source_text=source,
                         optimize=not args.no_opt,
                         opt_level=_opt_level(args),
                         max_instructions=args.max_instructions)
            # Fork-started workers inherit this memo, so they skip the
            # recompile/re-execute and go straight to timing simulation.
            seed_source_trace(job, trace)
            jobs[text] = job
        report = JobEngine(jobs=args.jobs).run(jobs.values())
        for outcome in report.failed:
            raise ReproError(
                f"simulation failed for {outcome.job.label()}: "
                f"{outcome.error}")
        for text, _config in configs:
            yield text, report.outcomes[jobs[text].key].result
    else:
        for text, config in configs:
            yield text, Processor(config).run(trace.insts, args.file)


def cmd_stats(args) -> int:
    program, _ = _build(args.file, optimize=not args.no_opt,
                        opt_level=_opt_level(args))
    vm = Machine(program, trace=True)
    vm.run(max_instructions=args.max_instructions)
    trace = vm.trace
    assert trace is not None
    stats = trace.stats
    print(f"instructions : {stats.instructions}")
    print(f"loads/stores : {stats.loads}/{stats.stores}")
    print(f"local refs   : {stats.local_refs} "
          f"({stats.local_fraction:.1%} of memory refs)")
    print(f"calls        : {stats.calls} (max depth {stats.max_call_depth})")
    if stats.frame_sizes.total:
        print(f"frame words  : mean {stats.frame_sizes.mean():.1f}, "
              f"max {stats.frame_sizes.max()}")
    reuse = reuse_distance_profile(trace.insts)
    if reuse.total:
        print(f"reuse dist   : p50 {reuse.percentile(0.5)} instructions")
    report = classification_report(trace.insts)
    print(f"ambiguous    : {report.ambiguous_fraction:.2%} of refs "
          f"(hints {report.hint_accuracy:.2%} correct)")
    return 0


def cmd_perf(args) -> int:
    from repro.perf import bench

    if args.emit_kernel:
        from repro.core.stages.specialize import emit_source

        print(emit_source(_parse_config(args.emit_kernel)))
        return 0
    if args.profile:
        print(bench.profile_run(args.profile, length=args.length,
                                seed=args.seed))
        return 0
    workloads = args.workloads or (
        bench.QUICK_WORKLOADS if args.quick else bench.DEFAULT_WORKLOADS)
    length = args.length
    if length is None:
        length = bench.QUICK_LENGTH if args.quick else bench.DEFAULT_LENGTH
    report = bench.run_benchmark(
        workloads=workloads,
        config_name=args.config,
        length=length,
        seed=args.seed,
        warmup=args.warmup,
        repeat=args.repeat,
        compare=not args.no_compare,
        replay=args.replay,
        min_repeat=args.min_repeat,
    )
    print(bench.format_report(report))
    if args.output:
        bench.write_report(report, args.output)
        print(f"\nwrote {args.output}")
    if args.check:
        baseline = bench.load_report(args.check)
        failures = bench.check_regression(report, baseline,
                                          tolerance=args.tolerance)
        for failure in failures:
            print(f"repro-cc perf: {failure}", file=sys.stderr)
        if failures:
            return 1
    return 0


def cmd_fuzz(args) -> int:
    import os

    from repro.fuzz import (ALL_ORACLES, generate_program, run_campaign,
                            run_oracles, shrink)

    oracles = tuple(args.oracle) if args.oracle else ALL_ORACLES

    def progress(status, outcome, done, total):
        if not args.quiet:
            print(f"  [{done}/{total}] {outcome.job.label()}: {status}",
                  file=sys.stderr)

    report = run_campaign(
        seed=args.seed, count=args.count, jobs=args.jobs, oracles=oracles,
        size=args.size, shard_size=args.shard_size,
        max_instructions=args.max_instructions, cache_dir=args.cache_dir,
        no_cache=args.no_cache, progress=progress,
    )
    engine = report.engine_report
    print(f"fuzzed {args.count} seeds from {args.seed} "
          f"({'+'.join(oracles)}): {len(report.divergences)} divergences, "
          f"{engine.ran} shards ran, {engine.cached} cached, "
          f"{len(engine.failed)} failed, {engine.elapsed:.1f}s")
    for outcome in engine.failed:
        print(f"repro-cc fuzz: shard {outcome.job.label()} "
              f"{outcome.status}: {outcome.error}", file=sys.stderr)
    for div in report.divergences:
        print(f"  seed {div.seed} [{div.oracle}] {div.detail}")
    if report.clean:
        return 0

    # The shrink predicate ignores "budget" findings: a candidate edit that
    # turns a miscompile into an infinite loop must be rejected, not kept.
    # The tight budget also makes those runaway candidates cheap to reject
    # (generated programs retire well under 100k instructions).
    shrink_budget = min(args.max_instructions, 200_000)

    def diverges(program) -> bool:
        try:
            found = run_oracles(program.source(), oracles=oracles,
                                max_instructions=shrink_budget)
        except Exception:  # noqa: BLE001 - broken candidate = not diverging
            return False
        return any(d.oracle != "budget" for d in found)

    for seed in report.diverging_seeds():
        program = generate_program(seed, size=args.size)
        if args.shrink:
            before = program.statement_count()
            program = shrink(program, diverges)
            print(f"\nseed {seed}: shrunk {before} -> "
                  f"{program.statement_count()} statements")
            print(program.source())
        if args.save_repros:
            os.makedirs(args.save_repros, exist_ok=True)
            path = os.path.join(args.save_repros, f"fuzz_{seed}.mc")
            header = (f"// repro-cc fuzz --seed {seed} --count 1"
                      f"{' (shrunk)' if args.shrink else ''}\n"
                      f"// oracles: {'+'.join(oracles)}\n")
            with open(path, "w") as handle:
                handle.write(header + program.source())
            print(f"wrote {path}")
    return 1


def cmd_trace(args) -> int:
    import json

    if args.verb == "capture":
        from repro.trace.capture import TraceJob, capture_trace
        from repro.trace.format import write_trace

        job = TraceJob(args.workload, scale=args.scale, seed=args.seed)
        if args.output:
            from repro.trace.capture import build_capture

            write_trace(build_capture(job), args.output,
                        meta=job.describe())
            print(f"captured {args.workload} -> {args.output}")
            return 0
        path, cached = capture_trace(job, cache_dir=args.cache_dir,
                                     force=args.force)
        print(f"{'cached' if cached else 'captured'} {args.workload} "
              f"-> {path}")
        return 0

    if args.verb == "info":
        from repro.trace.format import trace_info

        print(json.dumps(trace_info(args.path), indent=2))
        return 0

    if args.verb == "replay":
        from repro.perf.golden import diff_results
        from repro.trace.capture import TraceJob, build_capture
        from repro.trace.replay import replay_insts

        # The replay_fast path: the .pdt sidecar next to the trace when
        # it is present and matches, else tables derived from the trace.
        stream, name = replay_insts(args.path)
        print(f"{name}: {len(stream)} dynamic instructions")
        failures = 0
        for text in (args.config or ["2+0", "2+2:opt"]):
            result = Processor(_parse_config(text)).run(stream, name)
            print(f"  ({text:8s}) IPC {result.ipc:6.3f}   "
                  f"cycles {result.cycles}")
            if args.check:
                job = TraceJob(name, scale=args.scale, seed=args.seed)
                direct = Processor(_parse_config(text)).run(
                    build_capture(job).insts, name)
                mismatches = diff_results(name, text, direct, result)
                for mismatch in mismatches:
                    print(f"    MISMATCH {mismatch!r}", file=sys.stderr)
                failures += len(mismatches)
                if not mismatches:
                    print(f"    bit-identical to execution-driven run")
        return 1 if failures else 0

    # verb == "mix"
    from repro.runtime.job import MixJob
    from repro.trace.mix import run_mix_jobs

    config = _parse_config(args.config)
    job = MixJob(tuple(args.workloads), config, scale=args.scale,
                 seed=args.seed)
    (_job, result), = run_mix_jobs(
        [job], engine_jobs=1, cache_dir=args.cache_dir)
    print(f"mix of {len(result.programs)} programs on ({args.config}): "
          f"{result.cycles} cycles")
    for program in result.programs:
        counters = program.counters
        print(f"  {program.workload_name:15s} IPC {program.ipc:6.3f}  "
              f"cycles {program.cycles:8d}  "
              f"bus-conflict stalls {counters.get('mix.bus_conflict_stalls')}  "
              f"L2 evictions caused/suffered "
              f"{counters.get('mix.l2_evictions_caused')}/"
              f"{counters.get('mix.l2_evictions_suffered')}")
    return 0


def cmd_analyze(args) -> int:
    import json

    from repro.analyze import (analyze_program, analyze_source,
                               analyze_workload)
    from repro.workloads.minic import MINIC_PROGRAMS

    targets = list(args.targets)
    if args.workloads:
        targets.extend(sorted(MINIC_PROGRAMS))
    if not targets:
        print("repro-cc analyze: no targets (give files, workload names, "
              "or --workloads)", file=sys.stderr)
        return 2

    reports = []
    verify = "tv" if args.tv else "off"
    for target in targets:
        if target in MINIC_PROGRAMS:
            report = analyze_workload(
                target, optimize=not args.no_opt,
                opt_level=_opt_level(args),
                static_only=args.static_only,
                max_instructions=args.max_instructions,
                verify=verify)
        else:
            source, name = _load_source(target)
            if name.endswith(".s"):
                # Hand-written assembly carries no frame metadata; the
                # analyzer degrades to a note and skips machine checks.
                program = assemble(source, source_name=name)
                report = analyze_program(program, name=name)
            else:
                report = analyze_source(
                    source, name=name, optimize=not args.no_opt,
                    opt_level=_opt_level(args),
                    static_only=args.static_only,
                    max_instructions=args.max_instructions,
                    verify=verify)
        reports.append(report)

    if args.json:
        print(json.dumps([r.describe() for r in reports], indent=2))
    else:
        for report in reports:
            print(report.render_text(verbose=args.verbose))
    failed = [r for r in reports if not r.ok]
    if args.strict:
        failed = [r for r in reports if not r.ok or r.warnings]
    return 1 if failed else 0


def cmd_serve(args) -> int:
    from repro.runtime.service import serve_forever

    return serve_forever(
        host=args.host, port=args.port, jobs=args.jobs,
        cache_dir=args.cache_dir, no_cache=args.no_cache,
        timeout=args.timeout, retries=args.retries, batch=args.batch)


def cmd_sweep(args) -> int:
    from repro.runtime.sweep import (SweepSpec, expand, format_report,
                                     run_sweep)

    spec = SweepSpec(
        workloads=args.workloads,
        configs=args.config or ["2+0", "2+2:opt"],
        frontends=args.frontend or [None],
        lvaq_sizes=args.lvaq or [None],
        opt_levels=args.opt_levels or [None],
        scale=args.scale, seed=args.seed)
    if args.dry_run:
        import json

        for payload in expand(spec):
            print(json.dumps(payload, sort_keys=True))
        return 0

    def progress(status, outcome, done, total):
        if not args.quiet:
            print(f"  [{done}/{total}] {outcome.job.label()}: {status}",
                  file=sys.stderr)

    report = run_sweep(
        spec, jobs=args.jobs, cache_dir=args.cache_dir,
        no_cache=args.no_cache, timeout=args.timeout,
        budget_points=args.budget_points,
        budget_seconds=args.budget_seconds,
        manifest_path=args.manifest, service_url=args.service,
        chunk=args.chunk, progress=progress)
    print(format_report(spec, report))
    return 0 if report.failed == 0 else 1


def _human_bytes(count: int) -> str:
    size = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f}{unit}" if unit != "B" else f"{int(size)}B"
        size /= 1024
    return f"{count}B"


def _parse_bytes(text: str) -> int:
    """Parse "500M"/"2G"/"100K"/plain-integer size arguments."""
    body = text.strip().upper().rstrip("IB")
    factor = 1
    for suffix, mult in (("K", 1024), ("M", 1024 ** 2), ("G", 1024 ** 3)):
        if body.endswith(suffix):
            factor = mult
            body = body[:-1]
            break
    try:
        return int(float(body) * factor)
    except ValueError:
        raise ReproError(f"bad size {text!r}; expected e.g. "
                         f"500M, 2G, or a byte count") from None


def cmd_cache(args) -> int:
    import json as _json

    from repro.runtime.signature import code_salt
    from repro.runtime.store import ResultStore, default_cache_dir, gc_stores
    from repro.trace.capture import capture_salt

    root = args.cache_dir or default_cache_dir()
    # The result tree and the trace tree of this code version.
    salts = [args.salt] if args.salt else [code_salt(), capture_salt()]
    stores = [ResultStore(root, salt) for salt in salts]

    if args.verb == "stats":
        for store in stores:
            stats = store.disk_stats()
            print(f"store    : {stats['dir']}")
            print(f"entries  : {stats['entries']} "
                  f"({_human_bytes(stats['bytes'])}, "
                  f"{stats['hits']} recorded hits)")
            for kind, count in sorted(stats["kinds"].items()):
                print(f"  kind {kind:8s}: {count}")
            if args.verbose:
                for shard, agg in sorted(stats["shards"].items()):
                    print(f"  shard {shard}: {agg['entries']} entries, "
                          f"{_human_bytes(agg['bytes'])}, "
                          f"{agg['hits']} hits")
        return 0

    if args.verb == "verify":
        problems = [p for store in stores for p in store.verify()]
        checked = sum(store.disk_stats()["entries"] for store in stores)
        if not problems:
            print(f"verified {checked} entries: all payloads hash, "
                  f"decode, and type-check")
            return 0
        for problem in problems:
            print(f"repro-cc cache: {problem.shard}/{problem.key[:12]}: "
                  f"{problem.issue}", file=sys.stderr)
        print(f"verified {checked} entries: {len(problems)} corrupt")
        return 1

    # verb == "gc"
    budget = _parse_bytes(args.budget)
    report = gc_stores(stores, budget, dry_run=args.dry_run)
    verb = "would evict" if args.dry_run else "evicted"
    print(f"{verb} {len(report['evicted'])} entries "
          f"({_human_bytes(report['freed_bytes'])}); "
          f"{report['kept']} kept, "
          f"{_human_bytes(report['bytes_after'])} / "
          f"{_human_bytes(budget)} budget")
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cc",
        description="mini-C toolchain driver for the repro library",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("file", help="mini-C source (.mc), assembly (.s), "
                                    "or - for stdin")
        p.add_argument("--no-opt", action="store_true",
                       help="disable the IR optimizer (same as -O0)")
        p.add_argument("-O", dest="opt_level", metavar="LEVEL",
                       default=None,
                       help="optimization level O0/O1/O2: 0=none, "
                            "1=local folder, 2=full SSA pipeline "
                            "(default 2); unknown levels are rejected")
        p.add_argument("--max-instructions", type=int, default=5_000_000,
                       help="execution budget (default 5M)")

    run_p = sub.add_parser("run", help="compile and execute")
    add_common(run_p)
    run_p.set_defaults(func=cmd_run)

    dis_p = sub.add_parser("disasm", help="compile and print assembly")
    add_common(dis_p)
    dis_p.set_defaults(func=cmd_disasm)

    sim_p = sub.add_parser("sim", help="compile, execute, and time")
    add_common(sim_p)
    sim_p.add_argument(
        "--config", action="append",
        default=None,
        help="machine config N+M[:opt]; repeatable "
             "(default: 2+0 and 2+2:opt)",
    )
    sim_p.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="simulate the configs on N worker processes",
    )
    from repro.core.frontend import FRONTEND_POLICIES
    from repro.mem.ports import PORT_POLICIES
    sim_p.add_argument(
        "--ports", choices=sorted(PORT_POLICIES), default=None,
        help="port-arbitration policy for every config "
             "(default: each config's own, normally ideal)",
    )
    sim_p.add_argument(
        "--frontend", choices=sorted(FRONTEND_POLICIES), default=None,
        help="frontend timing policy for every config "
             "(default: perfect)",
    )
    sim_p.set_defaults(func=cmd_sim)

    stats_p = sub.add_parser("stats", help="trace characterisation")
    add_common(stats_p)
    stats_p.set_defaults(func=cmd_stats)

    perf_p = sub.add_parser(
        "perf", help="benchmark the simulator core vs the seed model")
    perf_p.add_argument("--quick", action="store_true",
                        help="small workload subset at a shorter length")
    perf_p.add_argument("--workloads", nargs="+", metavar="NAME",
                        help="explicit workload list (default: SPEC95 set)")
    perf_p.add_argument("--config", default="2+2:opt",
                        help="golden config notation (default 2+2:opt, "
                             "the paper's Figure 9 machine)")
    perf_p.add_argument("--length", type=int, default=None,
                        help="dynamic instructions per workload")
    perf_p.add_argument("--seed", type=int, default=1,
                        help="trace-generation seed")
    perf_p.add_argument("--warmup", type=int, default=1,
                        help="discarded rounds per workload (default 1)")
    perf_p.add_argument("--repeat", type=int, default=3,
                        help="timed rounds per workload (default 3)")
    perf_p.add_argument("--min-repeat", type=int, default=0,
                        help="floor on timed rounds (reduces noise in the "
                             "trimmed-mean numbers without editing "
                             "--repeat everywhere)")
    perf_p.add_argument("--no-compare", action="store_true",
                        help="time only the optimized core")
    perf_p.add_argument("--replay", action="store_true",
                        help="also benchmark trace replay vs "
                             "execution-driven simulation")
    perf_p.add_argument("--output", metavar="PATH",
                        help="write BENCH_core.json here")
    perf_p.add_argument("--check", metavar="BASELINE",
                        help="fail if throughput regresses vs this "
                             "BENCH_core.json")
    perf_p.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional regression for --check "
                             "(default 0.20)")
    perf_p.add_argument("--profile", metavar="WORKLOAD",
                        help="cProfile one workload instead of benchmarking")
    perf_p.add_argument("--emit-kernel", metavar="CONFIG",
                        help="print the constant-folded kernel source "
                             "generated for the machine N+M[:opt] "
                             "(e.g. 2+2:opt, 4+4:opt) and exit")
    perf_p.set_defaults(func=cmd_perf)

    fuzz_p = sub.add_parser(
        "fuzz", help="differential fuzzing campaign over random programs")
    fuzz_p.add_argument("--seed", type=int, default=0,
                        help="first generator seed (default 0)")
    fuzz_p.add_argument("--count", type=int, default=200,
                        help="number of seeds to fuzz (default 200)")
    fuzz_p.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="run shards on N worker processes")
    fuzz_p.add_argument("--oracle", action="append", metavar="NAME",
                        choices=("opt", "timing", "golden", "analyze",
                                 "replay", "tv", "vm"),
                        help="oracle to run (repeatable; default: all)")
    fuzz_p.add_argument("--shrink", action="store_true",
                        help="minimize each diverging program and print it")
    fuzz_p.add_argument("--save-repros", metavar="DIR",
                        help="write diverging programs to DIR as .mc files")
    fuzz_p.add_argument("--size", type=int, default=12,
                        help="generator size budget per program (default 12)")
    fuzz_p.add_argument("--shard-size", type=int, default=25,
                        help="seeds per engine job (default 25)")
    fuzz_p.add_argument("--max-instructions", type=int, default=2_000_000,
                        help="VM budget per build (default 2M)")
    fuzz_p.add_argument("--cache-dir", metavar="DIR",
                        help="shard result cache (default: $REPRO_CACHE_DIR "
                             "if set, else uncached)")
    fuzz_p.add_argument("--no-cache", action="store_true",
                        help="ignore any cache")
    fuzz_p.add_argument("--quiet", action="store_true",
                        help="suppress per-shard progress on stderr")
    fuzz_p.set_defaults(func=cmd_fuzz)

    trace_p = sub.add_parser(
        "trace",
        help="capture, inspect, replay, and mix serialized traces")
    trace_sub = trace_p.add_subparsers(dest="verb", required=True)

    cap_p = trace_sub.add_parser(
        "capture", help="run the functional frontend once, serialize")
    cap_p.add_argument("workload", help="workload name (e.g. 130.li, "
                                        "mini.qsort)")
    cap_p.add_argument("--scale", type=float, default=1.0,
                       help="workload length scale (default 1.0)")
    cap_p.add_argument("--seed", type=int, default=1,
                       help="trace-generation seed (default 1)")
    cap_p.add_argument("--cache-dir", metavar="DIR",
                       help="trace store root (default: $REPRO_CACHE_DIR "
                            "or ~/.cache/repro)")
    cap_p.add_argument("--force", action="store_true",
                       help="re-capture even when the store has it")
    cap_p.add_argument("--output", metavar="PATH",
                       help="write to PATH instead of the store")
    cap_p.set_defaults(func=cmd_trace)

    info_p = trace_sub.add_parser(
        "info", help="dump a trace file's header (version, sections)")
    info_p.add_argument("path", help="trace file")
    info_p.set_defaults(func=cmd_trace)

    rep_p = trace_sub.add_parser(
        "replay", help="trace-driven simulation from a captured file")
    rep_p.add_argument("path", help="trace file")
    rep_p.add_argument("--config", action="append",
                       default=None,
                       help="machine config N+M[:opt]; repeatable "
                            "(default: 2+0 and 2+2:opt)")
    rep_p.add_argument("--check", action="store_true",
                       help="also run execution-driven and require "
                            "bit-identical results")
    rep_p.add_argument("--scale", type=float, default=1.0,
                       help="workload scale for --check rebuilds")
    rep_p.add_argument("--seed", type=int, default=1,
                       help="workload seed for --check rebuilds")
    rep_p.set_defaults(func=cmd_trace)

    mix_p = trace_sub.add_parser(
        "mix", help="co-schedule N programs sharing the L2 and bus")
    mix_p.add_argument("workloads", nargs="+", metavar="WORKLOAD",
                       help="two or more workload names")
    mix_p.add_argument("--config", default="2+2:opt",
                       help="machine config N+M[:opt] (default 2+2:opt)")
    mix_p.add_argument("--scale", type=float, default=1.0,
                       help="workload length scale (default 1.0)")
    mix_p.add_argument("--seed", type=int, default=1,
                       help="trace-generation seed (default 1)")
    mix_p.add_argument("--cache-dir", metavar="DIR",
                       help="mix result cache (default: $REPRO_CACHE_DIR "
                            "if set, else uncached)")
    mix_p.set_defaults(func=cmd_trace)

    ana_p = sub.add_parser(
        "analyze",
        help="verify stack discipline, frame metadata, and local hints")
    ana_p.add_argument("targets", nargs="*", metavar="TARGET",
                       help="mini-C file (.mc), assembly (.s), - for "
                            "stdin, or a workload name (e.g. mini.qsort)")
    ana_p.add_argument("--workloads", action="store_true",
                       help="also verify every built-in mini workload")
    ana_p.add_argument("--no-opt", action="store_true",
                       help="disable the IR optimizer (same as -O0)")
    ana_p.add_argument("-O", dest="opt_level", metavar="LEVEL",
                       default=None,
                       help="optimization level O0/O1/O2: 0=none, "
                            "1=local folder, 2=full SSA pipeline "
                            "(default 2); unknown levels are rejected")
    ana_p.add_argument("--tv", action="store_true",
                       help="translation validation: certify every SSA "
                            "pass application (adds tv.* metrics; "
                            "findings are errors)")
    ana_p.add_argument("--static-only", action="store_true",
                       help="skip the VM run / dynamic cross-check")
    ana_p.add_argument("--max-instructions", type=int, default=20_000_000,
                       help="VM budget for the cross-check (default 20M)")
    ana_p.add_argument("--json", action="store_true",
                       help="machine-readable report on stdout")
    ana_p.add_argument("--verbose", action="store_true",
                       help="include note-severity diagnostics")
    ana_p.add_argument("--strict", action="store_true",
                       help="treat warnings as failures")
    ana_p.set_defaults(func=cmd_analyze)

    serve_p = sub.add_parser(
        "serve", help="run the local async job service (see docs/runtime.md)")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=7399,
                         help="TCP port (default 7399; 0 = ephemeral)")
    serve_p.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                         help="warm worker-pool size (default 1)")
    serve_p.add_argument("--cache-dir", metavar="DIR",
                         help="result store root (default: "
                              "$REPRO_CACHE_DIR if set, else uncached)")
    serve_p.add_argument("--no-cache", action="store_true",
                         help="disable the result store")
    serve_p.add_argument("--timeout", type=float, default=None,
                         help="per-job deadline in seconds")
    serve_p.add_argument("--retries", type=int, default=1,
                         help="retries per failed job (default 1)")
    serve_p.add_argument("--batch", type=int, default=1,
                         help="jobs per worker round trip (default 1)")
    serve_p.set_defaults(func=cmd_serve)

    sweep_p = sub.add_parser(
        "sweep",
        help="budgeted design-space sweep: ports x frontend x LVAQ x opt")
    sweep_p.add_argument("workloads", nargs="+", metavar="WORKLOAD",
                         help="workload names (e.g. mini.qsort 130.li)")
    sweep_p.add_argument("--config", action="append", metavar="N+M[:opt]",
                         help="port configuration axis; repeatable "
                              "(default: 2+0 and 2+2:opt)")
    sweep_p.add_argument("--frontend", action="append", metavar="POLICY",
                         help="frontend-policy axis; repeatable "
                              "(default: each config's own)")
    sweep_p.add_argument("--lvaq", action="append", type=int,
                         metavar="SIZE",
                         help="LVAQ-size axis; repeatable "
                              "(default: each config's own)")
    sweep_p.add_argument("--opt-level", action="append", type=int,
                         dest="opt_levels", metavar="LEVEL",
                         help="compiler opt-level axis (mini-C only); "
                              "repeatable")
    sweep_p.add_argument("--scale", type=float, default=1.0,
                         help="workload length scale (default 1.0)")
    sweep_p.add_argument("--seed", type=int, default=1,
                         help="trace-generation seed (default 1)")
    sweep_p.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                         help="worker processes for the local engine")
    sweep_p.add_argument("--cache-dir", metavar="DIR",
                         help="result store root (default: "
                              "$REPRO_CACHE_DIR if set, else uncached)")
    sweep_p.add_argument("--no-cache", action="store_true",
                         help="ignore the result store")
    sweep_p.add_argument("--timeout", type=float, default=None,
                         help="per-point deadline in seconds")
    sweep_p.add_argument("--budget-points", type=int, default=None,
                         help="stop after this many executed points")
    sweep_p.add_argument("--budget-seconds", type=float, default=None,
                         help="stop starting new work after this long")
    sweep_p.add_argument("--manifest", metavar="PATH",
                         help="resumable sweep manifest (JSON); re-run "
                              "with the same path to continue")
    sweep_p.add_argument("--service", metavar="URL",
                         help="submit points to a running repro-cc serve "
                              "instead of simulating locally")
    sweep_p.add_argument("--chunk", type=int, default=8,
                         help="points per engine/service batch (default 8)")
    sweep_p.add_argument("--dry-run", action="store_true",
                         help="print the expanded job payloads and exit")
    sweep_p.add_argument("--quiet", action="store_true",
                         help="suppress per-point progress on stderr")
    sweep_p.set_defaults(func=cmd_sweep)

    cache_p = sub.add_parser(
        "cache", help="inspect, verify, and garbage-collect the store of "
                      "results and traces")
    cache_sub = cache_p.add_subparsers(dest="verb", required=True)

    def add_cache_common(p):
        p.add_argument("--cache-dir", metavar="DIR",
                       help="store root (default: $REPRO_CACHE_DIR or "
                            "~/.cache/repro)")
        p.add_argument("--salt", metavar="SALT",
                       help="code-salt tree to operate on (default: the "
                            "current result tree and trace tree)")

    cstats_p = cache_sub.add_parser(
        "stats", help="shard sizes, entry counts, per-kind breakdown")
    add_cache_common(cstats_p)
    cstats_p.add_argument("--verbose", action="store_true",
                          help="per-shard breakdown")
    cstats_p.set_defaults(func=cmd_cache)

    cverify_p = cache_sub.add_parser(
        "verify", help="integrity-check every entry (hash, decode, "
                       "type); corrupt entries reported, not fatal")
    add_cache_common(cverify_p)
    cverify_p.set_defaults(func=cmd_cache)

    cgc_p = cache_sub.add_parser(
        "gc", help="evict least-recently-used entries to a size budget")
    add_cache_common(cgc_p)
    cgc_p.add_argument("--budget", required=True, metavar="SIZE",
                       help="target store size, e.g. 500M, 2G, or bytes")
    cgc_p.add_argument("--dry-run", action="store_true",
                       help="report what would be evicted; delete nothing")
    cgc_p.add_argument("--json", action="store_true",
                       help="also print the full GC report as JSON")
    cgc_p.set_defaults(func=cmd_cache)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None and args.command == "sim":
        args.config = ["2+0", "2+2:opt"]
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro-cc: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"repro-cc: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
