"""Microbenchmark harness for the simulator core (``repro-cc perf``).

Measures simulated-instructions-per-second of the optimized
:class:`repro.core.processor.Processor` and, optionally, of the frozen
seed core, reporting the speedup ratio the performance work is judged by.

Methodology notes, learned the hard way on shared hardware:

* **Interleaved rounds.**  Machine speed drifts on the scale of seconds
  (frequency scaling, co-tenants).  Timing all new-core rounds and then
  all reference rounds folds that drift straight into the ratio.  The
  harness instead alternates new/reference rounds per workload, so both
  cores sample the same drift.
* **Best-of-N.**  A timing run can only be slowed down by interference,
  never sped up, so the minimum over rounds is the best estimate of true
  cost.  Means/medians are reported for context only.
* **Warmup.**  The first round touches cold code objects (and the trace
  builder's caches); warmup rounds are run and discarded.
* **Trimmed mean.**  Best-of-N is the right point estimate but says
  nothing about stability; the interquartile-trimmed mean (middle half
  of the sorted rounds) is reported alongside it as the noise-robust
  average the CI gate can compare without chasing outliers.  Raise
  ``--min-repeat`` when stdev is large relative to the mean.

Results are emitted as ``BENCH_core.json`` so CI can diff throughput
against a committed baseline (:func:`check_regression`).
"""

from __future__ import annotations

import json
import platform
import statistics
from time import perf_counter_ns
from typing import Dict, List, Optional, Sequence

from repro.core.config import MachineConfig
from repro.core.processor import Processor
from repro.perf.golden import FIG9_CONFIG, golden_config

#: Schema tag for BENCH_core.json; bump on incompatible layout changes.
SCHEMA = "repro.perf.bench/2"

#: Workloads benchmarked by default: the paper's full SPEC95 subset.
DEFAULT_WORKLOADS = (
    "099.go", "124.m88ksim", "126.gcc", "129.compress",
    "130.li", "132.ijpeg", "134.perl", "147.vortex",
    "101.tomcatv", "102.swim", "103.su2cor", "107.mgrid",
)

#: ``--quick`` subset: one pointer-heavy, one loop-heavy, one FP workload.
QUICK_WORKLOADS = ("129.compress", "130.li", "102.swim")

DEFAULT_LENGTH = 60_000
QUICK_LENGTH = 20_000


def _time_run(processor_cls, insts, config: MachineConfig,
              workload: str) -> int:
    """Wall nanoseconds of one simulation of *insts* on a fresh core."""
    core = processor_cls(config)
    t0 = perf_counter_ns()
    core.run(insts, workload)
    return perf_counter_ns() - t0


def trimmed_mean(samples: Sequence[int]) -> int:
    """Interquartile-trimmed mean: the mean of the middle half.

    The quarter of rounds at each end of the sorted samples is dropped
    (at least one round survives), so a co-tenant spike or a lucky
    quiet round moves the estimate far less than it moves the plain
    mean.  With fewer than four samples nothing can be trimmed.
    """
    ordered = sorted(samples)
    drop = len(ordered) // 4
    kept = ordered[drop:len(ordered) - drop] if drop else ordered
    return int(statistics.fmean(kept))


def bench_workload(
    workload: str,
    insts,
    config: MachineConfig,
    warmup: int = 1,
    repeat: int = 3,
    compare: bool = True,
) -> Dict:
    """Benchmark one workload; returns its BENCH_core.json entry.

    With ``compare`` the seed core is timed in the same pass, one round
    of each per iteration (see the module docstring for why).
    """
    from repro.perf.reference import ReferenceProcessor

    n_insts = len(insts)
    for _ in range(warmup):
        _time_run(Processor, insts, config, workload)
        if compare:
            _time_run(ReferenceProcessor, insts, config, workload)
    new_ns: List[int] = []
    ref_ns: List[int] = []
    for _ in range(repeat):
        new_ns.append(_time_run(Processor, insts, config, workload))
        if compare:
            ref_ns.append(
                _time_run(ReferenceProcessor, insts, config, workload))

    def _stats(samples: List[int]) -> Dict:
        best = min(samples)
        trimmed = trimmed_mean(samples)
        return {
            "best_ns": best,
            "mean_ns": int(statistics.fmean(samples)),
            "trimmed_mean_ns": trimmed,
            "median_ns": int(statistics.median(samples)),
            "stdev_ns": int(statistics.stdev(samples)) if len(samples) > 1
            else 0,
            "kips": round(n_insts / best * 1e6, 1),
            "trimmed_kips": round(n_insts / trimmed * 1e6, 1),
        }

    entry = {
        "workload": workload,
        "instructions": n_insts,
        "repeat": repeat,
        "optimized": _stats(new_ns),
    }
    if compare:
        entry["reference"] = _stats(ref_ns)
        entry["speedup"] = round(min(ref_ns) / min(new_ns), 3)
    return entry


def run_benchmark(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    config: Optional[MachineConfig] = None,
    config_name: str = FIG9_CONFIG,
    length: int = DEFAULT_LENGTH,
    seed: int = 1,
    warmup: int = 1,
    repeat: int = 3,
    compare: bool = True,
    replay: bool = False,
    min_repeat: int = 0,
) -> Dict:
    """Full benchmark sweep; returns the BENCH_core.json document.

    The aggregate ``speedup_vs_reference`` is the ratio of summed
    best-round times (total work done per unit time), with the geometric
    mean of per-workload ratios alongside it.  ``min_repeat`` raises the
    round count floor (``--min-repeat``) so noisy machines can buy
    stability without editing every call site's ``repeat``.
    """
    from repro.workloads.builder import build_trace

    repeat = max(repeat, min_repeat)
    if config is None:
        config = golden_config(config_name)
    entries = []
    for workload in workloads:
        insts = build_trace(workload, length=length, seed=seed).insts
        entries.append(
            bench_workload(workload, insts, config,
                           warmup=warmup, repeat=repeat, compare=compare))

    total_insts = sum(e["instructions"] for e in entries)
    total_new = sum(e["optimized"]["best_ns"] for e in entries)
    total_new_trimmed = sum(e["optimized"]["trimmed_mean_ns"]
                            for e in entries)
    aggregate = {
        "instructions": total_insts,
        "kips": round(total_insts / total_new * 1e6, 1),
        "trimmed_kips": round(total_insts / total_new_trimmed * 1e6, 1),
    }
    if compare:
        total_ref = sum(e["reference"]["best_ns"] for e in entries)
        aggregate["speedup_vs_reference"] = round(total_ref / total_new, 3)
        aggregate["speedup_geomean"] = round(
            statistics.geometric_mean(e["speedup"] for e in entries), 3)

    report = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "config": config_name,
        "length": length,
        "seed": seed,
        "warmup": warmup,
        "repeat": repeat,
        "workloads": entries,
        "aggregate": aggregate,
    }
    if replay:
        report["replay"] = bench_replay(
            workloads=workloads, config=config, config_name=config_name,
            length=length, seed=seed, warmup=warmup, repeat=repeat,
            min_repeat=min_repeat)
    return report


def bench_replay(
    workloads: Sequence[str] = QUICK_WORKLOADS,
    config: Optional[MachineConfig] = None,
    config_name: str = FIG9_CONFIG,
    length: int = DEFAULT_LENGTH,
    seed: int = 1,
    warmup: int = 1,
    repeat: int = 3,
    min_repeat: int = 0,
) -> Dict:
    """Replay-mode vs execution-driven throughput (the tentpole ratio).

    Three lanes, timed end to end and interleaved per round (same
    drift-cancelling argument as :func:`bench_workload`):

    * **execution-driven** — run the functional frontend (uncached) and
      simulate the stream it produces;
    * **replay** — decode a captured trace's flat tables, cold each
      round, and simulate;
    * **replay_fast** — :func:`repro.trace.replay.replay_fast` against
      the stored trace + pre-decoded sidecar: after the warmup round
      the loaded stream is a per-process memo hit, which is
      exactly what a benchmark repeat or a config sweep pays per point.

    kips here is dynamic instructions over *total* wall time per point;
    the replay/execution ratios are the speedups the trace subsystem
    buys.
    """
    import os
    import tempfile

    from repro.trace import predecode as _predecode
    from repro.trace.format import decode_trace, encode_trace, write_trace
    from repro.trace.replay import replay_fast
    from repro.workloads.builder import build_trace_uncached

    repeat = max(repeat, min_repeat)
    if config is None:
        config = golden_config(config_name)
    entries = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmpdir:
        for workload in workloads:
            trace = build_trace_uncached(workload, length=length,
                                         seed=seed)
            data = encode_trace(trace)
            n_insts = len(trace.insts)
            path = os.path.join(tmpdir, workload + ".trace")
            write_trace(trace, path)
            _predecode.write_predecoded(
                _predecode.predecode_trace(data, origin=path),
                path[:-len(".trace")] + ".pdt")

            def _execution_ns() -> int:
                t0 = perf_counter_ns()
                insts = build_trace_uncached(workload, length=length,
                                             seed=seed).insts
                Processor(config).run(insts, workload)
                return perf_counter_ns() - t0

            def _replay_ns() -> int:
                t0 = perf_counter_ns()
                insts = decode_trace(data, origin=workload).insts
                Processor(config).run(insts, workload)
                return perf_counter_ns() - t0

            def _fast_ns() -> int:
                t0 = perf_counter_ns()
                replay_fast(path, config, workload)
                return perf_counter_ns() - t0

            for _ in range(warmup):
                _execution_ns()
                _replay_ns()
                _fast_ns()
            execution_ns: List[int] = []
            replay_ns: List[int] = []
            fast_ns: List[int] = []
            for _ in range(repeat):
                execution_ns.append(_execution_ns())
                replay_ns.append(_replay_ns())
                fast_ns.append(_fast_ns())
            best_execution = min(execution_ns)
            best_replay = min(replay_ns)
            best_fast = min(fast_ns)
            entries.append({
                "workload": workload,
                "instructions": n_insts,
                "execution_driven": {
                    "best_ns": best_execution,
                    "trimmed_mean_ns": trimmed_mean(execution_ns),
                    "kips": round(n_insts / best_execution * 1e6, 1),
                },
                "replay": {
                    "best_ns": best_replay,
                    "trimmed_mean_ns": trimmed_mean(replay_ns),
                    "kips": round(n_insts / best_replay * 1e6, 1),
                },
                "replay_fast": {
                    "best_ns": best_fast,
                    "trimmed_mean_ns": trimmed_mean(fast_ns),
                    "kips": round(n_insts / best_fast * 1e6, 1),
                },
                "ratio": round(best_execution / best_replay, 3),
                "fast_ratio": round(best_execution / best_fast, 3),
            })

    total_insts = sum(e["instructions"] for e in entries)
    total_execution = sum(e["execution_driven"]["best_ns"]
                          for e in entries)
    total_replay = sum(e["replay"]["best_ns"] for e in entries)
    total_fast = sum(e["replay_fast"]["best_ns"] for e in entries)
    return {
        "workloads": entries,
        "aggregate": {
            "instructions": total_insts,
            "execution_kips": round(total_insts / total_execution * 1e6,
                                    1),
            "replay_kips": round(total_insts / total_replay * 1e6, 1),
            "replay_fast_kips": round(total_insts / total_fast * 1e6, 1),
            "ratio": round(total_execution / total_replay, 3),
            "fast_ratio": round(total_execution / total_fast, 3),
        },
    }


def check_regression(current: Dict, baseline: Dict,
                     tolerance: float = 0.20) -> List[str]:
    """Throughput-regression check against a committed baseline.

    Compares aggregate kips; a drop of more than ``tolerance`` (fraction)
    fails.  Absolute kips varies across machines, so CI compares a run
    against a baseline produced *in the same job*, or applies a generous
    tolerance to the committed one.  Returns failure messages (empty =
    pass).
    """
    failures: List[str] = []
    base_kips = baseline.get("aggregate", {}).get("kips")
    cur_kips = current.get("aggregate", {}).get("kips")
    if not base_kips or not cur_kips:
        return ["baseline or current report lacks aggregate kips"]
    floor = base_kips * (1.0 - tolerance)
    if cur_kips < floor:
        failures.append(
            f"aggregate throughput regressed: {cur_kips:.0f} kips vs "
            f"baseline {base_kips:.0f} kips "
            f"(floor {floor:.0f} at {tolerance:.0%} tolerance)")
    # The replay lanes are gated too whenever both reports carry them,
    # so the fast path cannot silently regress while execution-driven
    # throughput holds.
    base_replay = baseline.get("replay", {}).get("aggregate", {})
    cur_replay = current.get("replay", {}).get("aggregate", {})
    for lane in ("replay_kips", "replay_fast_kips"):
        base_lane = base_replay.get(lane)
        cur_lane = cur_replay.get(lane)
        if not base_lane or not cur_lane:
            continue
        floor = base_lane * (1.0 - tolerance)
        if cur_lane < floor:
            failures.append(
                f"{lane.replace('_kips', '')} throughput regressed: "
                f"{cur_lane:.0f} kips vs baseline {base_lane:.0f} kips "
                f"(floor {floor:.0f} at {tolerance:.0%} tolerance)")
    return failures


def profile_run(workload: str, config: Optional[MachineConfig] = None,
                length: int = DEFAULT_LENGTH, seed: int = 1,
                sort: str = "cumulative", limit: int = 30) -> str:
    """cProfile one simulation; returns the formatted stats table."""
    import cProfile
    import io
    import pstats

    from repro.workloads.builder import build_trace

    if config is None:
        config = golden_config(FIG9_CONFIG)
    insts = build_trace(workload, length=length, seed=seed).insts
    core = Processor(config)
    prof = cProfile.Profile()
    prof.enable()
    core.run(insts, workload)
    prof.disable()
    buf = io.StringIO()
    pstats.Stats(prof, stream=buf).sort_stats(sort).print_stats(limit)
    return buf.getvalue()


def format_report(report: Dict) -> str:
    """Human-readable rendering of a benchmark report."""
    lines = [
        f"core benchmark — config {report['config']}, "
        f"length {report['length']}, "
        f"best of {report['repeat']} (+{report['warmup']} warmup), "
        f"python {report['python']}",
        "",
        f"{'workload':<14} {'insts':>8} {'opt kips':>10} "
        f"{'ref kips':>10} {'speedup':>8}",
    ]
    for e in report["workloads"]:
        ref = e.get("reference")
        lines.append(
            f"{e['workload']:<14} {e['instructions']:>8} "
            f"{e['optimized']['kips']:>10.1f} "
            f"{(ref['kips'] if ref else float('nan')):>10.1f} "
            f"{e.get('speedup', float('nan')):>8.2f}")
    agg = report["aggregate"]
    lines.append("")
    lines.append(f"aggregate: {agg['kips']:.1f} kips"
                 + (f", speedup vs reference {agg['speedup_vs_reference']:.2f}x"
                    f" (geomean {agg['speedup_geomean']:.2f}x)"
                    if "speedup_vs_reference" in agg else ""))
    replay = report.get("replay")
    if replay:
        lines.append("")
        lines.append(f"{'replay-mode':<14} {'insts':>8} {'exec kips':>10} "
                     f"{'rply kips':>10} {'fast kips':>10} {'ratio':>8}")
        for e in replay["workloads"]:
            fast = e.get("replay_fast", {}).get("kips", float("nan"))
            lines.append(
                f"{e['workload']:<14} {e['instructions']:>8} "
                f"{e['execution_driven']['kips']:>10.1f} "
                f"{e['replay']['kips']:>10.1f} "
                f"{fast:>10.1f} "
                f"{e.get('fast_ratio', e['ratio']):>8.2f}")
        ragg = replay["aggregate"]
        lines.append(
            f"replay aggregate: {ragg['replay_kips']:.1f} kips "
            f"(fast path {ragg.get('replay_fast_kips', float('nan')):.1f}) "
            f"vs {ragg['execution_kips']:.1f} execution-driven "
            f"({ragg['ratio']:.2f}x"
            + (f", fast {ragg['fast_ratio']:.2f}x"
               if "fast_ratio" in ragg else "") + ")")
    return "\n".join(lines)


def write_report(report: Dict, path: str) -> None:
    """Write the report as formatted JSON."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")


def load_report(path: str) -> Dict:
    """Load a previously written BENCH_core.json."""
    with open(path) as fh:
        return json.load(fh)
