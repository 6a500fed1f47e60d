"""One benchmark run of one workload, in its own process (see run.py).

Prints one JSON line last: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics of the traced run with ``--trace 1``.  Exact counts of the run
(every result digest, simulated instructions and cycles, kernel
compiles, and with tracing the store and trace-read counts) are kept per
(workload, seed, mode, code fingerprint) under ``.bench_build``; a later
run of the same seed that counts differently fails loudly.  Runs with a
failed op are neither kept nor compared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import tempfile
from time import perf_counter, perf_counter_ns
from typing import Dict

from repro.core.stages import specialize
from repro.trace import predecode

import cases
import layers
import speed
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-up runs this many times; ``setup_s`` takes the median.
SETUP_REPS = 3

#: The end-to-end metrics and their units (BENCHMARK.json lists them).
END_TO_END_UNITS = {
    "points_per_s": "1/s",
    "sim_kips": "kips",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Run:
    """State of one run: inputs, temp dirs, per-op outcomes, aggregates."""

    def __init__(self, args, tracer, captures, reference):
        self.seed = args.seed
        self.seconds = args.seconds
        self.tracer = tracer
        self.captures = captures
        self.reference = reference
        self.tmp = args.tmp
        self.latencies = []
        #: Host speed probes (see speed.py), one after each op.
        self.probes = []
        self.attempted = 0
        self.failures = []
        self.points = 0
        self.design = {"instructions": 0, "cycles": 0}
        self.counters = {}
        self.digests = hashlib.sha256()

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(dir=self.tmp)

    def timed(self, fn, *args, **kwargs):
        """Call one op; returns ``(value, error or None, elapsed ns)``."""
        self.tracer.op_id = self.attempted
        start = perf_counter_ns()
        try:
            with self.tracer.span("op"):
                value = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a failed op, counted
            return None, f"{type(exc).__name__}: {exc}", (
                perf_counter_ns() - start)
        return value, None, perf_counter_ns() - start

    def op_done(self, elapsed_ns, result, error, probe=None) -> None:
        """Record one op: its latency, the host probe taken just after
        it (by default the op was the last thing that ran, and the host
        is probed now), and its result or error."""
        self.attempted += 1
        self.latencies.append(elapsed_ns)
        self.probes.append(speed.probe_ns() if probe is None else probe)
        if error:
            self.failures.append(error)
            print(f"perfbench: op {self.attempted - 1} failed: {error}",
                  file=sys.stderr)
            return
        self.points += 1
        self.design["instructions"] += result.instructions
        self.design["cycles"] += result.cycles
        for name, counter in layers.DESIGN_COUNTERS.items():
            self.counters[name] = (self.counters.get(name, 0)
                                   + result.counters.get(counter))
        self.digests.update(cases.result_digest(result).encode())


def _makedirs(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def tail_index(count: int) -> int:
    """Index into sorted latencies of the highest percentile that has at
    least ten ops beyond it (the upper median when there are too few
    ops)."""
    return count - 11 if count > 20 else count // 2


def timings(points: int, instructions: int, latencies) -> Dict[str, float]:
    """The timing metrics of a run from its op latencies (ns)."""
    ordered = sorted(latencies)
    total = sum(ordered)
    return {
        "points_per_s": points / (total / 1e9),
        "sim_kips": instructions / (total / 1e6),
        "op_p50_ms": statistics.median(ordered) / 1e6,
        "op_tail_ms": ordered[tail_index(len(ordered))] / 1e6,
    }


def fingerprint() -> str:
    """Hash of the program and benchmark sources (keys the count record)."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames
                                 if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".py", ".json", ".mc")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def check_repeat(args, exact) -> str:
    """Compare exact counts with an earlier run of the same seed."""
    mode = "traced" if args.trace else "plain"
    path = os.path.join(
        _makedirs(os.path.join(ROOT, ".bench_build", "perfbench",
                               "records")),
        f"{args.workload}-seed{args.seed}-{args.seconds}s-{mode}-"
        f"{fingerprint()}.json")
    if os.path.exists(path):
        with open(path) as handle:
            before = json.load(handle)
        if before != exact:
            changed = sorted(k for k in set(before) | set(exact)
                             if before.get(k) != exact.get(k))
            return (f"exact counts differ from an earlier run of seed "
                    f"{args.seed}: {', '.join(changed)} ({path})")
        return ""
    with open(path, "w") as handle:
        json.dump(exact, handle, indent=1, sort_keys=True)
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", required=True,
                        help="directory for result stores and traces")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="perf_counter() just before the launcher "
                             "started this process")
    args = parser.parse_args(argv)
    # Interpreter start plus every import above.
    import_s = perf_counter() - args.spawned_at
    if args.workload not in cases.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(cases.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as handle:
        reference = json.load(handle)

    tracer = Tracer(record=bool(args.trace))
    captures = layers.Captures()
    layers.install(tracer, captures)
    run = Run(args, tracer, captures, reference)
    # The host is probed after the imports, after each set-up
    # repetition and after each op.
    setup_probes = [speed.probe_ns()]
    try:
        workload = cases.WORKLOADS[args.workload](run)
        reps = []
        for rep in range(SETUP_REPS):
            tracer.op_id = -1 - rep
            start = perf_counter()
            workload.setup(rep)
            reps.append(perf_counter() - start)
            setup_probes.append(speed.probe_ns())
        setup_wall_s = import_s + statistics.median(reps)
        compiles = specialize.compile_count
        decodes = predecode.decode_count
        workload.measure()
        compiles = specialize.compile_count - compiles
        decodes = predecode.decode_count - decodes
    finally:
        tracer.uninstall()

    exact = {"ops": run.attempted, "points": run.points,
             "results_sha256": run.digests.hexdigest(),
             "kernel.compiles": compiles,
             **run.design}
    wall_ns = sum(run.latencies)
    # The mean, not the median: in a slow period the host switches
    # between a fast and a slow state, and the probes split between the
    # two; their mean follows the share of time spent slow, as the ops'
    # times do.
    probe_ns = statistics.mean(setup_probes + run.probes)
    if args.trace:
        last_rep = -SETUP_REPS
        own = tracer.self_times(lambda op: op == last_rep)
        setup = {
            "setup.import_ms": import_s * 1e3,
            "setup.rep_ms": reps[-1] * 1e3,
            "setup.gen_ms": own.get("workloads", 0) / 1e6,
            "setup.kernel_ms": (own.get("kernel.specialize", 0)
                                + own.get("kernel.run", 0)) / 1e6,
            "trace.capture_ms": own.get("trace.capture", 0) / 1e6,
            "host.probe_ms": probe_ns / 1e6,
        }
        metrics = layers.per_layer_metrics(
            tracer, run, wall_ns, compiles, decodes, setup)
        units = layers.PER_LAYER_UNITS
        for name in ("vm.dyn_insts", "lang.code_insts", "store.misses",
                     "store.writes", "trace.bytes_read",
                     "workloads.gen_insts"):
            exact[name] = metrics[name]
        spans_path = os.path.join(
            ROOT, ".bench_build", "perfbench",
            f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(spans_path)
        print(f"perfbench: spans in {spans_path}", file=sys.stderr)
    else:
        # The timings at the reference host speed (see speed.py).
        scale = speed.factor(probe_ns)
        metrics = timings(run.points, run.design["instructions"],
                          [latency * scale for latency in run.latencies])
        metrics.update(
            setup_s=setup_wall_s * scale,
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024)
        units = END_TO_END_UNITS
        wall = timings(run.points, run.design["instructions"],
                       run.latencies)
        print("perfbench: as measured on this host: " + ", ".join(
            f"{name} {value:.4g}" for name, value in wall.items())
            + f", setup_s {setup_wall_s:.4g}; "
            f"probe mean {probe_ns / 1e6:.4g} ms "
            f"(reference {speed.REF_PROBE_NS / 1e6:.4g} ms)",
            file=sys.stderr)

    # A run with a failed op delivered fewer results; its counts are
    # neither kept nor compared, and the result line reports the failure.
    repeat = "" if run.failures else check_repeat(args, exact)
    if repeat:
        print(f"perfbench: {repeat}", file=sys.stderr)
        return 3
    print(f"perfbench: {args.workload} seed {args.seed}: {run.attempted} "
          f"ops, {run.points} points, {len(run.failures)} failed; "
          f"op_tail_ms is op {tail_index(run.attempted) + 1} of "
          f"{run.attempted} by latency", file=sys.stderr)
    correct = not run.failures
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
