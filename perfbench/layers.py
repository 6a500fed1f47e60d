"""Which public calls mark each layer, and the per-layer metrics.

Every boundary is a public function or method of a ``repro`` module,
patched where its callers look it up at call time.  The traced run
installs all of them; the untraced run installs only the hook the
correctness checks need: the finished ``Machine`` of a mini-C op, whose
length and stdout are checked.  That hook records no span and costs one
list append per call.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List

#: layer -> per-layer time metric (self time over the timed ops).
OP_LAYER_METRICS = {
    "lang": "lang.compile_ms",
    "vm": "vm.run_ms",
    "workloads": "workloads.gen_ms",
    "trace.load": "trace.load_ms",
    "kernel.specialize": "kernel.specialize_ms",
    "kernel.run": "kernel.run_ms",
    "store.lookup": "store.lookup_ms",
    "store.write": "store.write_ms",
    "store.flush": "store.flush_ms",
    "sweep.plan": "sweep.plan_ms",
    "sweep.self": "sweep.self_ms",
    "engine": "engine.self_ms",
    "op": "ops.harness_ms",
}

#: Every per-layer metric the traced run prints, with its unit.
PER_LAYER_UNITS = {
    **{name: "ms" for name in OP_LAYER_METRICS.values()},
    "lang.code_insts": "count",
    "vm.dyn_insts": "count",
    "vm.kips": "kips",
    "workloads.gen_insts": "count",
    "trace.bytes_read": "bytes",
    "trace.memo_hit_ratio": "ratio",
    "kernel.compiles": "count",
    "kernel.cache_hit_ratio": "ratio",
    "kernel.kips": "kips",
    "kernel.host_ns_per_sim_cycle": "ns",
    "kernel.sim_cycles": "count",
    "kernel.sim_ipc": "ratio",
    "mem.l1_misses": "count",
    "mem.lvc_misses": "count",
    "pipeline.lvaq_loads": "count",
    "pipeline.stall_lsq_port": "count",
    "pipeline.stall_lvaq_port": "count",
    "store.misses": "count",
    "store.writes": "count",
    "engine.jobs_failed": "count",
    "engine.retries": "count",
    "ops.wall_ms": "ms",
    "ops.attributed_pct": "%",
    "setup.import_ms": "ms",
    "setup.rep_ms": "ms",
    "setup.gen_ms": "ms",
    "setup.kernel_ms": "ms",
    "trace.capture_ms": "ms",
    "host.probe_ms": "ms",
}

#: SimResult counters reported as modelled-design metrics.
DESIGN_COUNTERS = {
    "mem.l1_misses": "l1.misses",
    "mem.lvc_misses": "lvc.misses",
    "pipeline.lvaq_loads": "lvaq.loads",
    "pipeline.stall_lsq_port": "stall.lsq_port",
    "pipeline.stall_lvaq_port": "stall.lvaq_port",
}


class Captures:
    """Objects the correctness checks read after each op."""

    def __init__(self):
        self.machines: List[Any] = []

    def clear(self) -> None:
        self.machines.clear()


def install(tracer, captures: Captures) -> None:
    """Wrap the layer boundaries (all of them only when recording)."""
    import repro.lang
    from repro.core import processor
    from repro.core.stages import specialize
    from repro.runtime import engine, store, sweep
    from repro.trace import capture, predecode
    # The package re-exports a replay() function under the module's name.
    replay = importlib.import_module("repro.trace.replay")
    from repro.vm import machine
    from repro.workloads import builder

    counts = tracer.counts

    def timed(args=None, result=None) -> bool:
        return tracer.op_id >= 0

    def on_vm_run(args, result):
        captures.machines.append(args[0])
        if timed():
            counts["vm.dyn_insts"] += args[0].instructions_executed

    # The check hook, installed in every run.
    tracer.wrap(machine.Machine, "run", "vm", on_vm_run)
    if not tracer.record:
        return

    def count(name, measure):
        def observe(args, result):
            if timed():
                counts[name] += measure(args, result)
        return observe

    def on_engine(args, report):
        if timed():
            counts["engine.jobs_failed"] += len(report.failed)
            counts["engine.retries"] += sum(
                max(0, o.attempts - 1) for o in report.outcomes.values()
                if o.status != "cached")

    def on_kernel_run(args, result):
        if timed():
            counts["kernel.insts"] += len(args[1])
            counts["kernel.cycles"] += result.cycles

    wrap = tracer.wrap
    wrap(repro.lang, "compile_source", "lang",
         count("lang.code_insts", lambda a, r: len(r.instructions)))
    wrap(machine.Machine, "__init__", "vm")
    wrap(builder, "generate_trace", "workloads",
         count("workloads.gen_insts", lambda a, r: len(r)))
    wrap(capture, "capture_trace", "trace.capture")
    wrap(replay, "replay_insts", "trace.load",
         count("trace.loads", lambda a, r: 1))
    wrap(predecode, "decode_predecoded", "trace.load",
         count("trace.bytes_read", lambda a, r: len(a[0])))
    wrap(predecode, "predecode_trace", "trace.load",
         count("trace.bytes_read", lambda a, r: len(a[0])))
    wrap(specialize, "kernel_for", "kernel.specialize",
         count("kernel.lookups", lambda a, r: 1))
    wrap(processor.Processor, "__init__", "kernel.run")
    wrap(processor.Processor, "run", "kernel.run", on_kernel_run)
    wrap(store.ResultStore, "lookup", "store.lookup",
         count("store.misses", lambda a, r: r is None))
    wrap(store.ResultStore, "store", "store.write",
         count("store.writes", lambda a, r: 1))
    wrap(store.ResultStore, "flush", "store.flush")
    wrap(sweep, "run_sweep", "sweep.self")
    wrap(sweep, "expand", "sweep.plan")
    wrap(sweep, "decode_job", "sweep.plan")
    wrap(engine, "run_sim_jobs", "engine")
    wrap(engine.JobEngine, "run", "engine", on_engine)


def per_layer_metrics(tracer, run, ops_wall_ns: int, compiles: int,
                      decodes: int, setup: Dict[str, float]
                      ) -> Dict[str, float]:
    """The traced run's per-layer metrics (see ``PER_LAYER_UNITS``).

    Layer times are self times over the timed ops; *setup* carries the
    set-up phase's metrics; *run* holds the aggregates of the results the
    ops delivered.
    """
    counts = tracer.counts
    own = tracer.self_times(lambda op: op >= 0)
    ms = {layer: own.get(layer, 0) / 1e6 for layer in OP_LAYER_METRICS}
    out: Dict[str, float] = {
        metric: ms[layer] for layer, metric in OP_LAYER_METRICS.items()}

    def ratio(num, den):
        return num / den if den else 0.0

    out.update({
        "lang.code_insts": counts["lang.code_insts"],
        "vm.dyn_insts": counts["vm.dyn_insts"],
        "vm.kips": ratio(counts["vm.dyn_insts"], ms["vm"]),
        "workloads.gen_insts": counts["workloads.gen_insts"],
        "trace.bytes_read": counts["trace.bytes_read"],
        "trace.memo_hit_ratio": ratio(counts["trace.loads"] - decodes,
                                      counts["trace.loads"]),
        "kernel.compiles": compiles,
        "kernel.cache_hit_ratio": ratio(counts["kernel.lookups"] - compiles,
                                        counts["kernel.lookups"]),
        "kernel.kips": ratio(counts["kernel.insts"], ms["kernel.run"]),
        "kernel.host_ns_per_sim_cycle": ratio(
            own.get("kernel.run", 0), counts["kernel.cycles"]),
        "kernel.sim_cycles": run.design["cycles"],
        "kernel.sim_ipc": ratio(run.design["instructions"],
                                run.design["cycles"]),
        "store.misses": counts["store.misses"],
        "store.writes": counts["store.writes"],
        "engine.jobs_failed": counts["engine.jobs_failed"],
        "engine.retries": counts["engine.retries"],
        "ops.wall_ms": ops_wall_ns / 1e6,
        "ops.attributed_pct": 100.0 * ratio(
            ops_wall_ns - own.get("op", 0), ops_wall_ns),
    })
    out.update({name: run.counters.get(name, 0) for name in DESIGN_COUNTERS})
    out.update(setup)
    return out
