"""Trace-driven replay: pre-decoded columns straight into the kernel.

Replay is the hot path the capture layer exists for.  It loads a
serialized committed stream — from the pre-decoded sidecar
(:mod:`repro.trace.predecode`) when one matches, else from the raw trace
(:mod:`repro.trace.format`) — as a :class:`~repro.vm.trace.Stream` built
with bulk column conversions, and hands it to the **unmodified** staged
timing kernel — no VM, no compiler, no workload generator on the path.
Because the kernel consumes only the committed stream (frontend gate
lists are a pure function of it, recomputed at bind time), a replayed
run is **bit-identical** to the execution-driven run it was captured
from: same cycles, same instruction count, same counter dictionary, for
every machine configuration.  :func:`check_replay_equivalence` enforces that
over the golden matrix.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.config import MachineConfig
from repro.core.metrics import SimResult
from repro.core.processor import Processor
from repro.trace.format import read_trace
from repro.vm.trace import Stream, Trace

TraceSource = Union[str, Trace]


def load_trace(source: TraceSource, verify: bool = True) -> Trace:
    """*source* as an in-memory :class:`Trace` (path → decode)."""
    if isinstance(source, Trace):
        return source
    return read_trace(source, verify=verify)


def replay(source: TraceSource, config: MachineConfig,
           workload: Optional[str] = None,
           verify: bool = True) -> SimResult:
    """Run one timing simulation from a captured trace.

    *source* is a trace file path or an already-loaded :class:`Trace`.
    The result is indistinguishable from
    ``Processor(config).run(...)`` over the execution-driven stream.
    """
    trace = load_trace(source, verify=verify)
    return Processor(config).run(
        trace.insts, workload if workload else trace.name)


def replay_insts(source: TraceSource,
                 verify: bool = True) -> Tuple[Stream, str]:
    """The committed stream for *source* via the pre-decoded fast path.

    Returns ``(stream, workload name)`` and does all of a replay's
    loading.  A trace file path is routed through
    :mod:`repro.trace.predecode`: a ``.pdt`` sidecar next to the file is
    used when present and matching (checksummed, source-hash-checked),
    else the tables are derived in memory from the raw trace; either
    way the loaded stream is memoized per process, so repeats and config
    sweeps over one trace load it once.  The stream is equal, column
    for column, to ``load_trace(...).insts``.
    """
    if isinstance(source, Trace):
        return source.insts, source.name
    from repro.errors import TraceError
    from repro.trace import predecode as _pd
    from repro.trace.format import read_trace_header

    header = read_trace_header(source)
    source_sha = header.get("payload_sha256")
    if source_sha:
        cached = _pd.cached_stream(source_sha)
        if cached is not None:
            return cached, header.get("workload", "<trace>")
    pdt = None
    if source.endswith(".trace"):
        sidecar = source[:-len(".trace")] + ".pdt"
        try:
            with open(sidecar, "rb") as handle:
                pdt = _pd.decode_predecoded(
                    handle.read(), origin=sidecar, verify=verify)
            if pdt.source_sha256 != source_sha:
                pdt = None  # sidecar derived from an older capture
        except (OSError, TraceError):
            pdt = None  # absent, stale, or corrupt — derive below
    if pdt is None:
        with open(source, "rb") as handle:
            data = handle.read()
        pdt = _pd.predecode_trace(data, origin=source, verify=verify)
    return _pd.load_stream(pdt), pdt.workload


def replay_fast(source: TraceSource, config: MachineConfig,
                workload: Optional[str] = None,
                verify: bool = True) -> SimResult:
    """:func:`replay` through the pre-decoded fast path.

    Same result bit for bit; the difference is cost shape — sidecar
    tables instead of trace parsing, and a memoized stream shared
    across repeats in this process.
    """
    stream, name = replay_insts(source, verify=verify)
    return Processor(config).run(stream, workload if workload else name)


def check_replay_equivalence(
    workloads: Sequence[str],
    configs: Optional[Iterable[Tuple[str, Dict]]] = None,
    length: int = 20_000,
    seed: int = 1,
) -> List:
    """Round-trip equivalence sweep: serialize → decode → replay → diff.

    For each workload the execution-driven stream is built once, pushed
    through the full encode/decode round trip, and both streams are
    simulated on every golden configuration.  Returns every
    :class:`repro.perf.golden.Mismatch` (empty list = replay is
    bit-identical across the matrix).
    """
    from repro.perf.golden import GOLDEN_CONFIGS, diff_results
    from repro.trace.format import decode_trace, encode_trace
    from repro.workloads.builder import build_trace

    if configs is None:
        configs = GOLDEN_CONFIGS
    configs = tuple(configs)
    mismatches: List = []
    for workload in workloads:
        direct = build_trace(workload, length=length, seed=seed)
        replayed = decode_trace(encode_trace(direct),
                                origin=f"<capture:{workload}>")
        for config_name, kwargs in configs:
            config = MachineConfig.baseline(**kwargs)
            expected = Processor(config).run(direct.insts, workload)
            actual = Processor(config).run(replayed.insts, workload)
            mismatches.extend(
                diff_results(workload, config_name, expected, actual))
    return mismatches
