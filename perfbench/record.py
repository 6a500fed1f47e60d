"""Regenerate ``reference.json``, the results every benchmark op is
checked against.

For every point of every workload's pool it builds the committed stream
the op simulates and runs the frozen
``repro.perf.reference.ReferenceProcessor`` on it, recording a digest of
cycles, instructions and every counter.  It also records each mini-C
program's stdout, from runs to completion at O0, O1 and O2, which must
agree.  Run from the repository root::

    PYTHONPATH=src python3 perfbench/record.py [--jobs 2]

It takes about 18 CPU-minutes.  Re-record only when a change is meant to
alter the modelled design's results, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _minic_task(program, level, budget):
    from cases import NOTATIONS, ColdMinic
    from repro.runtime.worker import trace_for_job

    trace = trace_for_job(ColdMinic.job(
        "reference.mc", program, level, NOTATIONS[0], budget))
    return _digests(trace.insts, [
        (ColdMinic.point(program, level, notation, budget), notation, None)
        for notation in NOTATIONS])


def _stdout_task(program):
    from repro.lang import CompilerOptions, compile_source
    from repro.workloads.minic import MINIC_PROGRAMS
    from repro.vm.machine import Machine

    outputs = set()
    for level in (0, 1, 2):
        vm = Machine(compile_source(MINIC_PROGRAMS[program][0],
                                    CompilerOptions(opt_level=level)),
                     trace=False)
        if vm.run() != 0:
            raise SystemExit(f"{program} at O{level} did not exit cleanly")
        outputs.add(vm.stdout)
    if len(outputs) != 1:
        raise SystemExit(f"{program}: stdout differs between levels")
    return {program: outputs.pop()}


def _synthetic_task(program, length, gen_seed, points):
    from repro.workloads.builder import build_trace_uncached

    insts = build_trace_uncached(program, length=length, seed=gen_seed).insts
    return _digests(insts, points)


def _digests(insts, points):
    from cases import result_digest
    from repro.perf.golden import golden_config
    from repro.perf.reference import ReferenceProcessor
    from repro.runtime.job import config_from_spec

    out = {}
    for point, notation, lvaq in points:
        config = (golden_config(notation) if lvaq is None else
                  config_from_spec({"notation": notation,
                                    "overrides": {"lvaq_size": lvaq}}))
        out[point] = result_digest(
            ReferenceProcessor(config).run(insts, "reference"))
    return out


def tasks():
    """(function, args) per stream, with every point that stream serves."""
    from cases import (ColdMinic, DesignSweep, ReplayStored,
                       synthetic_length)
    from repro.workloads.minic import MINIC_PROGRAMS

    for program in sorted(MINIC_PROGRAMS):
        yield _stdout_task, (program,)
    for program, level, budget in ColdMinic.pool():
        yield _minic_task, (program, level, budget)
    streams = {}
    for gen_seed, program, notation, lvaq, _config in DesignSweep.pool():
        streams.setdefault((program, gen_seed), []).append(
            (DesignSweep.point(gen_seed, program, notation, lvaq), notation,
             lvaq))
    for (program, gen_seed), points in streams.items():
        yield _synthetic_task, (
            program, synthetic_length(program, DesignSweep.SCALE), gen_seed,
            points)
    streams = {}
    for gen_seed, program, scale, notation in ReplayStored.pool():
        streams.setdefault((program, scale, gen_seed), []).append(
            (ReplayStored.point(gen_seed, program, notation), notation,
             None))
    for (program, scale, gen_seed), points in streams.items():
        yield _synthetic_task, (program, synthetic_length(program, scale),
                                gen_seed, points)


def _call(task):
    function, args = task
    return function.__name__, function(*args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)

    reference = {"stdout": {}, "results": {}}
    work = list(tasks())
    context = multiprocessing.get_context("spawn")
    with context.Pool(max(1, args.jobs)) as pool:
        for done, (name, values) in enumerate(
                pool.imap_unordered(_call, work), 1):
            section = "stdout" if name == "_stdout_task" else "results"
            reference[section].update(values)
            print(f"record: {done}/{len(work)} streams", file=sys.stderr)
    reference["results"] = dict(sorted(reference["results"].items()))
    reference["stdout"] = dict(sorted(reference["stdout"].items()))
    out = os.path.join(HERE, "reference.json")
    with open(out, "w") as handle:
        json.dump(reference, handle, indent=0, sort_keys=False)
        handle.write("\n")
    print(f"record: {len(reference['results'])} digests -> {out}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
