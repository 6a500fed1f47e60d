"""The three workloads: inputs drawn from the seed, set-up, timed ops, checks.

Each workload draws its ops from a finite pool whose every point has a
reference digest in ``reference.json``: the frozen
``repro.perf.reference.ReferenceProcessor`` run on the same stream (see
``record.py``).  The seed picks and orders the points; generator seeds
for synthetic streams come from ``POOL_SEEDS`` so that every seed lands
on recorded points.

Per run, each workload keeps the op mix fixed (every program, level and
config appears the same number of times), so that a different seed
changes which points run but not how much work a run holds.  Checks run
after each op's clock has stopped, and so does the host speed probe
(``speed.py``) that follows each op.
"""

from __future__ import annotations

import hashlib
import json
import random
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

from repro.core.processor import Processor
from repro.core.stages import specialize
from repro.experiments.common import trace_for
from repro.perf.golden import GOLDEN_CONFIGS, golden_config
from repro.runtime import engine, sweep
from repro.runtime.job import SimJob
from repro.runtime.registry import decode_job
from repro.trace import capture, predecode
from repro.trace.replay import replay_fast
from repro.workloads import builder
from repro.workloads.minic import MINIC_PROGRAMS
from repro.workloads.spec import ALL_PROGRAMS, get_spec
from repro.workloads.synthetic import generate_trace

import speed

#: Generator seeds with recorded reference digests; seed s uses
#: ``pool_seed(s)``.
POOL_SEEDS = 8

#: The six golden ``N+M[:opt]`` notations, ideal ports, perfect frontend:
#: exactly what the frozen reference models.
NOTATIONS = tuple(name for name, _kwargs in GOLDEN_CONFIGS)


def pool_seed(seed: int) -> int:
    return (seed - 1) % POOL_SEEDS + 1


def result_digest(result) -> str:
    """Digest of everything a SimResult models (not its labels)."""
    body = {"cycles": result.cycles, "instructions": result.instructions,
            "counters": result.counters.as_dict()}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def synthetic_length(program: str, scale: float) -> int:
    """The stream length ``trace_for`` and trace capture use."""
    return max(10_000, int(get_spec(program).default_length * scale))


def drop_memos() -> None:
    """Forget every in-process kernel, trace and stream memo."""
    specialize.clear_cache()
    trace_for.cache_clear()
    builder.clear_trace_cache()
    predecode.clear_materialized()


class Workload:
    """Shared op bookkeeping; subclasses define set-up and ops."""

    name = ""
    #: Ops in a run of ``BASE_SECONDS``; other lengths scale linearly.
    base_ops = 1
    BASE_SECONDS = 20

    def __init__(self, run):
        self.run = run
        self.refs: Dict[str, str] = run.reference["results"]

    def op_count(self) -> int:
        return max(1, round(self.base_ops * self.run.seconds
                            / self.BASE_SECONDS))

    def expect(self, point: str, result) -> str:
        """An error message, or "" when *result* matches the reference."""
        want = self.refs.get(point)
        if want is None:
            return f"{point}: no recorded reference digest"
        if result_digest(result) != want:
            return (f"{point}: result differs from the reference "
                    f"(cycles {result.cycles})")
        return ""


class ColdMinic(Workload):
    """One mini-C design point from source to a stored SimResult."""

    name = "cold_minic"
    base_ops = 48  # two rounds of 24
    LEVELS = (0, 1, 2)
    #: Runs to exit in every round: its three levels take 44k-76k
    #: instructions, the other programs 164k-398k.
    TO_EXIT = "mini.linkedlist"
    #: Instruction budget of the other programs' ops.  One budget, not
    #: one drawn by the seed: with three budgets the median op moved
    #: between budget classes from seed to seed.
    BUDGET = 24_000

    @classmethod
    def budget(cls, program: str) -> Optional[int]:
        """The program's instruction budget; None runs it to exit."""
        return None if program == cls.TO_EXIT else cls.BUDGET

    @classmethod
    def pool(cls):
        """(program, level, budget) per stream."""
        for program in sorted(MINIC_PROGRAMS):
            for level in cls.LEVELS:
                yield program, level, cls.budget(program)

    @staticmethod
    def point(program, level, notation, budget) -> str:
        return (f"cold_minic|{program}|O{level}|{notation}|"
                f"{budget or 'exit'}")

    @staticmethod
    def job(name, program, level, notation, budget) -> SimJob:
        """The op's job; budget None takes the VM's default limit (5M
        instructions, as ``repro-cc sim`` does), so the program exits."""
        return SimJob(name, golden_config(notation),
                      source_text=MINIC_PROGRAMS[program][0],
                      opt_level=level, max_instructions=budget)

    def plan(self, count: int
             ) -> List[Tuple[str, str, int, str, Optional[int]]]:
        """Rounds of 24 ops: each program x level once, in the same order
        for every seed, and each config four times, paired with them by
        the seed.

        The order is fixed because the process keeps every stream it
        builds, so full garbage collections grow longer as the run goes
        on, and which ops they land in follows the order of the
        allocations: with a seed-shuffled order the ops hit by the
        largest collections changed from seed to seed, and so did
        ``op_tail_ms``.

        Each op's file name carries its round, so no two ops share a job
        key or a stream in the per-process source-trace memo (which is
        keyed without the config); an op that memo answered would skip
        the compiler and the VM.
        """
        rng = random.Random(self.run.seed)
        order = [(p, lv) for lv in self.LEVELS
                 for p in sorted(MINIC_PROGRAMS)]
        ops = []
        for rnd in range(-(-count // len(order))):
            notations = list(NOTATIONS) * (len(order) // len(NOTATIONS))
            rng.shuffle(notations)
            for (program, level), notation in zip(order, notations):
                ops.append((f"{program}-O{level}-r{rnd}.mc", program, level,
                            notation, self.budget(program)))
        return ops[:count]

    def setup(self, rep: int) -> None:
        # One op outside the plan: the shortest program run to exit.  It
        # finishes lazy set-up (code salt, kernel composer); the name
        # differs per repetition so the source-trace memo cannot answer.
        specialize.clear_cache()
        warm = self.job(f"warmup-{rep}.mc", self.TO_EXIT, 2, "2+0", None)
        engine.run_sim_jobs([warm], cache_dir=self.run.fresh_dir())

    def measure(self) -> None:
        run = self.run
        store_dir = run.fresh_dir()
        stdout = run.reference["stdout"]
        for op in self.plan(self.op_count()):
            _name, program, level, notation, budget = op
            job = self.job(*op)
            specialize.clear_cache()
            run.captures.clear()
            result, error, elapsed = run.timed(
                engine.run_sim_jobs, [job], cache_dir=store_dir)
            with run.tracer.paused():
                if error is None:
                    result = result[0][1]
                    error = (self.expect(self.point(*op[1:]), result)
                             or self.check_vm(program, budget, result,
                                              stdout[program]))
            run.op_done(elapsed, result, error)

    def check_vm(self, program, budget, result, expected: str) -> str:
        """The op's VM run: its length, and its stdout when it exited.

        Every ``mini.*`` program prints its checksum just before it
        returns, so a run stopped at its budget has printed nothing.
        """
        machines = self.run.captures.machines
        if len(machines) != 1:
            return f"{program}: expected one VM run, saw {len(machines)}"
        vm = machines[0]
        if vm.instructions_executed != result.instructions:
            return f"{program}: trace length differs from the VM's count"
        if budget is not None:
            ok = vm.exit_code == -1 and vm.stdout == ""
        else:
            ok = vm.exit_code == 0 and vm.stdout == expected
        return "" if ok else (f"{program}: exit code {vm.exit_code}, "
                              f"stdout {vm.stdout!r}")


class DesignSweep(Workload):
    """Every point of a fresh local sweep, timed point by point."""

    name = "design_sweep"
    #: Every program, 11k-34k instructions: twelve stream lengths spread
    #: the point latencies evenly, so the median point does not sit at a
    #: gap between a few length classes (with five programs it did, and
    #: op_p50_ms spread 10-25% over ten seeds).
    PROGRAMS = ALL_PROGRAMS
    SCALE = 0.2
    #: LVAQ sizes swept (64 is the Table 1 default).
    LVAQ = (16, 64)
    base_ops = 144  # two sweeps of 12 programs x 6 configs, one per LVAQ

    def specs(self, gen_seed: int) -> List["sweep.SweepSpec"]:
        """One sweep per LVAQ size, each with fresh memos and store.

        Two sweeps give every program two first points (the ones that
        pay trace generation), 24 in all, so ``op_tail_ms`` (the eleventh
        slowest point) lies among them.  With one 144-point sweep it lay
        at the edge between the 12 first points and the rest, and moved
        16% from seed to seed.
        """
        return [sweep.SweepSpec(self.PROGRAMS, configs=NOTATIONS,
                                lvaq_sizes=(lvaq,), scale=self.SCALE,
                                seed=gen_seed)
                for lvaq in self.LVAQ]

    @classmethod
    def pool(cls):
        """(gen seed, program, notation, lvaq, config) per design point."""
        from repro.runtime.job import config_from_spec

        for gen_seed in range(1, POOL_SEEDS + 1):
            for program in cls.PROGRAMS:
                for notation in NOTATIONS:
                    for lvaq in cls.LVAQ:
                        config = config_from_spec(
                            {"notation": notation,
                             "overrides": {"lvaq_size": lvaq}})
                        yield gen_seed, program, notation, lvaq, config

    @classmethod
    def point(cls, gen_seed, program, notation, lvaq) -> str:
        return f"{cls.name}|g{gen_seed}|{program}|{notation}|lvaq{lvaq}"

    def points_by_key(self, spec) -> Dict[str, str]:
        """Job key -> reference point name, from the sweep's own payloads."""
        out = {}
        for payload in sweep.expand(spec):
            config = payload["config"]
            out[decode_job(payload).key] = self.point(
                spec.seed, payload["workload"], config["notation"],
                config["overrides"]["lvaq_size"])
        return out

    def setup(self, rep: int) -> None:
        # A six-point warm-up sweep outside the timed one: one program at
        # the 10k-instruction floor under every golden config.
        drop_memos()
        warm = sweep.SweepSpec(("126.gcc",), configs=NOTATIONS, scale=0.01,
                               seed=pool_seed(self.run.seed))
        sweep.run_sweep(warm, jobs=1, cache_dir=self.run.fresh_dir())

    def measure(self) -> None:
        run = self.run
        specs = self.specs(pool_seed(run.seed))
        points: Dict[str, str] = {}
        with run.tracer.paused():
            for spec in specs:
                points.update(self.points_by_key(spec))
        planned = specs[0].points()
        for index in range(max(1, round(self.op_count() / planned))):
            spec = specs[index % len(specs)]
            drop_memos()
            store_dir = run.fresh_dir()
            # Per point: when it ended, the host probe the progress
            # callback took then, and when the next point began.
            stops: List[int] = []
            probes: List[int] = []
            resumes: List[int] = []
            outcomes = []

            def progress(status, outcome, done, total):
                stops.append(perf_counter_ns())
                outcomes.append(outcome)
                with run.tracer.span("probe"):
                    probes.append(speed.probe_ns())
                run.tracer.op_id += 1
                resumes.append(perf_counter_ns())

            start = perf_counter_ns()
            report, error, _ = run.timed(
                sweep.run_sweep, spec, jobs=1, cache_dir=store_dir,
                progress=progress)
            end = perf_counter_ns()
            # The sweep's work after its last callback goes to the last
            # point.
            elapsed = [stop - begin for stop, begin
                       in zip(stops, [start] + resumes[:-1])]
            if elapsed:
                elapsed[-1] += end - resumes[-1]
            with run.tracer.paused():
                for index, outcome in enumerate(outcomes):
                    result = outcome.result if outcome.ok else None
                    problem = error or (
                        self.expect(points.get(outcome.job.key, "?"), result)
                        if result is not None else outcome.error)
                    run.op_done(elapsed[index], result, problem,
                                probe=probes[index])
                for _missing in range(planned - len(outcomes)):
                    run.op_done(0, None, error or "sweep skipped a point")


class ReplayStored(Workload):
    """replay_fast of a trace captured in set-up, stream memo dropped."""

    name = "replay_stored"
    #: (program, scale): both streams are about 55k instructions long.
    TRACES = (("130.li", 0.507), ("147.vortex", 0.775))
    base_ops = 48  # four rounds of the 12 trace x config pairs

    @classmethod
    def pool(cls):
        for gen_seed in range(1, POOL_SEEDS + 1):
            for program, scale in cls.TRACES:
                for notation in NOTATIONS:
                    yield gen_seed, program, scale, notation

    @staticmethod
    def point(gen_seed, program, notation) -> str:
        return f"replay_stored|g{gen_seed}|{program}|{notation}"

    def setup(self, rep: int) -> None:
        drop_memos()
        gen_seed = pool_seed(self.run.seed)
        root = self.run.fresh_dir()
        self.paths = []
        for program, scale in self.TRACES:
            path, _cached = capture.capture_trace(
                capture.TraceJob(program, scale=scale, seed=gen_seed),
                cache_dir=root)
            self.paths.append((program, path))
        warm = generate_trace(get_spec(self.TRACES[0][0]), 200, 1).insts
        for notation in NOTATIONS:
            Processor(golden_config(notation)).run(warm, "warmup")

    def measure(self) -> None:
        run = self.run
        gen_seed = pool_seed(run.seed)
        rng = random.Random(run.seed)
        pairs = [(program, path, notation) for program, path in self.paths
                 for notation in NOTATIONS]
        plan: List[Tuple[str, str, str]] = []
        while len(plan) < self.op_count():
            block = pairs[:]
            rng.shuffle(block)
            plan.extend(block)
        for program, path, notation in plan[:self.op_count()]:
            predecode.clear_materialized()
            result, error, elapsed = run.timed(
                replay_fast, path, golden_config(notation))
            with run.tracer.paused():
                if error is None:
                    error = self.expect(
                        self.point(gen_seed, program, notation), result)
            run.op_done(elapsed, result, error)


WORKLOADS = {cls.name: cls for cls in
             (ColdMinic, DesignSweep, ReplayStored)}
