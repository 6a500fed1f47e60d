"""Campaign orchestration: seed-sharded fuzzing on the runtime job engine.

A campaign partitions a seed range into :class:`FuzzJob` shards and runs
them through :class:`repro.runtime.engine.JobEngine` — the same engine
the experiment suite uses — inheriting its dedup, process-pool fan-out,
timeouts, retries, and the content-addressed on-disk result cache.  A
shard is a pure function of its description (seed range, generator size,
oracle set, budget) and the code salt covers ``repro.fuzz`` itself, so
re-running a green campaign after an unrelated edit is all cache hits,
while touching the compiler, VM, cores, or the fuzzer re-runs honestly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.fuzz.generator import generate_program
from repro.fuzz.oracles import ALL_ORACLES, Divergence, run_oracles
from repro.runtime.engine import EngineReport, JobEngine, ProgressFn
from repro.runtime.registry import JobKind, register_kind
from repro.runtime.signature import canonical_json, digest
from repro.runtime.store import runtime_store

#: Seeds per shard: large enough to amortize worker-process startup,
#: small enough that a campaign of a few hundred seeds still fans out.
DEFAULT_SHARD_SIZE = 25


class FuzzJob:
    """One shard of a campaign: ``count`` consecutive seeds, all oracles.

    Carries the same scheduling surface as ``SimJob`` (``key``,
    ``workload``/``scale``/``seed`` ordering hints, ``describe``,
    ``label``) so the job engine treats it like any other unit of work.
    """

    __slots__ = ("seed_start", "count", "oracles", "size",
                 "max_instructions", "_key")

    kind = "fuzz"
    workload = "fuzz"
    scale = 1.0

    def __init__(self, seed_start: int, count: int,
                 oracles: Sequence[str] = ALL_ORACLES, size: int = 12,
                 max_instructions: int = 2_000_000):
        self.seed_start = seed_start
        self.count = count
        self.oracles = tuple(oracles)
        self.size = size
        self.max_instructions = max_instructions
        self._key: Optional[str] = None

    @property
    def seed(self) -> int:
        return self.seed_start

    def describe(self) -> Dict[str, Any]:
        return {
            "fuzz": {
                "seed_start": self.seed_start,
                "count": self.count,
                "oracles": list(self.oracles),
                "size": self.size,
                "max_instructions": self.max_instructions,
            }
        }

    @property
    def key(self) -> str:
        if self._key is None:
            self._key = digest(canonical_json(self.describe()))
        return self._key

    def label(self) -> str:
        end = self.seed_start + self.count
        return f"fuzz[{self.seed_start}:{end}] {'+'.join(self.oracles)}"

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__
                if name != "_key"}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        self._key = None

    def __repr__(self) -> str:
        return f"FuzzJob({self.label()})"


class FuzzShardResult:
    """What one executed shard observed."""

    __slots__ = ("seed_start", "count", "divergences")

    def __init__(self, seed_start: int, count: int,
                 divergences: List[Divergence]):
        self.seed_start = seed_start
        self.count = count
        self.divergences = divergences

    @property
    def clean(self) -> bool:
        return not self.divergences

    def __repr__(self) -> str:
        return (f"FuzzShardResult([{self.seed_start}:"
                f"{self.seed_start + self.count}], "
                f"{len(self.divergences)} divergences)")


def execute_fuzz_job(job: FuzzJob) -> FuzzShardResult:
    """Run one shard (top-level so process pools can pickle it)."""
    divergences: List[Divergence] = []
    for seed in range(job.seed_start, job.seed_start + job.count):
        program = generate_program(seed, size=job.size)
        for div in run_oracles(program.source(), name=f"fuzz.{seed}",
                               oracles=job.oracles,
                               max_instructions=job.max_instructions):
            div.seed = seed
            divergences.append(div)
    return FuzzShardResult(job.seed_start, job.count, divergences)


class CampaignReport:
    """Aggregate of one fuzzing campaign."""

    def __init__(self, seeds: int, divergences: List[Divergence],
                 engine_report: EngineReport):
        self.seeds = seeds
        self.divergences = divergences
        self.engine_report = engine_report

    @property
    def clean(self) -> bool:
        return not self.divergences and not self.engine_report.failed

    def diverging_seeds(self) -> List[int]:
        """Sorted unique seeds with at least one divergence."""
        return sorted({d.seed for d in self.divergences
                       if d.seed is not None})


def make_shards(seed: int, count: int,
                shard_size: int = DEFAULT_SHARD_SIZE,
                oracles: Sequence[str] = ALL_ORACLES, size: int = 12,
                max_instructions: int = 2_000_000) -> List[FuzzJob]:
    """Partition ``[seed, seed + count)`` into engine-schedulable shards."""
    if count < 1:
        raise ValueError("seed count must be >= 1")
    if shard_size < 1:
        raise ValueError("shard size must be >= 1")
    shards = []
    start = seed
    while start < seed + count:
        span = min(shard_size, seed + count - start)
        shards.append(FuzzJob(start, span, oracles=oracles, size=size,
                              max_instructions=max_instructions))
        start += span
    return shards


def run_campaign(
    seed: int = 0,
    count: int = 200,
    jobs: int = 1,
    oracles: Sequence[str] = ALL_ORACLES,
    size: int = 12,
    shard_size: int = DEFAULT_SHARD_SIZE,
    max_instructions: int = 2_000_000,
    cache_dir: Optional[str] = None,
    no_cache: bool = False,
    timeout: Optional[float] = None,
    progress: Optional[ProgressFn] = None,
) -> CampaignReport:
    """Fuzz ``count`` seeds starting at *seed*; returns the full report.

    Engine failures (a shard that died or timed out repeatedly) surface
    through ``report.engine_report.failed`` and make the campaign
    unclean — a crash is never a pass.
    """
    shards = make_shards(seed, count, shard_size=shard_size,
                         oracles=oracles, size=size,
                         max_instructions=max_instructions)
    cache = None if no_cache else runtime_store(cache_dir)
    engine = JobEngine(jobs=jobs, cache=cache, timeout=timeout,
                       progress=progress)
    report = engine.run(shards, execute=execute_fuzz_job)
    divergences: List[Divergence] = []
    for outcome in report.outcomes.values():
        if outcome.result is not None:
            divergences.extend(outcome.result.divergences)
    divergences.sort(key=lambda d: (d.seed if d.seed is not None else -1,
                                    d.oracle))
    return CampaignReport(count, divergences, report)


register_kind(JobKind("fuzz", FuzzJob, FuzzShardResult, execute_fuzz_job))
