"""Multi-programmed mix results and their runtime plumbing.

:class:`MixResult` packages what :func:`repro.core.multicore.run_mix`
produces — one :class:`~repro.core.metrics.SimResult` slice per program
plus the ``mix.*`` interference counters — into a single cacheable
value, and :func:`run_mix_jobs` runs a batch of
:class:`~repro.runtime.job.MixJob` specs through the regular
:class:`~repro.runtime.engine.JobEngine` (dedup, cache, pool, retries)
with a mix-typed result cache.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.metrics import SimResult
from repro.runtime.job import MixJob

#: The interference counters a mix run can attribute to each program.
INTERFERENCE_COUNTERS = (
    "mix.bus_conflicts",
    "mix.bus_conflict_stalls",
    "mix.l2_evictions_caused",
    "mix.l2_evictions_suffered",
)


class MixResult:
    """One mix run: per-program result slices sharing a global clock."""

    __slots__ = ("config_name", "programs")

    def __init__(self, config_name: str, programs: Sequence[SimResult]):
        self.config_name = config_name
        self.programs = list(programs)

    @property
    def cycles(self) -> int:
        """Global cycles: when the last program finished."""
        return max(p.cycles for p in self.programs)

    @property
    def instructions(self) -> int:
        """Total committed instructions across every program."""
        return sum(p.instructions for p in self.programs)

    def slice(self, workload: str) -> SimResult:
        """The per-program result for *workload* (first match)."""
        for program in self.programs:
            if program.workload_name == workload:
                return program
        raise KeyError(workload)

    def interference(self) -> Dict[str, Dict[str, int]]:
        """workload -> its ``mix.*`` counters (absent counters as 0)."""
        return {
            p.workload_name: {
                name: p.counters.get(name)
                for name in INTERFERENCE_COUNTERS
            }
            for p in self.programs
        }

    def summary(self) -> Dict[str, object]:
        """Flat report dict (manifest/CLI friendly)."""
        return {
            "config": self.config_name,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "programs": [
                {
                    "workload": p.workload_name,
                    "cycles": p.cycles,
                    "instructions": p.instructions,
                    "ipc": p.ipc,
                    **{name: p.counters.get(name)
                       for name in INTERFERENCE_COUNTERS},
                }
                for p in self.programs
            ],
        }

    def __repr__(self) -> str:
        names = "+".join(p.workload_name for p in self.programs)
        return f"MixResult({names} on {self.config_name}, {self.cycles} cycles)"


def run_mix_jobs(jobs: Iterable[MixJob], engine_jobs: int = 1,
                 cache_dir: Optional[str] = None,
                 timeout: Optional[float] = None
                 ) -> List[Tuple[MixJob, MixResult]]:
    """Run *jobs* through the engine; returns (job, result) in order.

    Raises :class:`repro.errors.SimulationError` if any mix failed.
    """
    from repro.errors import SimulationError
    from repro.runtime.engine import JobEngine
    from repro.runtime.store import runtime_store
    from repro.runtime.worker import execute_mix_job

    jobs = list(jobs)
    engine = JobEngine(jobs=engine_jobs, cache=runtime_store(cache_dir),
                       timeout=timeout)
    report = engine.run(jobs, execute=execute_mix_job)
    failed = report.failed
    if failed:
        first = failed[0]
        raise SimulationError(
            f"{len(failed)} mix job(s) failed; first: "
            f"{first.job.label()}: {first.error}")
    by_key = report.results()
    return [(job, by_key[job.key]) for job in jobs]
