"""Run manifest + live progress reporting for the job engine.

The manifest is the machine-readable record of one runtime batch: every
deduplicated job with its status and wall time, plus aggregate throughput
numbers (cache hit rate, worker utilization).  ``repro-experiments``
writes it to ``results/run_manifest.json`` after the prewarm phase.

The write is deterministic for a given batch: keys are sorted, job
entries are ordered by job key (never by completion order, which varies
with worker scheduling), and the manifest carries no wall-clock
timestamp — so a repeated warm run diffs only in the measured wall
times, and the file is safe to commit or compare across runs.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Dict, Optional

from repro.runtime.engine import EngineReport, JobOutcome
from repro.stats.report import format_duration
from repro.utils import write_atomic

MANIFEST_VERSION = 2


class RunManifest:
    """A JSON-serialisable description of one engine run."""

    def __init__(self, report: EngineReport, salt: str,
                 scale: float, experiments: Optional[list] = None,
                 cache_stats: Optional[Dict[str, Any]] = None):
        self.report = report
        self.salt = salt
        self.scale = scale
        self.experiments = list(experiments) if experiments else []
        self.cache_stats = cache_stats

    def to_dict(self) -> Dict[str, Any]:
        report = self.report
        jobs = []
        for key, outcome in sorted(report.outcomes.items()):
            jobs.append({
                "key": key,
                "workload": outcome.job.workload,
                "config": outcome.job.config.notation(),
                "scale": outcome.job.scale,
                "seed": outcome.job.seed,
                "status": outcome.status,
                "worker": outcome.worker,
                "attempts": outcome.attempts,
                "wall_seconds": round(outcome.wall, 4),
                "error": outcome.error,
            })
        return {
            "version": MANIFEST_VERSION,
            "experiments": self.experiments,
            "scale": self.scale,
            "code_salt": self.salt,
            "workers": report.workers,
            "jobs_total": len(report.outcomes),
            "jobs_deduplicated_away": report.duplicates,
            "jobs_ran": report.ran,
            "jobs_cached": report.cached,
            "jobs_failed": len(report.failed),
            "cache_hit_rate": round(report.cache_hit_rate, 4),
            "elapsed_seconds": round(report.elapsed, 3),
            "busy_worker_seconds": round(report.busy, 3),
            "worker_utilization": round(report.utilization, 4),
            "cache": self.cache_stats,
            "jobs": jobs,
        }

    def write(self, path: str) -> None:
        """Write the manifest atomically."""
        write_atomic(path, (json.dumps(self.to_dict(), indent=2,
                                       sort_keys=True) + "\n").encode("utf-8"))

    def summary(self) -> str:
        """One stderr-friendly line for the end of a run."""
        report = self.report
        return (f"[runtime] {len(report.outcomes)} jobs "
                f"({report.duplicates} deduped away): "
                f"{report.cached} cached, {report.ran} ran, "
                f"{len(report.failed)} failed in "
                f"{format_duration(report.elapsed)} "
                f"(hit rate {report.cache_hit_rate:.0%}, "
                f"utilization {report.utilization:.0%})")


class ProgressPrinter:
    """Throttled live progress lines on stderr.

    Failures and timeouts always print; successes print at most every
    *interval* seconds so big sweeps don't drown the terminal.
    """

    def __init__(self, interval: float = 0.5, stream=None):
        self.interval = interval
        self.stream = stream if stream is not None else sys.stderr
        self._last = 0.0
        self._cached = 0

    def __call__(self, event: str, outcome: JobOutcome,
                 done: int, total: int) -> None:
        if event == "cached":
            self._cached += 1
        now = time.monotonic()
        urgent = event in ("failed", "timeout") or done == total
        if not urgent and now - self._last < self.interval:
            return
        self._last = now
        line = (f"[runtime] {done}/{total} done "
                f"({self._cached} cached) {outcome.job.label()}")
        if outcome.status == "ran":
            line += f" {format_duration(outcome.wall)}"
        elif not outcome.ok:
            line += f" {outcome.status.upper()}: {outcome.error}"
        print(line, file=self.stream)
