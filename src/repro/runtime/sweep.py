"""The budgeted design-space-exploration driver: ``repro-cc sweep``.

A sweep is a cross product over the axes the paper's design space
actually varies — port configurations (``N+M[:opt]`` notations),
frontend timing policies, LVAQ sizes, and compiler optimization levels —
expanded over a workload list into ``sim``-kind job payloads (JSON, so
``--dry-run`` can print them).  One :class:`RuntimeSession` runs them:
its store answers the dedup pass and its warm pool every chunk, so the
second chunk of a sweep recompiles nothing the first one compiled.

The driver is **budgeted and resumable**:

* points already in the result store are deduplicated away before any
  budget accounting (a re-run of a finished sweep costs nothing);
* remaining points are ordered cheapest-first by a predicted cost
  (trace length x a config width factor) so a small budget buys the
  most coverage;
* ``--budget-points`` / ``--budget-seconds`` stop the sweep early,
  cleanly — completed points are recorded either way;
* a JSON **manifest** records the sweep spec digest, every planned
  point, and every completed one; re-running with the same manifest
  resumes where the budget cut off (a manifest written by a *different*
  spec is refused, not silently merged).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.runtime.registry import decode_job
from repro.runtime.signature import canonical_json, digest
from repro.utils import write_atomic

MANIFEST_VERSION = 1


class SweepSpec:
    """The axes of one design-space sweep (all combinations run)."""

    __slots__ = ("workloads", "configs", "frontends", "lvaq_sizes",
                 "opt_levels", "scale", "seed")

    def __init__(self, workloads: Sequence[str],
                 configs: Sequence[str] = ("2+0",),
                 frontends: Sequence[Optional[str]] = (None,),
                 lvaq_sizes: Sequence[Optional[int]] = (None,),
                 opt_levels: Sequence[Optional[int]] = (None,),
                 scale: float = 1.0, seed: int = 1):
        if not workloads:
            raise ReproError("a sweep needs at least one workload")
        if not configs:
            raise ReproError("a sweep needs at least one config notation")
        self.workloads = tuple(workloads)
        self.configs = tuple(configs)
        self.frontends = tuple(frontends) or (None,)
        self.lvaq_sizes = tuple(lvaq_sizes) or (None,)
        self.opt_levels = tuple(opt_levels) or (None,)
        self.scale = scale
        self.seed = seed

    def describe(self) -> Dict[str, Any]:
        return {
            "workloads": list(self.workloads),
            "configs": list(self.configs),
            "frontends": list(self.frontends),
            "lvaq_sizes": list(self.lvaq_sizes),
            "opt_levels": list(self.opt_levels),
            "scale": self.scale,
            "seed": self.seed,
        }

    @property
    def digest(self) -> str:
        return digest(canonical_json(self.describe()))

    def points(self) -> int:
        return (len(self.workloads) * len(self.configs)
                * len(self.frontends) * len(self.lvaq_sizes)
                * len(self.opt_levels))


def expand(spec: SweepSpec) -> List[Dict[str, Any]]:
    """The sweep's job payloads (wire format), one per design point.

    Opt levels ride in the workload name (``mini.qsort@O0`` — the
    builder's convention); frontend policy and LVAQ size become dotted
    config overrides.  Each payload decodes to its job spec through
    :func:`repro.runtime.registry.decode_job`.
    """
    payloads = []
    for workload in spec.workloads:
        for opt_level in spec.opt_levels:
            name = workload
            if opt_level is not None:
                if not workload.startswith("mini."):
                    raise ReproError(
                        f"opt-level axis needs mini-C workloads, "
                        f"got {workload!r}")
                name = f"{workload}@O{opt_level}"
            for notation in spec.configs:
                for frontend in spec.frontends:
                    for lvaq in spec.lvaq_sizes:
                        overrides: Dict[str, Any] = {}
                        if frontend is not None:
                            overrides["frontend.policy"] = frontend
                        if lvaq is not None:
                            overrides["lvaq_size"] = int(lvaq)
                        config: Any = notation
                        if overrides:
                            config = {"notation": notation,
                                      "overrides": overrides}
                        payloads.append({
                            "kind": "sim",
                            "workload": name,
                            "config": config,
                            "scale": spec.scale,
                            "seed": spec.seed,
                        })
    return payloads


def predicted_cost(payload: Dict[str, Any]) -> float:
    """Relative cost estimate of one design point (ordering only).

    Trace length dominates simulation time, scaled by a machine-width
    factor — wider port configurations retire the same stream through
    more bookkeeping per cycle.  This is a *sorting* heuristic: being
    wrong costs schedule quality, never correctness.
    """
    workload = payload["workload"].split("@")[0]
    length = 50_000.0
    if not workload.startswith("mini."):
        try:
            from repro.workloads.spec import get_spec

            length = float(get_spec(workload).default_length)
        except Exception:  # noqa: BLE001 - unknown spec: keep default
            pass
        length *= float(payload.get("scale", 1.0))
    config = payload["config"]
    notation = config if isinstance(config, str) else config["notation"]
    body = notation[:-4] if notation.endswith(":opt") else notation
    try:
        n, m = (int(part) for part in body.split("+"))
    except ValueError:
        n, m = 2, 0
    return length * (1.0 + 0.15 * (n + m))


class SweepManifest:
    """The resumable record of one sweep's planned and finished points."""

    def __init__(self, path: Optional[str], spec: SweepSpec):
        self.path = path
        self.spec = spec
        self.done: Dict[str, Dict[str, Any]] = {}
        if path and os.path.exists(path):
            with open(path, "r") as handle:
                recorded = json.load(handle)
            if recorded.get("spec_digest") != spec.digest:
                raise ReproError(
                    f"manifest {path!r} records a different sweep "
                    f"(digest {recorded.get('spec_digest', '?')[:12]} != "
                    f"{spec.digest[:12]}); refusing to merge — use a "
                    f"fresh manifest path")
            self.done = recorded.get("done", {})

    def record(self, key: str, summary: Dict[str, Any]) -> None:
        self.done[key] = summary

    def write(self, planned: List[str]) -> None:
        if not self.path:
            return
        body = {
            "version": MANIFEST_VERSION,
            "spec": self.spec.describe(),
            "spec_digest": self.spec.digest,
            "planned": planned,
            "done": self.done,
        }
        write_atomic(self.path, json.dumps(
            body, indent=1, sort_keys=True).encode("utf-8"))


class SweepReport:
    """What one driver invocation accomplished."""

    def __init__(self, planned: int, deduped: int, resumed: int,
                 completed: int, failed: int, skipped_budget: int,
                 elapsed: float, results: Dict[str, Dict[str, Any]]):
        self.planned = planned
        self.deduped = deduped
        self.resumed = resumed
        self.completed = completed
        self.failed = failed
        self.skipped_budget = skipped_budget
        self.elapsed = elapsed
        self.results = results

    @property
    def finished(self) -> bool:
        """True when every planned point is accounted for."""
        return self.skipped_budget == 0 and self.failed == 0


def run_sweep(spec: SweepSpec, jobs: int = 1,
              cache_dir: Optional[str] = None, no_cache: bool = False,
              timeout: Optional[float] = None,
              budget_points: Optional[int] = None,
              budget_seconds: Optional[float] = None,
              manifest_path: Optional[str] = None,
              chunk: int = 8,
              progress=None) -> SweepReport:
    """Drive the sweep to completion or until a budget runs out.

    Points run cheapest-first in chunks of *chunk* through one
    :class:`RuntimeSession` (with ``jobs > 1``, one warm pool for the
    whole sweep), and budgets are checked between chunks so a timeout
    never abandons completed work.  *progress* is called once per point
    run as ``(status, outcome, done, total)``: *done* counts across
    chunks, and *total* is the number of points this invocation will
    run after manifest resume, store dedup and *budget_points*.
    """
    from repro.runtime.engine import RuntimeSession

    started = time.monotonic()
    payloads = expand(spec)
    manifest = SweepManifest(manifest_path, spec)

    # Dedup pass 1: identical design points (axes can overlap).
    jobs_by_key: Dict[str, Any] = {}
    payload_by_key: Dict[str, Dict[str, Any]] = {}
    for payload in payloads:
        job = decode_job(payload)
        if job.key not in jobs_by_key:
            jobs_by_key[job.key] = job
            payload_by_key[job.key] = payload
    planned_keys = list(jobs_by_key)
    resumed = sum(1 for key in planned_keys if key in manifest.done)

    deduped = completed = failed = skipped = 0
    done = total = 0

    def count_across_chunks(status, outcome, _done, _total):
        nonlocal done
        done += 1
        progress(status, outcome, done, total)

    session = RuntimeSession(
        jobs=jobs, cache_dir=cache_dir, no_cache=no_cache, timeout=timeout,
        progress=count_across_chunks if progress is not None else None,
        keep_pool=jobs > 1)
    try:
        # Dedup pass 2: the result store already has it — record
        # straight from the store, charge no budget.
        store = session.cache
        todo: List[str] = []
        for key in planned_keys:
            if key in manifest.done:
                continue
            job = jobs_by_key[key]
            existing = store.lookup(job) if store is not None else None
            if existing is None:
                todo.append(key)
                continue
            deduped += 1
            manifest.record(key, {
                "workload": job.workload,
                "label": job.label(),
                "cached": True,
                "cycles": existing.cycles,
                "ipc": existing.ipc,
            })

        # Cheapest-first: a small budget buys the most design-space
        # coverage.
        todo.sort(key=lambda key: (predicted_cost(payload_by_key[key]), key))
        total = len(todo)
        if budget_points is not None:
            total = max(0, min(total, budget_points))

        position = 0
        while position < len(todo):
            if position >= total or (
                    budget_seconds is not None
                    and time.monotonic() - started >= budget_seconds):
                skipped = len(todo) - position
                break
            chunk_keys = todo[position:min(position + chunk, total)]
            position += len(chunk_keys)
            report = session.prewarm(
                [jobs_by_key[key] for key in chunk_keys])
            for key in chunk_keys:
                outcome = report.outcomes.get(key)
                if outcome is None or not outcome.ok:
                    failed += 1
                    continue
                completed += 1
                job = jobs_by_key[key]
                manifest.record(key, {
                    "workload": job.workload,
                    "label": job.label(),
                    "cached": outcome.status == "cached",
                    "cycles": outcome.result.cycles,
                    "ipc": outcome.result.ipc,
                })
            manifest.write(planned_keys)
    finally:
        session.close()
        manifest.write(planned_keys)

    return SweepReport(
        planned=len(planned_keys), deduped=deduped, resumed=resumed,
        completed=completed, failed=failed, skipped_budget=skipped,
        elapsed=time.monotonic() - started, results=dict(manifest.done))


def format_report(spec: SweepSpec, report: SweepReport) -> str:
    """Human-readable sweep summary for the CLI."""
    lines = [
        f"sweep over {len(spec.workloads)} workloads x "
        f"{len(spec.configs)} configs x {len(spec.frontends)} frontends "
        f"x {len(spec.lvaq_sizes)} LVAQ sizes x "
        f"{len(spec.opt_levels)} opt levels "
        f"= {spec.points()} points ({report.planned} unique)",
        f"  resumed {report.resumed} from manifest, "
        f"{report.deduped} already in store",
        f"  completed {report.completed}, failed {report.failed}, "
        f"budget-skipped {report.skipped_budget}, "
        f"{report.elapsed:.1f}s",
    ]
    return "\n".join(lines)
