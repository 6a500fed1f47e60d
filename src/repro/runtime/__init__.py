"""repro.runtime — a layered, cached, parallel simulation job service.

The experiment suite is a large sweep of (workload x machine-config)
simulations, and several figures share configurations (the (2+0) baseline
appears in Figures 7, 9, 10 and 11).  This package turns those sweeps into
a deduplicated job graph executed by warm worker pools over a sharded
content-addressed result store, with an async service and a
design-space-exploration driver on top.  The layers, bottom up:

* :mod:`repro.runtime.signature` — stable content-addressed keys derived
  from the config dataclasses' fields plus a code-version salt;
* :mod:`repro.runtime.registry`  — the :class:`JobKind` registry: one
  protocol (spec/execute/result/codec) for every family of work;
* :mod:`repro.runtime.job`       — the :class:`SimJob`/:class:`MixJob`
  specs and the wire-payload codecs;
* :mod:`repro.runtime.store`     — the sharded :class:`ResultStore`
  of results and captured traces (per-shard indexes, integrity verify,
  LRU GC);
* :mod:`repro.runtime.engine`    — the :class:`WorkerPool`,
  :class:`JobEngine`, and the :class:`RuntimeSession` facade used by
  ``experiments.common``;
* :mod:`repro.runtime.service`   — the local async job service behind
  ``repro-cc serve`` (submit/status/result/stream over JSON);
* :mod:`repro.runtime.sweep`     — the budgeted DSE sweep driver behind
  ``repro-cc sweep``;
* :mod:`repro.runtime.manifest`  — run manifest + live progress reporting;
* :mod:`repro.runtime.plans`     — per-experiment job enumeration used to
  prewarm the store before the (sequential, deterministic) render pass.

See ``docs/runtime.md`` for the architecture and the store layout.
"""

from repro.runtime.engine import (
    JobEngine,
    JobOutcome,
    RuntimeSession,
    WorkerPool,
)
from repro.runtime.job import MixJob, SimJob
from repro.runtime.manifest import ProgressPrinter, RunManifest
from repro.runtime.registry import (
    JobKind,
    get_kind,
    kind_for,
    register_kind,
    registered_kinds,
)
from repro.runtime.signature import (
    canonical_json,
    code_salt,
    config_signature,
    describe_config,
)
from repro.runtime.store import ResultStore, default_cache_dir

__all__ = [
    "JobEngine",
    "JobKind",
    "JobOutcome",
    "MixJob",
    "ProgressPrinter",
    "ResultStore",
    "RunManifest",
    "RuntimeSession",
    "SimJob",
    "WorkerPool",
    "canonical_json",
    "code_salt",
    "config_signature",
    "default_cache_dir",
    "describe_config",
    "get_kind",
    "kind_for",
    "register_kind",
    "registered_kinds",
]
