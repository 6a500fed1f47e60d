"""The units of work the job engine schedules.

A :class:`SimJob` fully describes a simulation so that any worker process
can reproduce it from scratch: either a named workload (``"130.li"``,
``"mini.qsort"``) at a scale/seed, or an inline mini-C / assembly source
text (the ``repro-cc sim`` path — content-addressed by the source itself,
so editing the file naturally misses the cache).

Every job spec advertises its family with a ``kind`` class attribute
(see :mod:`repro.runtime.registry`); the payload codecs at the bottom
turn a sweep point's JSON payload into a spec — the single place a
machine configuration is parsed from its JSON form (``repro-cc`` and
the sweep driver both delegate here).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.config import MachineConfig
from repro.errors import ReproError
from repro.runtime.signature import canonical_json, describe_config, digest


class SimJob:
    """Spec of one (workload x config) timing simulation."""

    kind = "sim"

    __slots__ = ("workload", "config", "scale", "seed", "source_text",
                 "optimize", "opt_level", "max_instructions", "_key")

    def __init__(
        self,
        workload: str,
        config: MachineConfig,
        scale: float = 1.0,
        seed: int = 1,
        source_text: Optional[str] = None,
        optimize: bool = True,
        opt_level: Optional[int] = None,
        max_instructions: Optional[int] = None,
    ):
        self.workload = workload
        self.config = config
        self.scale = scale
        self.seed = seed
        self.source_text = source_text
        self.optimize = optimize
        # None lets the compiler derive the level from ``optimize``
        # (True -> O2, False -> O0); an explicit 0/1/2 wins.  Named
        # workloads instead carry the level in the name ("mini.x@O0").
        self.opt_level = opt_level
        self.max_instructions = max_instructions
        self._key: Optional[str] = None

    def describe(self) -> Dict[str, Any]:
        """A JSON-serialisable description covering everything that can
        affect the simulation's result."""
        body: Dict[str, Any] = {
            "workload": self.workload,
            "scale": self.scale,
            "seed": self.seed,
            "config": describe_config(self.config),
        }
        if self.source_text is not None:
            body["source"] = {
                "sha256": digest(self.source_text),
                "optimize": self.optimize,
                "opt_level": self.opt_level,
                "max_instructions": self.max_instructions,
            }
        return body

    @property
    def key(self) -> str:
        """Content-addressed identity (hex SHA-256 of the description)."""
        if self._key is None:
            self._key = digest(canonical_json(self.describe()))
        return self._key

    def label(self) -> str:
        """Short human-readable tag for progress lines."""
        return f"{self.workload} {self.config.notation()}"

    # SimJob crosses process boundaries via pickle; drop the memoised key
    # so tampering with a config after construction can't ship a stale key.
    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__
                if name != "_key"}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        self._key = None

    def __repr__(self) -> str:
        return (f"SimJob({self.workload!r}, {self.config.notation()}, "
                f"scale={self.scale}, seed={self.seed})")


class MixJob:
    """Spec of one multi-programmed mix: N named workloads, one config.

    Engine-compatible with :class:`SimJob` (key/describe/label plus the
    ``workload``/``scale``/``seed`` fields the scheduler sorts on); the
    result is a :class:`repro.trace.mix.MixResult` — the ``mix`` job
    kind's registered result type, which the result store verifies on
    the way back out.
    """

    kind = "mix"

    __slots__ = ("workloads", "config", "scale", "seed", "_key")

    def __init__(self, workloads, config: MachineConfig,
                 scale: float = 1.0, seed: int = 1):
        self.workloads = tuple(workloads)
        if not self.workloads:
            raise ValueError("a mix needs at least one workload")
        self.config = config
        self.scale = scale
        self.seed = seed
        self._key: Optional[str] = None

    @property
    def workload(self) -> str:
        """The scheduler's sort key: the joined program list."""
        return "+".join(self.workloads)

    def describe(self) -> Dict[str, Any]:
        """A JSON-serialisable description covering everything that can
        affect the mix's result."""
        return {
            "kind": "mix",
            "workloads": list(self.workloads),
            "scale": self.scale,
            "seed": self.seed,
            "config": describe_config(self.config),
        }

    @property
    def key(self) -> str:
        """Content-addressed identity (hex SHA-256 of the description)."""
        if self._key is None:
            self._key = digest(canonical_json(self.describe()))
        return self._key

    def label(self) -> str:
        """Short human-readable tag for progress lines."""
        return f"mix[{self.workload}] {self.config.notation()}"

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__
                if name != "_key"}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        self._key = None

    def __repr__(self) -> str:
        return (f"MixJob({self.workloads!r}, {self.config.notation()}, "
                f"scale={self.scale}, seed={self.seed})")


# -- machine-config and job payload codecs ----------------------------------
#
# The sweep driver describes machine configurations as JSON: either a
# bare notation string ("2+2:opt") or an object
#
#     {"notation": "2+0", "overrides": {"lvaq_size": 32,
#                                       "frontend.policy": "gshare",
#                                       "mem.l1_port_policy": "finite"}}
#
# Overrides are dotted attribute paths applied to the constructed config,
# which is exactly how the experiment modules build their off-notation
# sweeps (ablation-realism sets the same attributes in Python).


def parse_notation(text: str) -> MachineConfig:
    """Parse the paper's ``"N+M[:opt]"`` notation into a config."""
    body = text.strip()
    optimized = body.endswith(":opt")
    if optimized:
        body = body[: -len(":opt")]
    try:
        n_text, m_text = body.split("+")
        n, m = int(n_text), int(m_text)
    except ValueError:
        raise ReproError(
            f"bad configuration {text!r}; expected N+M[:opt]") from None
    return MachineConfig.baseline(
        l1_ports=n, lvc_ports=m,
        fast_forwarding=optimized and m > 0,
        combining=2 if (optimized and m > 0) else 1,
    )


def _apply_overrides(config: MachineConfig,
                     overrides: Dict[str, Any]) -> MachineConfig:
    for path in sorted(overrides):
        target = config
        parts = path.split(".")
        for part in parts[:-1]:
            target = getattr(target, part, None)
            if target is None:
                raise ReproError(f"bad config override path {path!r}")
        if not hasattr(target, parts[-1]):
            raise ReproError(f"bad config override path {path!r}")
        setattr(target, parts[-1], overrides[path])
    return config


def config_from_spec(spec: Any) -> MachineConfig:
    """A :class:`MachineConfig` from a wire-format description."""
    if isinstance(spec, str):
        return parse_notation(spec)
    if isinstance(spec, dict):
        notation = spec.get("notation")
        if not isinstance(notation, str):
            raise ReproError("config spec needs a 'notation' string")
        config = parse_notation(notation)
        overrides = spec.get("overrides") or {}
        if not isinstance(overrides, dict):
            raise ReproError("config 'overrides' must be an object")
        return _apply_overrides(config, overrides)
    raise ReproError(
        f"config spec must be a notation string or an object, "
        f"got {type(spec).__name__}")


def sim_job_from_payload(payload: Dict[str, Any]) -> SimJob:
    """The ``sim`` kind's payload decoder (the sweep driver's points)."""
    workload = payload.get("workload")
    if not isinstance(workload, str) or not workload:
        raise ReproError("sim job payload needs a 'workload' name")
    return SimJob(
        workload,
        config_from_spec(payload.get("config", "2+0")),
        scale=float(payload.get("scale", 1.0)),
        seed=int(payload.get("seed", 1)),
        source_text=payload.get("source_text"),
        optimize=bool(payload.get("optimize", True)),
        opt_level=payload.get("opt_level"),
        max_instructions=payload.get("max_instructions"),
    )

