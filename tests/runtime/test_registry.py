"""The job-kind registry: one protocol, loud failures for unknown kinds."""

from __future__ import annotations

import pytest

from repro.runtime import registry
from repro.runtime.job import MixJob, SimJob
from repro.runtime.registry import (
    JobKind,
    decode_job,
    get_kind,
    kind_for,
    register_kind,
    registered_kinds,
)


def test_builtin_kinds_register():
    kinds = registered_kinds()
    assert {"sim", "mix", "fuzz", "trace"} <= set(kinds)
    sim = kinds["sim"]
    assert sim.spec_type is SimJob
    assert sim.cacheable
    assert kinds["trace"].cacheable is False


def test_unknown_kind_raises_runtime_error_naming_registered():
    with pytest.raises(RuntimeError) as excinfo:
        get_kind("warp-drive")
    message = str(excinfo.value)
    assert "unknown job kind 'warp-drive'" in message
    # The error must NAME the registered kinds so the fix is obvious.
    for name in ("fuzz", "mix", "sim", "trace"):
        assert name in message


def test_kindless_spec_raises_when_required():
    class Legacy:
        pass

    with pytest.raises(RuntimeError) as excinfo:
        kind_for(Legacy())
    assert "declares no job kind" in str(excinfo.value)
    assert "sim" in str(excinfo.value)
    # Legacy callers that bring their own execute opt out explicitly.
    assert kind_for(Legacy(), required=False) is None


def test_kind_dispatch_matches_spec_classes():
    from repro.experiments.common import nm_config

    sim = SimJob("mini.qsort", nm_config(2, 0))
    mix = MixJob(("mini.qsort", "mini.matmul"), nm_config(2, 0))
    assert kind_for(sim).name == "sim"
    assert kind_for(mix).name == "mix"


def test_decode_job_round_trip():
    job = decode_job({"kind": "sim", "workload": "mini.qsort",
                      "config": "2+2:opt", "scale": 0.5, "seed": 7})
    assert isinstance(job, SimJob)
    assert job.workload == "mini.qsort"
    assert job.scale == 0.5 and job.seed == 7
    assert job.config.mem.lvc_ports == 2
    # Same payload -> same content-addressed key.
    again = decode_job({"kind": "sim", "workload": "mini.qsort",
                        "config": "2+2:opt", "scale": 0.5, "seed": 7})
    assert again.key == job.key


def test_decode_job_unknown_kind_fails_loudly():
    with pytest.raises(RuntimeError, match="unknown job kind"):
        decode_job({"kind": "nope"})
    with pytest.raises(RuntimeError, match="job payload must be an object"):
        decode_job(["sim"])


def test_decode_job_names_the_decodable_kinds():
    with pytest.raises(RuntimeError) as excinfo:
        decode_job({"kind": "mix", "workloads": ["mini.qsort"]})
    message = str(excinfo.value)
    assert "job kind 'mix' has no payload decoder" in message
    assert "decodable kinds: sim" in message


def test_config_overrides_apply_and_reject_bad_paths():
    from repro.errors import ReproError
    from repro.runtime.job import config_from_spec

    config = config_from_spec({"notation": "2+0",
                               "overrides": {"lvaq_size": 32,
                                             "frontend.policy": "gshare"}})
    assert config.lvaq_size == 32
    assert config.frontend.policy == "gshare"
    with pytest.raises(ReproError, match="bad config override path"):
        config_from_spec({"notation": "2+0",
                          "overrides": {"no.such.path": 1}})


def test_conflicting_reregistration_rejected():
    kinds = registered_kinds()
    sim = kinds["sim"]
    try:
        # Same-spec re-registration is allowed (module reimport)...
        register_kind(JobKind("sim", sim.spec_type, sim.result_type,
                              sim.execute))
        # ...but claiming the name for a different spec class is an error.
        class Impostor:
            kind = "sim"

        with pytest.raises(RuntimeError, match="already registered"):
            register_kind(JobKind("sim", Impostor, sim.result_type,
                                  sim.execute))
        assert (registry.registered_kinds()["sim"].spec_type
                is sim.spec_type)
    finally:
        # Same-spec re-registration REPLACES the entry — put the real
        # one (with its payload decoder) back for later tests.
        register_kind(sim)
