"""The DSE sweep driver: expansion, dedup, budgets, resumable manifest."""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ReproError
from repro.runtime.registry import decode_job
from repro.runtime.sweep import (
    SweepManifest,
    SweepSpec,
    expand,
    format_report,
    predicted_cost,
    run_sweep,
)

SCALE = 0.12


def _spec(**kwargs):
    defaults = dict(workloads=("mini.qsort",),
                    configs=("2+0", "2+2:opt"), scale=SCALE)
    defaults.update(kwargs)
    return SweepSpec(**defaults)


# -- expansion ----------------------------------------------------------------


def test_expand_crosses_every_axis():
    spec = _spec(workloads=("mini.qsort", "mini.matmul"),
                 configs=("2+0", "4+2:opt"),
                 frontends=(None, "gshare"),
                 lvaq_sizes=(None, 32),
                 opt_levels=(0, 2))
    payloads = expand(spec)
    assert len(payloads) == spec.points() == 2 * 2 * 2 * 2 * 2
    # Every payload decodes to a distinct job spec.
    jobs = [decode_job(p) for p in payloads]
    assert len({job.key for job in jobs}) == len(jobs)
    names = {p["workload"] for p in payloads}
    assert names == {"mini.qsort@O0", "mini.qsort@O2",
                     "mini.matmul@O0", "mini.matmul@O2"}


def test_expand_overrides_ride_in_config_spec():
    spec = _spec(configs=("2+0",), frontends=("gshare",),
                 lvaq_sizes=(16,))
    (payload,) = expand(spec)
    assert payload["config"] == {
        "notation": "2+0",
        "overrides": {"frontend.policy": "gshare", "lvaq_size": 16},
    }
    job = decode_job(payload)
    assert job.config.frontend.policy == "gshare"
    assert job.config.lvaq_size == 16


def test_expand_rejects_opt_levels_on_non_mini_workloads():
    spec = _spec(workloads=("130.li",), opt_levels=(0,))
    with pytest.raises(ReproError, match="mini-C workloads"):
        expand(spec)


def test_spec_rejects_empty_axes():
    with pytest.raises(ReproError):
        SweepSpec(workloads=())
    with pytest.raises(ReproError):
        SweepSpec(workloads=("mini.matmul",), configs=())


def test_predicted_cost_orders_by_width():
    narrow = {"kind": "sim", "workload": "mini.matmul", "config": "2+0"}
    wide = {"kind": "sim", "workload": "mini.matmul", "config": "4+4:opt"}
    assert predicted_cost(narrow) < predicted_cost(wide)


# -- manifest -----------------------------------------------------------------


def test_manifest_round_trip_and_digest_guard(tmp_path):
    path = str(tmp_path / "sweep.json")
    spec = _spec()
    manifest = SweepManifest(path, spec)
    manifest.record("k1", {"cycles": 123})
    manifest.write(["k1", "k2"])

    with open(path) as handle:
        body = json.load(handle)
    assert body["spec_digest"] == spec.digest
    assert body["planned"] == ["k1", "k2"]
    assert body["done"]["k1"]["cycles"] == 123

    # Same spec resumes; a different spec is refused outright.
    resumed = SweepManifest(path, _spec())
    assert resumed.done == {"k1": {"cycles": 123}}
    with pytest.raises(ReproError, match="different sweep"):
        SweepManifest(path, _spec(configs=("4+0",)))


def test_manifest_write_ignores_another_writers_temp_file(tmp_path):
    """Each write uses its own temp file: a concurrent sweep's temp file
    (here an undeletable directory at ``<manifest>.tmp``) is not in the
    way."""
    path = str(tmp_path / "sweep.json")
    os.mkdir(path + ".tmp")
    manifest = SweepManifest(path, _spec())
    manifest.record("k1", {"cycles": 1})
    manifest.write(["k1"])
    with open(path) as handle:
        assert json.load(handle)["done"] == {"k1": {"cycles": 1}}
    assert os.path.isdir(path + ".tmp")


# -- the driver ---------------------------------------------------------------


def test_sweep_runs_all_points_and_is_store_backed(tmp_path):
    cache_dir = str(tmp_path / "cache")
    spec = _spec()
    report = run_sweep(spec, cache_dir=cache_dir)
    assert report.planned == 2
    assert report.completed == 2
    assert report.failed == 0 and report.skipped_budget == 0
    assert report.finished
    for summary in report.results.values():
        assert summary["cycles"] > 0
        assert summary["ipc"] > 0

    # Second run: every point answered by the store, zero budget spent.
    again = run_sweep(spec, cache_dir=cache_dir, budget_points=0)
    assert again.deduped == 2
    assert again.completed == 0 and again.skipped_budget == 0
    assert again.results.keys() == report.results.keys()
    for key, summary in again.results.items():
        assert summary["cached"] is True
        assert summary["cycles"] == report.results[key]["cycles"]
    assert format_report(spec, again)  # renders without blowing up


def test_budget_points_cuts_off_cleanly(tmp_path):
    spec = _spec(configs=("2+0", "2+2:opt", "4+0", "4+2:opt"))
    manifest = str(tmp_path / "m.json")
    partial = run_sweep(spec, no_cache=True, budget_points=2, chunk=1,
                        manifest_path=manifest)
    assert partial.planned == 4
    assert partial.completed == 2
    assert partial.skipped_budget == 2
    assert not partial.finished
    # Cheapest-first: the two narrow configs ran, the 4-port ones wait.
    labels = sorted(s["label"] for s in partial.results.values())
    assert all("(2+" in label for label in labels)

    # Resume from the manifest: only the remaining points run.
    rest = run_sweep(spec, no_cache=True, manifest_path=manifest)
    assert rest.resumed == 2
    assert rest.completed == 2
    assert rest.skipped_budget == 0
    assert len(rest.results) == 4


def test_budget_seconds_zero_skips_everything():
    spec = _spec()
    report = run_sweep(spec, no_cache=True, budget_seconds=0.0)
    assert report.completed == 0
    assert report.skipped_budget == report.planned == 2


def test_sweep_records_failures(tmp_path):
    spec = _spec(workloads=("mini.qsort", "no.such.workload"),
                 configs=("2+0",))
    report = run_sweep(spec, no_cache=True)
    assert report.completed == 1
    assert report.failed == 1
    assert not report.finished



def test_progress_counts_across_chunks(tmp_path):
    """One count over the whole invocation, not one per chunk; the total
    is what this invocation will run after store dedup and the budget."""
    spec = _spec(configs=("2+0", "2+2:opt", "4+0"))
    calls = []

    def progress(status, outcome, done, total):
        calls.append((done, total))

    run_sweep(spec, no_cache=True, chunk=1, progress=progress)
    assert calls == [(1, 3), (2, 3), (3, 3)]

    cache_dir = str(tmp_path / "cache")
    calls.clear()
    run_sweep(spec, cache_dir=cache_dir, chunk=1, budget_points=1,
              progress=progress)
    assert calls == [(1, 1)]
    calls.clear()
    report = run_sweep(spec, cache_dir=cache_dir, chunk=1, progress=progress)
    assert report.deduped == 1
    assert calls == [(1, 2), (2, 2)]


@pytest.mark.parametrize("timeout", [None, 300])
def test_parallel_sweep_keeps_one_warm_pool(monkeypatch, timeout):
    """With jobs=2 every chunk, even a one-point chunk, runs on the same
    executor: no rebuild, no second pool and no point run inline, and
    the cycles match an inline sweep's."""
    from repro.runtime import engine

    built = []

    class CountingExecutor(engine.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", CountingExecutor)
    spec = _spec(configs=("2+0", "2+2:opt", "4+0"))
    workers = []

    def progress(status, outcome, done, total):
        workers.append(outcome.worker)

    pooled = run_sweep(spec, jobs=2, chunk=1, no_cache=True,
                       timeout=timeout, progress=progress)
    assert len(built) == 1
    assert workers == ["pool", "pool", "pool"]

    inline = run_sweep(spec, jobs=1, no_cache=True)
    assert pooled.completed == inline.completed == 3
    assert ({key: s["cycles"] for key, s in pooled.results.items()}
            == {key: s["cycles"] for key, s in inline.results.items()})
