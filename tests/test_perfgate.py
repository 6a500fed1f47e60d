"""Tests of the benchmark gate, ``tools/perfgate.py``.

The gate is loaded from its path and fed synthetic perfbench result
lines in place of benchmark runs; nothing here runs perfbench.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "perfgate", os.path.join(ROOT, "tools", "perfgate.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perfgate = _load_gate()

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    WORKLOADS = [w["name"] for w in json.load(_handle)["workloads"]]

METRICS = {"points_per_s": 10.0, "sim_kips": 200.0, "op_p50_ms": 100.0,
           "op_tail_ms": 150.0, "setup_s": 1.0, "peak_rss_mb": 60.0}


def result(correct=True, failed=0, **scale) -> str:
    """A perfbench result line: ``METRICS``, each times its *scale*."""
    return json.dumps({
        "correct": correct, "attempted": 12, "failed": failed,
        "metrics": {name: {"value": value * scale.get(name, 1.0),
                           "unit": "-"}
                    for name, value in METRICS.items()}})


@pytest.fixture
def checkouts(tmp_path):
    """Two checkouts with byte-identical benchmark files."""
    roots = {}
    for side in perfgate.SIDES:
        root = tmp_path / side
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text("print('bench')\n")
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
        roots[side] = root
    return roots


@pytest.fixture
def gate(checkouts, monkeypatch, capsys):
    """Run the gate on *checkouts* with each side's runs replaced.

    ``gate(base=..., head=...)`` takes per side one ``(exit, stdout)``
    for every run or a list of ``perfgate.PAIRS`` of them, one per pair;
    it returns the exit status, stdout and the sides in run order.
    """
    def run(base=(0, result()), head=(0, result())):
        outputs = {"base": base, "head": head}
        calls = []

        def fake_run(command, root, workload):
            side = next(s for s, r in checkouts.items() if str(r) == root)
            pair = sum(1 for c in calls if c == (workload, side))
            calls.append((workload, side))
            out = outputs[side]
            returncode, stdout = out[pair] if isinstance(out, list) else out
            return returncode, "perfbench: stderr goes elsewhere\n" + stdout

        monkeypatch.setattr(perfgate, "run_perfbench", fake_run)
        status = perfgate.main([str(checkouts["base"]),
                                str(checkouts["head"])])
        return status, capsys.readouterr().out, calls

    return run


def _rows(out: str, verdict: str):
    return [line for line in out.splitlines()
            if line.startswith(tuple(WORKLOADS)) and line.endswith(verdict)]


def test_equal_sides_pass(gate):
    status, out, calls = gate()
    assert status == 0
    assert "timings gated" in out
    assert len(_rows(out, " ok")) == len(WORKLOADS) * len(METRICS)
    assert out.splitlines()[-1] == "perfgate: pass"
    # Each workload's pairs alternate which side runs first.
    for workload in WORKLOADS:
        assert [side for w, side in calls if w == workload] == [
            "base", "head", "head", "base", "base", "head"]


def test_lower_points_per_s_fails_naming_workload_and_metric(gate):
    status, out, _calls = gate(head=(0, result(points_per_s=0.7)))
    assert status == 1
    for workload in WORKLOADS:
        assert (f"perfgate: FAIL {workload} points_per_s: head median 7 "
                f"is 30.0% worse than base 10 (bound 24%)") in out
    assert len(_rows(out, " worse")) == len(WORKLOADS)


def test_direction_of_worse_comes_from_better(gate):
    """``op_p50_ms`` is better lower: 30% higher fails, 30% lower does
    not, and the opposite holds for ``points_per_s``."""
    status, out, _calls = gate(head=(0, result(op_p50_ms=1.3)))
    assert status == 1
    assert f"FAIL {WORKLOADS[0]} op_p50_ms:" in out
    status, out, _calls = gate(head=(0, result(op_p50_ms=0.7,
                                               points_per_s=1.3)))
    assert status == 0
    assert "worse" not in out


def test_improvement_on_every_metric_passes(gate):
    status, out, _calls = gate(head=(0, result(
        points_per_s=1.3, sim_kips=1.3, op_p50_ms=0.7, op_tail_ms=0.7,
        setup_s=0.7, peak_rss_mb=0.7)))
    assert status == 0
    assert "-30.0%" in out and "+30.0%" in out


def test_base_spread_wider_than_bound_is_unresolved(gate):
    base = [(0, result(points_per_s=s)) for s in (1.0, 0.7, 1.3)]
    status, out, _calls = gate(base=base, head=(0, result(points_per_s=0.7)))
    assert status == 0
    unresolved = _rows(out, "unresolved (base spread 60.0%)")
    assert [row.split()[:2] for row in unresolved] == [
        [workload, "points_per_s"] for workload in WORKLOADS]
    assert "FAIL" not in out


@pytest.mark.parametrize("side", ["base", "head"])
@pytest.mark.parametrize("run", [
    (1, result(correct=False, failed=12)),
    (0, result(failed=1)),
    (0, result(correct=False)),
    (1, result()),
], ids=["incorrect", "failed-op", "correct-false", "nonzero-exit"])
def test_failed_run_on_either_side_fails(gate, side, run):
    good = (0, result())
    runs = {"base": good, "head": good}
    runs[side] = [good, run, good]
    status, out, _calls = gate(**runs)
    assert status == 1
    for workload in WORKLOADS:
        assert f"perfgate: FAIL {side} {workload} pair 2: exit " in out


@pytest.mark.parametrize("stdout", [
    "", "Traceback (most recent call last):", "[1, 2]",
    '{"correct": true, "failed": 0}', result()[:-1],
], ids=["empty", "text", "not-a-dict", "no-metrics", "cut"])
def test_malformed_last_line_fails(gate, stdout):
    status, out, _calls = gate(head=(0, stdout))
    assert status == 1
    assert "last line is not a result" in out
    with pytest.raises(perfgate.RunFailed, match="not a result"):
        perfgate.parse_run(0, stdout)


@pytest.mark.parametrize("edit", [
    "perfbench/run.py", "perfbench/new.py", "BENCHMARK.json"])
def test_benchmark_edit_reports_timings_only(gate, checkouts, edit):
    path = checkouts["head"] / edit
    path.write_bytes((path.read_bytes() if path.exists() else b"") + b" ")
    status, out, _calls = gate(head=(0, result(points_per_s=0.5)))
    assert status == 0
    assert "report only" in out
    assert out.splitlines()[-1] == "perfgate: pass (timings report only)"
    assert len(_rows(out, " worse")) == len(WORKLOADS)
    # A failed op still fails.
    status, out, _calls = gate(head=(1, result(correct=False, failed=3)))
    assert status == 1
    assert "report only" in out
    assert f"FAIL head {WORKLOADS[0]} pair 1:" in out


def test_metric_new_in_head_benchmark_is_reported_not_compared(
        gate, checkouts):
    path = checkouts["head"] / "BENCHMARK.json"
    spec = json.loads(path.read_text())
    spec["end_to_end"].append({"name": "new_metric", "unit": "s",
                               "better": "lower", "bound": 0.1})
    path.write_text(json.dumps(spec))
    status, out, _calls = gate()
    assert status == 0
    assert "report only" in out
    assert len(_rows(out, "not reported by both")) == len(WORKLOADS)


def test_bytecode_is_not_a_benchmark_edit(checkouts):
    cache = checkouts["head"] / "perfbench" / "__pycache__"
    cache.mkdir()
    (cache / "run.cpython-311.pyc").write_bytes(b"\0")
    (checkouts["base"] / "perfbench" / "stale.pyc").write_bytes(b"\0")
    assert not perfgate.benchmark_differs(str(checkouts["base"]),
                                          str(checkouts["head"]))
    (checkouts["base"] / "BENCHMARK.json").unlink()
    assert perfgate.benchmark_differs(str(checkouts["base"]),
                                      str(checkouts["head"]))
