"""Benchmark gate: perfbench on a base and a head checkout, compared.

    python3 tools/perfgate.py BASE HEAD

Runs every workload of HEAD's ``BENCHMARK.json`` on both checkouts in
``PAIRS`` pairs of runs, alternating which side runs first, each run
``perfbench/run.py --workload W --seed 1 --seconds 5 --trace 0`` with the
checkout as working directory.  A side runs only the workloads its own
``BENCHMARK.json`` lists (a base perfbench rejects a workload it does not
know), so a workload only HEAD lists runs on HEAD alone and is reported
as ``head only``.  It fails (exit 1) when a run fails: a
non-zero exit, a last stdout line that is not a result, or a result with
``correct: false`` or ``failed > 0``.  For each workload and end-to-end
metric it compares the two sides' medians and fails when head's is worse
than base's by more than the metric's ``bound``.  A metric whose base
runs spread wider than its bound, as (max - min) / median, is
``unresolved`` and does not fail: the runs cannot tell a change of that
size from noise.  When the checkouts differ in any byte under
``perfbench/`` or in ``BENCHMARK.json``, the two sides no longer run one
benchmark, so the timings are reported only; failed runs still fail.

Standard library only, Python 3.9 or later.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence, Tuple

#: Workload seed, run length (s) and pairs per workload.  A 5 s run is
#: the shortest whose ``op_tail_ms`` is not its median (at 2 s two
#: workloads run only 5 ops); 3 pairs of all three workloads take
#: 2.5 minutes on a 2-vCPU host.
SEED = 1
SECONDS = 5
PAIRS = 3

SIDES = ("base", "head")

#: The files that define the benchmark; bytecode under them is ignored.
BENCHMARK_FILE = "BENCHMARK.json"
BENCHMARK_DIR = "perfbench"

#: One table row: workload, metric, base and head medians, delta, bound,
#: verdict.
ROW = "{:<14} {:<13} {:>12} {:>12} {:>8} {:>6}  {}"


class RunFailed(Exception):
    """One perfbench run failed or printed no result."""


def parse_run(returncode: int, stdout: str) -> Dict:
    """The result of one run from its exit status and stdout.

    Raises :class:`RunFailed` unless the run exited 0 and its last line
    is a result of a run in which every op was correct.
    """
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not (isinstance(result, dict) and isinstance(result.get("metrics"),
                                                    dict)):
        last = lines[-1][:80] if lines else "no output"
        raise RunFailed(f"exit {returncode}, last line is not a result: "
                        f"{last!r}")
    if (returncode != 0 or result.get("correct") is not True
            or result.get("failed", 0) > 0):
        raise RunFailed(f"exit {returncode}, correct "
                        f"{result.get('correct')}, "
                        f"{result.get('failed')} of "
                        f"{result.get('attempted')} ops failed")
    return result


def benchmark_differs(base: str, head: str) -> bool:
    """Whether the two checkouts differ in any byte of the benchmark."""
    def files(root: str) -> Dict[str, str]:
        out = {}
        for dirpath, dirnames, filenames in os.walk(
                os.path.join(root, BENCHMARK_DIR)):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for name in filenames:
                if not name.endswith(".pyc"):
                    path = os.path.join(dirpath, name)
                    out[os.path.relpath(path, root)] = path
        path = os.path.join(root, BENCHMARK_FILE)
        if os.path.exists(path):
            out[BENCHMARK_FILE] = path
        return out

    base_files, head_files = files(base), files(head)
    return base_files.keys() != head_files.keys() or any(
        not filecmp.cmp(base_files[rel], head_files[rel], shallow=False)
        for rel in base_files)


def listed_workloads(root: str) -> List[str]:
    """The workloads the checkout's own ``BENCHMARK.json`` lists."""
    path = os.path.join(root, BENCHMARK_FILE)
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        return [w["name"] for w in json.load(handle)["workloads"]]


def compare(metrics: Sequence[Dict], workload: str,
            results: Dict[str, List[Dict]]) -> Tuple[List[str], List[str]]:
    """Table rows and regressions of one workload.

    *metrics* is ``BENCHMARK.json``'s ``end_to_end`` list and *results*
    each side's parsed results.  A regression is a metric whose head
    median is worse than the base median by more than its bound, unless
    the base runs spread wider than that bound.
    """
    rows, regressions = [], []
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        if any(name not in r["metrics"] for side in SIDES
               for r in results[side]):
            # Only when the change edits the benchmark, so report-only.
            rows.append(ROW.format(workload, name, "-", "-", "-",
                                   f"{bound:.0%}", "not reported by both"))
            continue
        values = {side: [r["metrics"][name]["value"] for r in results[side]]
                  for side in SIDES}
        base = statistics.median(values["base"])
        head = statistics.median(values["head"])
        delta = (head - base) / base
        worse = delta if metric["better"] == "lower" else -delta
        spread = (max(values["base"]) - min(values["base"])) / base
        if spread > bound:
            verdict = f"unresolved (base spread {spread:.1%})"
        elif worse > bound:
            verdict = "worse"
            regressions.append(
                f"{workload} {name}: head median {head:.4g} is "
                f"{worse:.1%} worse than base {base:.4g} "
                f"(bound {bound:.0%})")
        else:
            verdict = "ok"
        rows.append(ROW.format(workload, name, f"{base:.4g}", f"{head:.4g}",
                               f"{delta:+.1%}", f"{bound:.0%}", verdict))
    return rows, regressions


def run_perfbench(command: Sequence[str], root: str,
                  workload: str) -> Tuple[int, str]:
    """One benchmark run in *root*; its stderr passes through."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="Exit status 1 when the gate fails.")
    parser.add_argument("base", help="checkout of the base commit")
    parser.add_argument("head", help="checkout of the change")
    args = parser.parse_args(argv)
    roots = {"base": args.base, "head": args.head}
    with open(os.path.join(args.head, BENCHMARK_FILE)) as handle:
        spec = json.load(handle)
    gated = not benchmark_differs(args.base, args.head)
    in_base = set(listed_workloads(args.base))

    failures, regressions = [], []
    rows = [ROW.format("workload", "metric", "base median", "head median",
                       "delta", "bound", "verdict")]
    for workload in (w["name"] for w in spec["workloads"]):
        results: Dict[str, List[Dict]] = {
            side: [] for side in SIDES
            if side == "head" or workload in in_base}
        for pair in range(1, PAIRS + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                if side not in results:
                    continue
                print(f"perfgate: {workload} pair {pair}/{PAIRS}: {side}",
                      file=sys.stderr, flush=True)
                try:
                    results[side].append(parse_run(*run_perfbench(
                        spec["command"], roots[side], workload)))
                except RunFailed as exc:
                    failures.append(f"{side} {workload} pair {pair}: {exc}")
        if "base" not in results:
            rows.append(ROW.format(workload, "-", "-", "-", "-", "-",
                                   "head only"))
        elif all(results.values()):
            workload_rows, workload_regressions = compare(
                spec["end_to_end"], workload, results)
            rows += workload_rows
            regressions += workload_regressions

    mode = "gated" if gated else (
        f"report only: {BENCHMARK_DIR}/ or {BENCHMARK_FILE} differ "
        f"between the checkouts")
    print(f"perfgate: seed {SEED}, {SECONDS} s runs, {PAIRS} pairs per "
          f"workload; timings {mode}")
    print("\n".join(rows))
    failed = failures + (regressions if gated else [])
    for failure in failed:
        print(f"perfgate: FAIL {failure}")
    print(f"perfgate: {'FAIL' if failed else 'pass'}"
          + ("" if gated else " (timings report only)"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
