"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1``, run from the repository root.

Runs one workload in a fresh child process (``bench.py``) and passes its
output and exit status through.  Before starting the child it compiles
the package's bytecode (into ``.bench_build/pycache``), so that
``setup_s`` never includes compiling ``repro`` (importing it took
0.35-0.43 s cold against 0.20 s warm on a 2-vCPU x86-64 VM);
the child's set-up clock starts just before it is spawned, so set-up
includes interpreter start and ``import repro``.  The workloads and
metrics are described in ``NOTES.md`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import compileall
import os
import shutil
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The child is stopped after this long, so a run always ends in 180 s.
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {src}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    # Bytecode goes under .bench_build, never into the source tree.
    sys.pycache_prefix = os.path.join(ROOT, ".bench_build", "pycache")
    compileall.compile_dir(src, quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    # The program's own switches (cache dir and salt, kernel mode) stay
    # at their defaults: the benchmark measures what a user gets.
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env.update(PYTHONPATH=src, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=sys.pycache_prefix)
    # The child's result stores and trace files; removed here, so they
    # go even when the child is killed.
    tmp_root = os.path.join(ROOT, ".bench_build", "perfbench", "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    command = [sys.executable, os.path.join(HERE, "bench.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp", tmp, "--spawned-at", repr(perf_counter())]
    try:
        return subprocess.run(command, cwd=ROOT, env=env,
                              timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish in "
              f"{CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 124
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
