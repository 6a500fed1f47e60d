"""The frozen references the simulator is checked against.

``repro.perf.reference`` keeps a frozen copy of the straightforward
simulator core and ``repro.perf.reference_vm`` one of the functional VM;
``repro.perf.golden`` checks the optimized core and VM against them
bit-for-bit.  Simulator speed is measured by perfbench (``perfbench/``,
``BENCHMARK.json``; see docs/perf.md).
"""
