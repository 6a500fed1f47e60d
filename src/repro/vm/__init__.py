"""Functional virtual machine: executes programs and emits dynamic traces."""

from repro.vm.memory import SparseMemory
from repro.vm.trace import Stream, Trace, TraceStats
from repro.vm.machine import Machine, run_program

__all__ = [
    "SparseMemory",
    "Stream",
    "Trace",
    "TraceStats",
    "Machine",
    "run_program",
]
