"""The kernel reads the committed stream by column only.

The stream's record adapter (``stream[i]``, ``iter(stream)``) exists for
the frozen references and offline analyses.  A stage edit that reads a
record on the simulation path would rebuild one object per instruction
and quietly cost what the column layout saves, so this suite runs the
kernel over a stream whose record view raises.
"""

from __future__ import annotations

import pytest

from repro.core.processor import Processor
from repro.perf.golden import GOLDEN_CONFIGS, diff_results, golden_config
from repro.perf.reference import ReferenceProcessor
from repro.vm.trace import Stream
from repro.workloads.builder import build_trace


class ColumnsOnly(Stream):
    """A stream whose per-instruction record view raises."""

    __slots__ = ()

    def __getitem__(self, index):
        raise AssertionError(f"the kernel read stream[{index!r}]")

    def __iter__(self):
        raise AssertionError("the kernel iterated the stream's records")


def _columns_only(stream: Stream) -> ColumnsOnly:
    return ColumnsOnly(**{name: getattr(stream, name)
                          for name in Stream.COLUMNS})


@pytest.fixture(scope="module")
def streams():
    """A synthetic stream (ambiguous references reach the predictor) and
    a VM stream (real pcs for the frontend)."""
    return {name: build_trace(name, length=6000, seed=2).insts
            for name in ("130.li", "mini.qsort")}


@pytest.mark.parametrize("notation", [name for name, _ in GOLDEN_CONFIGS])
@pytest.mark.parametrize("portable", [False, True],
                         ids=["specialized", "portable"])
def test_golden_machines_read_columns_only(notation, portable, streams,
                                           monkeypatch):
    if portable:
        monkeypatch.setenv("REPRO_PORTABLE_KERNEL", "1")
    else:
        monkeypatch.delenv("REPRO_PORTABLE_KERNEL", raising=False)
    for name, stream in streams.items():
        expected = ReferenceProcessor(golden_config(notation)).run(
            stream, name)
        actual = Processor(golden_config(notation)).run(
            _columns_only(stream), name)
        assert diff_results(name, notation, expected, actual) == []


def _realism(field: str) -> object:
    config = golden_config("2+2:opt")
    if field == "gshare":
        config.frontend.policy = "gshare"
    else:
        config.mem.l1_port_policy = "finite"
        config.mem.lvc_port_policy = "finite"
    return config


@pytest.mark.parametrize("field", ["gshare", "finite"])
def test_realism_policies_read_columns_only(field, streams, monkeypatch):
    """The reference models neither policy: the specialized and the
    portable kernel, both on the columns-only stream, must agree."""
    for name, stream in streams.items():
        monkeypatch.delenv("REPRO_PORTABLE_KERNEL", raising=False)
        specialized = Processor(_realism(field)).run(
            _columns_only(stream), name)
        monkeypatch.setenv("REPRO_PORTABLE_KERNEL", "1")
        portable = Processor(_realism(field)).run(
            _columns_only(stream), name)
        assert diff_results(name, field, portable, specialized) == []
        if field == "gshare":
            assert specialized.counters.get("frontend.mispredicts") > 0


def test_record_view_really_raises(streams):
    stream = _columns_only(streams["130.li"])
    with pytest.raises(AssertionError):
        stream[0]
    with pytest.raises(AssertionError):
        next(iter(stream))
