"""Dynamic-trace analyses.

These reproduce the *measurements* the paper's motivation rests on:

* **reuse distance** — how soon a stored word is reloaded, which bounds
  how often an LVAQ can forward (Section 4.2.3's 50-90% figure);
* **working set** — distinct words touched, split local/non-local
  (why a 2 KB LVC suffices, Figure 3 / Section 2.2.1);
* **burstiness** — the distribution of consecutive same-kind memory runs
  (why access combining works, Section 2.2.2);
* **classification** — how the compile-time bits and the dynamic truth
  line up (the Section 2.2.3 hybrid-classification argument).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.isa.opcodes import FuClass
from repro.stats.histogram import Histogram
from repro.vm.trace import Stream

_LOAD = int(FuClass.LOAD)
_STORE = int(FuClass.STORE)


def reuse_distance_profile(stream: Stream,
                           local_only: bool = True) -> Histogram:
    """Instruction distance from each load back to the last store of the
    same word.

    Only loads that have seen a prior store are recorded.  Short distances
    are forwardable from the LVAQ; long ones must hit the cache.
    """
    last_store_at: Dict[int, int] = {}
    profile = Histogram()
    for index, (fu, addr, is_local) in enumerate(
            zip(stream.fu, stream.addr, stream.is_local)):
        if fu != _LOAD and fu != _STORE:
            continue
        if local_only and not is_local:
            continue
        word = addr >> 2
        if fu == _STORE:
            last_store_at[word] = index
        else:
            stored = last_store_at.get(word)
            if stored is not None:
                profile.add(index - stored)
    return profile


def working_set_words(stream: Stream) -> Tuple[int, int]:
    """(local, non-local) distinct words touched by the trace."""
    local = set()
    other = set()
    for fu, addr, is_local in zip(stream.fu, stream.addr, stream.is_local):
        if fu != _LOAD and fu != _STORE:
            continue
        word = addr >> 2
        if is_local:
            local.add(word)
        else:
            other.add(word)
    return len(local), len(other)


def burstiness_profile(stream: Stream) -> Histogram:
    """Lengths of consecutive runs of local memory references.

    A run is a maximal sequence of local loads/stores not interrupted by
    a non-local memory reference (compute instructions do not break a
    run: they don't compete for cache ports).  Long runs are what access
    combining and multi-ported LVCs exist for.
    """
    profile = Histogram()
    run = 0
    for fu, is_local in zip(stream.fu, stream.is_local):
        if fu != _LOAD and fu != _STORE:
            continue
        if is_local:
            run += 1
        else:
            if run:
                profile.add(run)
            run = 0
    if run:
        profile.add(run)
    return profile


class ClassificationReport:
    """How compile-time hints relate to the dynamic ground truth."""

    def __init__(self) -> None:
        self.hinted_local = 0
        self.hinted_nonlocal = 0
        self.ambiguous = 0
        self.hint_wrong = 0
        self.ambiguous_actually_local = 0

    @property
    def total(self) -> int:
        """All classified memory references."""
        return self.hinted_local + self.hinted_nonlocal + self.ambiguous

    @property
    def ambiguous_fraction(self) -> float:
        """Share of references the compiler could not classify."""
        return self.ambiguous / self.total if self.total else 0.0

    @property
    def hint_accuracy(self) -> float:
        """Correctness of the non-ambiguous compile-time bits."""
        hinted = self.hinted_local + self.hinted_nonlocal
        if not hinted:
            return 1.0
        return 1.0 - self.hint_wrong / hinted

    def __repr__(self) -> str:
        return (
            f"ClassificationReport(total={self.total}, "
            f"ambiguous={self.ambiguous_fraction:.3%}, "
            f"hint_accuracy={self.hint_accuracy:.3%})"
        )


def classification_report(stream: Stream) -> ClassificationReport:
    """Audit the compile-time classification against dynamic addresses."""
    report = ClassificationReport()
    for fu, hint, is_local in zip(stream.fu, stream.hint, stream.is_local):
        if fu != _LOAD and fu != _STORE:
            continue
        if hint is None:
            report.ambiguous += 1
            if is_local:
                report.ambiguous_actually_local += 1
        elif hint:
            report.hinted_local += 1
            if not is_local:
                report.hint_wrong += 1
        else:
            report.hinted_nonlocal += 1
            if is_local:
                report.hint_wrong += 1
    return report
