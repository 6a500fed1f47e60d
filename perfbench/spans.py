"""Spans around calls into the ``repro`` layers, for the traced run.

The benchmark attributes time to layers without editing the program: it
replaces a layer's public function (or method) with a wrapper that
records one span per call — layer name, start, end, parent span and op
id — and can count something about the call's arguments or result at
the same boundary.  Spans stay in memory and are written as JSONL once
the run ends.

A layer's self time is the duration of its spans minus the time their
child spans cover.  Calls are nested on one thread, so a child lies
entirely inside its parent and that difference is exact.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: A finished span: (layer, start ns, end ns, parent index, op id).
Span = Tuple[str, int, int, int, int]


class Tracer:
    """Installs layer wrappers and keeps their spans and counts."""

    def __init__(self, record: bool):
        #: False: wrappers only run their ``observe`` hooks (the result
        #: captures the correctness checks need) and record no spans.
        self.record = record
        self.active = True
        #: Stamped on each span: timed ops count from 0, set-up
        #: repetition r is ``-1 - r``.
        self.op_id = -1
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, layer: str,
             observe: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *observe* is called as ``observe(args, result)`` after the span
        closes, so its cost lands in the caller's self time, not the
        layer's.
        """
        original = getattr(owner, attr)
        tracer = self
        record = self.record

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            if not record:
                result = original(*args, **kwargs)
            else:
                spans = tracer.spans
                stack = tracer._stack
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = perf_counter_ns()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = perf_counter_ns()
                    stack.pop()
                    spans[index] = (layer, start, end, parent,
                                    tracer.op_id)
            if observe is not None:
                observe(args, result)
            return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    @contextmanager
    def span(self, layer: str):
        """A span around benchmark code (the per-op harness span)."""
        if not (self.record and self.active):
            yield
            return
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (layer, start, end, parent, self.op_id)

    @contextmanager
    def paused(self):
        """Run benchmark-side checks without spans, counts or captures."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self, ops: Callable[[int], bool]) -> Dict[str, int]:
        """Self time in ns per layer over spans whose op id passes *ops*."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        totals: Dict[str, int] = {}
        for index, span in enumerate(spans):
            if span is None or not ops(span[4]):
                continue
            own = span[2] - span[1] - child_ns[index]
            totals[span[0]] = totals.get(span[0], 0) + own
        return totals

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                layer, start, end, parent, op = span
                handle.write(json.dumps(
                    {"id": index, "name": layer, "start_ns": start,
                     "end_ns": end, "parent": parent, "op": op}) + "\n")
