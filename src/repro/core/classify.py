"""Memory-stream partitioning (paper Section 2.2.3).

Most references carry a compile-time classification bit (``local_hint`` on
the dynamic instruction).  The small ambiguous remainder — e.g. loads
through pointers that may target a caller's frame — is classified at
dispatch by a 1-bit **access-region predictor**: one bit per static
instruction remembering the region its previous dynamic instance touched.
The paper reports this hybrid classifies ~99.9% of references correctly.

A misprediction means the op was steered into the wrong queue; the recovery
(kill and re-insert, like a branch-misprediction repair) is modelled as a
fixed penalty added before the access may touch its (correct) cache.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple


class RegionPredictor:
    """1-bit last-region predictor indexed by static instruction address."""

    __slots__ = ("_table", "predictions", "mispredictions")

    def __init__(self) -> None:
        self._table: Dict[int, bool] = {}
        self.predictions = 0
        self.mispredictions = 0

    def predict(self, pc: int) -> bool:
        """Predicted region for the instruction at *pc* (True = local)."""
        return self._table.get(pc, False)

    def update(self, pc: int, actual_local: bool) -> None:
        """Train the table with the resolved region."""
        self._table[pc] = actual_local

    @property
    def accuracy(self) -> float:
        """Fraction of predictions that were correct."""
        if not self.predictions:
            return 1.0
        return 1.0 - self.mispredictions / self.predictions


class StreamPartitioner:
    """Steers each memory reference to the LSQ or the LVAQ at dispatch."""

    def __init__(self, decoupled: bool, use_predictor: bool = True):
        self.decoupled = decoupled
        self.use_predictor = use_predictor
        self.predictor = RegionPredictor()

    def steer(self, inst) -> Tuple[bool, bool]:
        """Classify one reference given as an instruction record.

        Returns ``(to_lvaq, mispredicted)``.  With decoupling disabled,
        everything goes to the LSQ; a hinted reference goes where its
        hint says; an ambiguous one is left to :meth:`resolve`.
        """
        if not self.decoupled:
            return False, False
        hint = inst.local_hint
        if hint is not None:
            return hint, False
        return self.resolve(inst.pc, inst.is_local)

    def resolve(self, pc: int, is_local: bool) -> Tuple[bool, bool]:
        """Classify one ambiguous reference (no compile-time hint).

        Returns ``(to_lvaq, mispredicted)``.  The hardware never sees
        ``is_local`` directly: the predictor guesses, then is trained
        with the resolved region — a misprediction reports True so the
        pipeline can charge the recovery penalty.
        """
        if not self.use_predictor:
            # No predictor: ambiguous references conservatively use the LSQ.
            return False, False
        predictor = self.predictor
        predictor.predictions += 1
        predicted = predictor.predict(pc)
        predictor.update(pc, is_local)
        if predicted != is_local:
            predictor.mispredictions += 1
            return is_local, True
        return predicted, False

    def resolver(self, stream) -> Callable[[int], Tuple[bool, bool]]:
        """:meth:`resolve` for the ambiguous reference at index ``i`` of
        *stream*, reading its ``pc`` and ``is_local`` columns (the
        kernel's dispatch stage steers through this)."""
        pcs = stream.pc
        is_local = stream.is_local
        resolve = self.resolve
        return lambda i: resolve(pcs[i], is_local[i])
