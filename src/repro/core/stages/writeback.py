"""Writeback stage: completions scheduled for this cycle wake dependents.

Drains this cycle's bucket of the 256-slot completion calendar (plus any
overflowed far events and the dedicated issued-store lane), marks the
completing entries COMPLETED, and decrements each consumer's pending
count — waking consumers whose operands just became complete into the
issue stage's heap lane, as positions.  The STA split lives here too: a
store whose *base register* just arrived resolves its address
immediately, off the issue path.  Destinations, sources and addresses
come from the stream's ``dst_of``/``srcs_of``/``addr_of`` columns at
each entry's ``seq``.

Every completion of an entry with consumers passes through here and
empties its consumer list, and dispatch never adds a consumer to a
completed entry: a committed entry's list is empty, so its window slot
needs no clearing.  The consumers listed wait on the entry, so none has
committed and each names its own instruction.

Interface: ``bind(state) -> (tick, finish)``.

``tick(now)``
    may be called every cycle; the kernel skips it when the store lane,
    the ring slot and the overflow dict are all empty (provably a no-op).
``finish()``
    returns no counters (the stage keeps none) — present for interface
    symmetry.
"""

from __future__ import annotations

from heapq import heappush

from repro.core.stages.state import MASK, CoreState


def bind(state: CoreState):
    """Close over the writeback working set; returns ``(tick, finish)``."""
    dst_of = state.dst_of
    srcs_of = state.srcs_of
    addr_of = state.addr_of
    ring = state.ring
    overflow = state.overflow
    store_done = state.store_done
    woken = state.woken
    lsq = state.lsq
    lvaq = state.lvaq
    lsq_words = lsq._stores_by_word
    lvaq_words = lvaq._stores_by_word

    # The trailing defaults re-bind the run-constant working set as
    # frame locals: default values are copied into the frame in C at
    # call time, so every use inside the hot loops is a plain local
    # (LOAD_FAST) access instead of a closure (LOAD_DEREF) one.  The
    # kernel never passes them.
    def tick(now, dst_of=dst_of, srcs_of=srcs_of, addr_of=addr_of,
             ring=ring, overflow=overflow, store_done=store_done,
             woken=woken, lsq_words=lsq_words, lvaq_words=lvaq_words):
        if store_done:
            # Stores issued last cycle: address and data captured, ready
            # to commit.  They never produce a register, so no consumer
            # wakeup — a dedicated lane skips the calendar ring entirely.
            for entry in store_done:
                entry.state = 2
            store_done.clear()
        slot = now & MASK
        completing = ring[slot]
        if overflow:
            extra = overflow.pop(now, None)
            if extra is not None:
                if completing is None:
                    ring[slot] = completing = extra
                else:
                    completing.extend(extra)
        if completing:
            for entry in completing:
                entry.state = 2
                consumers = entry.consumers
                if not consumers:
                    continue
                produced = dst_of[entry.seq]
                for consumer in consumers:
                    pending = consumer.pending - 1
                    consumer.pending = pending
                    qe = consumer.mem
                    if (qe is not None and qe.is_store
                            and qe.addr_known_time < 0):
                        srcs = srcs_of[consumer.seq]
                        if srcs and srcs[0] == produced:
                            # STA split: the store's address computes as
                            # soon as its base register arrives, off the
                            # issue path.
                            qe.addr_known_time = now + 1
                            word = qe.word = addr_of[consumer.seq] >> 2
                            qe.line = word >> 3  # addr >> 5
                            if qe.use_lvc:
                                b2 = lvaq_words.get(word)
                                if b2 is None:
                                    lvaq_words[word] = [qe]
                                else:
                                    b2.append(qe)
                            else:
                                b2 = lsq_words.get(word)
                                if b2 is None:
                                    lsq_words[word] = [qe]
                                else:
                                    b2.append(qe)
                    if pending == 0 and consumer.state == 0:
                        heappush(woken, consumer.seq)
                consumers.clear()
            # Leave the drained bucket in its slot for reuse; events
            # exactly one ring period out go to the overflow dict, so
            # the slot cannot alias this cycle.
            completing.clear()

    def finish():
        return {}

    return tick, finish
