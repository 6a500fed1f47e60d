"""Issue stage: ready instructions grab issue slots and functional units.

The issuable set is two seq-ordered lanes merged oldest-first — a FIFO
of the entries ready at dispatch (dispatch runs in seq order) and a heap
of the positions writeback wakes out of order, read through the window
ring (``window[seq & wmask]``).  Memory ops perform address generation
here (stores may already have resolved theirs via the STA split);
stores then go to the dedicated store-done lane, everything else
schedules its completion on the calendar.  A load is also bucketed for
the memory stage's eligibility walk at the first cycle it can act: its
address-known cycle, later by the misprediction penalty if it has one.
An entry's functional unit and address come from the stream's
``fu_of``/``addr_of`` columns at its ``seq``.

A lane may still list an instruction that no longer waits (a
fast-forwarded load): it leaves, lazily, when it reaches the front,
without using an issue slot.  Its window slot is not taken again while
it is listed: only dispatch reuses a slot, after this tick, in a cycle
in which the slot's instruction has committed, and a committed
instruction is older than every uncommitted one, so this tick, which
runs because the lane is non-empty, takes it before any live entry.
(A listed instruction in fact never commits: a tick that leaves one
listed spent the width on older ops, which commit two cycles later at
the earliest.)

The pipelined ALU pools refill at the top of the tick rather than once
per cycle: nothing but this stage consumes them, so a skipped tick's
stale budget is unobservable.  ``finish(final_now)`` reconstructs the
exact end-of-run pool state from the last tick cycle.

An op its MULT/DIV pool refuses waits outside the lanes, in that pool's
sorted list of positions, until a unit frees.  Each tick moves the k
oldest waiters back into the heap lane, k being the pool's units free
now, and charges every other waiter its ``stall.fu`` without examining
it: the k moved ones are older and draw on the same pool, so by a held
op's turn each has taken a unit or found none, and no unit frees within
a cycle.
A held op is charged only if the width budget lasts to its turn, as it
would be examined only then.

Interface: ``bind(state) -> (tick, finish)``.

``tick(now)``
    may be called every cycle; the kernel skips it when both lanes and
    both wait lists are empty (provably a no-op).
``finish(final_now)``
    writes the ALU budgets back to the pool and returns this stage's
    counter contributions.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heappop, heappush

from repro.core.stages.state import MASK, CoreState
from repro.isa.opcodes import LATENCY_BY_INT
from repro.pipeline.fu import FU_KIND


def bind(state: CoreState):
    """Close over the issue working set; returns ``(tick, finish)``."""
    width = state.width
    window = state.window
    wmask = state.wmask
    fu_of = state.fu_of
    addr_of = state.addr_of
    fu_kind = FU_KIND
    latency = LATENCY_BY_INT
    ring = state.ring
    ready_fifo = state.ready_fifo
    fifo_popleft = ready_fifo.popleft
    woken = state.woken
    store_done_append = state.store_done.append
    lsq = state.lsq
    lvaq = state.lvaq
    lsq_words = lsq._stores_by_word
    lvaq_words = lvaq._stores_by_word
    agen_ready_lsq = lsq._addr_ready
    agen_ready_lvaq = lvaq._addr_ready
    # The positions of the ops each MULT/DIV pool refused, in order,
    # and the pool's per-unit busy-until times.
    imult_wait = state.imult_wait
    fmult_wait = state.fmult_wait

    fus = state.fus
    imult_free = fus._imult.free_at
    fmult_free = fus._fmult.free_at
    fus_try_take = fus.try_take
    n_ialu = fus.ialu
    n_falu = fus.falu
    # (ialu_left, falu_left) after the most recent tick, and that tick's
    # cycle; lets finish() reconstruct the end-of-run pool state.
    left_after = (fus._ialu_left, fus._falu_left)
    last_tick = -1

    n_stall_fu = 0

    # The trailing defaults re-bind the run-constant working set as
    # frame locals: default values are copied into the frame in C at
    # call time, so every use inside the hot loops is a plain local
    # (LOAD_FAST) access instead of a closure (LOAD_DEREF) one.  The
    # kernel never passes them.
    def tick(now, width=width, window=window, wmask=wmask, fu_of=fu_of,
             addr_of=addr_of, fu_kind=fu_kind, latency=latency,
             ring=ring, ready_fifo=ready_fifo, fifo_popleft=fifo_popleft,
             woken=woken, store_done_append=store_done_append,
             lsq_words=lsq_words, lvaq_words=lvaq_words,
             agen_ready_lsq=agen_ready_lsq,
             agen_ready_lvaq=agen_ready_lvaq,
             imult_wait=imult_wait, fmult_wait=fmult_wait,
             imult_free=imult_free, fmult_free=fmult_free,
             fus_try_take=fus_try_take, n_ialu=n_ialu, n_falu=n_falu):
        nonlocal left_after, last_tick, n_stall_fu
        # Refill the pipelined ALU budgets (tick-local; saved at the
        # bottom so finish() can reconstruct the end-of-run pool state).
        ialu_left = n_ialu
        falu_left = n_falu
        last_tick = now
        # MULT/DIV waiters: one per unit free now re-enters the heap
        # lane, oldest first; the rest are held and charged here (the
        # module docstring says why they would be refused).
        if imult_wait:
            k = 0
            for t in imult_free:
                if t <= now:
                    k += 1
            if k:
                for seq in imult_wait[:k]:
                    heappush(woken, seq)
                del imult_wait[:k]
            n_stall_fu += len(imult_wait)
        if fmult_wait:
            k = 0
            for t in fmult_free:
                if t <= now:
                    k += 1
            if k:
                for seq in fmult_wait[:k]:
                    heappush(woken, seq)
                del fmult_wait[:k]
            n_stall_fu += len(fmult_wait)
        budget = width
        deferred = None
        if not woken and ready_fifo:
            # Common case: the heap lane is empty, so the FIFO lane
            # alone is the exact oldest-first order — drain it without
            # the per-entry lane merge.  Deferred entries go to the
            # heap lane *after* the loop, so the lane stays empty
            # throughout.
            while budget and ready_fifo:
                entry = ready_fifo[0]
                if entry.state != 0:
                    fifo_popleft()
                    continue
                seq = entry.seq
                fu = fu_of[seq]
                kind = fu_kind[fu]
                if kind == 0:
                    if ialu_left:
                        ialu_left -= 1
                        ok = True
                    else:
                        ok = False
                elif kind == 1:
                    if falu_left:
                        falu_left -= 1
                        ok = True
                    else:
                        ok = False
                else:
                    ok = fus_try_take(fu, now)
                if not ok:
                    fifo_popleft()
                    n_stall_fu += 1
                    if deferred is None:
                        deferred = [seq]
                    else:
                        deferred.append(seq)
                    continue
                fifo_popleft()
                budget -= 1
                entry.state = 1
                qe = entry.mem
                if qe is not None:
                    if qe.addr_known_time < 0:
                        qe.addr_known_time = now + 1
                        word = qe.word = addr_of[seq] >> 2
                        qe.line = word >> 3  # addr >> 5
                        if qe.is_store:
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
                        else:
                            # Register the load for the memory stage's
                            # event-driven walk at the first cycle it
                            # can act (see the note below).
                            when = now + 1 + qe.penalty
                            if qe.use_lvc:
                                b2 = agen_ready_lvaq.get(when)
                                if b2 is None:
                                    agen_ready_lvaq[when] = [qe]
                                else:
                                    b2.append(qe)
                            else:
                                b2 = agen_ready_lsq.get(when)
                                if b2 is None:
                                    agen_ready_lsq[when] = [qe]
                                else:
                                    b2.append(qe)
                    if qe.is_store:
                        store_done_append(entry)
                else:
                    when = now + latency[fu]
                    slot2 = when & MASK
                    bucket = ring[slot2]
                    if bucket is None:
                        ring[slot2] = [entry]
                    else:
                        bucket.append(entry)
        elif ready_fifo or woken:
            while budget:
                # Merge the two seq-ordered lanes: oldest first.
                if ready_fifo:
                    entry = ready_fifo[0]
                    seq = entry.seq
                    if woken and woken[0] < seq:
                        seq = woken[0]
                        entry = window[seq & wmask]
                        from_fifo = False
                    else:
                        from_fifo = True
                elif woken:
                    seq = woken[0]
                    entry = window[seq & wmask]
                    from_fifo = False
                else:
                    break
                if entry.state != 0:
                    # Already handled (e.g. fast-forwarded load): drop
                    # lazily.
                    if from_fifo:
                        fifo_popleft()
                    else:
                        heappop(woken)
                    continue
                fu = fu_of[seq]
                kind = fu_kind[fu]
                if kind == 0:
                    if ialu_left:
                        ialu_left -= 1
                        ok = True
                    else:
                        ok = False
                elif kind == 1:
                    if falu_left:
                        falu_left -= 1
                        ok = True
                    else:
                        ok = False
                else:
                    ok = fus_try_take(fu, now)
                if not ok:
                    if from_fifo:
                        fifo_popleft()
                    else:
                        heappop(woken)
                    n_stall_fu += 1
                    if deferred is None:
                        deferred = [seq]
                    else:
                        deferred.append(seq)
                    continue
                if from_fifo:
                    fifo_popleft()
                else:
                    heappop(woken)
                budget -= 1
                entry.state = 1
                qe = entry.mem
                if qe is not None:
                    # Address generation: address known next cycle
                    # (stores may already have resolved theirs).
                    if qe.addr_known_time < 0:
                        qe.addr_known_time = now + 1
                        word = qe.word = addr_of[seq] >> 2
                        qe.line = word >> 3  # addr >> 5
                        if qe.is_store:
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
                        else:
                            # Register the load for the memory stage's
                            # event-driven walk at the first cycle it
                            # can act: its address-known cycle, or, in
                            # misprediction recovery, the cycle its
                            # penalty ends.  Until then the walk would
                            # skip it without effect, and combining
                            # never absorbs a penalized load, so the
                            # walk need not test the penalty.  Such a
                            # load enters its bucket cycles before the
                            # loads issued now, which may be older: the
                            # walk puts that bucket in age order.
                            when = now + 1 + qe.penalty
                            if qe.use_lvc:
                                b2 = agen_ready_lvaq.get(when)
                                if b2 is None:
                                    agen_ready_lvaq[when] = [qe]
                                else:
                                    b2.append(qe)
                            else:
                                b2 = agen_ready_lsq.get(when)
                                if b2 is None:
                                    agen_ready_lsq[when] = [qe]
                                else:
                                    b2.append(qe)
                    if qe.is_store:
                        # Address and data both captured: ready to
                        # commit next cycle.
                        store_done_append(entry)
                else:
                    when = now + latency[fu]
                    slot2 = when & MASK
                    bucket = ring[slot2]
                    if bucket is None:
                        ring[slot2] = [entry]
                    else:
                        bucket.append(entry)
        if not budget and (imult_wait or fmult_wait):
            # The width ran out at `seq`, the op that took the last
            # slot: the held waiters younger than it were never reached,
            # so take back their charge.
            n_stall_fu -= (len(imult_wait) - bisect_left(imult_wait, seq)
                           + len(fmult_wait) - bisect_left(fmult_wait, seq))
        if deferred:
            for seq in deferred:
                kind = fu_kind[fu_of[seq]]
                if kind < 2:
                    # The ALU budgets refill next cycle: back through
                    # the heap lane, whatever the origin; the merge
                    # restores order.
                    heappush(woken, seq)
                    continue
                # No MULT/DIV unit frees before next cycle: wait
                # outside the lanes.
                wait = imult_wait if kind == 2 else fmult_wait
                if wait and wait[-1] > seq:
                    insort(wait, seq)
                else:
                    wait.append(seq)
        left_after = (ialu_left, falu_left)

    def finish(final_now):
        # A per-cycle refill would leave full budgets if the final
        # cycle's tick was skipped; replay that exactly.
        if last_tick == final_now:
            fus._ialu_left, fus._falu_left = left_after
        else:
            fus._ialu_left = n_ialu
            fus._falu_left = n_falu
        return {"stall.fu": n_stall_fu}

    return tick, finish
