"""Dispatch stage: decode the committed stream into the window.

Dispatches up to ``issue_width`` instructions per cycle from the dynamic
stream into the ROB, steering each memory reference to the LSQ or LVAQ
(local-hint shortcut, then the stream partitioner), running the
source-operand scoreboard check, and resolving store addresses early
when the base register is already available (STA/STD split).  It reads
the stream's columns at the dispatch index (``fu_of[index]``, ...),
takes the window slot ``index & wmask`` for the instruction and stores
the index in the entry's ``seq``: later stages read the columns through
it.  The group is bounded once per cycle by the width, the frontend
fence and the ROB room (``rob_size - (index - committed_total)``); only
a full LSQ or LVAQ ends it early.

The register map holds the position of each register's last writer
(-1 for none).  A source is pending iff its writer has not committed
(``p >= committed_total``) and has not completed; the position test
comes first, because a committed writer's slot may already hold a
younger instruction.

The frontend policy gates this stage.  The ``perfect`` policy imposes
nothing — the inner tick runs with the fence at end-of-stream, exactly
the seed machine.  The ``gshare`` policy pre-computes, from the
committed stream, the cycle-independent fetch events (predictor
mispredicts and I-cache misses; see ``repro.core.frontend``) as a sparse
ascending list of ``(index, gate_code)`` pairs, and the tick charges the
bubbles: an I-cache miss stalls dispatch *before* the missing
instruction for ``icache_miss_latency`` cycles; a mispredicted branch
redirects the fetch stream *after* dispatching the branch, stalling for
``1 + redirect_penalty`` cycles.  Each stalled cycle the tick charges
one fetch/redirect bubble and leaves the machine state untouched.

Interface: ``bind(state) -> (tick, finish)``.

``tick(now, index, committed_total, lsq_unserviced, lvaq_unserviced)``
    dispatches one cycle's group; the kernel skips the call once the
    stream is exhausted (``index >= total``).  Returns ``index`` and
    the unserviced-load counts updated.
``finish()``
    returns this stage's counter contributions.
"""

from __future__ import annotations

from repro.core.frontend import GATE_IMISS, GATE_REDIRECT
from repro.core.stages.state import CoreState
from repro.isa.opcodes import FuClass
from repro.pipeline.memqueue import MemQueueEntry

_LOAD = int(FuClass.LOAD)
_STORE = int(FuClass.STORE)


def bind(state: CoreState):
    """Close over the dispatch working set; returns ``(tick, finish)``."""
    processor = state.processor
    window = state.window
    wmask = state.wmask
    fu_of = state.fu_of
    dst_of = state.dst_of
    srcs_of = state.srcs_of
    addr_of = state.addr_of
    hint_of = state.hint_of
    spb_of = state.spb_of
    frame_of = state.frame_of
    offset_of = state.offset_of
    total = state.total
    width = state.width
    rob_size = state.rob_size
    decoupled = state.decoupled
    mispredict_penalty = state.mispredict_penalty
    load_fu = _LOAD
    store_fu = _STORE
    new_mem_entry = MemQueueEntry
    mem_entry_new = MemQueueEntry.__new__
    steer = state.steer
    producer = state.producer
    fifo_append = state.ready_fifo.append

    lsq = state.lsq
    lvaq = state.lvaq
    lsq_entries = lsq.entries
    lvaq_entries = lvaq.entries
    lsq_size = lsq.size
    lvaq_size = lvaq.size
    fast_fwd = state.fast_fwd
    lvaq_sp_loads = lvaq._sp_loads
    lsq_unknown = lsq._unknown_stores
    lvaq_unknown = lvaq._unknown_stores
    lsq_un_nonsp = lsq._unknown_nonsp_stores
    lvaq_un_nonsp = lvaq._unknown_nonsp_stores
    lsq_ns = lsq._nonsp_stores
    lvaq_ns = lvaq._nonsp_stores
    lsq_words = lsq._stores_by_word
    lvaq_words = lvaq._stores_by_word
    lsq_sp_set = lsq._sp_stores.setdefault
    lvaq_sp_set = lvaq._sp_stores.setdefault

    n_stall_rob_full = 0
    n_stall_lsq_full = 0
    n_stall_lvaq_full = 0
    n_lsq_loads = 0
    n_lsq_stores = 0
    n_lvaq_loads = 0
    n_lvaq_stores = 0
    n_classify_mispredictions = 0

    # Frontend gating state.  The ``perfect`` policy prepares no gate
    # list (``gates is None``) and dispatch runs with the fence at
    # end-of-stream — exactly the seed machine, for one predictable
    # branch per tick.  See the module docstring for the gshare model.
    frontend = processor.frontend
    gates = frontend.prepare(state.stream)
    fcfg = state.frontend_config
    icache_miss_latency = fcfg.icache_miss_latency
    redirect_penalty = fcfg.redirect_penalty
    n_gates = len(gates) if gates is not None else 0
    fe_ptr = 0
    fe_stall_until = 0
    fe_redirect = False
    n_fetch_bubbles = 0
    n_redirect_bubbles = 0

    # The trailing defaults re-bind the run-constant working set as
    # frame locals: default values are copied into the frame in C at
    # call time, so every use inside the hot loop is a plain local
    # (LOAD_FAST) access instead of a closure (LOAD_DEREF) one.  The
    # kernel never passes them.
    def tick(now, index, committed_total, lsq_unserviced, lvaq_unserviced,
             window=window, wmask=wmask, fu_of=fu_of, dst_of=dst_of,
             srcs_of=srcs_of, addr_of=addr_of, hint_of=hint_of,
             spb_of=spb_of, frame_of=frame_of, offset_of=offset_of,
             total=total, width=width, rob_size=rob_size,
             decoupled=decoupled, mispredict_penalty=mispredict_penalty,
             load_fu=load_fu, store_fu=store_fu, new_mem_entry=new_mem_entry,
             mem_entry_new=mem_entry_new, steer=steer, producer=producer,
             fifo_append=fifo_append, lsq=lsq, lvaq=lvaq,
             lsq_entries=lsq_entries, lvaq_entries=lvaq_entries,
             lsq_size=lsq_size, lvaq_size=lvaq_size,
             fast_fwd=fast_fwd, lvaq_sp_loads=lvaq_sp_loads,
             lsq_unknown=lsq_unknown, lvaq_unknown=lvaq_unknown,
             lsq_un_nonsp=lsq_un_nonsp, lvaq_un_nonsp=lvaq_un_nonsp,
             lsq_ns=lsq_ns, lvaq_ns=lvaq_ns,
             lsq_words=lsq_words, lvaq_words=lvaq_words,
             lsq_sp_set=lsq_sp_set, lvaq_sp_set=lvaq_sp_set,
             gates=gates, n_gates=n_gates,
             icache_miss_latency=icache_miss_latency,
             redirect_penalty=redirect_penalty):
        nonlocal n_stall_rob_full, n_stall_lsq_full
        nonlocal n_stall_lvaq_full, n_lsq_loads, n_lsq_stores
        nonlocal n_lvaq_loads, n_lvaq_stores, n_classify_mispredictions
        nonlocal fe_ptr, fe_stall_until, fe_redirect
        nonlocal n_fetch_bubbles, n_redirect_bubbles
        # ---- frontend gating ----------------------------------------
        fence = total
        fe_blocked = False
        if gates is not None:
            if now < fe_stall_until:
                # Fetch is quiet: charge one bubble cycle, touch
                # nothing.
                if fe_redirect:
                    n_redirect_bubbles += 1
                else:
                    n_fetch_bubbles += 1
                fe_blocked = True
            elif fe_ptr < n_gates:
                g, code = gates[fe_ptr]
                if code & GATE_IMISS and index == g:
                    # The next instruction missed in the I-cache: the
                    # fetch group behind it stalls until the line
                    # arrives.
                    n_fetch_bubbles += 1
                    fe_stall_until = now + icache_miss_latency
                    fe_redirect = False
                    if code == GATE_IMISS:
                        fe_ptr += 1
                    else:
                        # Keep the redirect half of the gate for the
                        # post-dispatch check.
                        gates[fe_ptr] = (g, GATE_REDIRECT)
                    fe_blocked = True
                else:
                    # Dispatch must stop before an unserved I-cache
                    # miss, and just after a mispredicted branch.
                    fence = g if code & GATE_IMISS else g + 1
        if not fe_blocked:
            # ---- dispatch -----------------------------------------------
            # Queue compaction bases are canonical on the queue objects
            # (commit is their sole writer, earlier in the cycle).
            lsq_base = lsq.base
            lvaq_base = lvaq.base
            # The group: up to the width, stopping at the fence and at
            # the first position the ROB has no room for.  Only a full
            # LSQ or LVAQ ends it early (the `break`s below).
            stop = index + width
            if stop > fence:
                stop = fence
            room_end = committed_total + rob_size
            for index in range(index,
                               stop if stop < room_end else room_end):
                fu = fu_of[index]
                is_mem = fu == load_fu or fu == store_fu
                to_lvaq = False
                mispredicted = False
                if is_mem:
                    if decoupled:
                        hint = hint_of[index]
                        if hint is not None:
                            to_lvaq = hint
                        else:
                            to_lvaq, mispredicted = steer(index)
                    if to_lvaq:
                        if len(lvaq_entries) >= lvaq_size:
                            n_stall_lvaq_full += 1
                            break
                    elif len(lsq_entries) >= lsq_size:
                        n_stall_lsq_full += 1
                        break
                # The slot's last occupant, index - len(window), has
                # committed (the ROB room bounds the group), and the
                # issue tick of its commit cycle dropped it from the
                # issue lanes; writeback emptied its consumer list.
                entry = window[index & wmask]
                entry.seq = index
                entry.state = 0
                # Source-operand scoreboard check, unrolled for the
                # 0/1/2-operand cases (every ISA instruction; the loop tail
                # keeps arbitrary tuples exact).  reg <= 0 is $zero /
                # absent: always ready.  A writer is pending iff it has
                # not committed and not completed; test the position
                # first, since a committed writer's slot may hold a
                # younger instruction.
                pending = 0
                srcs = srcs_of[index]
                n_srcs = len(srcs)
                if n_srcs:
                    reg = srcs[0]
                    if reg > 0:
                        p = producer[reg]
                        if p >= committed_total:
                            prod = window[p & wmask]
                            if prod.state != 2:
                                prod.consumers.append(entry)
                                pending = 1
                    if n_srcs > 1:
                        reg = srcs[1]
                        if reg > 0:
                            p = producer[reg]
                            if p >= committed_total:
                                prod = window[p & wmask]
                                if prod.state != 2:
                                    prod.consumers.append(entry)
                                    pending += 1
                        if n_srcs > 2:
                            for reg in srcs[2:]:
                                if reg <= 0:
                                    continue
                                p = producer[reg]
                                if p >= committed_total:
                                    prod = window[p & wmask]
                                    if prod.state != 2:
                                        prod.consumers.append(entry)
                                        pending += 1
                entry.pending = pending
                dst = dst_of[index]
                if dst > 0:
                    producer[dst] = index
                if is_mem:
                    sp_based = spb_of[index]
                    is_store = fu == store_fu
                    # MemQueueEntry.__init__ spelled out (the constructor
                    # frame is measurable at this call rate).
                    qe = mem_entry_new(new_mem_entry)
                    qe.rob = entry
                    qe.is_store = is_store
                    qe.word = -1
                    qe.line = -1
                    qe.addr_known_time = -1
                    qe.serviced = False
                    qe.sp_based = sp_based
                    qe.frame_key = ((frame_of[index], offset_of[index])
                                    if sp_based else None)
                    qe.use_lvc = to_lvaq
                    qe.penalty = (mispredict_penalty
                                  if mispredicted else 0)
                    entry.mem = qe
                    # Append to the queue and its indexes (fullness was
                    # already checked by the stall tests above).
                    if to_lvaq:
                        qe.pos = lvaq_base + len(lvaq_entries)
                        lvaq_entries.append(qe)
                        if is_store:
                            lvaq_unknown.append(qe)
                            if sp_based:
                                lvaq_sp_set(qe.frame_key,
                                            []).append(qe)
                            else:
                                lvaq_un_nonsp.append(qe)
                                lvaq_ns.append(qe)
                        else:
                            if fast_fwd and sp_based:
                                # A candidate for fast forwarding until
                                # it issues (the memory stage's walk).
                                lvaq_sp_loads.append(qe)
                            lvaq_unserviced += 1
                    else:
                        qe.pos = lsq_base + len(lsq_entries)
                        lsq_entries.append(qe)
                        if is_store:
                            lsq_unknown.append(qe)
                            if sp_based:
                                lsq_sp_set(qe.frame_key,
                                           []).append(qe)
                            else:
                                lsq_un_nonsp.append(qe)
                                lsq_ns.append(qe)
                        else:
                            lsq_unserviced += 1
                    if is_store:
                        # STA/STD split (as in sim-outorder and the R10000
                        # address queue): the store's address computes as
                        # soon as its base register is available — it never
                        # waits for the store *data*, so it stops blocking
                        # younger loads' disambiguation almost immediately.
                        base_reg = srcs[0] if srcs else 0
                        p = producer[base_reg] if base_reg > 0 else -1
                        if (p < committed_total
                                or window[p & wmask].state == 2):
                            qe.addr_known_time = now + 1
                            word = qe.word = addr_of[index] >> 2
                            qe.line = word >> 3  # addr >> 5
                            if to_lvaq:
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
                        if to_lvaq:
                            n_lvaq_stores += 1
                        else:
                            n_lsq_stores += 1
                    elif to_lvaq:
                        n_lvaq_loads += 1
                    else:
                        n_lsq_loads += 1
                    if mispredicted:
                        n_classify_mispredictions += 1
                else:
                    entry.mem = None
                if pending == 0:
                    fifo_append(entry)
            else:
                # No queue filled.  When the ROB room, not the width or
                # the fence, bounded the group, its next slot met a full
                # ROB.
                if stop > room_end:
                    n_stall_rob_full += 1
                    index = room_end
                else:
                    index = stop
            if gates is not None and fe_ptr < n_gates:
                g, code = gates[fe_ptr]
                if index > g and code & GATE_REDIRECT:
                    # The branch at g dispatched this cycle and was
                    # mispredicted: the machine fetches the wrong
                    # path until the branch resolves and redirects.
                    fe_ptr += 1
                    fe_stall_until = now + 1 + redirect_penalty
                    fe_redirect = True
        return index, lsq_unserviced, lvaq_unserviced

    def finish():
        counters = {
            "stall.rob_full": n_stall_rob_full,
            "stall.lsq_full": n_stall_lsq_full,
            "stall.lvaq_full": n_stall_lvaq_full,
            "lsq.loads": n_lsq_loads,
            "lsq.stores": n_lsq_stores,
            "lvaq.loads": n_lvaq_loads,
            "lvaq.stores": n_lvaq_stores,
            "classify.mispredictions": n_classify_mispredictions,
        }
        if gates is not None:
            counters["frontend.mispredicts"] = frontend.mispredicts
            counters["frontend.icache_misses"] = frontend.icache_misses
            counters["frontend.redirect_bubbles"] = n_redirect_bubbles
            counters["frontend.fetch_bubbles"] = n_fetch_bubbles
        return counters

    return tick, finish
