"""Memory stage: disambiguated loads access their cache or forward.

Walks each queue's *eligible* loads: a load whose address is known,
which no older unknown-address store in its queue might alias, and
which wins a port either forwards from the youngest older same-word
store or accesses its cache, with the completion scheduled on the
calendar.  Eligibility is event-driven — issue's address generation
buckets each load by the first cycle it can act: the cycle its address
becomes known or, in misprediction recovery, the cycle its penalty ends
(``MemQueue._addr_ready``).  The walk drains the bucket for the current
cycle into an age-ordered eligible list, so loads still waiting on
operands, address generation or the penalty are never rescanned.  The
walk stops at the first load an older unknown-address store blocks
(every later one is blocked too), and once no port is left it charges
each remaining load before that point its port stall in one step: a
cycle costs what the loads that act cost, not the loads that wait.
The counts are exactly those of visiting every load.  The LVAQ side
adds the paper's fast data forwarding (sp-relative (frame, offset)
matching before address generation) and access combining (following
same-line loads absorbed into one port transaction); with fast
forwarding enabled the LVAQ keeps the full pending-load rescan, since
sp-based loads can be serviced before their address is generated.

Interface: ``bind(state) -> (tick, finish)``.

``tick(now, l1_avail, lvc_avail, lsq_unserviced, lvaq_unserviced)``
    services both queues; the kernel skips the call when neither queue
    has an unserviced load.  Returns the four scalars updated.
``finish()``
    writes the stage-owned queue cursors back to the queue objects and
    returns this stage's counter contributions.
"""

from __future__ import annotations

from operator import attrgetter

from repro.core.stages.state import MASK, RING, CoreState
from repro.pipeline.memqueue import INF_SEQ

#: Sort key of a queue entry: its queue position, which is its age.
BY_POS = attrgetter("pos")


def bind(state: CoreState):
    """Close over the memory working set; returns ``(tick, finish)``."""
    decoupled = state.decoupled
    fast_fwd = state.fast_fwd
    combining = state.combining
    combine_window = combining > 1
    inf_seq = INF_SEQ
    addr_of = state.addr_of
    ring = state.ring
    overflow = state.overflow

    lsq = state.lsq
    lvaq = state.lvaq
    lsq_entries = lsq.entries
    lvaq_entries = lvaq.entries
    lsq_loads_list = lsq._loads
    lvaq_loads_list = lvaq._loads
    lsq_unknown = lsq._unknown_stores
    lvaq_unknown = lvaq._unknown_stores
    lvaq_un_nonsp = lvaq._unknown_nonsp_stores
    lvaq_ns = lvaq._nonsp_stores
    lsq_words_get = lsq._stores_by_word.get
    lvaq_words_get = lvaq._stores_by_word.get
    lvaq_sp_get = lvaq._sp_stores.get
    # Event-driven eligibility: issue's address generation buckets each
    # load by the first cycle it can act; the walk drains the bucket for
    # ``now`` into an age-ordered eligible list and visits only those.
    # (With fast forwarding the LVAQ keeps the full rescan instead —
    # sp-based loads can be serviced before address generation.)
    lsq_addr_ready_pop = lsq._addr_ready.pop
    lvaq_addr_ready_pop = lvaq._addr_ready.pop
    lsq_eligible = []
    lvaq_eligible = []
    # Stage-owned incremental cursors (written back by ``finish``).
    lsq_us_head = lsq._us_head
    lvaq_us_head = lvaq._us_head
    lvaq_un_head = lvaq._un_head
    lsq_load_head = lsq._load_head
    lvaq_load_head = lvaq._load_head

    hierarchy = state.hierarchy
    ready_l1 = hierarchy.ready_l1
    ready_lvc = hierarchy.ready_lvc
    l1_simple = state.l1_simple
    lvc_simple = state.lvc_simple
    have_lvc = state.have_lvc
    l1_ports = state.l1_ports
    lvc_ports = state.lvc_ports
    l1_try_take = l1_ports.try_take
    lvc_try_take = lvc_ports.try_take if have_lvc else None
    l1_sets = state.l1_sets
    l1_shift = state.l1_shift
    l1_smask = state.l1_smask
    l1_pending = state.l1_pending
    l1_hitlat = state.l1_hitlat
    lvc_sets = state.lvc_sets
    lvc_shift = state.lvc_shift
    lvc_smask = state.lvc_smask
    lvc_pending = state.lvc_pending
    lvc_hitlat = state.lvc_hitlat

    n_stall_lsq_port = 0
    n_stall_lvaq_port = 0
    n_lsq_forwards = 0
    n_lvaq_forwards = 0
    n_lvaq_fast_forwards = 0
    n_lvaq_load_combined = 0
    n_l1_fast = 0
    n_lvc_fast = 0
    l1_busy = 0
    lvc_busy = 0

    # The trailing defaults re-bind the run-constant working set as
    # frame locals: default values are copied into the frame in C at
    # call time, so every use inside the hot loops is a plain local
    # (LOAD_FAST) access instead of a closure (LOAD_DEREF) one.  The
    # kernel never passes them.
    def tick(now, l1_avail, lvc_avail, lsq_unserviced, lvaq_unserviced,
             addr_of=addr_of, decoupled=decoupled, fast_fwd=fast_fwd,
             combining=combining, combine_window=combine_window,
             inf_seq=inf_seq, ring=ring, overflow=overflow,
             lsq=lsq, lvaq=lvaq, lvaq_entries=lvaq_entries,
             lsq_loads_list=lsq_loads_list,
             lvaq_loads_list=lvaq_loads_list,
             lsq_unknown=lsq_unknown, lvaq_unknown=lvaq_unknown,
             lvaq_un_nonsp=lvaq_un_nonsp, lvaq_ns=lvaq_ns,
             lsq_words_get=lsq_words_get,
             lvaq_words_get=lvaq_words_get, lvaq_sp_get=lvaq_sp_get,
             lsq_addr_ready_pop=lsq_addr_ready_pop,
             lvaq_addr_ready_pop=lvaq_addr_ready_pop,
             lsq_eligible=lsq_eligible, lvaq_eligible=lvaq_eligible,
             ready_l1=ready_l1, ready_lvc=ready_lvc,
             l1_simple=l1_simple, lvc_simple=lvc_simple,
             have_lvc=have_lvc, l1_ports=l1_ports, lvc_ports=lvc_ports,
             l1_try_take=l1_try_take, lvc_try_take=lvc_try_take,
             l1_sets=l1_sets, l1_shift=l1_shift, l1_smask=l1_smask,
             l1_pending=l1_pending, l1_hitlat=l1_hitlat,
             lvc_sets=lvc_sets, lvc_shift=lvc_shift,
             lvc_smask=lvc_smask, lvc_pending=lvc_pending,
             lvc_hitlat=lvc_hitlat):
        nonlocal n_stall_lsq_port, n_stall_lvaq_port
        nonlocal n_lsq_forwards, n_lvaq_forwards, n_lvaq_fast_forwards
        nonlocal n_lvaq_load_combined, n_l1_fast, n_lvc_fast
        nonlocal l1_busy, lvc_busy
        nonlocal lsq_us_head, lvaq_us_head, lvaq_un_head
        nonlocal lsq_load_head, lvaq_load_head

        # ---- LVAQ (fast forwarding + combining) -------------------
        if decoupled and lvaq_unserviced:
            # Oldest unknown-address store: advance the incremental
            # cursor past known-address stores (an address never becomes
            # unknown again), compacting the consumed prefix past the
            # threshold.
            ulst = lvaq_unknown
            uh = lvaq_us_head
            un = len(ulst)
            while uh < un and ulst[uh].addr_known_time >= 0:
                uh += 1
            if uh >= 64:
                del ulst[:uh]
                un -= uh
                uh = 0
            lvaq_us_head = uh
            unknown_seq = ulst[uh].rob.seq if uh < un else inf_seq
            if lvc_simple:
                ports_exhausted = not have_lvc or lvc_avail == 0
            else:
                ports_exhausted = lvc_ports.available == 0
            next_slot = (now + 1) & MASK
            entries = lvaq_entries
            qbase = lvaq.base
            qlen = len(entries)
            serviced = 0
            if fast_fwd:
                # sp-based loads may be serviced before address
                # generation, so this path keeps the full rescan of
                # pending loads (the loop below).
                ulst = lvaq_un_nonsp
                uh = lvaq_un_head
                un = len(ulst)
                while uh < un and ulst[uh].addr_known_time >= 0:
                    uh += 1
                if uh >= 64:
                    del ulst[:uh]
                    un -= uh
                    uh = 0
                lvaq_un_head = uh
                nonsp_unknown_seq = (ulst[uh].rob.seq if uh < un
                                     else inf_seq)
                # Pending loads: skip the serviced prefix.
                loads = lvaq_loads_list
                li = lvaq_load_head
                n_loads = len(loads)
                while li < n_loads and loads[li].serviced:
                    li += 1
                if li >= 64:
                    del loads[:li]
                    n_loads -= li
                    li = 0
                lvaq_load_head = li
            else:
                # Event-driven walk: visit only loads that can act
                # (issue buckets them by the first cycle they can);
                # the rescan loop below degenerates to a no-op.
                li = 0
                n_loads = 0
                elig = lvaq_eligible
                arrivals = lvaq_addr_ready_pop(now, None)
                if arrivals is not None:
                    if arrivals[0].penalty and len(arrivals) > 1:
                        # One issue cycle fills a bucket in age order.
                        # A load in recovery was bucketed `penalty`
                        # cycles early, ahead of the loads whose address
                        # became known now, which may be older: only a
                        # bucket that starts with one can be unordered.
                        arrivals.sort(key=BY_POS)
                    if not elig or arrivals[0].pos > elig[-1].pos:
                        elig.extend(arrivals)
                    else:
                        # Rare: an older load resolved its address
                        # after a younger one did — merge by position.
                        merged = []
                        i3 = 0
                        j3 = 0
                        n3 = len(elig)
                        m3 = len(arrivals)
                        while i3 < n3 and j3 < m3:
                            if elig[i3].pos <= arrivals[j3].pos:
                                merged.append(elig[i3])
                                i3 += 1
                            else:
                                merged.append(arrivals[j3])
                                j3 += 1
                        if i3 < n3:
                            merged.extend(elig[i3:])
                        if j3 < m3:
                            merged.extend(arrivals[j3:])
                        elig[:] = merged
                # Issue buckets a load in misprediction recovery at the
                # cycle its penalty ends, so no eligible load is still
                # penalized.  Only this walk services a tracked load,
                # and it drops what it services; a load completes only
                # once serviced.  So an eligible load is never serviced
                # or completed — except one combining absorbed ahead of
                # the walk, which only a combining machine can hold.
                i3 = 0
                wi = 0
                n_el = len(elig)
                while i3 < n_el:
                    qe = elig[i3]
                    if combine_window and qe.serviced:
                        i3 += 1
                        continue  # absorbed by combining: drop
                    entry = qe.rob
                    if entry.seq > unknown_seq:
                        # The list is in age order and unknown_seq is
                        # fixed for the walk: this load and every later
                        # one wait on an earlier unknown-address store.
                        # Leave that suffix where it is.
                        break
                    if ports_exhausted or (lvc_simple and lvc_avail == 0):
                        if combine_window:
                            # Absorbed loads may sit among the rest:
                            # charge load by load, past the tests above.
                            n_stall_lvaq_port += 1
                            ports_exhausted = True
                            elig[wi] = qe
                            wi += 1
                            i3 += 1
                            continue
                        # No port is left: every remaining load before
                        # the blocked suffix stalls exactly once and
                        # stays.  Charge them in one step.
                        if unknown_seq == inf_seq:
                            n_stall_lvaq_port += n_el - i3
                        else:
                            j = i3 + 1
                            while j < n_el and elig[j].rob.seq <= unknown_seq:
                                j += 1
                            n_stall_lvaq_port += j - i3
                        break
                    i3 += 1
                    bucket = lvaq_words_get(qe.word)
                    fwd = False
                    if bucket:
                        lpos = qe.pos
                        for sentry in bucket:
                            if sentry.pos < lpos:
                                fwd = True
                                break
                    if fwd:
                        # Forwarding occupies a cache port (see the
                        # fast-forwarding path's note below).
                        if lvc_simple:
                            lvc_avail -= 1
                            lvc_busy += 1
                        elif not lvc_try_take(
                                1, line=qe.line, is_store=False):
                            n_stall_lvaq_port += 1
                            ports_exhausted = True
                            elig[wi] = qe
                            wi += 1
                            continue
                        qe.serviced = True
                        serviced += 1
                        bucket = ring[next_slot]
                        if bucket is None:
                            ring[next_slot] = [entry]
                        else:
                            bucket.append(entry)
                        n_lvaq_forwards += 1
                        continue
                    if lvc_simple:
                        lvc_avail -= 1
                        lvc_busy += 1
                    elif not lvc_try_take(
                            1, line=qe.line, is_store=False):
                        n_stall_lvaq_port += 1
                        ports_exhausted = True
                        elig[wi] = qe
                        wi += 1
                        continue
                    addr = qe.word << 2
                    line_no = addr >> lvc_shift
                    if lvc_pending:
                        t = lvc_pending.get(line_no)
                        pend = t is not None and t > now
                    else:
                        pend = False
                    if pend:
                        ready = ready_lvc(addr, False, now)
                    else:
                        ways = lvc_sets[line_no & lvc_smask]
                        if line_no in ways:
                            n_lvc_fast += 1
                            if ways[0] != line_no:
                                ways.remove(line_no)
                                ways.insert(0, line_no)
                            ready = now + lvc_hitlat
                        else:
                            ready = ready_lvc(addr, False, now)
                    qe.serviced = True
                    serviced += 1
                    d = ready - now
                    if 1 <= d < RING:
                        slot2 = ready & MASK
                        bucket = ring[slot2]
                        if bucket is None:
                            bucket = ring[slot2] = []
                        bucket.append(entry)
                    else:
                        bucket = overflow.get(ready)
                        if bucket is None:
                            bucket = overflow[ready] = []
                        bucket.append(entry)
                    # Access combining: absorb following same-line
                    # refs into this port transaction.
                    if combine_window:
                        j = qe.pos - qbase + 1
                        jn = j + combining - 1
                        if jn > qlen:
                            jn = qlen
                        line = qe.line
                        while j < jn:
                            cand = entries[j]
                            j += 1
                            cakt = cand.addr_known_time
                            if (cand.is_store or cand.serviced
                                    or cakt < 0 or cakt > now
                                    or cand.line != line
                                    or cand.rob.seq > unknown_seq
                                    or cand.penalty
                                    or cand.rob.state == 2):
                                continue
                            cbucket = lvaq_words_get(cand.word)
                            if cbucket:
                                cpos = cand.pos
                                fwd = False
                                for sentry in cbucket:
                                    if sentry.pos < cpos:
                                        fwd = True
                                        break
                                if fwd:
                                    continue
                            cand.serviced = True
                            serviced += 1
                            bucket.append(cand.rob)
                            n_lvaq_load_combined += 1
                if wi < i3:
                    del elig[wi:i3]  # close the gap the serviced left
            lvaq_ns_head = lvaq._ns_head
            while li < n_loads:
                qe = loads[li]
                li += 1
                if qe.serviced:
                    continue
                entry = qe.rob
                state_ = entry.state
                if state_ == 2:
                    continue

                # --- fast data forwarding (sp-relative pairs) ------
                # An issued load cannot fast-forward; for it the search
                # can only relax the blocking seq to nonsp_unknown_seq,
                # which is never below unknown_seq.  So it matters only
                # to an issued load that unknown_seq blocks.
                blocking_seq = unknown_seq
                if fast_fwd and qe.sp_based and (
                        state_ == 0 or entry.seq > unknown_seq):
                    # Fast-forward source: the reference scan's
                    # outcome is decided by whichever is younger — the
                    # youngest same-key sp store or the youngest
                    # *blocking* non-sp store (unknown address, or
                    # known and aliasing).
                    fkey = qe.frame_key
                    source = None
                    if fkey is None:
                        conclusive = False
                    else:
                        lpos = qe.pos
                        source_pos = -1
                        bucket = lvaq_sp_get(fkey)
                        if bucket:
                            for i2 in range(len(bucket) - 1, -1, -1):
                                sentry = bucket[i2]
                                if sentry.pos < lpos:
                                    source = sentry
                                    source_pos = sentry.pos
                                    break
                        conclusive = True
                        ns = lvaq_ns
                        lword = qe.word
                        for i2 in range(len(ns) - 1,
                                        lvaq_ns_head - 1, -1):
                            sentry = ns[i2]
                            p = sentry.pos
                            if p >= lpos:
                                continue
                            if p < source_pos:
                                break
                            if (sentry.addr_known_time < 0
                                    or sentry.word == lword):
                                source = None
                                conclusive = False
                                break
                    if source is not None and state_ == 0:
                        src_rob = source.rob
                        if (src_rob.pending == 0
                                and src_rob.earliest <= now):
                            # The match resolves before address
                            # generation, but the transfer still
                            # occupies an LVC port (the queue datapath
                            # is the cache's): the gain is latency and
                            # disambiguation, not bandwidth.
                            if ports_exhausted or (lvc_simple
                                                   and lvc_avail == 0):
                                n_stall_lvaq_port += 1
                                ports_exhausted = True
                                continue
                            if lvc_simple:
                                lvc_avail -= 1
                                lvc_busy += 1
                            elif not lvc_try_take(
                                    1,
                                    line=addr_of[src_rob.inst] >> 5,
                                    is_store=False):
                                n_stall_lvaq_port += 1
                                ports_exhausted = True
                                continue
                            qe.serviced = True
                            serviced += 1
                            entry.state = 1
                            bucket = ring[next_slot]
                            if bucket is None:
                                ring[next_slot] = [entry]
                            else:
                                bucket.append(entry)
                            n_lvaq_fast_forwards += 1
                            continue
                        # Matching store's data not produced yet.
                        continue
                    if conclusive:
                        # Offsets proved independence from every
                        # earlier sp-relative store: only non-sp stores
                        # can block.
                        blocking_seq = nonsp_unknown_seq

                # --- conventional path -----------------------------
                akt = qe.addr_known_time
                if akt < 0 or akt > now:
                    continue
                if entry.seq > blocking_seq:
                    continue  # earlier unknown-address store
                if qe.penalty and now < akt + qe.penalty:
                    # Misprediction recovery: this rescan uses no
                    # buckets, so it tests the penalty itself.
                    continue
                # A disambiguated load that cannot get a port stalls
                # identically whether it would forward or access (both
                # paths charge the same counter), so the forward probe
                # can be skipped outright.
                if ports_exhausted or (lvc_simple and lvc_avail == 0):
                    n_stall_lvaq_port += 1
                    ports_exhausted = True
                    continue
                # Forwarding probe, existence only: any indexed
                # same-word store older than the load.
                bucket = lvaq_words_get(qe.word)
                fwd = False
                if bucket:
                    lpos = qe.pos
                    for sentry in bucket:
                        if sentry.pos < lpos:
                            fwd = True
                            break
                if fwd:
                    # Store-to-load forwarding still occupies a cache
                    # port: sim-outorder acquires the port before
                    # probing the store queue, and the paper's
                    # simulator derives from it.  (The fast forwarding
                    # path above is the exception — it resolves before
                    # address generation, off the cache pipeline
                    # entirely.)
                    if lvc_simple:
                        lvc_avail -= 1
                        lvc_busy += 1
                    elif not lvc_try_take(
                            1, line=qe.line, is_store=False):
                        n_stall_lvaq_port += 1
                        ports_exhausted = True
                        continue
                    qe.serviced = True
                    serviced += 1
                    bucket = ring[next_slot]
                    if bucket is None:
                        ring[next_slot] = [entry]
                    else:
                        bucket.append(entry)
                    n_lvaq_forwards += 1
                    continue
                if lvc_simple:
                    lvc_avail -= 1
                    lvc_busy += 1
                elif not lvc_try_take(1, line=qe.line, is_store=False):
                    n_stall_lvaq_port += 1
                    ports_exhausted = True
                    continue
                addr = qe.word << 2
                line_no = addr >> lvc_shift
                if lvc_pending:
                    t = lvc_pending.get(line_no)
                    pend = t is not None and t > now
                else:
                    pend = False
                if pend:
                    ready = ready_lvc(addr, False, now)
                else:
                    ways = lvc_sets[line_no & lvc_smask]
                    if line_no in ways:
                        n_lvc_fast += 1
                        if ways[0] != line_no:
                            ways.remove(line_no)
                            ways.insert(0, line_no)
                        ready = now + lvc_hitlat
                    else:
                        ready = ready_lvc(addr, False, now)
                qe.serviced = True
                serviced += 1
                d = ready - now
                in_ring = 1 <= d < RING
                if in_ring:
                    slot2 = ready & MASK
                    bucket = ring[slot2]
                    if bucket is None:
                        bucket = ring[slot2] = []
                    bucket.append(entry)
                else:
                    bucket = overflow.get(ready)
                    if bucket is None:
                        bucket = overflow[ready] = []
                    bucket.append(entry)
                # --- access combining: absorb following same-line
                # refs into this port transaction ------------------
                if combine_window:
                    j = qe.pos - qbase + 1
                    jn = j + combining - 1
                    if jn > qlen:
                        jn = qlen
                    line = qe.line
                    while j < jn:
                        cand = entries[j]
                        j += 1
                        cakt = cand.addr_known_time
                        if (cand.is_store or cand.serviced
                                or cakt < 0 or cakt > now
                                or cand.line != line
                                or cand.rob.seq > unknown_seq
                                or cand.penalty
                                or cand.rob.state == 2):
                            continue
                        cbucket = lvaq_words_get(cand.word)
                        if cbucket:
                            cpos = cand.pos
                            fwd = False
                            for sentry in cbucket:
                                if sentry.pos < cpos:
                                    fwd = True
                                    break
                            if fwd:
                                continue
                        cand.serviced = True
                        serviced += 1
                        bucket.append(cand.rob)
                        n_lvaq_load_combined += 1
            if serviced:
                lvaq_unserviced -= serviced

        # ---- LSQ --------------------------------------------------
        if lsq_unserviced:
            # Oldest unknown-address store (see the LVAQ note).
            ulst = lsq_unknown
            uh = lsq_us_head
            un = len(ulst)
            while uh < un and ulst[uh].addr_known_time >= 0:
                uh += 1
            if uh >= 64:
                del ulst[:uh]
                un -= uh
                uh = 0
            lsq_us_head = uh
            unknown_seq = ulst[uh].rob.seq if uh < un else inf_seq
            if l1_simple:
                ports_exhausted = l1_avail == 0
            else:
                ports_exhausted = l1_ports.available == 0
            next_slot = (now + 1) & MASK
            # Event-driven walk (see the LVAQ note): visit only loads
            # whose address-known cycle has arrived.
            elig = lsq_eligible
            arrivals = lsq_addr_ready_pop(now, None)
            if arrivals is not None:
                if arrivals[0].penalty and len(arrivals) > 1:
                    arrivals.sort(key=BY_POS)  # see the LVAQ note
                if not elig or arrivals[0].pos > elig[-1].pos:
                    elig.extend(arrivals)
                else:
                    # Rare: an older load resolved its address after a
                    # younger one did — merge by queue position.
                    merged = []
                    i3 = 0
                    j3 = 0
                    n3 = len(elig)
                    m3 = len(arrivals)
                    while i3 < n3 and j3 < m3:
                        if elig[i3].pos <= arrivals[j3].pos:
                            merged.append(elig[i3])
                            i3 += 1
                        else:
                            merged.append(arrivals[j3])
                            j3 += 1
                    if i3 < n3:
                        merged.extend(elig[i3:])
                    if j3 < m3:
                        merged.extend(arrivals[j3:])
                    elig[:] = merged
            # Only this walk services an LSQ load and it drops what it
            # services, so no eligible load is serviced or completed.
            serviced = 0
            i3 = 0
            wi = 0
            n_el = len(elig)
            while i3 < n_el:
                qe = elig[i3]
                entry = qe.rob
                if entry.seq > unknown_seq:
                    break  # blocked suffix (see the LVAQ note)
                # Port-exhausted tail (see the LVAQ note); a stalled
                # load charges the same counter on the forward and
                # access paths, so the forward probe is skipped.
                if ports_exhausted or (l1_simple and l1_avail == 0):
                    if unknown_seq == inf_seq:
                        n_stall_lsq_port += n_el - i3
                    else:
                        j = i3 + 1
                        while j < n_el and elig[j].rob.seq <= unknown_seq:
                            j += 1
                        n_stall_lsq_port += j - i3
                    break
                i3 += 1
                bucket = lsq_words_get(qe.word)
                fwd = False
                if bucket:
                    lpos = qe.pos
                    for sentry in bucket:
                        if sentry.pos < lpos:
                            fwd = True
                            break
                if fwd:
                    # Forwarding occupies a port (see LVAQ note).
                    if l1_simple:
                        l1_avail -= 1
                        l1_busy += 1
                    elif not l1_try_take(
                            1, line=qe.line, is_store=False):
                        n_stall_lsq_port += 1
                        ports_exhausted = True
                        elig[wi] = qe
                        wi += 1
                        continue
                    qe.serviced = True
                    serviced += 1
                    bucket = ring[next_slot]
                    if bucket is None:
                        ring[next_slot] = [entry]
                    else:
                        bucket.append(entry)
                    n_lsq_forwards += 1
                    continue
                if l1_simple:
                    l1_avail -= 1
                    l1_busy += 1
                elif not l1_try_take(
                        1, line=qe.line, is_store=False):
                    n_stall_lsq_port += 1
                    ports_exhausted = True
                    elig[wi] = qe
                    wi += 1
                    continue
                addr = qe.word << 2
                line_no = addr >> l1_shift
                if l1_pending:
                    t = l1_pending.get(line_no)
                    pend = t is not None and t > now
                else:
                    pend = False
                if pend:
                    ready = ready_l1(addr, False, now)
                else:
                    ways = l1_sets[line_no & l1_smask]
                    if line_no in ways:
                        n_l1_fast += 1
                        if ways[0] != line_no:
                            ways.remove(line_no)
                            ways.insert(0, line_no)
                        ready = now + l1_hitlat
                    else:
                        ready = ready_l1(addr, False, now)
                qe.serviced = True
                serviced += 1
                d = ready - now
                if 1 <= d < RING:
                    slot2 = ready & MASK
                    bucket = ring[slot2]
                    if bucket is None:
                        ring[slot2] = [entry]
                    else:
                        bucket.append(entry)
                else:
                    bucket = overflow.get(ready)
                    if bucket is None:
                        overflow[ready] = [entry]
                    else:
                        bucket.append(entry)
            if wi < i3:
                del elig[wi:i3]
            if serviced:
                lsq_unserviced -= serviced

        return l1_avail, lvc_avail, lsq_unserviced, lvaq_unserviced

    def finish():
        lsq._us_head = lsq_us_head
        lvaq._us_head = lvaq_us_head
        lvaq._un_head = lvaq_un_head
        lsq._load_head = lsq_load_head
        lvaq._load_head = lvaq_load_head
        return {
            "stall.lsq_port": n_stall_lsq_port,
            "stall.lvaq_port": n_stall_lvaq_port,
            "lsq.forwards": n_lsq_forwards,
            "lvaq.forwards": n_lvaq_forwards,
            "lvaq.fast_forwards": n_lvaq_fast_forwards,
            "lvaq.load_combined": n_lvaq_load_combined,
            "_l1_fast": n_l1_fast,
            "_lvc_fast": n_lvc_fast,
            "_l1_busy": l1_busy,
            "_lvc_busy": lvc_busy,
        }

    return tick, finish
