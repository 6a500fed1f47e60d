"""Calibrated synthetic trace generation.

Produces a dynamic instruction stream whose statistics match one SPEC95
program as measured in the paper (see :mod:`repro.workloads.spec`).  The
generator runs an abstract program: a call-stack random walk (calls push
frames, emit register-save bursts; returns emit matching restores), body
instructions chosen by **deficit steering** (each category is drawn with
probability proportional to how far it lags its target fraction, so the
long-run mix converges to the calibration even though calls inject bursty
local traffic), and address streams with per-program working sets, reuse
distances, and local/non-local interleaving.

Why this preserves the paper's behaviour: every effect the paper measures
— port pressure, LVC hit rate, forwarding opportunity, combining benefit,
L1 conflict between stack and data — is a function of the *stream*
(instruction mix, dependence structure, address patterns), not of program
semantics.  The generator reproduces the stream.

The generator appends each instruction's fields straight to the columns
of the trace's :class:`~repro.vm.trace.Stream` and keeps the trace
statistics in step as it goes, so no per-instruction object is built.
The steering draw is ``random.choices`` written out for seven fixed
categories: the same cumulative weights, summed left to right, and the
same single ``random()`` bisected into them, so a seed gives the same
stream as a ``choices`` call would, at a fraction of the cost.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Tuple

from repro.errors import WorkloadError
from repro.isa.opcodes import FuClass
from repro.isa.program import DATA_BASE, STACK_BASE
from repro.utils import make_rng, stable_hash
from repro.vm.trace import NO_REG, Trace
from repro.workloads.spec import WorkloadSpec

_IALU = int(FuClass.IALU)
_IMULT = int(FuClass.IMULT)
_IDIV = int(FuClass.IDIV)
_FADD = int(FuClass.FADD)
_FMUL = int(FuClass.FMUL)
_LOAD = int(FuClass.LOAD)
_STORE = int(FuClass.STORE)
_BRANCH = int(FuClass.BRANCH)

_SP_REG = 29
_INT_REGS = tuple(range(8, 26))  # $t0..$t9, $s0..$s7
_FP_REGS = tuple(range(36, 52))

#: Target fraction of branch instructions (typical integer code).
_BRANCH_FRAC = 0.12

#: Number of static "ambiguous" memory sites.  An ambiguous site always
#: carries a local reference, but the compiler gives it no hint, so only
#: the core's predictor classifies it.
_AMBIG_SITES = 32

#: Body-instruction categories in steering-draw order.  Counts, targets
#: and emitters are indexed by position; the two local categories are the
#: ones the FP interleaving phase can shut out.
_CATEGORIES = ("load_local", "load_global", "store_local", "store_global",
               "ialu", "falu", "branch")
_LOAD_LOCAL = 0
_STORE_LOCAL = 2

#: Length of one interleaving phase (FP programs admit local traffic only
#: in a leading fraction of each phase).
_PHASE_PERIOD = 2000


class _Frame:
    """One activation record of the abstract program."""

    __slots__ = ("frame_id", "words", "sp", "budget", "saves",
                 "store_times")

    def __init__(self, frame_id: int, words: int, sp: int, budget: int,
                 saves: Tuple[int, ...]):
        self.frame_id = frame_id
        self.words = words
        self.sp = sp
        self.budget = budget
        self.saves = saves  # byte offsets of the save/restore area
        self.store_times: dict = {}  # byte offset -> last store index


class SyntheticGenerator:
    """Generates one calibrated trace; use :func:`generate_trace`."""

    def __init__(self, spec: WorkloadSpec, length: int, seed: int = 1):
        if length <= 0:
            raise WorkloadError("trace length must be positive")
        self.spec = spec
        self.length = length
        self.rng = make_rng(stable_hash(spec.name, seed))
        self._random = self.rng.random
        self._randrange = self.rng.randrange
        self.trace = Trace(spec.name)
        stream = self.trace.insts
        #: The stream's column appends, in ``Stream.COLUMNS`` order.
        self._appends = tuple(getattr(stream, name).append
                              for name in stream.COLUMNS)
        self._emitted = 0
        #: Instructions emitted per category, in ``_CATEGORIES`` order.
        self._counts = [0] * len(_CATEGORIES)
        self._int_pool: List[int] = [8, 9, 10]
        self._fp_pool: List[int] = [36, 37]
        self._int_rot = 0
        self._fp_rot = 0
        self._next_frame_id = 1
        self._stack: List[_Frame] = [
            _Frame(0, 8, STACK_BASE - 32, 1 << 60, ())
        ]
        self._sweep = 0
        # Nothing reads these draws, but every stream (and each pin and
        # reference digest taken from one) follows from the RNG state
        # after them, so they stay.
        for _ in range(_AMBIG_SITES):
            self._random()
        # A scheduled spill-reload: (frame, byte offset, not-before index).
        self._pending_reload = None
        # Where the first interleaving phase starts.
        self._phase_start = self._randrange(_PHASE_PERIOD)
        # Dependence density scales how often compute ops read recently
        # produced values (dep_density > 1 means tighter chains, lower
        # achievable ILP).
        self._recent1 = min(0.85, 0.32 * spec.dep_density)
        self._recent2 = min(0.95, self._recent1 + 0.18 * spec.dep_density)
        # An integer ALU roll below div_frac is a divide, below this a
        # multiply.
        self._mul_cut = spec.div_frac + spec.mul_frac
        # Spill-reload pairing: programs with short calibrated reuse
        # distances (129.compress at ~15) re-read most stored slots while
        # the store still sits in the LVAQ.
        rd = spec.reuse_distance
        self._pair_prob = 0.8 if rd <= 30 else 0.45 if rd <= 90 else 0.05

    # -- register dependence modelling ------------------------------------

    def _dst_int(self) -> int:
        self._int_rot = (self._int_rot + 1) % len(_INT_REGS)
        reg = _INT_REGS[self._int_rot]
        pool = self._int_pool
        pool.append(reg)
        if len(pool) > 12:
            pool.pop(0)
        return reg

    def _dst_fp(self) -> int:
        self._fp_rot = (self._fp_rot + 1) % len(_FP_REGS)
        reg = _FP_REGS[self._fp_rot]
        pool = self._fp_pool
        pool.append(reg)
        if len(pool) > 12:
            pool.pop(0)
        return reg

    def _src_int(self) -> int:
        """A source register drawn from the recent integer producers."""
        pool = self._int_pool
        return pool[self._randrange(len(pool))]

    def _src_fp(self) -> int:
        pool = self._fp_pool
        return pool[self._randrange(len(pool))]

    def _alu_srcs_int(self) -> Tuple[int, ...]:
        """Source operands for compute ops.

        Real wide-issue code has abundant independent work (that is the
        premise of a 16-issue machine): many operands are loop invariants,
        induction variables, or constants that are long since computed.
        The per-program ``dep_density`` scales how often ops read
        recently produced values; at 1.0, 32% read one recent value, 18%
        read two, and the rest read only old (always-ready) registers.
        """
        roll = self._random()
        if roll < self._recent1:
            return (self._src_int(),)
        if roll < self._recent2:
            return (self._src_int(), self._src_int())
        return (4,)  # an argument register written long ago: always ready

    def _alu_srcs_fp(self) -> Tuple[int, ...]:
        roll = self._random()
        if roll < self._recent1:
            return (self._src_fp(),)
        if roll < self._recent2:
            return (self._src_fp(), self._src_fp())
        return (44,)

    def _addr_srcs(self) -> Tuple[int, ...]:
        """Address operands: usually induction variables (ready early)."""
        if self._random() < 0.9:
            return (5,)  # long-ready base register
        return (self._src_int(),)

    # -- emission ----------------------------------------------------------

    def _emit_op(self, fu: int, dst: int, srcs: Tuple[int, ...],
                 pc: int = 0) -> None:
        """Append one non-memory instruction."""
        (fu_append, dst_append, srcs_append, addr_append, size_append,
         hint_append, local_append, sp_append, frame_append, offset_append,
         pc_append) = self._appends
        fu_append(fu)
        dst_append(dst)
        srcs_append(srcs)
        addr_append(0)
        size_append(0)
        hint_append(None)
        local_append(False)
        sp_append(False)
        frame_append(0)
        offset_append(0)
        pc_append(pc)
        self._emitted += 1

    def _emit_mem(self, fu: int, dst: int, srcs: Tuple[int, ...], pc: int,
                  addr: int, hint: Optional[bool], is_local: bool,
                  sp_based: bool, frame: int, offset: int) -> None:
        """Append one 4-byte load or store and count it in the trace
        statistics."""
        (fu_append, dst_append, srcs_append, addr_append, size_append,
         hint_append, local_append, sp_append, frame_append, offset_append,
         pc_append) = self._appends
        fu_append(fu)
        dst_append(dst)
        srcs_append(srcs)
        addr_append(addr)
        size_append(4)
        hint_append(hint)
        local_append(is_local)
        sp_append(sp_based)
        frame_append(frame)
        offset_append(offset)
        pc_append(pc)
        stats = self.trace.stats
        if fu == _LOAD:
            stats.loads += 1
            stats.local_loads += is_local
        else:
            stats.stores += 1
            stats.local_stores += is_local
        stats.sp_based_refs += sp_based
        stats.ambiguous_refs += hint is None
        self._emitted += 1

    # -- call/return ---------------------------------------------------------

    def _draw_frame_words(self) -> int:
        spec = self.spec
        rng = self.rng
        if spec.frame_tail_prob and rng.random() < spec.frame_tail_prob:
            return max(2, int(rng.uniform(0.5, 1.0) * spec.frame_tail_words))
        # Geometric-ish around the mean, always at least one word.
        mean = spec.frame_mean
        value = 1 + int(rng.expovariate(1.0 / max(mean - 1, 0.5)))
        return min(value, 280)

    def _do_call(self) -> None:
        spec = self.spec
        rng = self.rng
        parent = self._stack[-1]
        words = self._draw_frame_words()
        sp = parent.sp - 4 * words
        saves_count = min(words, 2 + words // 3, 9)
        saves = tuple(4 * (words - 1 - j) for j in range(saves_count))
        # Mean body length ~ 1/call_rate gives a critical call/return
        # branching walk: depth fluctuates and occasionally reaches
        # max_depth, as real call graphs do.  The floor ties body length
        # to the program's reuse behaviour: long-reuse programs (e.g.
        # 124.m88ksim) have long bodies, so their register restores find
        # the matching saves long gone from the LVAQ.
        floor = max(3, spec.reuse_distance // 3)
        budget = max(floor, int(rng.expovariate(spec.call_rate)))
        frame = _Frame(self._next_frame_id, words, sp, budget, saves)
        self._next_frame_id += 1
        # the call itself
        srcs = (self._src_int(),)
        self._emit_op(_BRANCH, NO_REG, srcs, self._randrange(1 << 16))
        # stack-pointer adjustment (real prologue ALU op)
        self._emit_op(_IALU, _SP_REG, (_SP_REG,))
        self._stack.append(frame)
        stats = self.trace.stats
        stats.calls += 1
        stats.frame_sizes.add(words)
        if len(self._stack) > stats.max_call_depth:
            stats.max_call_depth = len(self._stack)
        # register save burst: contiguous local stores
        for offset in saves:
            self._emit_local_store(frame, offset, save_restore=True)
        # Bursts bypass the steering draw, so charge them to the category
        # counts to keep the mix on target.
        self._counts[_STORE_LOCAL] += saves_count

    def _do_return(self) -> None:
        frame = self._stack.pop()
        # restore burst: loads matching the saves
        for offset in frame.saves:
            self._emit_local_load(frame, offset, save_restore=True)
        self._counts[_LOAD_LOCAL] += len(frame.saves)
        self._emit_op(_IALU, _SP_REG, (_SP_REG,))
        self._emit_op(_BRANCH, NO_REG, (31,))

    # -- memory reference emission -------------------------------------------

    def _classify(self, pc_seed: int) -> Tuple[Optional[bool], bool, int]:
        """Pick (hint, sp_based, pc) for a local reference."""
        random = self._random
        spec = self.spec
        if random() < spec.ambig_frac:
            site = self._randrange(_AMBIG_SITES)
            return None, False, site  # ambiguous pointer site
        if random() < spec.nonsp_frac:
            return True, False, pc_seed  # local but not $sp-indexed
        return True, True, pc_seed

    def _emit_local_store(self, frame: _Frame, offset: int,
                          save_restore: bool = False) -> None:
        hint, sp_based, pc = self._classify(self._randrange(1 << 16))
        if save_restore:
            # Register saves read callee-saved values produced long ago:
            # the whole burst is ready the moment it dispatches, so it
            # hits the LVC ports all at once (the paper's bursty stack
            # traffic around calls).
            data = 16 + (offset >> 2) % 8
        else:
            data = self._src_int()
        self._emit_mem(_STORE, NO_REG, (_SP_REG, data), pc,
                       frame.sp + offset, hint, True, sp_based,
                       frame.frame_id, offset)
        frame.store_times[offset] = self._emitted

    def _emit_local_load(self, frame: _Frame, offset: int,
                         save_restore: bool = False) -> None:
        hint, sp_based, pc = self._classify(self._randrange(1 << 16))
        if save_restore:
            # Restores refill callee-saved registers; nothing consumes the
            # value immediately, so keep it out of the dependence pool.
            dst = 16 + (offset >> 2) % 8
        else:
            dst = self._dst_int()
        self._emit_mem(_LOAD, dst, (_SP_REG,), pc, frame.sp + offset, hint,
                       True, sp_based, frame.frame_id, offset)

    def _body_local_store(self) -> None:
        frame = self._stack[-1]
        offset = 4 * self._randrange(frame.words)
        self._emit_local_store(frame, offset)
        if (self._pending_reload is None
                and self._random() < self._pair_prob):
            rd = self.spec.reuse_distance
            delay = max(2, int(self.rng.expovariate(1.0 / rd)))
            self._pending_reload = (frame, offset, self._emitted + delay)

    def _body_local_load(self) -> None:
        frame = self._stack[-1]
        random = self._random
        spec = self.spec
        # Some programs' local loads feed dependent work (spill reloads of
        # live values); others' do not — the paper notes 130.li's local
        # accesses sit off the critical path (Section 4.2.3).
        critical = random() < spec.local_criticality
        times = frame.store_times
        if times and random() < 0.8:
            # Re-read a stored slot, preferring one whose last store is
            # about ``reuse_distance`` instructions old.  Short calibrated
            # distances make the value forwardable from the LVAQ; long
            # ones (e.g. 124.m88ksim) mean the store left the queue ages
            # ago, so the load must hit the LVC instead.
            now = self._emitted
            target = spec.reuse_distance
            offset = min(times,
                         key=lambda off: abs((now - times[off]) - target))
        else:
            offset = 4 * self._randrange(frame.words)
        self._emit_local_load(frame, offset, save_restore=not critical)

    def _global_addr(self) -> int:
        """Global/heap reference address.

        Three regimes mirror real data streams: sequential sweeps with
        temporal reuse (each word touched a few times before the pointer
        advances), a hot random set (fits in L1), and cold random traffic
        over the full working set (produces the L1/L2 miss traffic and the
        stack/data conflicts of Section 4.2.1).
        """
        random = self._random
        spec = self.spec
        seq_frac = 0.8 if spec.is_fp else 0.5
        if random() < seq_frac:
            advance = 0.8 if spec.is_fp else 0.4
            if random() < advance:
                self._sweep = (self._sweep + 1) % spec.ws_words
            return DATA_BASE + 4 * self._sweep
        hot_words = min(spec.ws_words, 2500)
        if random() < 0.85:
            return DATA_BASE + 4 * self._randrange(hot_words)
        return DATA_BASE + 4 * self._randrange(spec.ws_words)

    def _body_global_load(self) -> None:
        use_fp = self.spec.is_fp and self._random() < 0.7
        dst = self._dst_fp() if use_fp else self._dst_int()
        srcs = self._addr_srcs()
        addr = self._global_addr()
        self._emit_mem(_LOAD, dst, srcs, self._randrange(1 << 16), addr,
                       False, False, False, 0, 0)

    def _body_global_store(self) -> None:
        use_fp = self.spec.is_fp and self._random() < 0.7
        data = self._src_fp() if use_fp else self._src_int()
        srcs = (self._addr_srcs()[0], data)
        addr = self._global_addr()
        self._emit_mem(_STORE, NO_REG, srcs, self._randrange(1 << 16), addr,
                       False, False, False, 0, 0)

    # -- compute/branch emission -----------------------------------------------

    def _body_ialu(self) -> None:
        roll = self._random()
        if roll < self.spec.div_frac:
            fu = _IDIV
        elif roll < self._mul_cut:
            fu = _IMULT
        else:
            fu = _IALU
        dst = self._dst_int()
        self._emit_op(fu, dst, self._alu_srcs_int())

    def _body_falu(self) -> None:
        fu = _FMUL if self._random() < 0.4 else _FADD
        dst = self._dst_fp()
        self._emit_op(fu, dst, self._alu_srcs_fp())

    def _body_branch(self) -> None:
        # Most branch conditions test values computed a while ago (loop
        # bounds, flags); with an oracle front end they never stall fetch.
        if self._random() < 0.7:
            srcs: Tuple[int, ...] = (6,)
        else:
            srcs = (self._src_int(),)
        self._emit_op(_BRANCH, NO_REG, srcs, self._randrange(1 << 16))

    # -- main loop ----------------------------------------------------------

    def generate(self) -> Trace:
        """Produce the trace (single use per generator instance)."""
        spec = self.spec
        random = self._random
        length = self.length
        counts = self._counts
        stack = self._stack
        max_depth = spec.max_depth
        call_rate = spec.call_rate
        # Local traffic is admitted while the phase position is below the
        # cut: always when ``interleave`` >= 1.
        phase_start = self._phase_start
        cut = _PHASE_PERIOD * min(spec.interleave, 1.0)

        alu_frac = 1.0 - spec.mem_frac - _BRANCH_FRAC
        targets = (
            spec.load_frac * spec.local_load_frac,
            spec.load_frac * (1 - spec.local_load_frac),
            spec.store_frac * spec.local_store_frac,
            spec.store_frac * (1 - spec.local_store_frac),
            alu_frac * (1 - spec.fp_frac),
            alu_frac * spec.fp_frac,
            _BRANCH_FRAC,
        )
        # The steering draw is ``rng.choices(_CATEGORIES, weights)``
        # spelled out, so the same single ``random()`` picks the same
        # category:
        # - an admitted category with a positive target weighs
        #   ``max(target * n - count, 0.0) + 0.001``; ``d if d > 0.0 else
        #   0.0`` differs from that ``max`` only in the sign of a zero,
        #   which the addition erases.  Any other category weighs 0.0,
        #   which (target, floor) = (0.0, 0.0) gives by the same formula;
        # - the cumulative weights are the left-to-right float sums
        #   ``choices`` makes, and its pick ``bisect_right(cum, random()
        #   * (cum[-1] + 0.0), 0, 6)`` reads only the first six.
        (t0, t1, t2, t3, t4, t5, t6) = (t if t > 0.0 else 0.0
                                        for t in targets)
        (f0, f1, f2, f3, f4, f5, f6) = (0.001 if t > 0.0 else 0.0
                                        for t in targets)
        emitters = (self._body_local_load, self._body_global_load,
                    self._body_local_store, self._body_global_store,
                    self._body_ialu, self._body_falu, self._body_branch)

        while self._emitted < length:
            emitted = self._emitted
            local_ok = (phase_start + emitted) % _PHASE_PERIOD < cut
            frame = stack[-1]
            pending = self._pending_reload
            if (pending is not None and local_ok
                    and emitted >= pending[2]):
                self._pending_reload = None
                if pending[0] is frame:  # frame still live?
                    counts[_LOAD_LOCAL] += 1
                    self._emit_local_load(frame, pending[1])
                    continue
            if (local_ok and len(stack) < max_depth
                    and random() < call_rate):
                self._do_call()
                continue
            if frame.budget <= 0 and len(stack) > 1:
                self._do_return()
                continue
            frame.budget -= 1
            n = emitted + 1
            if local_ok:
                d = t0 * n - counts[0]
                c0 = (d if d > 0.0 else 0.0) + f0
                d = t1 * n - counts[1]
                c1 = c0 + ((d if d > 0.0 else 0.0) + f1)
                d = t2 * n - counts[2]
                c2 = c1 + ((d if d > 0.0 else 0.0) + f2)
            else:  # the local categories weigh 0.0
                c0 = 0.0
                d = t1 * n - counts[1]
                c2 = c1 = (d if d > 0.0 else 0.0) + f1
            d = t3 * n - counts[3]
            c3 = c2 + ((d if d > 0.0 else 0.0) + f3)
            d = t4 * n - counts[4]
            c4 = c3 + ((d if d > 0.0 else 0.0) + f4)
            d = t5 * n - counts[5]
            c5 = c4 + ((d if d > 0.0 else 0.0) + f5)
            d = t6 * n - counts[6]
            c6 = c5 + ((d if d > 0.0 else 0.0) + f6)
            category = bisect_right((c0, c1, c2, c3, c4, c5),
                                    random() * (c6 + 0.0))
            counts[category] += 1
            emitters[category]()

        self.trace.stats.instructions = self._emitted
        return self.trace


def generate_trace(spec: WorkloadSpec, length: Optional[int] = None,
                   seed: int = 1) -> Trace:
    """Generate a calibrated synthetic trace for *spec*."""
    if length is None:
        length = spec.default_length
    return SyntheticGenerator(spec, length, seed).generate()
