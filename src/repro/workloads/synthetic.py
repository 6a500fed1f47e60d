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
"""

from __future__ import annotations

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

#: Number of static "ambiguous" memory sites (pointer accesses whose
#: region the compiler could not prove — classified by the predictor).
_AMBIG_SITES = 32


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
        self.trace = Trace(spec.name)
        stream = self.trace.insts
        #: The stream's column appends, in ``Stream.COLUMNS`` order.
        self._appends = tuple(getattr(stream, name).append
                              for name in stream.COLUMNS)
        self._emitted = 0
        self._counts = {
            "load_local": 0, "load_global": 0,
            "store_local": 0, "store_global": 0,
            "ialu": 0, "falu": 0, "branch": 0,
        }
        self._int_pool: List[int] = [8, 9, 10]
        self._fp_pool: List[int] = [36, 37]
        self._int_rot = 0
        self._fp_rot = 0
        self._next_frame_id = 1
        self._stack: List[_Frame] = [
            _Frame(0, 8, STACK_BASE - 32, 1 << 60, ())
        ]
        self._sweep = 0
        self._ambig_bias = [self.rng.random() < 0.5
                            for _ in range(_AMBIG_SITES)]
        # A scheduled spill-reload: (frame, byte offset, not-before index).
        self._pending_reload = None
        # Interleaving phases for FP programs: a period in which only a
        # leading fraction admits local traffic.
        self._phase_period = 2000
        self._phase_pos = self.rng.randrange(self._phase_period)
        # Dependence density scales how often compute ops read recently
        # produced values (dep_density > 1 means tighter chains, lower
        # achievable ILP).
        self._recent1 = min(0.85, 0.32 * spec.dep_density)
        self._recent2 = min(0.95, self._recent1 + 0.18 * spec.dep_density)

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

    def _srcs_int(self, n: int) -> Tuple[int, ...]:
        rng = self.rng
        pool = self._int_pool
        return tuple(pool[rng.randrange(len(pool))] for _ in range(n))

    def _srcs_fp(self, n: int) -> Tuple[int, ...]:
        rng = self.rng
        pool = self._fp_pool
        return tuple(pool[rng.randrange(len(pool))] for _ in range(n))

    def _alu_srcs_int(self) -> Tuple[int, ...]:
        """Source operands for compute ops.

        Real wide-issue code has abundant independent work (that is the
        premise of a 16-issue machine): many operands are loop invariants,
        induction variables, or constants that are long since computed.
        The per-program ``dep_density`` scales how often ops read
        recently produced values; at 1.0, 32% read one recent value, 18%
        read two, and the rest read only old (always-ready) registers.
        """
        roll = self.rng.random()
        if roll < self._recent1:
            return self._srcs_int(1)
        if roll < self._recent2:
            return self._srcs_int(2)
        return (4,)  # an argument register written long ago: always ready

    def _alu_srcs_fp(self) -> Tuple[int, ...]:
        roll = self.rng.random()
        if roll < self._recent1:
            return self._srcs_fp(1)
        if roll < self._recent2:
            return self._srcs_fp(2)
        return (44,)

    def _addr_srcs(self) -> Tuple[int, ...]:
        """Address operands: usually induction variables (ready early)."""
        if self.rng.random() < 0.9:
            return (5,)  # long-ready base register
        return self._srcs_int(1)

    # -- emission ----------------------------------------------------------

    def _emit(self, fu: int, dst: int, srcs: Tuple[int, ...], pc: int = 0,
              addr: int = 0, hint: Optional[bool] = None,
              is_local: bool = False, sp_based: bool = False,
              frame: int = 0, offset: int = 0) -> None:
        """Append one instruction; a load or store is a 4-byte access
        and is counted in the trace statistics."""
        (fu_append, dst_append, srcs_append, addr_append, size_append,
         hint_append, local_append, sp_append, frame_append, offset_append,
         pc_append) = self._appends
        fu_append(fu)
        dst_append(dst)
        srcs_append(srcs)
        addr_append(addr)
        hint_append(hint)
        local_append(is_local)
        sp_append(sp_based)
        frame_append(frame)
        offset_append(offset)
        pc_append(pc)
        if fu == _LOAD or fu == _STORE:
            size_append(4)
            stats = self.trace.stats
            if fu == _LOAD:
                stats.loads += 1
                stats.local_loads += is_local
            else:
                stats.stores += 1
                stats.local_stores += is_local
            stats.sp_based_refs += sp_based
            stats.ambiguous_refs += hint is None
        else:
            size_append(0)
        self._emitted += 1
        self._phase_pos += 1
        if self._phase_pos >= self._phase_period:
            self._phase_pos = 0

    def _local_phase(self) -> bool:
        """Whether local traffic is currently admitted (FP interleaving)."""
        if self.spec.interleave >= 1.0:
            return True
        return self._phase_pos < self._phase_period * self.spec.interleave

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
        srcs = self._srcs_int(1)
        self._emit(_BRANCH, NO_REG, srcs, rng.randrange(1 << 16))
        # stack-pointer adjustment (real prologue ALU op)
        self._emit(_IALU, _SP_REG, (_SP_REG,))
        self._stack.append(frame)
        stats = self.trace.stats
        stats.calls += 1
        stats.frame_sizes.add(words)
        if len(self._stack) > stats.max_call_depth:
            stats.max_call_depth = len(self._stack)
        # register save burst: contiguous local stores
        for offset in saves:
            self._emit_local_store(frame, offset, save_restore=True)

    def _do_return(self) -> None:
        frame = self._stack.pop()
        # restore burst: loads matching the saves
        for offset in frame.saves:
            self._emit_local_load(frame, offset, save_restore=True)
        self._emit(_IALU, _SP_REG, (_SP_REG,))
        self._emit(_BRANCH, NO_REG, (31,))

    # -- memory reference emission -------------------------------------------

    def _classify(self, pc_seed: int) -> Tuple[Optional[bool], bool, int]:
        """Pick (hint, sp_based, pc) for a local reference."""
        rng = self.rng
        spec = self.spec
        if rng.random() < spec.ambig_frac:
            site = rng.randrange(_AMBIG_SITES)
            return None, False, site  # ambiguous pointer site
        if rng.random() < spec.nonsp_frac:
            return True, False, pc_seed  # local but not $sp-indexed
        return True, True, pc_seed

    def _emit_local_store(self, frame: _Frame, offset: int,
                          save_restore: bool = False) -> None:
        hint, sp_based, pc = self._classify(self.rng.randrange(1 << 16))
        addr = frame.sp + offset
        if save_restore:
            # Register saves read callee-saved values produced long ago:
            # the whole burst is ready the moment it dispatches, so it
            # hits the LVC ports all at once (the paper's bursty stack
            # traffic around calls).
            data = 16 + (offset >> 2) % 8
        else:
            data = self._srcs_int(1)[0]
        self._emit(_STORE, NO_REG, (_SP_REG, data), pc, addr, hint, True,
                   sp_based, frame.frame_id, offset)
        frame.store_times[offset] = self._emitted

    def _emit_local_load(self, frame: _Frame, offset: int,
                         save_restore: bool = False) -> None:
        hint, sp_based, pc = self._classify(self.rng.randrange(1 << 16))
        addr = frame.sp + offset
        if save_restore:
            # Restores refill callee-saved registers; nothing consumes the
            # value immediately, so keep it out of the dependence pool.
            dst = 16 + (offset >> 2) % 8
        else:
            dst = self._dst_int()
        self._emit(_LOAD, dst, (_SP_REG,), pc, addr, hint, True, sp_based,
                   frame.frame_id, offset)

    def _body_local_store(self) -> None:
        frame = self._stack[-1]
        rng = self.rng
        offset = 4 * rng.randrange(frame.words)
        self._emit_local_store(frame, offset)
        # Spill-reload pairing: programs with short calibrated reuse
        # distances (129.compress at ~15) re-read most stored slots while
        # the store still sits in the LVAQ.
        rd = self.spec.reuse_distance
        if rd <= 30:
            pair_prob = 0.8
        elif rd <= 90:
            pair_prob = 0.45
        else:
            pair_prob = 0.05
        if self._pending_reload is None and rng.random() < pair_prob:
            delay = max(2, int(rng.expovariate(1.0 / rd)))
            self._pending_reload = (frame, offset, self._emitted + delay)

    def _body_local_load(self) -> None:
        frame = self._stack[-1]
        rng = self.rng
        spec = self.spec
        # Some programs' local loads feed dependent work (spill reloads of
        # live values); others' do not — the paper notes 130.li's local
        # accesses sit off the critical path (Section 4.2.3).
        critical = rng.random() < spec.local_criticality
        offset = None
        if frame.store_times and rng.random() < 0.8:
            # Re-read a stored slot, preferring one whose last store is
            # about ``reuse_distance`` instructions old.  Short calibrated
            # distances make the value forwardable from the LVAQ; long
            # ones (e.g. 124.m88ksim) mean the store left the queue ages
            # ago, so the load must hit the LVC instead.
            now = self._emitted
            target = spec.reuse_distance
            offset = min(
                frame.store_times,
                key=lambda off: abs((now - frame.store_times[off]) - target),
            )
        if offset is None:
            offset = 4 * rng.randrange(frame.words)
        self._emit_local_load(frame, offset, save_restore=not critical)

    def _global_addr(self) -> int:
        """Global/heap reference address.

        Three regimes mirror real data streams: sequential sweeps with
        temporal reuse (each word touched a few times before the pointer
        advances), a hot random set (fits in L1), and cold random traffic
        over the full working set (produces the L1/L2 miss traffic and the
        stack/data conflicts of Section 4.2.1).
        """
        rng = self.rng
        spec = self.spec
        seq_frac = 0.8 if spec.is_fp else 0.5
        if rng.random() < seq_frac:
            advance = 0.8 if spec.is_fp else 0.4
            if rng.random() < advance:
                self._sweep = (self._sweep + 1) % spec.ws_words
            return DATA_BASE + 4 * self._sweep
        hot_words = min(spec.ws_words, 2500)
        if rng.random() < 0.85:
            return DATA_BASE + 4 * rng.randrange(hot_words)
        return DATA_BASE + 4 * rng.randrange(spec.ws_words)

    def _body_global_load(self) -> None:
        use_fp = self.spec.is_fp and self.rng.random() < 0.7
        dst = self._dst_fp() if use_fp else self._dst_int()
        srcs = self._addr_srcs()
        addr = self._global_addr()
        self._emit(_LOAD, dst, srcs, self.rng.randrange(1 << 16), addr,
                   False)

    def _body_global_store(self) -> None:
        use_fp = self.spec.is_fp and self.rng.random() < 0.7
        data = self._srcs_fp(1)[0] if use_fp else self._srcs_int(1)[0]
        srcs = (self._addr_srcs()[0], data)
        addr = self._global_addr()
        self._emit(_STORE, NO_REG, srcs, self.rng.randrange(1 << 16), addr,
                   False)

    # -- compute/branch emission -----------------------------------------------

    def _body_ialu(self) -> None:
        rng = self.rng
        spec = self.spec
        roll = rng.random()
        if roll < spec.div_frac:
            fu = _IDIV
        elif roll < spec.div_frac + spec.mul_frac:
            fu = _IMULT
        else:
            fu = _IALU
        dst = self._dst_int()
        self._emit(fu, dst, self._alu_srcs_int())

    def _body_falu(self) -> None:
        fu = _FMUL if self.rng.random() < 0.4 else _FADD
        dst = self._dst_fp()
        self._emit(fu, dst, self._alu_srcs_fp())

    def _body_branch(self) -> None:
        # Most branch conditions test values computed a while ago (loop
        # bounds, flags); with an oracle front end they never stall fetch.
        if self.rng.random() < 0.7:
            srcs: Tuple[int, ...] = (6,)
        else:
            srcs = self._srcs_int(1)
        self._emit(_BRANCH, NO_REG, srcs, self.rng.randrange(1 << 16))

    # -- main loop ----------------------------------------------------------

    def generate(self) -> Trace:
        """Produce the trace (single use per generator instance)."""
        spec = self.spec
        rng = self.rng
        length = self.length
        counts = self._counts

        alu_frac = 1.0 - spec.mem_frac - _BRANCH_FRAC
        targets = {
            "load_local": spec.load_frac * spec.local_load_frac,
            "load_global": spec.load_frac * (1 - spec.local_load_frac),
            "store_local": spec.store_frac * spec.local_store_frac,
            "store_global": spec.store_frac * (1 - spec.local_store_frac),
            "ialu": alu_frac * (1 - spec.fp_frac),
            "falu": alu_frac * spec.fp_frac,
            "branch": _BRANCH_FRAC,
        }
        emitters = {
            "load_local": self._body_local_load,
            "load_global": self._body_global_load,
            "store_local": self._body_local_store,
            "store_global": self._body_global_store,
            "ialu": self._body_ialu,
            "falu": self._body_falu,
            "branch": self._body_branch,
        }
        keys = list(targets)

        while self._emitted < length:
            local_ok = self._local_phase()
            frame = self._stack[-1]
            pending = self._pending_reload
            if (pending is not None and local_ok
                    and self._emitted >= pending[2]):
                self._pending_reload = None
                if pending[0] is frame:  # frame still live?
                    counts["load_local"] += 1
                    self._emit_local_load(frame, pending[1])
                    continue
            if (local_ok and len(self._stack) < spec.max_depth
                    and rng.random() < spec.call_rate):
                before = self._counts_mem_snapshot()
                self._do_call()
                self._account_burst(before)
                continue
            if frame.budget <= 0 and len(self._stack) > 1:
                before = self._counts_mem_snapshot()
                self._do_return()
                self._account_burst(before)
                continue
            frame.budget -= 1
            total = self._emitted + 1
            weights = []
            for key in keys:
                if targets[key] <= 0.0:
                    weights.append(0.0)  # e.g. no FP in integer programs
                    continue
                if not local_ok and key in ("load_local", "store_local"):
                    weights.append(0.0)
                    continue
                deficit = targets[key] * total - counts[key]
                weights.append(max(deficit, 0.0) + 0.001)
            key = rng.choices(keys, weights=weights, k=1)[0]
            counts[key] += 1
            emitters[key]()

        self.trace.stats.instructions = self._emitted
        return self.trace

    # Save/restore bursts bypass the steering loop, so fold their memory
    # traffic back into the category counters to keep the mix on target.
    def _counts_mem_snapshot(self) -> Tuple[int, int]:
        stats = self.trace.stats
        return stats.local_loads, stats.local_stores

    def _account_burst(self, before: Tuple[int, int]) -> None:
        stats = self.trace.stats
        self._counts["load_local"] += stats.local_loads - before[0]
        self._counts["store_local"] += stats.local_stores - before[1]


def generate_trace(spec: WorkloadSpec, length: Optional[int] = None,
                   seed: int = 1) -> Trace:
    """Generate a calibrated synthetic trace for *spec*."""
    if length is None:
        length = spec.default_length
    return SyntheticGenerator(spec, length, seed).generate()
