"""The functional interpreter.

Executes a :class:`~repro.isa.program.Program` instruction by instruction,
optionally emitting a dynamic :class:`~repro.vm.trace.Trace` for the timing
simulator.  The interpreter also maintains the activation-record bookkeeping
the paper's measurements need: per-call frame sizes (Figure 3), call depth,
frame ids and ``$sp``-relative offsets (fast data forwarding keys).

Predecode.  :meth:`Machine.run` first decodes every static instruction
once into a *handler*: a zero-argument closure that executes one dynamic
instance of its instruction and returns the next pc, so the run loop is
``pc = handlers[pc]()``.  Decoding binds everything that is the same for
every dynamic instance: the operands, the register-write rule of the
destination (writes to ``$zero`` dropped, GPRs wrapped to signed 32 bits,
FPR values stored as they are, ``$sp`` writes tracking the frame's lowest
``$sp``), the next pc, and the static ``DynInst`` fields, including one
``srcs`` tuple shared read-only by every dynamic instance.

Handler contract:

* a handler returns the next pc; it executes its instruction completely
  (register and memory writes, then its ``DynInst`` when tracing) or
  raises before any side effect — ``VmError`` for a guest fault, or the
  Python error the seed interpreter raised in the same place (e.g.
  ``int()`` of an infinite float);
* the exit syscall records its ``DynInst`` and raises ``VmExit``; the
  run loop counts it as executed;
* a handler whose successor may lie outside the code (register jumps,
  fall-through past the last instruction, out-of-range branch targets)
  records that pc and returns ``len(code)``, where a last handler raises
  the seed's ``pc out of range`` fault — after the budget check, as the
  seed interpreter did;
* GPRs always hold ints (every GPR write wraps to one), so integer
  operands read from GPRs skip the seed's ``int()``; FPR operands keep it.

The run loop keeps the instruction count in a local and leaves the cyclic
GC off for the run (it allocates only acyclic ``DynInst``, tuple and int
objects); ``TraceStats`` counts are folded in when the run ends.  The
frozen seed interpreter, :class:`repro.perf.reference_vm.ReferenceMachine`,
is the bit-for-bit reference (``docs/perf.md``, "Functional VM").
"""

from __future__ import annotations

import gc
import operator
from typing import Callable, List, Optional, Tuple

from repro.errors import VmError, VmExit
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Fmt, FuClass, Opcode, Syscall
from repro.isa.program import (
    HEAP_BASE,
    Program,
    STACK_BASE,
    STACK_LIMIT,
)
from repro.isa.registers import FPR_BASE, Reg, TOTAL_REGS
from repro.vm.memory import SparseMemory
from repro.vm.trace import DynInst, NO_REG, Trace

_SP = int(Reg.SP)
_FP = int(Reg.FP)
_RA = int(Reg.RA)
_V0 = int(Reg.V0)
_A0 = int(Reg.A0)
_F12 = FPR_BASE + 12

_IALU = int(FuClass.IALU)
_BRANCH = int(FuClass.BRANCH)
_SYSCALL = int(FuClass.SYSCALL)

#: One decoded instruction: executes a dynamic instance, returns next pc.
Handler = Callable[[], int]


def _wrap32(value: int) -> int:
    """``to_signed32`` inlined (the same operations, one call)."""
    return ((value & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000


def _drop(value) -> None:
    """The write rule of ``$zero``: the value is discarded."""


# -- opcode semantics --------------------------------------------------------
# Value functions on the seed interpreter's converted operands.  Integer
# operations take ints (``int()`` of each register source is applied at
# decode time when the source is an FPR); FP operations convert their raw
# register values themselves, as the seed did.  Division is bound per pc
# (its fault message names the pc).

def _shift_left(a: int, b: int) -> int:
    return a << (b & 31)


def _shift_right_logical(a: int, b: int) -> int:
    return (a & 0xFFFFFFFF) >> (b & 31)


def _shift_right(a: int, b: int) -> int:
    return a >> (b & 31)


def _less(a: int, b: int) -> int:
    return 1 if a < b else 0


#: ``f(rs, rt or imm)`` for the integer RRR/RRI opcodes.
_INT_BINARY = {
    Opcode.ADD: operator.add,
    Opcode.ADDI: operator.add,
    Opcode.SUB: operator.sub,
    Opcode.AND: operator.and_,
    Opcode.ANDI: operator.and_,
    Opcode.OR: operator.or_,
    Opcode.ORI: operator.or_,
    Opcode.XOR: operator.xor,
    Opcode.XORI: operator.xor,
    Opcode.NOR: lambda a, b: ~(a | b),
    Opcode.SLL: _shift_left,
    Opcode.SLLV: _shift_left,
    Opcode.SRL: _shift_right_logical,
    Opcode.SRLV: _shift_right_logical,
    Opcode.SRA: _shift_right,
    Opcode.SRAV: _shift_right,
    Opcode.SLT: _less,
    Opcode.SLTI: _less,
    Opcode.SLTU: lambda a, b: _less(a & 0xFFFFFFFF, b & 0xFFFFFFFF),
    # The multiplier wraps its product before the register write does.
    Opcode.MUL: lambda a, b: _wrap32(a * b),
}

#: ``f(rs, rt)`` for the FP RRR opcodes (FDIV is bound per pc).
_FP_BINARY = {
    Opcode.FADD: lambda a, b: float(a) + float(b),
    Opcode.FSUB: lambda a, b: float(a) - float(b),
    Opcode.FMUL: lambda a, b: float(a) * float(b),
    Opcode.CLTS: lambda a, b: 1 if float(a) < float(b) else 0,
    Opcode.CLES: lambda a, b: 1 if float(a) <= float(b) else 0,
    Opcode.CEQS: lambda a, b: 1 if float(a) == float(b) else 0,
}

#: ``f(rs, ignored)`` for the RR opcodes (one handler shape serves all
#: three formats).
_UNARY = {
    Opcode.MOVE: lambda a, _: a,
    Opcode.FNEG: lambda a, _: -float(a),
    Opcode.FMOV: lambda a, _: float(a),
    Opcode.CVTSW: lambda a, _: float(int(a)),
    Opcode.CVTWS: lambda a, _: int(float(a)),
}

#: Opcodes whose value may be a float: a GPR destination then takes the
#: full write rule (``int()`` first), not the inline wrap.
_FLOAT_VALUED = frozenset({
    Opcode.MOVE, Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV,
    Opcode.FNEG, Opcode.FMOV, Opcode.CVTSW, Opcode.LS,
})

#: Conditional-branch tests ``f(rs, rt)``; one-register branches compare
#: against ``$zero``, which always reads 0.
_BRANCH_TESTS = {
    Opcode.BEQ: operator.eq,
    Opcode.BNE: operator.ne,
    Opcode.BLEZ: operator.le,
    Opcode.BGTZ: operator.gt,
    Opcode.BLTZ: operator.lt,
    Opcode.BGEZ: operator.ge,
}


def _divider(pc: int, remainder: bool):
    """DIV/REM semantics: truncation toward zero, faulting on zero."""

    def divide(a: int, b: int) -> int:
        if b == 0:
            raise VmError(f"division by zero at pc={pc}")
        quotient = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            quotient = -quotient
        return a - quotient * b if remainder else quotient

    return divide


def _fp_divider(pc: int):
    """FDIV semantics, faulting on a zero divisor."""

    def divide(a, b) -> float:
        b = float(b)
        if b == 0.0:
            raise VmError(f"FP division by zero at pc={pc}")
        return float(a) / b

    return divide


def _int_sources(fn, convert_a: bool, convert_b: bool):
    """*fn* with the seed's ``int()`` applied to FPR-sourced operands."""
    if convert_a and convert_b:
        return lambda a, b: fn(int(a), int(b))
    if convert_a:
        return lambda a, b: fn(int(a), b)
    if convert_b:
        return lambda a, b: fn(a, int(b))
    return fn


class _Frame:
    """Bookkeeping for one activation record."""

    __slots__ = ("frame_id", "sp_entry", "min_sp", "return_index")

    def __init__(self, frame_id: int, sp_entry: int, return_index: int):
        self.frame_id = frame_id
        self.sp_entry = sp_entry
        self.min_sp = sp_entry
        self.return_index = return_index


class Machine:
    """A functional VM instance bound to one program."""

    def __init__(self, program: Program, trace: bool = True):
        program.resolve()
        self.program = program
        self.memory = SparseMemory()
        self.regs: List[float] = [0] * TOTAL_REGS
        self.pc = program.entry_index
        self.brk = HEAP_BASE
        self.output: List[str] = []
        self.exit_code: Optional[int] = None
        self.trace: Optional[Trace] = (
            Trace(program.source_name) if trace else None
        )
        self.instructions_executed = 0
        self._frames: List[_Frame] = [_Frame(0, STACK_BASE, -1)]
        self._next_frame_id = 1
        self.regs[_SP] = STACK_BASE
        self.regs[_FP] = STACK_BASE
        self._init_data()

    def _init_data(self) -> None:
        for item in self.program.data:
            addr = self.program.data_address(item.name)
            if item.element_size == 1:
                for i, value in enumerate(item.values):
                    self.memory.store_byte(addr + i, int(value))
            else:
                for i, value in enumerate(item.values):
                    self.memory.store_word(addr + i * 4, value)

    # -- frame bookkeeping ----------------------------------------------------

    @property
    def current_frame_id(self) -> int:
        """Frame id of the innermost activation record."""
        return self._frames[-1].frame_id

    @property
    def call_depth(self) -> int:
        """Current call nesting depth (main == 1)."""
        return len(self._frames)

    def _enter_frame(self, return_index: int) -> None:
        frame = _Frame(self._next_frame_id, int(self.regs[_SP]), return_index)
        self._next_frame_id += 1
        self._frames.append(frame)
        if self.trace is not None:
            stats = self.trace.stats
            stats.calls += 1
            if len(self._frames) > stats.max_call_depth:
                stats.max_call_depth = len(self._frames)

    def _leave_frame(self, target_index: int) -> None:
        if len(self._frames) > 1 and self._frames[-1].return_index == target_index:
            frame = self._frames.pop()
            if self.trace is not None:
                words = max(0, (frame.sp_entry - frame.min_sp) // 4)
                self.trace.stats.frame_sizes.add(words)

    # -- main loop -----------------------------------------------------------

    def run(self, max_instructions: int = 50_000_000) -> int:
        """Run until exit or the instruction budget; returns exit code.

        When the budget is hit before the guest exits, the exit code is -1
        and the (partial) trace remains valid — this is how workloads are
        scaled down.
        """
        decoded = _Predecoded(self)
        handlers = decoded.handlers
        code = len(self.program.instructions)
        pc = self.pc
        if not 0 <= pc < code:
            decoded.bad_pc[0] = pc
            pc = code
        executed = self.instructions_executed
        start = executed
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while executed < max_instructions:
                pc = handlers[pc]()
                executed += 1
        except VmExit as exit_:
            executed += 1
            self.exit_code = exit_.code
            return exit_.code
        finally:
            if gc_was_enabled:
                gc.enable()
            self.pc = decoded.bad_pc[0] if pc == code else pc
            self.instructions_executed = executed
            if self.trace is not None:
                decoded.fold_stats(self.trace.stats, executed - start)
        self.exit_code = -1
        return -1

    @property
    def stdout(self) -> str:
        """Everything the guest printed, concatenated."""
        return "".join(self.output)


class _Predecoded:
    """One run's handlers for a machine's program, plus their counters.

    Built at the start of each :meth:`Machine.run` and dropped at its end,
    so nothing decoded outlives the run or is shared between machines.
    Handlers close over the machine's register list, memory dict, frame
    stack and trace list — never over this object, so no reference cycle
    is formed.
    """

    def __init__(self, vm: Machine):
        code = vm.program.instructions
        self.bad_pc = [len(code)]
        #: The trace's append, or None when the machine does not trace.
        self._emit = vm.trace.insts.append if vm.trace is not None else None
        #: Per-pc executions and stack-region executions of memory ops.
        self._execs = [0] * len(code)
        self._local_execs = [0] * len(code)
        #: (pc, is_load, sp_based, ambiguous) per memory instruction.
        self._mem_sites: List[Tuple[int, bool, bool, bool]] = []
        self._vm = vm
        self.handlers: List[Handler] = [
            self._decode(ins, pc, len(code)) for pc, ins in enumerate(code)]
        self.handlers.append(self._pc_fault())

    def fold_stats(self, stats, executed: int) -> None:
        """Add this run's instruction and memory-reference counts."""
        stats.instructions += executed
        execs, local_execs = self._execs, self._local_execs
        for pc, is_load, sp_based, ambiguous in self._mem_sites:
            count = execs[pc]
            if not count:
                continue
            if is_load:
                stats.loads += count
                stats.local_loads += local_execs[pc]
            else:
                stats.stores += count
                stats.local_stores += local_execs[pc]
            if sp_based:
                stats.sp_based_refs += count
            if ambiguous:
                stats.ambiguous_refs += count

    # -- decode ----------------------------------------------------------------

    def _writer(self, rd: int) -> Callable[[object], None]:
        """The full register-write rule for destination *rd*."""
        regs = self._vm.regs
        frames = self._vm._frames
        if rd == 0:  # $zero is hardwired
            return _drop
        if rd >= FPR_BASE:
            def write_fpr(value) -> None:
                regs[rd] = value
            return write_fpr

        def write_gpr(value) -> None:
            if isinstance(value, float):
                value = int(value)
            value = _wrap32(value)
            regs[rd] = value
            if rd == _SP:
                frame = frames[-1]
                if value < frame.min_sp:
                    frame.min_sp = value
        return write_gpr

    def _decode(self, ins: Instruction, pc: int, code: int) -> Handler:
        op = ins.op
        fmt = op.fmt
        nxt = pc + 1
        if op.is_mem:
            handler = self._memory(ins, pc, nxt)
        elif fmt is Fmt.RI:
            handler = self._constant(ins, pc, nxt)
        elif op.fu is FuClass.BRANCH:
            handler = self._branch(ins, pc, nxt)
        elif op.fu is FuClass.SYSCALL:
            handler = self._syscall(ins, pc, nxt)
        elif op.fu is FuClass.NONE:
            handler = self._nop(pc, nxt)
        else:
            handler = self._alu(ins, pc, nxt)
        if op.fu is FuClass.BRANCH and fmt is Fmt.JR:
            return self._guarded(handler, code)  # a register target
        if op is Opcode.J or op is Opcode.JAL:
            successors = (ins.imm,)
        elif op.fu is FuClass.BRANCH:
            successors = (nxt, ins.imm)
        elif op.fu is FuClass.SYSCALL and ins.imm == Syscall.EXIT:
            successors = ()
        else:
            successors = (nxt,)
        if all(0 <= s < code for s in successors):
            return handler
        return self._guarded(handler, code)

    def _guarded(self, handler: Handler, code: int) -> Handler:
        """Route an out-of-range successor to the pc-fault handler."""
        bad_pc = self.bad_pc

        def guarded() -> int:
            nxt = handler()
            if 0 <= nxt < code:
                return nxt
            bad_pc[0] = nxt
            return code
        return guarded

    def _pc_fault(self) -> Handler:
        bad_pc = self.bad_pc

        def pc_fault() -> int:
            raise VmError(f"pc out of range: {bad_pc[0]}")
        return pc_fault

    def _rd_rule(self, rd: int, int_valued: bool):
        """(inline 32-bit wrap?, full write rule) for destination *rd*.

        The common case — an int value into an ordinary GPR — is written
        inline by the handler; everything else goes through the writer.
        """
        inline = int_valued and 0 < rd < FPR_BASE and rd != _SP
        return inline, self._writer(rd)

    def _constant(self, ins: Instruction, pc: int, nxt: int) -> Handler:
        """LI/LA/LUI: an ordinary GPR gets its value wrapped at decode."""
        rd, imm = ins.rd, ins.imm
        shift = 16 if ins.op is Opcode.LUI else 0
        inline, write = self._rd_rule(rd, isinstance(imm, int))
        value = _wrap32(imm << shift) if inline else None
        srcs = ins.reads
        regs = self._vm.regs
        emit = self._emit

        def constant() -> int:
            if inline:
                regs[rd] = value
            else:
                write(imm << shift)
            if emit is not None:
                emit(DynInst(_IALU, rd, srcs, 0, 0, None, False, False,
                             0, 0, pc))
            return nxt
        return constant

    def _alu(self, ins: Instruction, pc: int, nxt: int) -> Handler:
        """Integer ALU, multiply/divide and FP register operations."""
        op = ins.op
        rd, rs, rt = ins.rd, ins.rs, ins.rt
        fmt = op.fmt
        fu = int(op.fu)
        srcs = ins.reads
        if op is Opcode.DIV or op is Opcode.REM:
            fn = _divider(pc, op is Opcode.REM)
        elif op is Opcode.FDIV:
            fn = _fp_divider(pc)
        else:
            fn = _INT_BINARY.get(op) or _FP_BINARY.get(op) or _UNARY[op]
        if op in _INT_BINARY or op.fu is FuClass.IDIV:
            fn = _int_sources(fn, rs >= FPR_BASE,
                              fmt is Fmt.RRR and rt >= FPR_BASE)
        int_valued = op not in _FLOAT_VALUED or (
            op is Opcode.MOVE and rs < FPR_BASE)
        inline, write = self._rd_rule(rd, int_valued)
        regs = self._vm.regs
        emit = self._emit
        if fmt is Fmt.RRR:
            second, index = regs, rt
        elif fmt is Fmt.RRI:
            second, index = (ins.imm,), 0
        else:  # RR: the second operand is ignored
            second, index = regs, 0

        def alu() -> int:
            value = fn(regs[rs], second[index])
            if inline:
                regs[rd] = (value if -0x80000000 <= value <= 0x7FFFFFFF
                            else _wrap32(value))
            else:
                write(value)
            if emit is not None:
                emit(DynInst(fu, rd, srcs, 0, 0, None, False, False, 0, 0,
                             pc))
            return nxt
        return alu

    def _memory(self, ins: Instruction, pc: int, nxt: int) -> Handler:
        """Loads and stores, with their local/non-local and frame record."""
        vm = self._vm
        op = ins.op
        is_load = op.is_load
        rd, rs, rt, imm = ins.rd, ins.rs, ins.rt, ins.imm
        fu = int(op.fu)
        dst = rd if is_load else NO_REG
        srcs = ins.reads
        size = ins.mem_size
        hint = ins.local
        sp_based = rs == _SP or rs == _FP
        int_base = rs >= FPR_BASE
        regs = vm.regs
        memory = vm.memory
        # Aligned, non-negative word accesses go straight to the backing
        # dict; every fault goes through SparseMemory, which raises it.
        words = memory._words
        words_get = words.get
        frames = vm._frames
        emit = self._emit
        execs, local_execs = self._execs, self._local_execs
        record = None
        if emit is not None:
            self._mem_sites.append((pc, is_load, sp_based, hint is None))

            def record(addr: int) -> None:
                is_local = STACK_LIMIT <= addr < STACK_BASE
                if sp_based:
                    emit(DynInst(fu, dst, srcs, addr, size, hint, is_local,
                                 True, frames[-1].frame_id,
                                 addr - regs[_SP], pc))
                else:
                    emit(DynInst(fu, dst, srcs, addr, size, hint, is_local,
                                 False, 0, 0, pc))
                execs[pc] += 1
                if is_local:
                    local_execs[pc] += 1

        if is_load:
            inline, write = self._rd_rule(rd, op is not Opcode.LS)
            word = op is Opcode.LW
            load_word = memory.load_word
            if op is Opcode.LB:
                fetch = memory.load_byte
            elif op is Opcode.LS:
                def fetch(addr: int) -> float:
                    return float(load_word(addr))

            def load() -> int:
                addr = (int(regs[rs]) if int_base else regs[rs]) + imm
                if word:
                    if addr < 0 or addr & 3:
                        load_word(addr)  # raises the fault
                    value = int(words_get(addr, 0))
                else:
                    value = fetch(addr)
                if inline:
                    regs[rd] = (value if -0x80000000 <= value <= 0x7FFFFFFF
                                else _wrap32(value))
                else:
                    write(value)
                if record is not None:
                    record(addr)
                return nxt
            return load

        # A GPR store source already holds a wrapped int: SW writes it
        # as is.  Other stores go through SparseMemory.
        word = op is Opcode.SW and rt < FPR_BASE
        store_word = memory.store_word
        if op is Opcode.SB:
            store_byte = memory.store_byte

            def put(addr: int) -> None:
                store_byte(addr, int(regs[rt]))
        elif op is Opcode.SS:
            def put(addr: int) -> None:
                store_word(addr, float(regs[rt]))
        else:
            def put(addr: int) -> None:
                store_word(addr, int(regs[rt]))

        def store() -> int:
            addr = (int(regs[rs]) if int_base else regs[rs]) + imm
            if word:
                value = regs[rt]
                if addr < 0 or addr & 3:
                    store_word(addr, value)  # raises the fault
                words[addr] = value
            else:
                put(addr)
            if record is not None:
                record(addr)
            return nxt
        return store

    def _branch(self, ins: Instruction, pc: int, nxt: int) -> Handler:
        """Conditional branches, jumps, calls and returns."""
        vm = self._vm
        op = ins.op
        rs = ins.rs
        target = ins.imm
        srcs = ins.reads
        regs = vm.regs
        emit = self._emit

        if op is Opcode.J:
            def jump() -> int:
                if emit is not None:
                    emit(DynInst(_BRANCH, NO_REG, srcs, 0, 0, None, False,
                                 False, 0, 0, pc))
                return target
            return jump

        if op is Opcode.JAL or op is Opcode.JALR:
            register = op is Opcode.JALR
            enter = vm._enter_frame

            def call() -> int:
                dest = int(regs[rs]) if register else target
                regs[_RA] = nxt
                enter(nxt)
                if emit is not None:
                    emit(DynInst(_BRANCH, _RA, srcs, 0, 0, None, False,
                                 False, 0, 0, pc))
                return dest
            return call

        if op is Opcode.JR:
            leave = vm._leave_frame

            def jump_register() -> int:
                dest = int(regs[rs])
                leave(dest)
                if emit is not None:
                    emit(DynInst(_BRANCH, NO_REG, srcs, 0, 0, None, False,
                                 False, 0, 0, pc))
                return dest
            return jump_register

        test = _BRANCH_TESTS[op]
        if op.fmt is Fmt.BR2:
            rt = ins.rt
        else:
            rt = 0
            if rs >= FPR_BASE:
                compare = test
                test = lambda a, zero: compare(int(a), zero)  # noqa: E731

        def branch() -> int:
            taken = test(regs[rs], regs[rt])
            if emit is not None:
                emit(DynInst(_BRANCH, NO_REG, srcs, 0, 0, None, False,
                             False, 0, 0, pc))
            return target if taken else nxt
        return branch

    def _syscall(self, ins: Instruction, pc: int, nxt: int) -> Handler:
        vm = self._vm
        call = ins.imm
        regs = vm.regs
        emit = self._emit
        srcs = ins.reads

        if call == Syscall.EXIT:
            def exit_() -> int:
                if emit is not None:
                    emit(DynInst(_SYSCALL, NO_REG, srcs, 0, 0, None, False,
                                 False, 0, 0, pc))
                raise VmExit(int(regs[_A0]))
            return exit_

        out = vm.output.append
        if call == Syscall.PRINT_INT:
            def action() -> None:
                out(str(int(regs[_A0])))
        elif call == Syscall.PRINT_CHAR:
            def action() -> None:
                out(chr(int(regs[_A0]) & 0xFF))
        elif call == Syscall.PRINT_FLOAT:
            def action() -> None:
                out(f"{float(regs[_F12]):.6g}")
        elif call == Syscall.SBRK:
            def action() -> None:
                amount = int(regs[_A0])
                if amount < 0:
                    raise VmError("sbrk with negative amount")
                regs[_V0] = _wrap32(vm.brk)
                vm.brk += (amount + 3) & ~3
        else:
            def action() -> None:
                raise VmError(f"unknown syscall {call}")

        def syscall() -> int:
            action()
            if emit is not None:
                emit(DynInst(_SYSCALL, _V0, srcs, 0, 0, None, False, False,
                             0, 0, pc))
            return nxt
        return syscall

    def _nop(self, pc: int, nxt: int) -> Handler:
        emit = self._emit

        def nop() -> int:
            if emit is not None:
                emit(DynInst(0, NO_REG, (), 0, 0, None, False, False, 0, 0,
                             pc))
            return nxt
        return nop


def run_program(
    program: Program,
    max_instructions: int = 50_000_000,
    trace: bool = True,
) -> Tuple[Machine, Optional[Trace]]:
    """Convenience wrapper: construct a machine, run it, return (vm, trace)."""
    vm = Machine(program, trace=trace)
    vm.run(max_instructions=max_instructions)
    return vm, vm.trace
