"""VM golden test: the predecoded Machine is bit-identical to the seed VM.

:class:`repro.vm.machine.Machine` decodes each static instruction once
into a handler; :class:`repro.perf.reference_vm.ReferenceMachine` is the
frozen seed interpreter it replaced.  :func:`repro.perf.golden.diff_machines`
runs a program on both and compares every ``DynInst`` slot, every
``TraceStats`` count and the frame-size histogram, the output, exit code,
instruction count, registers, memory words and the fault raised (type and
message).  The inputs cover every mini-C program at every level, every
fragment of ``tests/vm/test_machine.py``, budget stops, resumed and
untraced runs, each guest fault, and operand/destination register classes
the compiler never emits.  A sabotaged handler closes the loop: the
comparison must catch a wrong 32-bit wrap.
"""

from __future__ import annotations

import functools

import pytest

from repro.asm import assemble
from repro.isa.opcodes import Opcode
from repro.lang import CompilerOptions, compile_source
from repro.perf.golden import diff_machines
from repro.perf.reference_vm import ReferenceMachine
from repro.vm import machine as machine_module
from repro.vm.machine import Machine
from repro.workloads.minic import MINIC_PROGRAMS

from tests.vm.test_machine import FRAGMENTS

#: Runs to exit at every level; the other programs stop at BUDGET.
TO_EXIT = "mini.linkedlist"
BUDGET = 15_000


@functools.lru_cache(maxsize=None)
def _compiled(name: str, level: int):
    return compile_source(MINIC_PROGRAMS[name][0],
                          CompilerOptions(source_name=name, opt_level=level))


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(MINIC_PROGRAMS))
def test_minic_programs(name, level):
    budget = 50_000_000 if name == TO_EXIT else BUDGET
    assert diff_machines(_compiled(name, level), budget) == []


def test_linkedlist_really_exits():
    vm = Machine(_compiled(TO_EXIT, 2))
    assert vm.run() == 0
    assert vm.stdout


@pytest.mark.parametrize("name", sorted(FRAGMENTS))
def test_machine_fragments(name):
    # The budget only matters to the endless loop; the rest exit.
    assert diff_machines(assemble(FRAGMENTS[name]), BUDGET) == []


@pytest.mark.parametrize("budget", [1, 100])
def test_budget_stops(budget):
    assert diff_machines(_compiled("mini.qsort", 2), budget) == []
    assert diff_machines(assemble(FRAGMENTS["endless_loop"]), budget) == []


def test_untraced_runs():
    assert diff_machines(_compiled("mini.stencil", 1), BUDGET,
                         trace=False) == []
    assert diff_machines(_compiled(TO_EXIT, 0), trace=False) == []


def _resumed(machine_type):
    """*machine_type* whose run first stops at 100 instructions, then
    resumes with the caller's budget (state carries across runs)."""

    class Resumed(machine_type):
        def run(self, max_instructions=50_000_000):
            super().run(max_instructions=100)
            return super().run(max_instructions=max_instructions)

    return Resumed


def test_resumed_runs():
    assert diff_machines(_compiled("mini.treesearch", 2), BUDGET,
                         machine=_resumed(Machine),
                         reference=_resumed(ReferenceMachine)) == []


#: name -> (program, error type, message) for each guest fault.
FAULTS = {
    "integer division by zero": (
        "main:\n    li $t0, 1\n    div $t1, $t0, $zero\n",
        "VmError", "division by zero at pc=1"),
    "integer remainder by zero": (
        "main:\n    li $t0, 1\n    rem $t1, $t0, $zero\n",
        "VmError", "division by zero at pc=1"),
    "FP division by zero": (
        "main:\n    li $t0, 1\n    cvt.s.w $f1, $t0\n"
        "    div.s $f2, $f1, $f3\n",
        "VmError", "FP division by zero at pc=2"),
    "unaligned load": (
        "main:\n    li $t0, 4098\n    lw $t1, 0($t0)\n",
        "VmError", "unaligned word load at 0x1002"),
    "unaligned FP load": (
        "main:\n    li $t0, 4098\n    l.s $f1, 0($t0)\n",
        "VmError", "unaligned word load at 0x1002"),
    "unaligned store": (
        "main:\n    li $t0, 4098\n    sw $t1, 0($t0)\n",
        "VmError", "unaligned word store at 0x1002"),
    "negative load address": (
        "main:\n    li $t0, -8\n    lw $t1, 0($t0)\n",
        "VmError", "negative address -0x8"),
    "negative store address": (
        "main:\n    li $t0, -8\n    s.s $f1, 0($t0)\n",
        "VmError", "negative address -0x8"),
    "byte load from a float word": (
        "main:\n    addi $sp, $sp, -4\n    li $t0, 1\n"
        "    cvt.s.w $f1, $t0\n    s.s $f1, 0($sp)\n    lb $t1, 2($sp)\n",
        "VmError", "byte load from float-valued word at 0x7fffeffe"),
    "byte store into a float word": (
        "main:\n    addi $sp, $sp, -4\n    li $t0, 1\n"
        "    cvt.s.w $f1, $t0\n    s.s $f1, 0($sp)\n    sb $t0, 1($sp)\n",
        "VmError", "byte store into float-valued word at 0x7fffeffd"),
    "jump past the code": (
        "main:\n    li $t0, 9999\n    jr $t0\n",
        "VmError", "pc out of range: 9999"),
    "jump to a negative pc": (
        "main:\n    li $t0, -1\n    jalr $t0\n",
        "VmError", "pc out of range: -1"),
    "fall off the end": (
        "main:\n    li $t0, 1\n",
        "VmError", "pc out of range: 1"),
    "branch to a trailing label": (
        "main:\n    beq $zero, $zero, end\n    li $t0, 1\nend:\n",
        "VmError", "pc out of range: 2"),
    "unknown syscall": (
        "main:\n    syscall 9\n",
        "VmError", "unknown syscall 9"),
    "negative sbrk": (
        "main:\n    li $a0, -4\n    syscall 3\n",
        "VmError", "sbrk with negative amount"),
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_faults_match(name):
    source, error, message = FAULTS[name]
    program = assemble(source)
    assert diff_machines(program) == []
    # The fault really fires (diff_machines compared it on both VMs).
    vm = Machine(program)
    with pytest.raises(Exception) as info:
        vm.run()
    assert (type(info.value).__name__, str(info.value)) == (error, message)


def test_budget_ending_on_a_bad_pc_is_no_fault():
    program = assemble(FAULTS["jump past the code"][0])
    assert diff_machines(program, max_instructions=2) == []
    vm = Machine(program)
    assert vm.run(max_instructions=2) == -1
    assert vm.pc == 9999


#: Register classes the compiler never emits: FPR sources of integer
#: operations (the seed's ``int()``), float values into GPRs and ``$sp``,
#: integer results into FPRs (no wrap), writes to ``$zero``, word loads
#: of float words and into FPRs, and an FPR-tested branch.
REGISTER_CLASSES = """
main:
    li $t0, 7
    move $f1, $t0
    add $t1, $f1, $t0
    cvt.s.w $f2, $t0
    add.s $t2, $f2, $f2
    li $t3, 2147483647
    addi $t3, $t3, 1
    add $f3, $t3, $t3
    mul $f4, $t3, $t3
    sub $zero, $t3, $t0
    addi $sp, $sp, -8
    s.s $f2, 0($sp)
    lw $t4, 0($sp)
    l.s $t5, 0($sp)
    lw $f5, 0($sp)
    sw $f2, 4($sp)
    sb $t0, 5($sp)
    lb $t6, 5($sp)
    slti $f6, $t3, 0
    blez $f2, skip
    li $t7, 1
skip:
    move $s0, $sp
    add.s $sp, $f2, $f2
    move $sp, $s0
    addi $sp, $sp, 8
    lui $f7, 3
    li $a0, 0
    syscall 0
"""


#: Every opcode at least once, with ``.word``/``.byte``/``.float`` data
#: (a word load of a float word included), every syscall and a register
#: call and return.
EVERY_OPCODE = """
    .data
words:  .word 5, -9, 2147483647
bytes:  .byte 1, 255, 7
floats: .float 2.5, -0.75
    .text
main:
    la   $s4, words
    lw   $t0, 0($s4)
    lw   $t1, 4($s4)
    la   $s5, bytes
    lb   $t2, 1($s5)
    la   $s6, floats
    l.s  $f1, 0($s6)
    l.s  $f2, 4($s6)
    lw   $t3, 0($s6)
    lui  $t4, 3
    move $t5, $t1
    li   $t6, 40
    add  $s0, $t0, $t1
    addi $s0, $s0, 3
    sub  $s0, $t0, $t1
    and  $s0, $t0, $t1
    andi $s0, $t1, 255
    or   $s0, $t0, $t1
    ori  $s0, $t1, 255
    xor  $s0, $t0, $t1
    xori $s0, $t1, 255
    nor  $s0, $t0, $t1
    sll  $s1, $t1, 3
    srl  $s1, $t1, 3
    sra  $s1, $t1, 3
    sllv $s1, $t1, $t6
    srlv $s1, $t1, $t6
    srav $s1, $t1, $t6
    slt  $s2, $t1, $t0
    slti $s2, $t1, -8
    sltu $s2, $t1, $t0
    lw   $t7, 8($s4)
    mul  $s3, $t7, $t1
    div  $s3, $t7, $t1
    rem  $s3, $t7, $t1
    addi $sp, $sp, -16
    sw   $t1, 0($sp)
    lw   $s7, 0($sp)
    sb   $t1, 5($sp)
    lb   $s7, 5($sp)
    s.s  $f1, 8($sp)
    cvt.s.w $f3, $t1
    add.s $f4, $f1, $f2
    sub.s $f4, $f4, $f3
    mul.s $f4, $f4, $f2
    div.s $f4, $f4, $f3
    neg.s $f5, $f4
    mov.s $f12, $f5
    syscall 4
    cvt.w.s $t8, $f4
    c.lt.s $t9, $f1, $f2
    c.le.s $t9, $f1, $f2
    c.eq.s $t9, $f1, $f1
    beq  $t0, $t0, l1
l1: bne  $t0, $t1, l2
l2: blez $t1, l3
l3: bgtz $t0, l4
l4: bltz $t1, l5
l5: bgez $t0, l6
l6: j    l7
l7: jal  helper
    la   $t2, helper
    jalr $t2
    nop
    li   $a0, 8
    syscall 3
    move $a0, $t1
    syscall 1
    li   $a0, 65
    syscall 2
    addi $sp, $sp, 16
    li   $a0, 0
    syscall 0
helper:
    addi $sp, $sp, -8
    sw   $ra, 4($sp)
    lw   $ra, 4($sp)
    addi $sp, $sp, 8
    jr   $ra
"""


def test_every_opcode():
    program = assemble(EVERY_OPCODE)
    assert {ins.op for ins in program.instructions} == set(Opcode)
    assert diff_machines(program) == []
    assert diff_machines(program, trace=False) == []


def test_unusual_register_classes():
    assert diff_machines(assemble(REGISTER_CLASSES)) == []
    assert diff_machines(assemble(REGISTER_CLASSES), trace=False) == []


class MiswrappedMachine(Machine):
    """The predecoded VM with an unsigned 32-bit wrap in its handlers.

    Exists to prove the comparison catches a handler bug: the wrap only
    matters when a value leaves the signed range, which the programs'
    hash arithmetic does within a few thousand instructions.
    """

    def run(self, max_instructions=50_000_000):
        wrap = machine_module._wrap32
        machine_module._wrap32 = lambda value: value & 0xFFFFFFFF
        try:
            return super().run(max_instructions=max_instructions)
        finally:
            machine_module._wrap32 = wrap


def test_miswrapped_handler_is_caught():
    program = _compiled("mini.qsort", 2)
    mismatches = diff_machines(program, BUDGET, machine=MiswrappedMachine)
    assert mismatches, "VM golden comparison missed a wrong 32-bit wrap"
    # ... and the patch was undone: the real VM still matches.
    assert diff_machines(program, BUDGET) == []
