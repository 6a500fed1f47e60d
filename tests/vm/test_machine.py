"""Functional tests of the VM's instruction semantics.

Each test assembles a fragment, runs it, and checks the printed results —
the assembler and VM are exercised together, which is how every downstream
user consumes them.  The fragments live in :data:`FRAGMENTS` so the VM
golden test (``tests/perf/test_vm_golden.py``) replays every one of them
against the frozen seed interpreter.
"""

import gc

import pytest

from repro.asm import assemble
from repro.errors import VmError
from repro.vm import run_program
from repro.vm.machine import Machine


def _exiting(body):
    return "main:\n" + body + "\n    li $a0, 0\n    syscall 0\n"


def print_reg(reg):
    return f"    move $a0, {reg}\n    syscall 1\n    li $a0, 32\n    syscall 2\n"


#: name -> complete assembly program.
FRAGMENTS = {
    "arithmetic": _exiting(
        "    li $t0, 7\n"
        "    li $t1, -3\n"
        "    add $t2, $t0, $t1\n"
        "    sub $t3, $t0, $t1\n"
        "    mul $t4, $t0, $t1\n"
        + print_reg("$t2") + print_reg("$t3") + print_reg("$t4")
    ),
    "division": _exiting(
        "    li $t0, -7\n"
        "    li $t1, 2\n"
        "    div $t2, $t0, $t1\n"
        "    rem $t3, $t0, $t1\n"
        + print_reg("$t2") + print_reg("$t3")
    ),
    "division_by_zero": "main:\n    li $t0, 1\n    div $t1, $t0, $zero\n",
    "logic_and_shifts": _exiting(
        "    li $t0, 12\n"
        "    li $t1, 10\n"
        "    and $t2, $t0, $t1\n"
        "    or  $t3, $t0, $t1\n"
        "    xor $t4, $t0, $t1\n"
        "    sll $t5, $t0, 2\n"
        "    sra $t6, $t0, 1\n"
        + print_reg("$t2") + print_reg("$t3") + print_reg("$t4")
        + print_reg("$t5") + print_reg("$t6")
    ),
    "srl": _exiting(
        "    li $t0, -4\n"
        "    srl $t1, $t0, 1\n"
        + print_reg("$t1")
    ),
    "slt_family": _exiting(
        "    li $t0, -5\n"
        "    li $t1, 3\n"
        "    slt  $t2, $t0, $t1\n"
        "    slt  $t3, $t1, $t0\n"
        "    sltu $t4, $t0, $t1\n"  # -5 unsigned is huge
        "    slti $t5, $t0, 0\n"
        + print_reg("$t2") + print_reg("$t3") + print_reg("$t4")
        + print_reg("$t5")
    ),
    "zero_register": _exiting(
        "    li $zero, 99\n"
        + print_reg("$zero")
    ),
    "lui": _exiting("    lui $t0, 2\n" + print_reg("$t0")),
    "memory_word_ops": _exiting(
        "    li $t0, 1234\n"
        "    addi $sp, $sp, -8\n"
        "    sw $t0, 4($sp)\n"
        "    lw $t1, 4($sp)\n"
        "    addi $sp, $sp, 8\n"
        + print_reg("$t1")
    ),
    "branches": _exiting(
        "    li $t0, 3\n"
        "    li $t1, 0\n"
        "loop:\n"
        "    add $t1, $t1, $t0\n"
        "    addi $t0, $t0, -1\n"
        "    bgtz $t0, loop\n"
        + print_reg("$t1")
    ),
    "call_and_return": """
main:
    li   $a0, 5
    jal  double
    move $a0, $v0
    syscall 1
    li   $a0, 0
    syscall 0
double:
    add  $v0, $a0, $a0
    jr   $ra
""",
    "float_ops": _exiting(
        "    li $t0, 3\n"
        "    cvt.s.w $f1, $t0\n"
        "    li $t1, 2\n"
        "    cvt.s.w $f2, $t1\n"
        "    div.s $f3, $f1, $f2\n"
        "    mov.s $f12, $f3\n"
        "    syscall 4\n"
    ),
    "float_compare": _exiting(
        "    li $t0, 1\n"
        "    cvt.s.w $f1, $t0\n"
        "    li $t1, 2\n"
        "    cvt.s.w $f2, $t1\n"
        "    c.lt.s $t2, $f1, $f2\n"
        "    c.eq.s $t3, $f1, $f2\n"
        + print_reg("$t2") + print_reg("$t3")
    ),
    "cvt_truncates": _exiting(
        "    li $t0, 7\n"
        "    cvt.s.w $f1, $t0\n"
        "    li $t1, 2\n"
        "    cvt.s.w $f2, $t1\n"
        "    div.s $f3, $f1, $f2\n"
        "    cvt.w.s $t2, $f3\n"
        + print_reg("$t2")
    ),
    "sbrk": _exiting(
        "    li $a0, 16\n"
        "    syscall 3\n"
        "    move $t0, $v0\n"
        "    li $a0, 16\n"
        "    syscall 3\n"
        "    sub $t1, $v0, $t0\n"
        + print_reg("$t1")
    ),
    "endless_loop": "main:\nloop:\n    j loop\n",
    "stack_locality": _exiting(
        "    addi $sp, $sp, -4\n"
        "    sw $t0, 0($sp)\n"
        "    lw $t1, 0($sp)\n"
        "    addi $sp, $sp, 4\n"
    ),
    "frame_size": """
main:
    jal f
    li $a0, 0
    syscall 0
f:
    addi $sp, $sp, -16
    sw   $t0, 0($sp)
    addi $sp, $sp, 16
    jr   $ra
""",
    "exit_only": "main:\n    li $a0, 0\n    syscall 0\n",
}


def run_fragment(name, max_instructions=1_000_000, trace=True):
    return run_program(assemble(FRAGMENTS[name]),
                       max_instructions=max_instructions, trace=trace)


def test_arithmetic():
    vm, _ = run_fragment("arithmetic")
    assert vm.stdout.split() == ["4", "10", "-21"]


def test_division_truncates_toward_zero():
    vm, _ = run_fragment("division")
    assert vm.stdout.split() == ["-3", "-1"]


def test_division_by_zero_faults():
    vm = Machine(assemble(FRAGMENTS["division_by_zero"]))
    with pytest.raises(VmError):
        vm.run()


def test_logic_and_shifts():
    vm, _ = run_fragment("logic_and_shifts")
    assert vm.stdout.split() == ["8", "14", "6", "48", "6"]


def test_srl_is_logical():
    vm, _ = run_fragment("srl")
    assert int(vm.stdout.split()[0]) == (0xFFFFFFFC >> 1)


def test_slt_family():
    vm, _ = run_fragment("slt_family")
    assert vm.stdout.split() == ["1", "0", "0", "1"]


def test_zero_register_immutable():
    vm, _ = run_fragment("zero_register")
    assert vm.stdout.split() == ["0"]


def test_lui():
    vm, _ = run_fragment("lui")
    assert vm.stdout.split() == [str(2 << 16)]


def test_memory_word_ops():
    vm, _ = run_fragment("memory_word_ops")
    assert vm.stdout.split() == ["1234"]


def test_branches():
    vm, _ = run_fragment("branches")
    assert vm.stdout.split() == ["6"]


def test_call_and_return():
    vm, trace = run_fragment("call_and_return")
    assert vm.stdout == "10"
    assert trace.stats.calls == 1


def test_float_ops():
    vm, _ = run_fragment("float_ops")
    assert vm.stdout == "1.5"


def test_float_compare():
    vm, _ = run_fragment("float_compare")
    assert vm.stdout.split() == ["1", "0"]


def test_cvt_truncates():
    vm, _ = run_fragment("cvt_truncates")
    assert vm.stdout.split() == ["3"]


def test_sbrk_allocates_increasing():
    vm, _ = run_fragment("sbrk")
    assert vm.stdout.split() == ["16"]


def test_instruction_budget_stops_run():
    vm = Machine(assemble(FRAGMENTS["endless_loop"]))
    code = vm.run(max_instructions=100)
    assert code == -1
    assert vm.instructions_executed == 100


def test_trace_records_locality():
    _, trace = run_fragment("stack_locality")
    mem = [i for i in trace if i.is_mem]
    assert len(mem) == 2
    assert all(i.is_local and i.sp_based for i in mem)


def test_frame_size_measured():
    _, trace = run_fragment("frame_size")
    assert trace.stats.frame_sizes.max() == 4  # 16 bytes = 4 words


def test_trace_can_be_disabled():
    vm, trace = run_fragment("exit_only", trace=False)
    assert trace is None
    assert vm.exit_code == 0


@pytest.mark.parametrize("name", ["exit_only", "division_by_zero"])
def test_run_restores_the_gc_state(name):
    """The run suspends the cyclic GC and re-enables it only if it was
    on, also when the guest faults."""
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            if enabled:
                gc.enable()
            else:
                gc.disable()
            vm = Machine(assemble(FRAGMENTS[name]))
            try:
                vm.run()
            except VmError:
                pass
            assert gc.isenabled() is enabled
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()
