"""The differential oracles: green on a healthy toolchain, and each
able to catch the class of bug it exists for."""

from __future__ import annotations

import pytest

import repro.lang.optimizer as optimizer
from repro.errors import ReproError
from repro.fuzz import ALL_ORACLES, generate_program, run_oracles

#: A seed whose program exercises ``>>`` folding (found by the campaign
#: when the folder is deliberately broken below).
SRA_SENSITIVE_SEED = 41

#: The historical bug: folding ``sra`` logically instead of arithmetically.
BROKEN_SRA = staticmethod(lambda a, b: (a & 0xFFFFFFFF) >> (b & 31))


@pytest.mark.parametrize("seed", range(8))
def test_all_oracles_clean_on_healthy_toolchain(seed):
    source = generate_program(seed).source()
    assert run_oracles(source, name=f"fuzz.{seed}") == []


def test_opt_oracle_catches_broken_fold(monkeypatch):
    monkeypatch.setitem(optimizer._FOLDABLE_INT, "sra", BROKEN_SRA)
    source = generate_program(SRA_SENSITIVE_SEED).source()
    divergences = run_oracles(source, oracles=("opt",))
    assert divergences
    assert all(d.oracle == "opt" for d in divergences)


def test_unknown_oracle_rejected():
    with pytest.raises(ReproError):
        run_oracles("int main() { return 0; }", oracles=("opt", "bogus"))


def test_budget_exhaustion_is_a_divergence():
    source = ("int main() {\n"
              "    int i;\n"
              "    for (i = 0; i < 100000000; i++) {}\n"
              "    return 0;\n"
              "}\n")
    divergences = run_oracles(source, oracles=("opt",),
                              max_instructions=10_000)
    assert [d.oracle for d in divergences] == ["budget"]


def test_oracle_subset_runs_only_requested():
    source = generate_program(0).source()
    assert run_oracles(source, oracles=("opt",)) == []
    assert run_oracles(source, oracles=("timing", "golden")) == []
    assert set(ALL_ORACLES) == {"opt", "timing", "golden", "analyze",
                                "replay", "tv", "vm"}


def test_analyze_is_a_registered_oracle():
    assert ALL_ORACLES == ("opt", "timing", "golden", "analyze", "replay",
                           "tv", "vm")


def test_replay_oracle_clean_on_healthy_toolchain():
    source = generate_program(4).source()
    assert run_oracles(source, oracles=("replay",)) == []


def test_replay_oracle_catches_format_field_loss(monkeypatch):
    # Sabotage the decoder: collapse the local_hint tri-state so every
    # replayed access looks compiler-classified non-local.  Architectural
    # results are untouched (hints only steer the LVAQ), so only the
    # replay oracle's timing diff can see the field loss.
    from repro.trace import format as trace_format

    monkeypatch.setattr(trace_format, "_HINT_BY_CODE",
                        (False, False, False))
    source = generate_program(4).source()
    divergences = run_oracles(source, oracles=("replay",))
    assert divergences
    assert all(d.oracle == "replay" for d in divergences)


def test_analyze_oracle_clean_on_healthy_toolchain():
    source = generate_program(3).source()
    assert run_oracles(source, oracles=("analyze",)) == []


def test_analyze_oracle_catches_unsound_hint_emission(monkeypatch):
    # Sabotage the compiler: tag every pointer-based access as a stack
    # access, the exact miscompile the LVAQ cannot survive.  The build
    # still runs correctly (hints never change architectural results),
    # so only the analyze oracle can see the bug — statically via the
    # region prover and dynamically via the trace cross-check.
    import repro.lang.frontend as frontend
    from repro.lang.ir import VReg

    def sabotaged(ir):
        for instr in ir.body:
            if instr.kind in ("load", "store") and isinstance(
                    instr.base, VReg):
                instr.locality = True
        return 0, 0

    monkeypatch.setattr(frontend, "annotate_localities", sabotaged)
    source = ("int g[4];\n"
              "int main() {\n"
              "    int *p;\n"
              "    p = g;\n"
              "    *p = 3;\n"
              "    print(p[1] + g[0]);\n"
              "    return 0;\n"
              "}\n")
    clean = run_oracles(source, oracles=("opt", "timing", "golden"))
    assert clean == []  # every other oracle is blind to hint bugs
    divergences = run_oracles(source, oracles=("analyze",))
    assert divergences
    assert all(d.oracle == "analyze" for d in divergences)
    details = " ".join(d.detail for d in divergences)
    assert "hint.unsound-local" in details
    assert "hint.dynamic-unsound" in details


def test_vm_oracle_clean_on_healthy_toolchain():
    source = generate_program(5).source()
    assert run_oracles(source, oracles=("vm",)) == []


def test_vm_oracle_catches_a_miswrapped_handler(monkeypatch):
    # Sabotage the predecoded VM: an unsigned 32-bit wrap.  Generated
    # programs compute with boundary literals, so some value leaves the
    # signed range and the frozen seed VM disagrees.
    import repro.vm.machine as machine

    monkeypatch.setattr(machine, "_wrap32", lambda value: value & 0xFFFFFFFF)
    divergences = []
    for seed in range(4):
        divergences += run_oracles(generate_program(seed).source(),
                                   oracles=("vm",))
    assert divergences
    assert all(d.oracle == "vm" for d in divergences)
