"""Specialized-kernel cache behaviour and bit-identity.

The specialized kernel (:mod:`repro.core.stages.specialize`) constant-
folds the bound MachineConfig into the composed kernel tree and caches
the compiled function per ``(code salt, machine description)``.  These
tests pin the cache contract — one compile per config, invalidation on
code-salt and config-schema changes, one composition per salt that no
fold changes and that reference counting alone frees — and the only
property that makes the whole scheme admissible: specialized output is
bit-identical to the portable kernel across the golden workload×config
matrix and the port × frontend × LVAQ cross, on every config of which
specialization must succeed (there is no unfolded fallback kernel).
"""

from __future__ import annotations

import os

import pytest

from repro.core.processor import Processor
from repro.core.stages import specialize
from repro.mem.ports import PORT_POLICIES
from repro.perf.golden import GOLDEN_CONFIGS, diff_results, golden_config
from repro.workloads.builder import build_trace
from repro.vm.trace import Stream


@pytest.fixture(autouse=True)
def _specialized_mode(monkeypatch):
    """Force the default (specialized) kernel path and a cold cache."""
    monkeypatch.delenv("REPRO_PORTABLE_KERNEL", raising=False)
    specialize.clear_cache()
    yield
    specialize.clear_cache()


def _run(config, trace, name="130.li"):
    return Processor(config).run(trace.insts, name)


def test_same_config_compiles_once(small_li_trace):
    config = golden_config("2+2:opt")
    before = specialize.compile_count
    _run(config, small_li_trace)
    after_first = specialize.compile_count
    assert after_first == before + 1
    # Same machine description again: cache hit, no second compile —
    # a fresh Processor and a fresh config object must not matter.
    _run(golden_config("2+2:opt"), small_li_trace)
    assert specialize.compile_count == after_first


def test_distinct_configs_compile_separately(small_li_trace):
    before = specialize.compile_count
    _run(golden_config("2+0"), small_li_trace)
    _run(golden_config("4+0"), small_li_trace)
    assert specialize.compile_count == before + 2


def test_code_salt_change_misses_cache(small_li_trace, monkeypatch):
    config = golden_config("2+2:opt")
    _run(config, small_li_trace)
    before = specialize.compile_count
    # A different kernel code salt (edited stage source / fold rules)
    # must key a different cache entry.
    monkeypatch.setattr(specialize, "_SALT", "test-salt-mismatch")
    _run(config, small_li_trace)
    assert specialize.compile_count == before + 1


def test_config_schema_version_misses_cache(small_li_trace, monkeypatch):
    from repro.core import registry

    config = golden_config("2+2:opt")
    _run(config, small_li_trace)
    before = specialize.compile_count
    monkeypatch.setattr(registry, "CONFIG_SCHEMA_VERSION",
                        registry.CONFIG_SCHEMA_VERSION + 1)
    _run(config, small_li_trace)
    assert specialize.compile_count == before + 1


def test_cached_source_is_inspectable(small_li_trace):
    config = golden_config("2+2:opt")
    _run(config, small_li_trace)
    source = specialize.cached_source(config)
    assert source is not None
    assert source.startswith("# specialized kernel: (2+2)")
    # The folded constants are literals now, not config reads.
    assert '"width"' in source.splitlines()[0]


def test_emit_source_without_a_run():
    source = specialize.emit_source(golden_config("2+0"))
    assert "def _fused_run" in source
    # A 2+0 machine has no LVC: the dead decoupled arms are deleted.
    assert '"decoupled"' in source.splitlines()[0]


@pytest.mark.parametrize("notation", [name for name, _kw in GOLDEN_CONFIGS])
def test_specialized_matches_portable_on_golden_matrix(
        notation, small_li_trace, monkeypatch):
    """cycles + instructions + full counter dict, per golden config."""
    config = golden_config(notation)
    specialized = _run(config, small_li_trace)
    monkeypatch.setenv("REPRO_PORTABLE_KERNEL", "1")
    portable = _run(golden_config(notation), small_li_trace)
    assert diff_results("130.li", notation, portable, specialized) == []


def test_specialized_matches_portable_second_workload(
        small_vortex_trace, monkeypatch):
    config = golden_config("2+2:opt")
    specialized = _run(config, small_vortex_trace, "147.vortex")
    monkeypatch.setenv("REPRO_PORTABLE_KERNEL", "1")
    portable = _run(golden_config("2+2:opt"), small_vortex_trace,
                    "147.vortex")
    assert diff_results("147.vortex", "2+2:opt", portable,
                        specialized) == []


#: Every port policy x frontend policy x LVAQ shape (none, plain, with
#: fast forwarding and combining).
CROSS = [(ports, frontend, notation)
         for ports in sorted(PORT_POLICIES)
         for frontend in ("perfect", "gshare")
         for notation in ("2+0", "2+2", "2+2:opt")]


@pytest.fixture(scope="module")
def go_stream():
    return build_trace("099.go", length=3000).insts


@pytest.mark.parametrize(
    "ports,frontend,notation", CROSS,
    ids=[f"{notation}-{ports}-{frontend}"
         for ports, frontend, notation in CROSS])
def test_specialization_is_total_over_the_policy_cross(
        ports, frontend, notation, go_stream, monkeypatch):
    """kernel_for compiles a kernel for every config of the cross, and
    that kernel is bit-identical to the portable one."""
    def config():
        config = golden_config(notation)
        config.mem.l1_port_policy = ports
        config.mem.lvc_port_policy = ports
        config.frontend.policy = frontend
        return config

    before = specialize.compile_count
    specialized = Processor(config()).run(go_stream, "099.go")
    assert specialize.compile_count == before + 1
    assert specialize.cached_source(config()) is not None
    monkeypatch.setenv("REPRO_PORTABLE_KERNEL", "1")
    portable = Processor(config()).run(go_stream, "099.go")
    assert diff_results("099.go", notation, portable, specialized) == []


def test_cli_emit_kernel(capsys):
    from repro.cli import main

    assert main(["perf", "--emit-kernel", "2+2:opt"]) == 0
    out = capsys.readouterr().out
    assert "# specialized kernel: (2+2)" in out
    assert "def _fused_run" in out


def test_cli_emit_kernel_takes_any_notation(capsys):
    """``--emit-kernel`` parses N+M[:opt] as ``sim --config`` does; for a
    golden name that is the golden machine, so its output is unchanged."""
    from repro.cli import main
    from repro.core.registry import describe_machine
    from repro.runtime.job import parse_notation

    for notation, _kw in GOLDEN_CONFIGS:
        assert (describe_machine(parse_notation(notation))
                == describe_machine(golden_config(notation)))
    assert main(["perf", "--emit-kernel", "4+4:opt"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# specialized kernel: (4+4)")
    compile(out, "<emitted>", "exec")


def test_cli_emit_kernel_rejects_a_malformed_notation(capsys):
    from repro.cli import main

    assert main(["perf", "--emit-kernel", "8x8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad configuration '8x8'" in captured.err


def test_cold_kernel_for_composes_once(small_li_trace, monkeypatch):
    """One composition serves the salt and every specialization under it;
    clear_cache drops it with the kernels."""
    calls = []
    compose = specialize.compose_kernel

    def counting_compose(names):
        calls.append(1)
        return compose(names)

    monkeypatch.setattr(specialize, "compose_kernel", counting_compose)
    config = golden_config("2+2:opt")
    _run(config, small_li_trace)
    assert len(calls) == 1
    _run(golden_config("2+0"), small_li_trace)
    assert len(calls) == 1
    # The text rendered on request is the text a fresh specialization
    # produces, and rendering it composes nothing.
    assert specialize.cached_source(config) == specialize.emit_source(config)
    assert len(calls) == 1
    specialize.clear_cache()
    _run(config, small_li_trace)
    assert len(calls) == 2


def _fold_configs():
    """The six golden machines plus one finite-port gshare machine."""
    configs = [(notation, lambda n=notation: golden_config(n))
               for notation, _kw in GOLDEN_CONFIGS]

    def finite_gshare():
        config = golden_config("2+2:opt")
        config.mem.l1_port_policy = "finite"
        config.mem.lvc_port_policy = "finite"
        config.frontend.policy = "gshare"
        return config

    return configs + [("2+2:opt-finite-gshare", finite_gshare)]


def _cold_kernel(config):
    from repro.core.stages.state import CoreState

    processor = Processor(config)
    return specialize.kernel_for(processor, CoreState(processor, Stream()))


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_folding_leaves_the_composition_intact(order):
    """Folding copies before it changes a node: every config folded from
    one composition renders as a fresh composition would, in any order,
    and the composition itself does not change."""
    import ast

    configs = _fold_configs()
    fresh = {}
    for label, make in configs:
        specialize.clear_cache()
        fresh[label] = specialize.emit_source(make())

    specialize.clear_cache()
    composition, _plan = specialize._composition()
    before = ast.dump(composition.tree, include_attributes=True)
    for _label, make in (configs if order == "forward" else configs[::-1]):
        _cold_kernel(make())
    for label, make in configs:
        assert specialize.cached_source(make()) == fresh[label], label
    assert specialize._composition()[0] is composition
    assert ast.dump(composition.tree, include_attributes=True) == before


def test_cold_kernel_leaves_no_cyclic_ast_garbage():
    """Reference counting alone frees a composition and its folds: none
    of their nodes waits in a reference cycle for a full collection."""
    import ast
    import gc

    config = golden_config("2+2:opt")
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        _cold_kernel(config)
        specialize.clear_cache()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = [type(obj).__name__ for obj in gc.garbage
                  if isinstance(obj, ast.AST)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert cyclic == []


@pytest.mark.parametrize(
    "notation", [name for name, _kw in GOLDEN_CONFIGS] + ["4+4:opt"])
def test_cycle_loop_locals_sit_below_index_256(notation):
    """Every local the cycle loop touches has an index below 256, so its
    accesses carry no ``EXTENDED_ARG``: the fold drops the prologue
    bindings of the constants it substituted."""
    import ast

    from repro.runtime.job import parse_notation

    config = parse_notation(notation)
    kernel = _cold_kernel(config)
    index = {name: i for i, name in enumerate(kernel.__code__.co_varnames)}
    tree = ast.parse(specialize.cached_source(config))
    loop = next(node for node in ast.walk(tree)
                if isinstance(node, ast.While)
                and ast.unparse(node.test) == "committed_total < total")
    used = {node.id for node in ast.walk(loop) if isinstance(node, ast.Name)}
    assert sorted(name for name in used if index.get(name, 0) > 255) == []
