"""The specialized kernel must be bit-identical to the portable kernel.

``Processor.run`` composes the five stage modules in one of two ways:
the default **specialized** kernel (``repro.core.stages.compose``
splices the tick bodies into one generated function, and
``repro.core.stages.specialize`` folds the machine's configuration into
it) and the **portable** kernel (plain closure calls, selected with
``REPRO_PORTABLE_KERNEL=1``).  Both are built from the same stage
sources, so any divergence is a composer or folding bug; these tests
pin the two to exact cycle counts and exact counter values across
port-arbitration and frontend policies, on real workload traces.

The composer itself is also exercised structurally: it must refuse a
stage that violates any splicing rule (one case per rule), because a
silent mis-splice would surface as a subtly wrong timing model.
"""

import os

import pytest

from repro.core.config import MachineConfig
from repro.core.processor import Processor
from repro.workloads.builder import build_trace


def _insts(name="099.go", length=12000):
    trace = build_trace(name, length)
    return trace.insts if hasattr(trace, "insts") else list(trace)


def _run(config, insts, portable):
    old = os.environ.get("REPRO_PORTABLE_KERNEL")
    os.environ["REPRO_PORTABLE_KERNEL"] = "1" if portable else "0"
    try:
        result = Processor(config).run(insts, "compose-test")
    finally:
        if old is None:
            os.environ.pop("REPRO_PORTABLE_KERNEL", None)
        else:
            os.environ["REPRO_PORTABLE_KERNEL"] = old
    return result


def _counters(result):
    return result.counters.as_dict()


def _config(ports=None, frontend=None, **decouple):
    config = MachineConfig.baseline()
    if ports:
        config.mem.l1_port_policy = ports
        config.mem.lvc_port_policy = ports
    if frontend:
        config.frontend.policy = frontend
    for key, value in decouple.items():
        setattr(config.decouple, key, value)
    return config


CASES = [
    ("default", lambda: _config()),
    ("finite-ports", lambda: _config(ports="finite")),
    ("gshare", lambda: _config(frontend="gshare")),
    ("finite+gshare", lambda: _config(ports="finite", frontend="gshare")),
    ("combining", lambda: _config(fast_forwarding=True, combining=4)),
]


@pytest.mark.parametrize("name,make", CASES, ids=[c[0] for c in CASES])
def test_specialized_matches_portable(name, make):
    insts = _insts()
    specialized = _run(make(), insts, portable=False)
    portable = _run(make(), insts, portable=True)
    assert specialized.cycles == portable.cycles
    assert _counters(specialized) == _counters(portable)


def test_specialized_matches_portable_second_workload():
    insts = _insts("126.gcc")
    specialized = _run(_config(ports="finite", frontend="gshare"), insts,
                       portable=False)
    portable = _run(_config(ports="finite", frontend="gshare"), insts,
                    portable=True)
    assert specialized.cycles == portable.cycles
    assert _counters(specialized) == _counters(portable)


def _tick_guards(fn):
    """The ``if`` statements of the kernel's cycle loop, in order."""
    import ast

    (body,) = [stmt.body for stmt in fn.body if isinstance(stmt, ast.Try)]
    (loop,) = [stmt for stmt in body if isinstance(stmt, ast.While)]
    return [stmt for stmt in loop.body if isinstance(stmt, ast.If)]


def test_compose_source_is_valid_python():
    """The composition is one compilable function, every stage spliced
    into its slot, with the store counts folding relies on."""
    import ast

    from repro.core.stages import compose

    composition = compose.compose_kernel(frozenset({"width"}))
    (fn,) = composition.tree.body
    assert isinstance(fn, ast.FunctionDef) and fn.name == "_fused_run"
    compile(composition.tree, "<composed>", "exec")

    names = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
    assert not {"PROLOGUE", "FINISHES"} & names
    assert not [name for name in names if name.startswith("TICK_")]
    # Each stage's tick body opens a guard of the cycle loop, in stage
    # order, and its finish names its shares exactly once.
    openers = [ast.dump(guard.body[0]) for guard in _tick_guards(fn)]
    at = -1
    for module, key, positional in compose._STAGES:
        _prologue, tick, _fin = compose._stage_parts(module, key,
                                                     positional)
        at = openers.index(ast.dump(tick[0]), at + 1)
        assert composition.stores[f"_fin_{key}"] == 1
    # Config scalars are bound once; loop-carried scalars are not.
    assert composition.stores["width"] == 1
    assert composition.stores["now"] > 1
    assert fn in composition.touched


#: A stage that follows every splicing rule; each violation below edits
#: one line of it.  It stands in for the writeback stage, whose tick
#: takes only ``now``.
CONFORMING_STAGE = """\
def bind(state):
    ring = state.ring
    lsq = state.lsq

    def tick(now, ring=ring):
        nonlocal lsq
        if ring:
            ring[now] = 1
        return now

    def finish(final_now):
        shares = {"_l1_busy": final_now}
        return shares

    return tick, finish
"""

#: (id, lines of CONFORMING_STAGE, their replacement, the error raised).
RULE_VIOLATIONS = [
    ("prologue-not-assignment", "    ring = state.ring",
     "    ring = other = state.ring", "not a single-name assignment"),
    ("prologue-rebinds", "    lsq = state.lsq", "    lsq = state.lvaq",
     "prologue rebinds 'lsq' with different source"),
    ("tick-positional", "    def tick(now, ring=ring):",
     "    def tick(now, rob_count, ring=ring):",
     "tick positional parameters"),
    ("tick-default", "    def tick(now, ring=ring):",
     "    def tick(now, slots=ring):", "not an identity re-binding"),
    ("tick-star-args", "    def tick(now, ring=ring):",
     "    def tick(now, *rest):", "tick must use plain parameters"),
    ("tick-return-value", "        return now", "        return ring",
     "trailing return must only name positional scalars"),
    ("tick-nested-return", "            ring[now] = 1",
     "            return", "may not contain nested returns"),
    ("tick-nested-def", "            ring[now] = 1",
     "            def later(): pass", "may not contain nested returns"),
    ("tick-lambda", "            ring[now] = 1",
     "            ring[now] = lambda: now",
     "may not contain nested returns"),
    ("tick-empty", "        if ring:\n            ring[now] = 1\n"
     "        return now", "        return now", "tick body is empty"),
    ("finish-parameter", "    def finish(final_now):",
     "    def finish(cycles):", "finish parameter cycles unsupported"),
    ("finish-mid-return", "        shares = {\"_l1_busy\": final_now}",
     "        if final_now:\n            return {}\n"
     "        shares = {}", "finish has a mid-body return"),
    ("finish-no-return", "        return shares", "        shares.clear()",
     "finish must end with `return <dict>`"),
    ("no-finish", "    def finish(final_now):\n"
     "        shares = {\"_l1_busy\": final_now}\n        return shares",
     "    finish = None", "bind\\(\\) must define tick and finish"),
]


@pytest.fixture
def compose_with_stage(tmp_path, monkeypatch):
    """Compose the kernel with the writeback stage's source replaced."""
    import types

    from repro.core.stages import compose

    def run(source):
        path = tmp_path / "stage.py"
        path.write_text(source, encoding="utf-8")
        stage = types.ModuleType("stage")
        stage.__file__ = str(path)
        stages = tuple((stage, key, positional) if key == "writeback"
                       else (module, key, positional)
                       for module, key, positional in compose._STAGES)
        monkeypatch.setattr(compose, "_STAGES", stages)
        return compose.compose_kernel(frozenset())

    return run


def test_composer_accepts_a_conforming_stage(compose_with_stage):
    composition = compose_with_stage(CONFORMING_STAGE)
    compile(composition.tree, "<composed>", "exec")


@pytest.mark.parametrize("old,new,error",
                         [case[1:] for case in RULE_VIOLATIONS],
                         ids=[case[0] for case in RULE_VIOLATIONS])
def test_composer_rejects_rule_violations(compose_with_stage, old, new,
                                          error):
    """The splicing rules are enforced, not assumed."""
    from repro.core.stages import compose

    assert CONFORMING_STAGE.count(old + "\n") == 1
    source = CONFORMING_STAGE.replace(old + "\n", new + "\n")
    with pytest.raises(compose.ComposeError, match=error):
        compose_with_stage(source)
