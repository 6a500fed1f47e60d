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
stage whose tick violates the splicing rules (mid-body return,
non-identity default), because a silent mis-splice would surface as a
subtly wrong timing model.
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


def test_compose_source_is_valid_python():
    import ast

    from repro.core.stages.compose import compose_source

    source = compose_source()
    ast.parse(source)
    # The five stage splices and the shared epilogue are all present.
    for marker in ("# ---- commit", "# ---- writeback", "# ---- memory",
                   "# ---- issue", "# ---- dispatch", "_fin_commit",
                   "_fin_dispatch"):
        assert marker in source


def test_composer_rejects_rule_violations():
    """The splicing rules are enforced, not assumed."""
    import textwrap
    import types

    from repro.core.stages import compose

    bad_return = types.ModuleType("bad_stage")
    bad_return.__file__ = "/tmp/bad_stage_return.py"
    source = textwrap.dedent(
        '''
        def bind(state):
            x = state.x

            def tick(now, x=x):
                if x:
                    return 1
                x += 1

            def finish():
                return {}

            return tick, finish
        '''
    )
    with open(bad_return.__file__, "w", encoding="utf-8") as handle:
        handle.write(source)
    with pytest.raises(compose.ComposeError):
        compose._stage_parts(bad_return, "bad", ("now",), {})

    bad_default = types.ModuleType("bad_stage2")
    bad_default.__file__ = "/tmp/bad_stage_default.py"
    source = textwrap.dedent(
        '''
        def bind(state):
            x = state.x

            def tick(now, y=x):
                y += 1

            def finish():
                return {}

            return tick, finish
        '''
    )
    with open(bad_default.__file__, "w", encoding="utf-8") as handle:
        handle.write(source)
    with pytest.raises(compose.ComposeError):
        compose._stage_parts(bad_default, "bad2", ("now",), {})
