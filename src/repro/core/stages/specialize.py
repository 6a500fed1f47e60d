"""Per-config kernel specialization: constant-fold the bound machine.

The composed kernel (:mod:`repro.core.stages.compose`) is generic over
every :class:`~repro.core.config.MachineConfig`: issue width, ROB and
queue sizes, port policies, the LVAQ on/off switch and the frontend
policy are all read from run-constant locals, and the hot loop branches
on them millions of times per simulation.  All of those values are
pure functions of the config — so for a *bound* machine they are
compile-time constants.

This module folds them in.  It parses the composed source, evaluates
the run-constant prologue bindings against a live ``(processor,
state)`` pair, substitutes the whitelisted config scalars as literals,
and then constant-folds the tree bottom-up — boolean operators with
exact short-circuit semantics, comparisons, arithmetic, conditional
expressions, and ``if`` statements whose test folded to a constant
(dead policy arms are deleted outright: a ``2+0`` machine's kernel
contains no LVAQ walk at all, a ``perfect``-frontend kernel no gate
bookkeeping).  The result is compiled once per machine description and
cached for the life of the process, so `repro.runtime` workers keep
specialized kernels warm across jobs.

Safety rules (a config that cannot be folded under them raises
:class:`SpecializeError`; there is no unfolded fallback):

- only names in :data:`CONST_NAMES` are folded, and only when the name
  is stored exactly once in the whole kernel and its value is a plain
  ``bool``/``int`` — mutated scalars (``l1_avail``, ``now``, ...) and
  object bindings (``LATENCY_BY_INT``, the queues) are never touched;
- prologue evaluation skips any right-hand side containing a call, so
  effectful bindings (``frontend.prepare``) run exactly once, in the
  kernel itself;
- ``gates`` is folded to ``None`` only from the policy fact that the
  ``perfect`` frontend prepares no gate list;
- boolean folding drops identity operands and truncates at a constant
  short-circuit terminator — exact for truth-value uses, which is the
  only way the stage sources consume the folded names (pinned by the
  cross-kernel equivalence suite).

Cache keying: ``(kernel code salt, canonical describe_machine JSON)``.
The code salt hashes the composed generic source plus this module, so
editing any stage or the folding rules invalidates every entry; the
machine description includes ``CONFIG_SCHEMA_VERSION``, so a schema
bump does too.  The composition the salt hashes is built once and reused
by every specialization under that salt; the folded tree is compiled
directly, and source text is rendered only on request
(:func:`cached_source`, :func:`emit_source`): ``repro-cc perf
--emit-kernel <config>`` dumps it for inspection.  :func:`clear_cache`
drops the kernels, the salt and the composition.

Bit-identity is enforced twice: ``tests/core/test_kernel_specialize.py``
pins specialized == portable across the golden workload×config matrix
and the full port × frontend × LVAQ cross, and the golden harness pins
both to the frozen seed reference.
"""

from __future__ import annotations

import ast
import gc as _gc
import hashlib
import json
from typing import Any, Dict, Optional, Tuple

from repro.core.stages.compose import _STAGES, compose_source


class SpecializeError(RuntimeError):
    """The composed source could not be soundly specialized."""


#: Config-only scalars the folder may substitute.  Everything else —
#: workload-dependent values (``total``), mutated per-cycle scalars,
#: container bindings — stays a name.  A listed name is still skipped
#: unless it is stored exactly once and evaluates to a bool/int.
CONST_NAMES = frozenset({
    # dispatch / template
    "width", "rob_size", "decoupled", "mispredict_penalty",
    "load_fu", "store_fu", "lsq_size", "lvaq_size",
    "icache_miss_latency", "redirect_penalty",
    # memory / commit
    "fast_fwd", "combining", "combine_window", "inf_seq",
    "l1_simple", "lvc_simple", "have_lvc",
    "l1_shift", "l1_smask", "l1_hitlat",
    "lvc_shift", "lvc_smask", "lvc_hitlat",
    "l1_nports", "lvc_nports",
    # issue
    "n_ialu", "n_falu", "lvaq_track",
})

#: Binary/comparison operators safe to fold on int/bool constants.
_BIN_OPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.LShift: lambda a, b: a << b,
    ast.RShift: lambda a, b: a >> b,
    ast.BitAnd: lambda a, b: a & b,
    ast.BitOr: lambda a, b: a | b,
    ast.BitXor: lambda a, b: a ^ b,
}
_CMP_OPS = {
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
}


def _single_store_names(fn: ast.FunctionDef) -> Dict[str, int]:
    """Count ``Name`` stores (incl. aug-assign and loop targets)."""
    counts: Dict[str, int] = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            counts[node.id] = counts.get(node.id, 0) + 1
    return counts


def _prologue_values(fn: ast.FunctionDef, processor, state,
                     genv: Dict[str, Any]) -> Dict[str, Any]:
    """Evaluate the call-free top-level bindings in source order.

    Any right-hand side containing a call is skipped (it may be
    effectful — ``frontend.prepare`` must run exactly once, in the
    kernel); an evaluation error just leaves the name unbound, which
    disables folding for it and anything downstream of it.
    """
    local: Dict[str, Any] = {"self": processor, "state": state}
    for stmt in fn.body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            continue
        if any(isinstance(n, ast.Call) for n in ast.walk(stmt.value)):
            continue
        expr = ast.Expression(body=stmt.value)
        ast.fix_missing_locations(expr)
        try:
            value = eval(  # noqa: S307 - our own composed source
                compile(expr, "<specialize-prologue>", "eval"),
                genv, local)
        except Exception:
            continue
        local[stmt.targets[0].id] = value
    return local


class _Folder(ast.NodeTransformer):
    """Substitute ``const_map`` names and fold constants bottom-up."""

    def __init__(self, const_map: Dict[str, Any]):
        self.const_map = const_map

    def _const(self, value, node):
        return ast.copy_location(ast.Constant(value=value), node)

    def visit_Name(self, node: ast.Name):
        if isinstance(node.ctx, ast.Load) and node.id in self.const_map:
            return self._const(self.const_map[node.id], node)
        return node

    def visit_UnaryOp(self, node: ast.UnaryOp):
        self.generic_visit(node)
        v = node.operand
        if isinstance(v, ast.Constant):
            if isinstance(node.op, ast.Not):
                return self._const(not v.value, node)
            if (isinstance(node.op, ast.USub)
                    and isinstance(v.value, (int, float))
                    and not isinstance(v.value, bool)):
                return self._const(-v.value, node)
        return node

    def visit_BinOp(self, node: ast.BinOp):
        self.generic_visit(node)
        op = _BIN_OPS.get(type(node.op))
        if (op is not None
                and isinstance(node.left, ast.Constant)
                and isinstance(node.right, ast.Constant)
                and isinstance(node.left.value, int)
                and isinstance(node.right.value, int)):
            try:
                return self._const(op(node.left.value,
                                      node.right.value), node)
            except Exception:
                pass
        return node

    def visit_Compare(self, node: ast.Compare):
        self.generic_visit(node)
        if len(node.ops) != 1 or not (
                isinstance(node.left, ast.Constant)
                and isinstance(node.comparators[0], ast.Constant)):
            return node
        a = node.left.value
        b = node.comparators[0].value
        op = node.ops[0]
        # Identity comparisons are only folded against the None
        # singleton; identity of equal ints is an implementation detail.
        if isinstance(op, (ast.Is, ast.IsNot)):
            if a is None or b is None:
                same = a is b
                return self._const(
                    same if isinstance(op, ast.Is) else not same, node)
            return node
        fold = _CMP_OPS.get(type(op))
        if fold is not None:
            try:
                return self._const(fold(a, b), node)
            except Exception:
                pass
        return node

    def visit_BoolOp(self, node: ast.BoolOp):
        self.generic_visit(node)
        is_and = isinstance(node.op, ast.And)
        out = []
        for value in node.values:
            if isinstance(value, ast.Constant):
                truthy = bool(value.value)
                if truthy is is_and:
                    # Identity operand (True in `and`, False in `or`):
                    # drop it.  Exact for truth-value consumers.
                    continue
                # Short-circuit terminator: later operands are never
                # evaluated and the result is this constant.
                out.append(value)
                break
            out.append(value)
        if not out:
            return self._const(is_and, node)
        if len(out) == 1:
            return out[0]
        node.values = out
        return node

    def visit_IfExp(self, node: ast.IfExp):
        self.generic_visit(node)
        if isinstance(node.test, ast.Constant):
            return node.body if node.test.value else node.orelse
        return node

    def visit_If(self, node: ast.If):
        self.generic_visit(node)
        if not isinstance(node.test, ast.Constant):
            return node
        chosen = node.body if node.test.value else node.orelse
        if not chosen:
            # Deleting the statement could empty the enclosing block;
            # a Pass is always safe and costs one NOP once.
            return ast.copy_location(ast.Pass(), node)
        return chosen


def _stage_globals() -> Dict[str, Any]:
    """The kernel's exec globals: the union of the stage modules' globals.

    Every module-level name a spliced body uses (heappush, MASK,
    LATENCY_BY_INT, GATE_IMISS, RobEntry, ...) resolves to the very same
    objects the portable ticks close over, so in-place patches (e.g. the
    golden harness's latency perturbation) stay visible to both kernels.
    """
    g: Dict[str, Any] = {}
    for module, _key, _pos in _STAGES:
        g.update(vars(module))
    from repro.core.stages.state import RING
    g["RING"] = RING
    g["gc"] = _gc
    return g


def _specialize(processor, state) -> Tuple[ast.Module, Dict[str, Any]]:
    """The folded kernel tree for ``processor.config``, and the names
    folded into it."""
    tree = ast.parse(_composition())
    fn = tree.body[0]
    if not isinstance(fn, ast.FunctionDef):  # pragma: no cover
        raise SpecializeError("composed source is not a function")

    genv = _stage_globals()
    values = _prologue_values(fn, processor, state, genv)
    stores = _single_store_names(fn)

    const_map: Dict[str, Any] = {}
    for name in CONST_NAMES:
        if stores.get(name) != 1 or name not in values:
            continue
        value = values[name]
        if isinstance(value, bool) or (isinstance(value, int)
                                       and not isinstance(value, bool)):
            const_map[name] = value
    # Policy fact: the perfect frontend prepares no gate list, so the
    # dispatch gating machinery is dead code.  (Under any other policy
    # `gates` stays a live name.)
    if (processor.config.frontend.policy == "perfect"
            and stores.get("gates") == 1):
        const_map["gates"] = None
    if not const_map:
        raise SpecializeError("no foldable config constants found")
    return _fold(tree, const_map), const_map


def _fold(tree: ast.Module, const_map: Dict[str, Any]) -> ast.Module:
    folded = _Folder(const_map).visit(tree)
    ast.fix_missing_locations(folded)
    return folded


def _render(notation: str, folded: ast.Module,
            const_map: Dict[str, Any]) -> str:
    """The folded tree as source text, under its ``# specialized kernel``
    header."""
    header = (f"# specialized kernel: {notation} "
              f"[{json.dumps(sorted(const_map))}]\n")
    return header + ast.unparse(folded)


def specialize_source(processor, state) -> str:
    """Build the specialized kernel source for ``processor.config``."""
    folded, const_map = _specialize(processor, state)
    return _render(processor.config.notation(), folded, const_map)


# ---------------------------------------------------------------- cache

#: machine-description key -> (kernel, folded names, notation).  The
#: source text is rendered only on request (:func:`cached_source`).
_CACHE: Dict[str, Tuple[Any, Dict[str, Any], str]] = {}
#: Compilation counter, exposed for the cache tests.
compile_count = 0

_SALT: Optional[str] = None
#: The composed generic source ``_SALT`` hashes: composed once per salt
#: and reused by every specialization under it.
_COMPOSED: Optional[str] = None


def _composition() -> str:
    global _COMPOSED
    if _COMPOSED is None:
        _COMPOSED = compose_source()
    return _COMPOSED


def kernel_salt() -> str:
    """Hash of the generic composed source plus the folding rules."""
    global _SALT
    if _SALT is None:
        h = hashlib.sha256()
        h.update(_composition().encode("utf-8"))
        with open(__file__, "rb") as fh:
            h.update(fh.read())
        _SALT = h.hexdigest()[:16]
    return _SALT


def cache_key(config) -> str:
    """``(code salt, canonical machine description)`` digest."""
    from repro.core.registry import describe_machine
    body = json.dumps(describe_machine(config), sort_keys=True,
                      separators=(",", ":"))
    return kernel_salt() + ":" + hashlib.sha256(
        body.encode("utf-8")).hexdigest()[:24]


def clear_cache() -> None:
    """Drop every cached kernel, the salt and the composition (tests)."""
    global _SALT, _COMPOSED
    _CACHE.clear()
    _SALT = None
    _COMPOSED = None


def kernel_for(processor, state):
    """The specialized kernel for ``processor.config``.

    Compiles at most once per ``(code salt, machine description)`` for
    the life of the process.  A config whose source cannot be soundly
    specialized raises :class:`SpecializeError`.
    """
    global compile_count
    key = cache_key(processor.config)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit[0]
    folded, const_map = _specialize(processor, state)
    # The folded tree compiles directly; no text round trip.
    code = compile(folded, "<repro.core.stages.specialize>", "exec")
    g = _stage_globals()
    exec(code, g)
    kernel = g["_fused_run"]
    compile_count += 1
    _CACHE[key] = (kernel, const_map, processor.config.notation())
    return kernel


def cached_source(config) -> Optional[str]:
    """The generated source for a cached config (inspection/tests).

    Re-folds the composition with the cached names, which rebuilds the
    exact tree the kernel was compiled from.
    """
    hit = _CACHE.get(cache_key(config))
    if hit is None:
        return None
    _kernel, const_map, notation = hit
    folded = _fold(ast.parse(_composition()), const_map)
    return _render(notation, folded, const_map)


def emit_source(config) -> str:
    """Generate the specialized source for *config* without a run.

    Builds a throwaway processor and empty core state purely to give
    the prologue evaluator live objects; no simulation happens.  Used
    by ``repro-cc perf --emit-kernel`` and the CI smoke step.
    """
    from repro.core.processor import Processor
    from repro.core.stages.state import CoreState
    processor = Processor(config)
    return specialize_source(processor, CoreState(processor, []))
