"""Per-config kernel specialization: constant-fold the bound machine.

The composed kernel (:mod:`repro.core.stages.compose`) is generic over
every :class:`~repro.core.config.MachineConfig`: issue width, ROB and
queue sizes, port policies, the LVAQ on/off switch and the frontend
policy are all read from run-constant locals, and the hot loop branches
on them millions of times per simulation.  All of those values are
pure functions of the config — so for a *bound* machine they are
compile-time constants.

This module folds them in.  It works on the composition's AST: no
source text is parsed per config.  It evaluates the run-constant
prologue bindings the folded names depend on against a live
``(processor, state)`` pair, substitutes the whitelisted config scalars
as literals, and then constant-folds bottom-up — boolean operators with
exact short-circuit semantics, comparisons, arithmetic, conditional
expressions, and ``if`` statements whose test folded to a constant
(dead policy arms are deleted outright: a ``2+0`` machine's kernel
contains no LVAQ walk at all, a ``perfect``-frontend kernel no gate
bookkeeping).  The fold visits only the nodes the composer indexed —
the loads of a foldable name and the nodes above them, about 300 of
the kernel's ~9,400 — and copies a node before changing it, so the
composition stays intact for the next machine.  The result is compiled
once per machine description and cached for the life of the process,
so `repro.runtime` workers keep specialized kernels warm across jobs.

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
  cross-kernel equivalence suite);
- once folded, a name has no load left, so its call-free top-level
  binding is dropped: the kernel keeps fewer locals, and the cycle
  loop's stay below index 256, where no access needs ``EXTENDED_ARG``.

Cache keying: ``(kernel code salt, canonical describe_machine JSON)``.
The code salt hashes the bytes of the five stage modules, the composer
and this module, so editing any stage, the skeleton or the folding
rules invalidates every entry, and a cache hit neither reads nor parses
a stage; the machine description includes ``CONFIG_SCHEMA_VERSION``,
so a schema bump does too.  The composition is built on the first miss
under a salt and reused by every specialization under it; the folded
tree is compiled directly, and source text is rendered only on request
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
from types import CodeType
from typing import (Any, Container, Dict, FrozenSet, List, Optional,
                    Tuple)

from repro.core.stages import compose
from repro.core.stages.compose import _STAGES, Composition, compose_kernel


class SpecializeError(RuntimeError):
    """The composed kernel could not be soundly specialized."""


#: Config-only scalars the folder may substitute.  Everything else —
#: workload-dependent values (``total``), mutated per-cycle scalars,
#: container bindings — stays a name.  A listed name is still skipped
#: unless it is stored exactly once and evaluates to a bool/int.
CONST_NAMES = frozenset({
    # dispatch / template
    "width", "rob_size", "wmask", "decoupled", "mispredict_penalty",
    "load_fu", "store_fu", "lsq_size", "lvaq_size",
    "icache_miss_latency", "redirect_penalty",
    # memory / commit
    "fast_fwd", "combining", "combine_window", "inf_seq",
    "l1_simple", "lvc_simple", "have_lvc",
    "l1_shift", "l1_smask", "l1_hitlat",
    "lvc_shift", "lvc_smask", "lvc_hitlat",
    "l1_nports", "lvc_nports",
    # issue
    "n_ialu", "n_falu",
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

#: Every name a fold may replace: the config scalars, and ``gates``
#: under the perfect frontend.  The composer indexes their loads.
_FOLD_NAMES = CONST_NAMES | {"gates"}

#: (target, compiled right-hand side) of the prologue bindings to
#: evaluate, in kernel order.
_Plan = List[Tuple[str, CodeType]]


def _call_free_target(
    stmt: ast.stmt, names: Optional[Container[str]] = None,
) -> Optional[str]:
    """The name *stmt* binds, if it is a single-name assignment (to one
    of *names*, when given) whose right-hand side holds no call; else
    None.

    Only such a binding is free of side effects: a call may be
    effectful (``frontend.prepare`` must run exactly once, in the
    kernel).  *names* is tested before the right-hand side is walked.
    """
    if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)):
        return None
    target = stmt.targets[0].id
    if names is not None and target not in names:
        return None
    if any(isinstance(n, ast.Call) for n in ast.walk(stmt.value)):
        return None
    return target


def _prologue_plan(fn: ast.FunctionDef) -> _Plan:
    """The top-level bindings the :data:`CONST_NAMES` values depend on.

    Only call-free single-name assignments qualify
    (:func:`_call_free_target`).  A binding is kept when it binds a
    listed name or a name a later kept binding loads, so evaluating the
    plan in order gives each listed name the value evaluating every
    qualifying binding would.
    """
    candidates = []
    for stmt in fn.body:
        target = _call_free_target(stmt)
        if target is None:
            continue
        loads = {n.id for n in ast.walk(stmt.value)
                 if isinstance(n, ast.Name)}
        candidates.append((target, loads, stmt.value))
    needed = set(CONST_NAMES)
    plan: _Plan = []
    for target, loads, value in reversed(candidates):
        if target in needed:
            needed |= loads
            plan.append((target, compile(ast.Expression(body=value),
                                         "<specialize-prologue>", "eval")))
    plan.reverse()
    return plan


def _prologue_values(plan: _Plan, processor, state,
                     genv: Dict[str, Any]) -> Dict[str, Any]:
    """Evaluate *plan* against the live ``(processor, state)`` pair.

    An evaluation error just leaves the name unbound, which disables
    folding for it and anything downstream of it.
    """
    local: Dict[str, Any] = {"self": processor, "state": state}
    for target, code in plan:
        try:
            local[target] = eval(  # noqa: S307 - our own composed kernel
                code, genv, local)
        except Exception:
            continue
    return local


def _replace(node: ast.AST, **fields) -> ast.AST:
    """A shallow copy of *node* with *fields* replaced."""
    new = node.__class__.__new__(node.__class__)
    new.__dict__.update(node.__dict__, **fields)
    return new


class _Folder:
    """Substitute ``const_map`` names and fold constants bottom-up.

    Visits only the composition's touched nodes, the loads of a
    foldable name and every node above one, so only expressions that
    hold a folded name are reduced; a literal-only one such as ``-1`` is
    left as written.  Never mutates a node: one whose children changed
    is copied first, so the composition stays intact.
    """

    def __init__(self, const_map: Dict[str, Any],
                 touched: FrozenSet[ast.AST]):
        self.const_map = const_map
        self.touched = touched

    def fold(self, node: ast.AST):
        """*node* folded: itself when nothing in it changed, a copy when
        something did, a statement list for a decided ``if``."""
        touched = self.touched
        changed = {}
        for field in node._fields:
            old = getattr(node, field)
            if isinstance(old, list):
                new = []
                dirty = False
                for item in old:
                    if item in touched:
                        folded = self.fold(item)
                        if folded is not item:
                            dirty = True
                            if isinstance(folded, list):
                                new.extend(folded)
                                continue
                        item = folded
                    new.append(item)
                if dirty:
                    changed[field] = new
            elif old in touched:
                new = self.fold(old)
                if new is not old:
                    changed[field] = new
        if changed:
            node = _replace(node, **changed)
        visit = getattr(self, "visit_" + node.__class__.__name__, None)
        return node if visit is None else visit(node)

    def _const(self, value, node):
        return ast.copy_location(ast.Constant(value=value), node)

    def visit_Name(self, node: ast.Name):
        if isinstance(node.ctx, ast.Load) and node.id in self.const_map:
            return self._const(self.const_map[node.id], node)
        return node

    def visit_UnaryOp(self, node: ast.UnaryOp):
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
        if len(out) == len(node.values):
            return node
        return _replace(node, values=out)

    def visit_IfExp(self, node: ast.IfExp):
        if isinstance(node.test, ast.Constant):
            return node.body if node.test.value else node.orelse
        return node

    def visit_If(self, node: ast.If):
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
    composition, plan = _composition()
    values = _prologue_values(plan, processor, state, _stage_globals())
    stores = composition.stores

    const_map: Dict[str, Any] = {}
    for name in CONST_NAMES:
        if stores.get(name) != 1 or name not in values:
            continue
        value = values[name]
        if isinstance(value, int):  # bool is an int
            const_map[name] = value
    # Policy fact: the perfect frontend prepares no gate list, so the
    # dispatch gating machinery is dead code.  (Under any other policy
    # `gates` stays a live name.)
    if (processor.config.frontend.policy == "perfect"
            and stores.get("gates") == 1):
        const_map["gates"] = None
    if not const_map:
        raise SpecializeError("no foldable config constants found")
    return _fold(composition, const_map), const_map


def _fold(composition: Composition,
          const_map: Dict[str, Any]) -> ast.Module:
    """The composition folded under *const_map*, less the bindings the
    fold made dead.

    A folded name is stored once and every load of it is now a literal,
    so its top-level binding only takes a local slot; enough of them
    push the cycle loop's temporaries past index 255.  A binding whose
    right-hand side holds a call stays: ``gates = frontend.prepare(...)``
    must run.
    """
    folded = _Folder(const_map, composition.touched).fold(composition.tree)
    fn = folded.body[0]
    body = [stmt for stmt in fn.body
            if _call_free_target(stmt, const_map) is None]
    return _replace(folded, body=[_replace(fn, body=body)])


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
#: The composition and its prologue plan: built on the first miss under
#: ``_SALT`` and shared by every specialization under it.
_COMPOSED: Optional[Tuple[Composition, _Plan]] = None


def _composition() -> Tuple[Composition, _Plan]:
    global _COMPOSED
    if _COMPOSED is None:
        composition = compose_kernel(_FOLD_NAMES)
        _COMPOSED = composition, _prologue_plan(composition.tree.body[0])
    return _COMPOSED


def kernel_salt() -> str:
    """Hash of the kernel's sources: the stages, the composer and the
    folding rules, read as bytes."""
    global _SALT
    if _SALT is None:
        h = hashlib.sha256()
        paths = [module.__file__ for module, _key, _pos in _STAGES]
        for path in paths + [compose.__file__, __file__]:
            with open(path, "rb") as fh:
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
    the life of the process.  A config that cannot be soundly
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
    return _render(notation, _fold(_composition()[0], const_map), const_map)


def emit_source(config) -> str:
    """Generate the specialized source for *config* without a run.

    Builds a throwaway processor and empty core state purely to give
    the prologue evaluator live objects; no simulation happens.  Used
    by ``repro-cc perf --emit-kernel`` and the CI smoke step.
    """
    from repro.core.processor import Processor
    from repro.core.stages.state import CoreState
    from repro.vm.trace import Stream
    processor = Processor(config)
    return specialize_source(processor, CoreState(processor, Stream()))
