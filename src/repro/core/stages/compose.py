"""Bind-time composition: splice the stage ticks into one fused kernel.

The stage modules are the single source of truth for the timing model —
each owns its prologue (the working-set bindings at the top of
``bind``), its per-cycle ``tick`` body, and its ``finish`` accounting.
The portable kernel in :meth:`Processor._portable_kernel` composes them
by closure calls: correct, debuggable, and the shape the interface
contract is written against.  But at ~3 tick calls per simulated cycle,
CPython's call machinery (frame setup, default re-binding, return-tuple
packing, and the interpreter-state churn of crossing function
boundaries) costs 15-20% of the whole simulation — measured against the
fused-loop ancestor this refactor decomposed.

This module recovers that loss without giving up the decomposition: it
parses each stage module once, takes its prologue, tick body and finish
statements as AST nodes, and splices them into the parsed kernel
skeleton below — every stage guard and body inline in a single frame,
exactly the shape of the fused ancestor.  No source text is built: the
result is a :class:`Composition`, the kernel tree plus what one walk
over every node of it found — each name's store count, and the loads
of the names a constant fold may replace, with every node above them.
:mod:`repro.core.stages.specialize` folds each machine's configuration
into that tree, touching only those nodes, and compiles the result
once per machine description: the specialized kernel every default
``Processor.cycles`` returns.  The golden equivalence suite pins it to
the seed reference bit-identically, and
``tests/core/test_kernel_compose.py`` and
``tests/core/test_kernel_specialize.py`` pin it to the portable kernel
across policies, so the two composition modes cannot drift apart.

Both kernels are generators with one contract: each resume simulates
one cycle, or one cycle skip, and yields the last cycle simulated
(``target - 1`` after a skip), and the ``finally`` block leaves the
kernel's outcome in ``self._outcome`` for :meth:`Processor.result`.
A solo run drains the generator; a multi-programmed mix
(:func:`repro.core.multicore.run_mix`) resumes one per core on a shared
clock.  The yield costs a few nanoseconds per cycle, so the composer
emits the same kernel for both.

Splicing rules the stage modules must follow (enforced here, loudly):

- prologue statements are single-target assignments; a name bound by
  two stages must be bound to the *same expression* (the composer keeps
  the first binding and raises on a conflict);
- every tick default is an identity re-binding (``name=name``) of a
  prologue name, so the spliced body resolves to the prologue binding;
- tick positional parameters are exactly the kernel's per-cycle scalars
  (same names, so splicing needs no renaming);
- a tick body has no ``return`` except an optional trailing
  ``return <scalars>`` (stripped: the scalars are already kernel
  locals), and no nested ``def`` or ``lambda``;
- ``finish`` ends with a single trailing ``return <shares-dict>`` and
  has no other ``return``.

The nested halves of the last two rules (no inner ``return``, ``def``
or ``lambda``) are checked by the composing walk itself, so they cost
no pass of their own.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, NamedTuple, Set, Tuple

from repro.core.stages import commit as commit_stage
from repro.core.stages import dispatch as dispatch_stage
from repro.core.stages import issue as issue_stage
from repro.core.stages import memory as memory_stage
from repro.core.stages import writeback as writeback_stage

#: (module, stage key, expected tick positional parameters).  Order is
#: the in-cycle stage order; prologues are emitted in the same order, so
#: a deduped shared binding is always defined before later stages use it.
_STAGES = (
    (commit_stage, "commit",
     ("now", "index", "committed_total", "l1_avail", "lvc_avail")),
    (writeback_stage, "writeback", ("now",)),
    (memory_stage, "memory",
     ("now", "l1_avail", "lvc_avail", "lsq_unserviced", "lvaq_unserviced")),
    (issue_stage, "issue", ("now",)),
    (dispatch_stage, "dispatch",
     ("now", "index", "committed_total", "lsq_unserviced",
      "lvaq_unserviced")),
)

#: finish() parameters the composer knows how to supply.
_FINISH_ARGS = {"final_now": "now"}

class ComposeError(RuntimeError):
    """A stage module violated the splicing rules."""


class Composition(NamedTuple):
    """The composed kernel and what the composing walk found in it.

    Read-only once built: folding copies a node before changing it, so
    one composition serves every machine folded from it.
    """

    #: ``Module`` holding the one ``def _fused_run(self, state)``.
    tree: ast.Module
    #: Name -> ``Name`` stores anywhere in the kernel (assignments,
    #: augmented assignments, loop targets).
    stores: Dict[str, int]
    #: Every load of a name the composition was asked to index, and every
    #: node above one: the only nodes a fold of those names may change.
    touched: FrozenSet[ast.AST]


def _assign(name: str, value: ast.expr, where: ast.AST) -> ast.Assign:
    """``name = value``, located at *where* for ``compile``."""
    stmt = ast.Assign(targets=[ast.Name(id=name, ctx=ast.Store())],
                      value=value)
    return ast.fix_missing_locations(ast.copy_location(stmt, where))


def _stage_parts(module, key: str, positional: Tuple[str, ...]):
    """Parse one stage into (prologue, tick body, finish statements).

    Checks the interface rules; the nested-node rules are left to the
    composing walk.  The finish statements bind the supplied arguments,
    run the body and name the shares dict ``_fin_<key>``.
    """
    with open(module.__file__, "rb") as fh:
        tree = ast.parse(fh.read())
    bind = next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == "bind")

    prologue: List[ast.Assign] = []
    tick = finish = None
    for stmt in bind.body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value,
                                                     ast.Constant):
            continue  # docstring
        if isinstance(stmt, ast.FunctionDef):
            if stmt.name == "tick":
                tick = stmt
            elif stmt.name == "finish":
                finish = stmt
            continue
        if isinstance(stmt, ast.Return):
            continue  # `return tick, finish`
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            raise ComposeError(
                f"{key}: prologue statement at line {stmt.lineno} is not "
                f"a single-name assignment")
        prologue.append(stmt)
    if tick is None or finish is None:
        raise ComposeError(f"{key}: bind() must define tick and finish")

    # --- tick: check the interface, then take the body ---------------
    args = tick.args
    if args.posonlyargs or args.kwonlyargs or args.vararg or args.kwarg:
        raise ComposeError(f"{key}: tick must use plain parameters")
    names = [a.arg for a in args.args]
    n_pos = len(names) - len(args.defaults)
    if tuple(names[:n_pos]) != positional:
        raise ComposeError(
            f"{key}: tick positional parameters {names[:n_pos]} != "
            f"expected {list(positional)}")
    for name, default in zip(names[n_pos:], args.defaults):
        if not (isinstance(default, ast.Name) and default.id == name):
            raise ComposeError(
                f"{key}: tick default {name}={ast.unparse(default)} is "
                f"not an identity re-binding")

    body = [s for s in tick.body if not isinstance(s, ast.Nonlocal)]
    if body and isinstance(body[-1], ast.Return):
        ret = body.pop()
        value = ret.value
        elts = (value.elts if isinstance(value, ast.Tuple) else [value])
        for e in elts:
            if not (isinstance(e, ast.Name)
                    and e.id in positional):
                raise ComposeError(
                    f"{key}: tick trailing return must only name "
                    f"positional scalars, got {ast.unparse(ret)}")
    if not body:
        raise ComposeError(f"{key}: tick body is empty")

    # --- finish: bind the arguments, keep the body, name the shares --
    fargs = [a.arg for a in finish.args.args]
    for a in fargs:
        if a not in _FINISH_ARGS:
            raise ComposeError(f"{key}: finish parameter {a} unsupported")
    fbody = list(finish.body)
    if not (fbody and isinstance(fbody[-1], ast.Return)
            and fbody[-1].value is not None):
        raise ComposeError(f"{key}: finish must end with `return <dict>`")
    fret = fbody.pop()
    fin = ([_assign(a, ast.Name(id=_FINISH_ARGS[a], ctx=ast.Load()),
                    finish) for a in fargs]
           + fbody + [_assign(f"_fin_{key}", fret.value, fret)])
    return prologue, body, fin


def _scan(node: ast.AST, names: FrozenSet[str], stores: Dict[str, int],
          touched: Set[ast.AST], forbid: tuple, rule: str) -> bool:
    """The composing walk over *node* and everything below it.

    Counts ``Name`` stores into *stores*, raises ``ComposeError(rule)``
    on a node of a *forbid* type, and adds every load of one of *names*,
    and every node above one, to *touched*.  Returns whether *node* was
    added.
    """
    if type(node) is ast.Name:
        if type(node.ctx) is ast.Store:
            stores[node.id] = stores.get(node.id, 0) + 1
            return False
        hit = node.id in names
    else:
        if forbid and isinstance(node, forbid):
            raise ComposeError(f"{rule} (line {node.lineno})")
        hit = False
        for field in node._fields:
            value = getattr(node, field)
            if type(value) is list:
                for item in value:
                    if (isinstance(item, ast.AST)
                            and _scan(item, names, stores, touched, forbid,
                                      rule)):
                        hit = True
            elif (isinstance(value, ast.AST)
                    and _scan(value, names, stores, touched, forbid, rule)):
                hit = True
    if hit:
        touched.add(node)
    return hit


def _splice(block: List[ast.stmt],
            parts: Dict[str, List[ast.stmt]]) -> List[ast.stmt]:
    """*block* with every slot statement replaced by its part.

    A slot is a bare name statement (``TICK_commit``) in a ``body``,
    ``orelse`` or ``finalbody`` of the skeleton; each part is consumed
    by the one slot it fills.
    """
    out: List[ast.stmt] = []
    for stmt in block:
        if (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Name)
                and stmt.value.id in parts):
            out.extend(parts.pop(stmt.value.id))
            continue
        for field in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, field, None)
            if inner:
                setattr(stmt, field, _splice(inner, parts))
        out.append(stmt)
    return out


def compose_kernel(names: FrozenSet[str]) -> Composition:
    """Compose the fused kernel from the five stage modules, indexing
    every load of *names* (see :class:`Composition`)."""
    stores: Dict[str, int] = {}
    touched: Set[ast.AST] = set()
    prologue: List[ast.stmt] = []
    seen: Dict[str, ast.Assign] = {}
    parts: Dict[str, List[ast.stmt]] = {}
    finishes: List[ast.stmt] = []

    for module, key, positional in _STAGES:
        stage_prologue, tick, fin = _stage_parts(module, key, positional)
        for stmt in stage_prologue:
            target = stmt.targets[0].id
            prior = seen.get(target)
            if prior is None:
                seen[target] = stmt
                prologue.append(stmt)
                _scan(stmt, names, stores, touched, (), "")
            elif ast.dump(prior.value) != ast.dump(stmt.value):
                raise ComposeError(
                    f"{key}: prologue rebinds {target!r} with different "
                    f"source: {ast.unparse(stmt)!r} vs "
                    f"{ast.unparse(prior)!r}")
        for stmt in tick:
            _scan(stmt, names, stores, touched,
                  (ast.Return, ast.FunctionDef, ast.Lambda),
                  f"{key}: tick body may not contain nested returns, defs "
                  f"or lambdas")
        for stmt in fin:
            _scan(stmt, names, stores, touched, (ast.Return,),
                  f"{key}: finish has a mid-body return")
        parts[f"TICK_{key}"] = tick
        finishes.extend(fin)
    parts["PROLOGUE"] = prologue
    parts["FINISHES"] = finishes

    # The skeleton's slots count as indexed loads, so every node above a
    # spliced part is indexed as if the part had been walked in place.
    tree = ast.parse(_SKELETON)
    _scan(tree, names | frozenset(parts), stores, touched, (), "")
    tree.body = _splice(tree.body, parts)
    if parts:
        raise ComposeError(f"kernel skeleton lacks slots {sorted(parts)}")
    return Composition(tree, stores, frozenset(touched))


# The kernel skeleton.  Bare ``PROLOGUE``, ``TICK_<stage>`` and
# ``FINISHES`` statements are the slots the stage parts fill; the rest mirrors
# Processor._portable_kernel line for line, its ``yield`` and outcome
# hand-off included (the cross-kernel equivalence tests keep them honest).
_SKELETON = """\
def _fused_run(self, state):
    PROLOGUE
    # ---- kernel-owned scalars ----------------------------------------
    index = 0
    limit = total * 80 + 1000
    lsq_unserviced = lsq.unserviced_loads
    lvaq_unserviced = lvaq.unserviced_loads
    l1_new_cycle = l1_ports.new_cycle
    lvc_new_cycle = lvc_ports.new_cycle if have_lvc else None
    l1_nports = l1_ports.ports
    l1_avail = l1_ports._available if l1_simple else 0
    l1_sat = 0
    lvc_nports = lvc_ports.ports if have_lvc else 0
    lvc_avail = lvc_ports._available if lvc_simple else 0
    lvc_sat = 0
    now = self.now
    committed_total = self._committed
    n_skip_rob_full = 0
    exceeded = False
    _gc_was_enabled = gc.isenabled()
    if _gc_was_enabled:
        gc.disable()
    try:
        while committed_total < total:
            now += 1
            if now > limit:
                exceeded = True
                break
            # ---- new cycle: refill the port budgets ---------------
            if l1_simple:
                if l1_avail == 0:
                    l1_sat += 1
                l1_avail = l1_nports
            else:
                l1_new_cycle()
            if have_lvc:
                if lvc_simple:
                    if lvc_avail == 0:
                        lvc_sat += 1
                    lvc_avail = lvc_nports
                else:
                    lvc_new_cycle()
            # ---- commit -------------------------------------------
            if window[committed_total & wmask].state == 2:
                TICK_commit
            # ---- writeback ----------------------------------------
            if store_done or overflow or ring[now & MASK]:
                TICK_writeback
            # ---- memory -------------------------------------------
            if lsq_unserviced or lvaq_unserviced:
                TICK_memory
            # ---- issue --------------------------------------------
            if ready_fifo or woken or imult_wait or fmult_wait:
                TICK_issue
            # ---- dispatch -----------------------------------------
            if index < total:
                TICK_dispatch
            # ---- cycle skip ---------------------------------------
            if (not ready_fifo
                    and not woken
                    and not imult_wait
                    and not fmult_wait
                    and not store_done
                    and (index >= total
                         or index - committed_total >= rob_size)
                    and lsq_unserviced == 0
                    and lvaq_unserviced == 0
                    and committed_total < total
                    and window[committed_total & wmask].state != 2):
                target = None
                for k in range(1, RING):
                    if ring[(now + k) & MASK]:
                        target = now + k
                        break
                if overflow:
                    for t in overflow:
                        if t > now and (target is None
                                        or t < target):
                            target = t
                cap = limit + 1
                if target is None or target > cap:
                    target = cap
                if target > now + 1:
                    if index < total:
                        n_skip_rob_full += target - now - 1
                    now = target - 1
            yield now
    finally:
        if _gc_was_enabled:
            gc.enable()
        self.now = now
        self._committed = committed_total
        lsq.unserviced_loads = lsq_unserviced
        lvaq.unserviced_loads = lvaq_unserviced
        FINISHES
        _shares = {}
        for _fin in (_fin_commit, _fin_writeback, _fin_memory, _fin_issue,
                     _fin_dispatch):
            for _k, _v in _fin.items():
                _shares[_k] = _shares.get(_k, 0) + _v
        _l1_busy = _shares.pop("_l1_busy", 0)
        _lvc_busy = _shares.pop("_lvc_busy", 0)
        if l1_simple:
            l1_ports._available = l1_avail
            l1_ports.busy_transactions += _l1_busy
            l1_ports.cycles_saturated += l1_sat
        if lvc_simple:
            lvc_ports._available = lvc_avail
            lvc_ports.busy_transactions += _lvc_busy
            lvc_ports.cycles_saturated += lvc_sat
        _n_l1_fast = _shares.pop("_l1_fast", 0)
        _n_lvc_fast = _shares.pop("_lvc_fast", 0)
        if _n_l1_fast or _n_lvc_fast:
            _counts = state.counts
            _counts_get = _counts.get
            if _n_l1_fast:
                _k = state.l1_ka
                _counts[_k] = _counts_get(_k, 0) + _n_l1_fast
                _k = state.l1_kh
                _counts[_k] = _counts_get(_k, 0) + _n_l1_fast
            if _n_lvc_fast:
                _k = state.lvc_ka
                _counts[_k] = _counts_get(_k, 0) + _n_lvc_fast
                _k = state.lvc_kh
                _counts[_k] = _counts_get(_k, 0) + _n_lvc_fast
        self._outcome = (total, index, _shares, exceeded, n_skip_rob_full)
"""
