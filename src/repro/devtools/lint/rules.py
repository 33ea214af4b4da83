"""Project lint rules: each machine-checks one documented invariant.

Every rule names the invariant it guards and where the invariant was
established (backends README section or the PR that introduced it); the
"Enforced invariants" table in ``src/repro/monitor/backends/README.md``
is generated from these declarations' vocabulary.  Rules are pure AST
analyses — they never import the code under inspection.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.devtools.lint import lockgraph
from repro.devtools.lint.core import FileContext, Finding, Rule, register

#: Mirror of :data:`repro.bdd.manager.GC_SAFE_POINTS` for when the
#: engine (and its numpy dependency) is not importable from the lint
#: process.  ``tests/test_lint_rules.py`` asserts the two stay equal.
GC_SAFE_POINTS_FALLBACK = frozenset(
    {
        "ite",
        "apply_and",
        "apply_or",
        "apply_xor",
        "apply_implies",
        "apply_iff",
        "exists",
        "exists_many",
        "forall",
        "restrict",
        "from_pattern",
        "from_patterns",
        "hamming_expand",
        "hamming_ball",
        "reorder",
        "collect_garbage",
    }
)


def gc_safe_points() -> frozenset:
    """The engine's authoritative safe-point registry, if importable."""
    try:
        from repro.bdd.manager import GC_SAFE_POINTS

        return GC_SAFE_POINTS
    except Exception:
        return GC_SAFE_POINTS_FALLBACK


def _call_terminal(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _receiver_name(func: ast.AST) -> Optional[str]:
    """For ``a.b.method(...)`` the name of the receiver (``b``)."""
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    return None


def _iter_functions(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _is_manager_receiver(name: Optional[str]) -> bool:
    if name is None:
        return False
    lowered = name.lower()
    return "manager" in lowered or "mgr" in lowered


# ----------------------------------------------------------------------
# (1) bdd-ref-safety
# ----------------------------------------------------------------------
class _RefState:
    """Tracking for one raw-ref local inside one function.

    ``birth`` is the safe-point count at the assignment producing the
    ref; the ref is stale once the scan's count moves past it.
    """

    __slots__ = ("birth", "pinned")

    def __init__(self, birth: int) -> None:
        self.birth = birth
        self.pinned = False


class _RefScan:
    """Linear statement scan of one function for stale raw-ref uses.

    The model mirrors the engine contract (manager docstring, PR 5):
    auto-GC/reorder runs only at the end of a *safe-point* operation,
    with that operation's result as an extra root — so a raw ref is
    stable *within* an operation but may be renumbered by the next safe
    point.  A local born from a manager call and read after a later
    safe-point call is therefore stale unless it was pinned
    (``manager.incref(ref)``) or re-assigned (re-read) in between.
    Loop bodies are scanned twice so a use at the top of iteration two
    sees iteration one's safe points.
    """

    def __init__(self, rule: "BddRefSafetyRule", ctx: FileContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.safe_points = gc_safe_points()
        self.refs: Dict[str, _RefState] = {}
        self.sp_count = 0
        self.findings: List[Finding] = []
        self.reported: Set[Tuple[str, int]] = set()

    # -- statement dispatch -------------------------------------------
    def scan(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._scan_stmt(stmt)

    def _scan_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested scope: analysed on its own
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            self._scan_leaf_parts(stmt)
            self.scan(stmt.body)
            self.scan(stmt.body)  # second pass: cross-iteration staleness
            self.scan(stmt.orelse)
            return
        if isinstance(stmt, ast.If):
            self._check_uses(stmt.test)
            self._note_safe_points(stmt.test)
            self.scan(stmt.body)
            self.scan(stmt.orelse)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._check_uses(item.context_expr)
                self._note_safe_points(item.context_expr)
            self.scan(stmt.body)
            return
        if isinstance(stmt, ast.Try):
            self.scan(stmt.body)
            for handler in stmt.handlers:
                self.scan(handler.body)
            self.scan(stmt.orelse)
            self.scan(stmt.finalbody)
            return
        self._scan_leaf_parts(stmt)

    def _scan_leaf_parts(self, stmt: ast.stmt) -> None:
        # Order within a statement: uses are judged against the epoch
        # *before* the statement's own calls run — `acc = mgr.apply_or(
        # acc, x)` consumes `acc` at the call's safe point, not after it.
        self._check_uses(stmt)
        self._note_safe_points(stmt)
        self._note_pins(stmt)
        self._note_assignments(stmt)

    # -- events --------------------------------------------------------
    def _check_uses(self, node: ast.AST) -> None:
        for child in ast.walk(node):
            if not isinstance(child, ast.Name) or not isinstance(
                child.ctx, ast.Load
            ):
                continue
            state = self.refs.get(child.id)
            if state is None or state.pinned:
                continue
            if state.birth < self.sp_count:
                key = (child.id, child.lineno)
                if key in self.reported:
                    continue
                self.reported.add(key)
                self.findings.append(
                    self.rule.finding(
                        self.ctx,
                        child,
                        f"raw BDD ref {child.id!r} may be stale: a GC "
                        "safe point ran since it was produced; pin it "
                        "with incref() or re-read it after the safe point",
                    )
                )

    def _note_safe_points(self, node: ast.AST) -> None:
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Call)
                and _call_terminal(child.func) in self.safe_points
                and _is_manager_receiver(_receiver_name(child.func))
            ):
                self.sp_count += 1

    def _note_pins(self, node: ast.AST) -> None:
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Call)
                and _call_terminal(child.func) == "incref"
                and _is_manager_receiver(_receiver_name(child.func))
            ):
                for arg in child.args:
                    if isinstance(arg, ast.Name) and arg.id in self.refs:
                        self.refs[arg.id].pinned = True

    def _note_assignments(self, node: ast.AST) -> None:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        elif isinstance(node, ast.AugAssign):
            targets, value = [node.target], node.value
        if value is None:
            return
        # A tracked-handle constructor wraps the ref: the handle is
        # remapped in place by GC, so the local is not a raw ref.
        if isinstance(value, ast.Call) and _call_terminal(value.func) in (
            "function",
            "BDDFunction",
        ):
            for target in targets:
                if isinstance(target, ast.Name):
                    self.refs.pop(target.id, None)
            return
        produces_ref = any(
            isinstance(child, ast.Call)
            and _is_manager_receiver(_receiver_name(child.func))
            for child in ast.walk(value)
        )
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if produces_ref:
                self.refs[target.id] = _RefState(self.sp_count)
            else:
                # Re-assignment from a non-manager source: the local no
                # longer holds a raw ref born before the safe point
                # (re-reading a tracked handle lands here).
                self.refs.pop(target.id, None)


@register
class BddRefSafetyRule(Rule):
    name = "bdd-ref-safety"
    invariant = (
        "a raw manager ref held in a local across a GC safe point must be "
        "pinned via incref() or re-read after the safe point"
    )
    established = "PR 5 (hamming_ball stale-ref review fix); manager docstring"

    def applies(self, ctx: FileContext) -> bool:
        defines_engine = any(
            isinstance(node, ast.ClassDef)
            and node.name in ("BDDManager", "BDDFunction")
            for node in ctx.tree.body
        )
        if defines_engine:
            return False  # the engine's own internals run between checkpoints
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if "bdd" in module.split("."):
                    return True
            elif isinstance(node, ast.Import):
                if any("bdd" in alias.name.split(".") for alias in node.names):
                    return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not self.applies(ctx):
            return
        for func in _iter_functions(ctx.tree):
            scan = _RefScan(self, ctx)
            scan.scan(func.body)
            yield from scan.findings


# ----------------------------------------------------------------------
# (2) lock-discipline
# ----------------------------------------------------------------------
def _is_lock_expr(node: ast.AST) -> bool:
    name = None
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    return name is not None and "lock" in name.lower()


@register
class LockDisciplineRule(Rule):
    name = "lock-discipline"
    invariant = (
        "the static lock-acquisition graph is acyclic, and no coroutine "
        "awaits while holding a threading.Lock"
    )
    established = "PR 4/PR 6 serving+drift lock order; backends README"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        graph = lockgraph.build_graph([(ctx.path, ctx.tree)])
        cycle = graph.find_cycle()
        if cycle is not None:
            lines = [
                edge.line
                for edge in graph.edges
                if (edge.held, edge.acquired)
                in set(zip(cycle, cycle[1:]))
            ]
            anchor = ast.Module(body=[], type_ignores=[])
            anchor.lineno = min(lines) if lines else 1  # type: ignore[attr-defined]
            anchor.col_offset = 0  # type: ignore[attr-defined]
            yield self.finding(
                ctx,
                anchor,
                "lock acquisition cycle: " + " -> ".join(cycle),
            )
        yield from self._await_under_lock(ctx)

    def _await_under_lock(self, ctx: FileContext) -> Iterator[Finding]:
        for func in _iter_functions(ctx.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            for node in ast.walk(func):
                if not isinstance(node, (ast.With, ast.AsyncWith)):
                    continue
                if isinstance(node, ast.AsyncWith):
                    continue  # `async with` guards asyncio locks — fine
                if not any(
                    _is_lock_expr(item.context_expr) for item in node.items
                ):
                    continue
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Await):
                        yield self.finding(
                            ctx,
                            inner,
                            "await while holding a threading.Lock: the "
                            "event loop parks with the lock held, "
                            "stalling every other thread that needs it",
                        )


# ----------------------------------------------------------------------
# (3) async-blocking-call
# ----------------------------------------------------------------------
#: Methods that block the calling thread (pipes, processes, futures)
#: or run kernel-sized numpy work.
BLOCKING_METHODS = frozenset(
    {
        "recv",
        "recv_bytes",
        "poll_until",
        "join",
        "shutdown",
        "result",
        "check_batch",
        "classify",
        "min_distances",
        "contains_batch",
    }
)

#: Receiver roots whose methods are event-loop-native, not blocking.
_ASYNC_NATIVE_ROOTS = frozenset({"asyncio", "loop", "_loop", "event", "_event"})

#: ``asyncio`` functions whose positional arguments are awaitables: a
#: call passed there builds a coroutine for the loop to run, so it runs
#: nothing inline (``asyncio.gather(server.classify(x))``).
_AWAITABLE_TAKERS = frozenset({"gather", "wait_for", "create_task", "ensure_future"})


def _root_name(node: ast.AST) -> Optional[str]:
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


@register
class AsyncBlockingCallRule(Rule):
    name = "async-blocking-call"
    invariant = (
        "known-blocking calls (pipe recv, join/shutdown, kernel-sized "
        "numpy ops) run in an executor, never inline in a coroutine"
    )
    established = "PR 3 async micro-batching; PR 4 process pool"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in _iter_functions(ctx.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            yield from self._scan(ctx, func.body)

    def _scan(self, ctx: FileContext, body: Sequence[ast.stmt]) -> Iterator[Finding]:
        for stmt in body:
            yield from self._scan_node(ctx, stmt, awaited=False)

    def _scan_node(
        self, ctx: FileContext, node: ast.AST, awaited: bool
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested callables execute elsewhere (executor submits)
        if isinstance(node, ast.Await):
            for child in ast.iter_child_nodes(node):
                yield from self._scan_node(ctx, child, awaited=True)
            return
        if isinstance(node, ast.Call):
            terminal = _call_terminal(node.func)
            is_sleep = (
                terminal == "sleep"
                and _receiver_name(node.func) != "asyncio"
            )
            if (terminal in BLOCKING_METHODS or is_sleep) and not awaited:
                receiver = _receiver_name(node.func)
                if receiver not in _ASYNC_NATIVE_ROOTS:
                    yield self.finding(
                        ctx,
                        node,
                        f"blocking call {terminal!r} inside 'async def': "
                        "dispatch it through run_in_executor (or await "
                        "an async equivalent) so the event loop keeps "
                        "scheduling",
                    )
            # A call result is consumed now even when the call itself is
            # awaited (`await loop.run_in_executor(...)`): its *argument*
            # sub-calls still execute inline, so recurse un-awaited —
            # except the awaitables handed to an asyncio taker.
            takes_awaitables = (
                terminal in _AWAITABLE_TAKERS
                and _receiver_name(node.func) == "asyncio"
            )
            for child in ast.iter_child_nodes(node):
                if takes_awaitables and child in node.args:
                    yield from self._scan_awaitable(ctx, child)
                else:
                    yield from self._scan_node(ctx, child, awaited=False)
            return
        for child in ast.iter_child_nodes(node):
            yield from self._scan_node(ctx, child, awaited=awaited)


    def _scan_awaitable(self, ctx: FileContext, arg: ast.AST) -> Iterator[Finding]:
        """An argument of an asyncio taker: its outermost call (also each
        element of a starred comprehension) counts as awaited."""
        if isinstance(arg, ast.Starred):
            yield from self._scan_awaitable(ctx, arg.value)
        elif isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            yield from self._scan_awaitable(ctx, arg.elt)
            for comprehension in arg.generators:
                yield from self._scan_node(ctx, comprehension, awaited=False)
        else:
            yield from self._scan_node(ctx, arg, awaited=isinstance(arg, ast.Call))


# ----------------------------------------------------------------------
# (4) payload-boundary
# ----------------------------------------------------------------------
#: Attribute names that are engine internals and must never cross a
#: worker pipe or a pickle boundary.
ENGINE_INTERNALS = frozenset(
    {
        "engine",
        "_engine",
        "manager",
        "_manager",
        "_var",
        "_low",
        "_high",
        "_unique",
        "_zone",
        "_zone_cache",
        "_visited",
        "zone",
    }
)

#: Calls whose result is a portable wire form.  The shared-memory ring
#: readers qualify: they hand back packed-bit copies/views, never engine
#: objects.
BLESSED_PRODUCERS = frozenset(
    {
        "to_payload",
        "pack_patterns",
        "tobytes",
        "tolist",
        "as_payload",
        "read_request",
        "read_response",
        # The zone store's framing helpers (repro.store): WAL records
        # decode to packed-bit row matrices and segment bodies are
        # mmap'd packed views — both are the portable wire form, never
        # live engine objects.
        "as_array",
        "unpack_patterns",
    }
)

#: Ring frame producers (``repro.serving.shmring``): the only writers of
#: shared-memory ring slots.  Their arguments are a payload boundary
#: exactly like a pipe send — a live engine object memcpy'd into a slot
#: would be garbage on the other side.
RING_FRAME_SINKS = frozenset({"frame_request", "frame_response"})


def _is_pipe_receiver(name: Optional[str]) -> bool:
    if name is None:
        return False
    lowered = name.lower()
    return "conn" in lowered or "pipe" in lowered


@register
class PayloadBoundaryRule(Rule):
    name = "payload-boundary"
    invariant = (
        "worker pipes, pickles and shared-memory ring slots carry only "
        "to_payload()/packed-bit forms, never live engine objects"
    )
    established = "PR 4 shared-nothing worker protocol; backends README"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in _iter_functions(ctx.tree):
            tainted = self._tainted_locals(func)
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                terminal = _call_terminal(node.func)
                receiver = _receiver_name(node.func)
                is_send = terminal in ("send", "send_bytes") and _is_pipe_receiver(
                    receiver
                )
                is_pickle = terminal in ("dumps", "dump") and _root_name(
                    node.func
                ) in ("pickle", "cloudpickle")
                is_ring = terminal in RING_FRAME_SINKS
                if not (is_send or is_pickle or is_ring):
                    continue
                for arg in node.args:
                    yield from self._check_payload(ctx, arg, tainted)

    def _tainted_locals(self, func: ast.AST) -> Set[str]:
        """Locals assigned directly from an engine-internal attribute."""
        tainted: Set[str] = set()
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            if isinstance(value, ast.Call):
                if _call_terminal(value.func) in BLESSED_PRODUCERS:
                    tainted.discard(target.id)
                    continue
            if (
                isinstance(value, ast.Attribute)
                and value.attr in ENGINE_INTERNALS
            ):
                tainted.add(target.id)
            else:
                tainted.discard(target.id)
        return tainted

    def _check_payload(
        self, ctx: FileContext, arg: ast.AST, tainted: Set[str]
    ) -> Iterator[Finding]:
        for node in ast.walk(arg):
            if isinstance(node, ast.Attribute) and node.attr in ENGINE_INTERNALS:
                yield self.finding(
                    ctx,
                    node,
                    f"engine internal '.{node.attr}' crosses the worker "
                    "pipe/pickle boundary: send a to_payload()/packed-bit "
                    "form instead",
                )
            elif isinstance(node, ast.Name) and node.id in tainted:
                yield self.finding(
                    ctx,
                    node,
                    f"{node.id!r} was read from an engine internal and "
                    "crosses the pipe/pickle boundary: convert with "
                    "to_payload()/pack_patterns() first",
                )


# ----------------------------------------------------------------------
# (5) epoch-monotonicity
# ----------------------------------------------------------------------
def _is_epoch_name(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr.lstrip("_").endswith("epoch")
    if isinstance(node, ast.Name):
        return node.id.lstrip("_").endswith("epoch")
    return False


def _mentions_epoch_compare(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Compare) and any(
            _is_epoch_name(part)
            for part in [child.left, *child.comparators]
        ):
            return True
    return False


@register
class EpochMonotonicityRule(Rule):
    name = "epoch-monotonicity"
    invariant = (
        "every epoch assignment is an init, a +1 increment, an "
        "epoch-to-epoch propagation, or sits behind an explicit epoch "
        "comparison guard"
    )
    established = "PR 6 versioned zone hot-swap (apply_snapshot contract)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in _iter_functions(ctx.tree):
            guard_lines = [
                node.lineno
                for node in ast.walk(func)
                if isinstance(node, (ast.If, ast.Assert))
                and _mentions_epoch_compare(node.test)
            ]
            for node in ast.walk(func):
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AugAssign):
                    if _is_epoch_name(node.target) and isinstance(
                        node.op, ast.Add
                    ):
                        continue  # += n is monotone by construction
                    target, value = node.target, node.value
                if target is None or value is None or not _is_epoch_name(target):
                    continue
                if self._value_allowed(target, value):
                    continue
                if any(line <= node.lineno for line in guard_lines):
                    continue
                yield self.finding(
                    ctx,
                    node,
                    "epoch assigned from a non-epoch source with no "
                    "epoch comparison guard in this function: guard on "
                    "'> self.epoch' so replayed/stale snapshots cannot "
                    "roll the fleet backwards",
                )

    def _value_allowed(self, target: ast.expr, value: ast.expr) -> bool:
        if isinstance(value, ast.Constant) and isinstance(value.value, int):
            return True  # initialisation
        if (
            isinstance(value, ast.BinOp)
            and isinstance(value.op, ast.Add)
            and (_is_epoch_name(value.left) or _is_epoch_name(value.right))
        ):
            return True  # epoch + 1
        inner = value
        if (
            isinstance(inner, ast.Call)
            and _call_terminal(inner.func) == "int"
            and len(inner.args) == 1
        ):
            inner = inner.args[0]
        if _is_epoch_name(inner):
            # Propagating an epoch to a *peer* object is fine (the value
            # was validated where it entered); rewriting *self*'s own
            # epoch still needs a guard.
            target_is_self = (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            )
            return not target_is_self
        return False


# ----------------------------------------------------------------------
# (6) hot-path-purity
# ----------------------------------------------------------------------
@register
class HotPathPurityRule(Rule):
    name = "hot-path-purity"
    invariant = (
        "files annotated '# lint: hot-path' keep per-row work vectorised: "
        "no Python for loops over pattern matrices (range-based chunk "
        "loops are allowed)"
    )
    established = "PR 2 packed-bitset kernels; perf-smoke CI budgets"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.hot_path:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            iterator = node.iter
            if (
                isinstance(iterator, ast.Call)
                and _call_terminal(iterator.func) == "range"
            ):
                continue
            yield self.finding(
                ctx,
                node,
                "python-level for loop in a hot-path file: vectorise "
                "over the packed matrix (numpy) or hoist to a "
                "range-based chunk loop",
            )


# ----------------------------------------------------------------------
# generic tier (offline approximation of the ruff gate)
# ----------------------------------------------------------------------
@register
class UnusedImportRule(Rule):
    name = "unused-import"
    invariant = "imports are load-bearing (ruff F401 equivalent, offline)"
    established = "this PR (static-analysis gate)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.path.endswith("__init__.py"):
            return  # package re-exports are intentional surface
        imported: List[Tuple[str, ast.AST]] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.append((name, node))
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    name = alias.asname or alias.name
                    imported.append((name, node))
        used: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                root = _root_name(node)
                if root is not None:
                    used.add(root)
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
            ):
                used.add(node.value)  # covers __all__ entries and doctests
        for name, node in imported:
            if name.startswith("_"):
                # Underscore alias declares a side-effect import (e.g.
                # rule modules self-registering on import).
                continue
            if name not in used:
                yield self.finding(ctx, node, f"import {name!r} is unused")


@register
class MutableDefaultArgRule(Rule):
    name = "mutable-default-arg"
    invariant = (
        "no mutable default arguments (ruff B006 equivalent, offline)"
    )
    established = "this PR (static-analysis gate)"

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in _iter_functions(ctx.tree):
            args = func.args
            for default in [*args.defaults, *args.kw_defaults]:
                if default is None:
                    continue
                mutable = isinstance(
                    default, (ast.List, ast.Dict, ast.Set, ast.DictComp,
                              ast.ListComp, ast.SetComp)
                ) or (
                    isinstance(default, ast.Call)
                    and _call_terminal(default.func) in self._MUTABLE_CALLS
                )
                if mutable:
                    yield self.finding(
                        ctx,
                        default,
                        "mutable default argument is shared across "
                        "calls: default to None and construct inside",
                    )
