"""Static lock-acquisition graph extracted from ``with`` blocks.

The serving stack (PRs 4–6) holds several ``threading.Lock`` instances
with an *implicit* acquisition order — e.g. ``DriftResponder.respond``
holds the responder lock while draining the staging zone, so the only
safe global order is ``DriftResponder._lock`` before
``StagingZone._lock``.  This module recovers that order statically:

* each ``self.X = threading.Lock()`` / ``named_lock("Cls.attr")``
  assignment declares a lock node;
* nested ``with``-blocks add direct edges *held → acquired*;
* method calls made while a lock is held add edges to every lock the
  callee (transitively) acquires, resolved through ``self``-attribute
  types (``self.staging = StagingZone(...)`` makes ``self.staging.drain()``
  resolve into :class:`StagingZone`);
* a subclass inherits its analysed bases' locks, attribute types and
  methods, and each inherited method is walked again in the subclass's
  context, where ``self.hook()`` resolves to the subclass's override.

A cycle in the resulting graph is a potential deadlock; the
``lock-discipline`` rule fails on it, and the runtime checker
(:mod:`repro.devtools.lint.runtime`) asserts that orders *observed*
during the tier-1 suites stay consistent with this graph.

Lock identity is the string ``"ClassName.attr"``.  When the lock is
created through :func:`repro.devtools.lint.runtime.named_lock` the name
literal passed there wins, which pins the static and runtime checkers to
the same vocabulary.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Callables whose result is a lock object.
LOCK_FACTORIES = frozenset({"Lock", "RLock", "named_lock"})


@dataclass
class Edge:
    """``held`` was held while ``acquired`` was (or could be) taken."""

    held: str
    acquired: str
    path: str
    line: int
    via: str  # "" for a direct nested with, else the call that closes it


@dataclass
class _MethodInfo:
    node: ast.AST
    #: file the method is defined in (an inherited method keeps its own).
    path: str = ""
    #: lock ids taken by a ``with`` directly in this method's body.
    direct: Set[str] = field(default_factory=set)
    #: transitive closure (filled by :func:`_close_over_calls`).
    acquires: Set[str] = field(default_factory=set)


@dataclass
class _ClassInfo:
    name: str
    #: attr name -> lock id for ``self.<attr> = Lock()`` style fields.
    locks: Dict[str, str] = field(default_factory=dict)
    #: attr name -> class name for ``self.<attr> = SomeClass(...)``.
    attr_types: Dict[str, str] = field(default_factory=dict)
    methods: Dict[str, _MethodInfo] = field(default_factory=dict)
    bases: List[str] = field(default_factory=list)


class LockGraph:
    """Nodes (lock ids) and directed acquisition edges."""

    def __init__(self) -> None:
        self.nodes: Set[str] = set()
        self.edges: List[Edge] = []

    def edge_set(self) -> Set[Tuple[str, str]]:
        return {(e.held, e.acquired) for e in self.edges}

    def find_cycle(
        self, extra_edges: Iterable[Tuple[str, str]] = ()
    ) -> Optional[List[str]]:
        """A lock cycle as ``[a, b, ..., a]``, or ``None`` if acyclic."""
        return find_cycle(self.edge_set() | set(extra_edges))


def find_cycle(edges: Iterable[Tuple[str, str]]) -> Optional[List[str]]:
    """Return one cycle in the directed edge set, or ``None``.

    Iterative colouring DFS; the returned path starts and ends on the
    same node (``[a, b, a]`` for a 2-cycle).
    """
    adjacency: Dict[str, List[str]] = {}
    for src, dst in sorted(set(edges)):
        adjacency.setdefault(src, []).append(dst)
    WHITE, GREY, BLACK = 0, 1, 2
    colour: Dict[str, int] = {}
    for start in sorted(adjacency):
        if colour.get(start, WHITE) != WHITE:
            continue
        stack: List[Tuple[str, int]] = [(start, 0)]
        path: List[str] = []
        while stack:
            node, child_index = stack[-1]
            if child_index == 0:
                colour[node] = GREY
                path.append(node)
            children = adjacency.get(node, [])
            if child_index < len(children):
                stack[-1] = (node, child_index + 1)
                child = children[child_index]
                state = colour.get(child, WHITE)
                if state == GREY:
                    return path[path.index(child):] + [child]
                if state == WHITE:
                    stack.append((child, 0))
            else:
                colour[node] = BLACK
                path.pop()
                stack.pop()
    return None


def _call_terminal(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _is_lock_factory(value: ast.AST) -> Optional[ast.Call]:
    if isinstance(value, ast.Call) and _call_terminal(value.func) in LOCK_FACTORIES:
        return value
    return None


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``"X"``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _Analysis:
    """All classes of all modules under analysis, cross-linked."""

    def __init__(self) -> None:
        self.classes: Dict[str, _ClassInfo] = {}
        #: lock attr name -> set of owning class names (for resolving
        #: ``with handle.send_lock:`` on untyped locals).
        self.lock_attr_owners: Dict[str, Set[str]] = {}

    def lock_id_for_attr(self, attr: str) -> Optional[str]:
        """Resolve a lock-ish attr on an *untyped* receiver.

        Only succeeds when exactly one analysed class declares a lock
        under that attribute name — ambiguity yields ``None`` rather
        than a guessed edge.
        """
        owners = self.lock_attr_owners.get(attr, set())
        if len(owners) == 1:
            (owner,) = owners
            return self.classes[owner].locks[attr]
        return None


def _collect_classes(
    analysis: _Analysis, tree: ast.Module, path: str = ""
) -> List[_ClassInfo]:
    collected: List[_ClassInfo] = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        info = _ClassInfo(node.name)
        info.bases = [
            name for name in map(_call_terminal, node.bases) if name is not None
        ]
        for method in node.body:
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[method.name] = _MethodInfo(method, path)
                for stmt in ast.walk(method):
                    if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                        continue
                    attr = _self_attr(stmt.targets[0])
                    if attr is None:
                        continue
                    factory = _is_lock_factory(stmt.value)
                    if factory is not None:
                        lock_id = f"{info.name}.{attr}"
                        if (
                            _call_terminal(factory.func) == "named_lock"
                            and factory.args
                            and isinstance(factory.args[0], ast.Constant)
                            and isinstance(factory.args[0].value, str)
                        ):
                            lock_id = factory.args[0].value
                        info.locks[attr] = lock_id
                    elif isinstance(stmt.value, ast.Call):
                        callee = _call_terminal(stmt.value.func)
                        if callee and callee[:1].isupper():
                            info.attr_types[attr] = callee
        analysis.classes[info.name] = info
        for attr in info.locks:
            analysis.lock_attr_owners.setdefault(attr, set()).add(info.name)
        collected.append(info)
    return collected


def _inherit(analysis: _Analysis) -> None:
    """Copy each analysed base's locks, attribute types and methods into
    its subclasses (own definitions win; bases resolved first)."""
    done: Set[str] = set()

    def resolve(cls: _ClassInfo) -> None:
        if cls.name in done:
            return
        done.add(cls.name)
        for base_name in cls.bases:
            base = analysis.classes.get(base_name)
            if base is None:
                continue
            resolve(base)
            for attr, lock_id in base.locks.items():
                cls.locks.setdefault(attr, lock_id)
            for attr, type_name in base.attr_types.items():
                cls.attr_types.setdefault(attr, type_name)
            for name, method in base.methods.items():
                if name not in cls.methods:
                    cls.methods[name] = _MethodInfo(method.node, method.path)

    for cls in list(analysis.classes.values()):
        resolve(cls)


def _lock_id_of_expr(
    analysis: _Analysis, cls: _ClassInfo, expr: ast.AST
) -> Optional[str]:
    """The lock id a ``with <expr>:`` acquires, if statically known."""
    attr = _self_attr(expr)
    if attr is not None and attr in cls.locks:
        return cls.locks[attr]
    if isinstance(expr, ast.Attribute):
        # ``self.staging._lock`` -> type of ``self.staging``.
        inner = _self_attr(expr.value)
        if inner is not None:
            type_name = cls.attr_types.get(inner)
            target = analysis.classes.get(type_name or "")
            if target is not None and expr.attr in target.locks:
                return target.locks[expr.attr]
        # ``handle.send_lock`` on an untyped local: unique-attr fallback,
        # gated on a lock-ish name so arbitrary attrs never become nodes.
        if "lock" in expr.attr.lower():
            return analysis.lock_id_for_attr(expr.attr)
    return None


def _callee_method(
    analysis: _Analysis, cls: _ClassInfo, call: ast.Call
) -> Optional[Tuple[_ClassInfo, _MethodInfo]]:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    attr = _self_attr(func.value)
    if isinstance(func.value, ast.Name) and func.value.id == "self":
        method = cls.methods.get(func.attr)
        if method is not None:
            return cls, method
        return None
    if attr is not None:
        target = analysis.classes.get(cls.attr_types.get(attr, ""))
        if target is not None:
            method = target.methods.get(func.attr)
            if method is not None:
                return target, method
    return None


def _close_over_calls(analysis: _Analysis) -> None:
    """Fixpoint: ``acquires`` = direct locks + locks of reachable callees."""
    for cls in analysis.classes.values():
        for method in cls.methods.values():
            method.direct = set()
            for node in ast.walk(method.node):
                if isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        lock_id = _lock_id_of_expr(
                            analysis, cls, item.context_expr
                        )
                        if lock_id is not None:
                            method.direct.add(lock_id)
            method.acquires = set(method.direct)
    changed = True
    while changed:
        changed = False
        for cls in analysis.classes.values():
            for method in cls.methods.values():
                for node in ast.walk(method.node):
                    if not isinstance(node, ast.Call):
                        continue
                    resolved = _callee_method(analysis, cls, node)
                    if resolved is None:
                        continue
                    _, callee = resolved
                    if not callee.acquires <= method.acquires:
                        method.acquires |= callee.acquires
                        changed = True


class _EdgeWalker:
    """Walks one method body tracking the held-lock stack."""

    def __init__(
        self,
        analysis: _Analysis,
        cls: _ClassInfo,
        path: str,
        graph: LockGraph,
    ) -> None:
        self.analysis = analysis
        self.cls = cls
        self.path = path
        self.graph = graph
        self.held: List[str] = []

    def walk(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired: List[str] = []
            for item in stmt.items:
                lock_id = _lock_id_of_expr(self.analysis, self.cls, item.context_expr)
                if lock_id is not None:
                    for held in self.held:
                        self._add_edge(held, lock_id, stmt.lineno, "")
                    self.held.append(lock_id)
                    acquired.append(lock_id)
            self.walk(stmt.body)
            for _ in acquired:
                self.held.pop()
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs run later, not under the current locks
        if self.held:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                resolved = _callee_method(self.analysis, self.cls, node)
                if resolved is None:
                    continue
                _, callee = resolved
                name = _call_terminal(node.func) or "?"
                for lock_id in sorted(callee.acquires):
                    for held in self.held:
                        self._add_edge(held, lock_id, node.lineno, name)
        for child_body in (
            getattr(stmt, "body", None),
            getattr(stmt, "orelse", None),
            getattr(stmt, "finalbody", None),
        ):
            if isinstance(child_body, list) and child_body and isinstance(
                child_body[0], ast.stmt
            ):
                self.walk(child_body)
        for handler in getattr(stmt, "handlers", []) or []:
            self.walk(handler.body)

    def _add_edge(self, held: str, acquired: str, line: int, via: str) -> None:
        if held == acquired:
            return  # re-entry is the re-entrancy rule's business, not order's
        self.graph.edges.append(Edge(held, acquired, self.path, line, via))


def build_graph(modules: Sequence[Tuple[str, ast.Module]]) -> LockGraph:
    """Build the acquisition graph over a set of parsed modules."""
    analysis = _Analysis()
    per_module: List[Tuple[str, List[_ClassInfo]]] = []
    for path, tree in modules:
        per_module.append((path, _collect_classes(analysis, tree, path)))
    _inherit(analysis)
    _close_over_calls(analysis)
    graph = LockGraph()
    for cls in analysis.classes.values():
        graph.nodes.update(cls.locks.values())
    for _path, classes in per_module:
        for cls in classes:
            for method in cls.methods.values():
                walker = _EdgeWalker(analysis, cls, method.path, graph)
                walker.walk(getattr(method.node, "body", []))
    return graph


def build_graph_for_paths(paths: Sequence[str]) -> LockGraph:
    """Parse files/directories and build their combined lock graph."""
    from repro.devtools.lint.core import iter_python_files

    modules: List[Tuple[str, ast.Module]] = []
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        modules.append((str(file_path), ast.parse(source, filename=str(file_path))))
    return build_graph(modules)
