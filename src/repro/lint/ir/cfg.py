"""Statement-level control-flow graphs over automaton generators.

Every statement in the generator's own scope becomes one
:class:`CFGNode` carrying the facts the dataflow passes consume: the
yields classified in the statement's *header* (the test of a loop, the
value of an assignment — sub-blocks get their own nodes), the local
names the header defines and uses, and which of those definitions bind
detector advice (``x = yield ops.QueryFD()``).

The graph is conservative in the usual directions:

* ``try`` bodies may raise anywhere, so every node built for the body
  gets an edge to each handler;
* ``raise`` and ``return`` edge to the synthetic exit node (the
  executor retires a generator on either);
* unreachable statements (after a ``return``/``break``) still get
  nodes — with no predecessors — so rules can see them without
  counting them as live paths;
* ``match`` and other statements the builder does not model
  structurally fall through as straight-line nodes.

Yields are classified by :func:`repro.lint.protocol.classify_yield`.
``yield name`` resolves when the generator's own scope binds ``name``
exactly once, by ``name = ops.X(...)``, and ``name`` is not a
parameter; any other ``yield name`` stays dynamic.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterator

from ...runtime import ops
from ..protocol import ResolvedRegister, classify_yield, own_scope_nodes

__all__ = ["YieldStep", "CFGNode", "CFG", "build_cfg"]


@dataclass(frozen=True)
class YieldStep:
    """One classified yield in a CFG node's statement header."""

    line: int
    is_from: bool
    op: type | None
    register: ResolvedRegister | None
    #: AST of the register operand (kept for structural checks such as
    #: single-writer ownership of an f-string's index component).
    operand: ast.expr | None = None

    @property
    def dynamic(self) -> bool:
        """A plain yield whose operation could not be resolved — it may
        forward any op, including a ``Decide``, at run time."""
        return not self.is_from and self.op is None


@dataclass
class CFGNode:
    """One statement (or the synthetic entry/exit) of an automaton."""

    index: int
    kind: str  #: ``"entry"``, ``"exit"``, or ``"stmt"``
    line: int
    stmt: ast.stmt | None = None
    yields: tuple[YieldStep, ...] = ()
    #: local names the statement header binds (assignment targets,
    #: loop variables, walrus targets)
    defs: frozenset[str] = frozenset()
    #: local names the statement header reads
    uses: frozenset[str] = frozenset()
    #: subset of ``defs`` bound directly from a ``QueryFD`` yield
    advice_defs: frozenset[str] = frozenset()
    #: ``"while"``/``"for"`` for loop headers, else ``None``
    loop_kind: str | None = None
    #: ``while`` header whose test is a truthy constant (``while True``)
    test_const_true: bool = False
    #: ``raise`` statement — halts without deciding, by design
    raises: bool = False
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)


@dataclass
class CFG:
    """Control-flow graph of one automaton generator."""

    name: str
    nodes: list[CFGNode]
    entry: int = 0
    exit: int = 1

    def node(self, index: int) -> CFGNode:
        return self.nodes[index]

    def stmt_nodes(self) -> Iterator[CFGNode]:
        for node in self.nodes:
            if node.kind == "stmt":
                yield node

    def yields(self) -> Iterator[YieldStep]:
        """Every classified yield of the automaton, in node order."""
        for node in self.stmt_nodes():
            yield from node.yields

    def add_edge(self, src: int, dst: int) -> None:
        if dst not in self.nodes[src].succs:
            self.nodes[src].succs.append(dst)
            self.nodes[dst].preds.append(src)


def _is_const_true(test: ast.expr) -> bool:
    return isinstance(test, ast.Constant) and bool(test.value)


_SCOPE_BARRIERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_BLOCK_FIELDS = ("body", "orelse", "finalbody", "handlers")
if sys.version_info >= (3, 11):
    _TRY_STATEMENTS = (ast.Try, ast.TryStar)
else:  # pragma: no cover - Python 3.10
    _TRY_STATEMENTS = (ast.Try,)


def _header_nodes(stmt: ast.stmt) -> Iterator[ast.AST]:
    """AST nodes in the statement's header scope: the statement minus
    its sub-blocks and minus nested function/class bodies."""
    nested: set[int] = set()
    for field_name in _BLOCK_FIELDS:
        sub = getattr(stmt, field_name, None)
        if not sub:
            continue
        blocks = (
            [handler.body for handler in sub]
            if field_name == "handlers"
            else [sub]
        )
        for block in blocks:
            for child in block:
                for node in ast.walk(child):
                    nested.add(id(node))
    stack: list[ast.AST] = list(ast.iter_child_nodes(stmt))
    while stack:
        node = stack.pop()
        if id(node) in nested:
            continue
        if isinstance(node, _SCOPE_BARRIERS + (ast.ClassDef,)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _op_locals(
    func: ast.FunctionDef, namespace: dict[str, Any]
) -> dict[str, ast.Call]:
    """Locals the generator's own scope binds exactly once, by
    ``name = ops.X(...)``, mapped to that call.  Parameters, ``global``
    names and names bound more than once or any other way are left out."""
    bindings: Counter[str] = Counter()
    calls: dict[str, ast.Call] = {}
    for node in own_scope_nodes(func):
        if isinstance(node, ast.arg):
            bindings[node.arg] += 1
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bindings[node.id] += 1
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            bindings.update(node.names)
        for attr in ("name", "asname", "rest"):  # defs, except, import, match
            if isinstance(getattr(node, attr, None), str):
                bindings[getattr(node, attr).split(".")[0]] += 1
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            calls.update(
                (target.id, node.value)
                for target in node.targets
                if isinstance(target, ast.Name)
            )
    return {
        name: call
        for name, call in calls.items()
        if bindings[name] == 1
        and classify_yield(call, namespace)[0] is not None
    }


class _Builder:
    def __init__(self, namespace: dict[str, Any]) -> None:
        self.namespace = namespace
        self.op_locals: dict[str, ast.Call] = {}
        self.nodes: list[CFGNode] = []
        self.cfg: CFG | None = None
        #: per enclosing loop: (header index, break-node indices)
        self.loops: list[tuple[int, list[int]]] = []

    def build(self, func: ast.FunctionDef, name: str) -> CFG:
        line = getattr(func, "lineno", 1)
        self.op_locals = _op_locals(func, self.namespace)
        self.cfg = CFG(name=name, nodes=self.nodes)
        self.nodes.append(CFGNode(index=0, kind="entry", line=line))
        self.nodes.append(CFGNode(index=1, kind="exit", line=line))
        frontier = self._block(list(func.body), [0])
        for index in frontier:
            self.cfg.add_edge(index, 1)
        return self.cfg

    # -- node construction --------------------------------------------

    def _classify(
        self, expr: ast.Yield
    ) -> tuple[type | None, ResolvedRegister | None, ast.expr | None]:
        value = expr.value
        if isinstance(value, ast.Name):
            value = self.op_locals.get(value.id, value)
        return classify_yield(value, self.namespace)

    def _stmt_node(self, stmt: ast.stmt) -> CFGNode:
        yields: list[YieldStep] = []
        defs: set[str] = set()
        uses: set[str] = set()
        for part in _header_nodes(stmt):
            if isinstance(part, ast.YieldFrom):
                yields.append(
                    YieldStep(part.lineno, True, None, None, None)
                )
            elif isinstance(part, ast.Yield):
                op, register, operand = self._classify(part)
                yields.append(
                    YieldStep(part.lineno, False, op, register, operand)
                )
            elif isinstance(part, ast.Name):
                if isinstance(part.ctx, ast.Store):
                    defs.add(part.id)
                elif isinstance(part.ctx, ast.Load):
                    uses.add(part.id)
        advice: set[str] = set()
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and isinstance(
            stmt.value, ast.Yield
        ):
            if self._classify(stmt.value)[0] is ops.QueryFD:
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        advice.add(target.id)
        node = CFGNode(
            index=len(self.nodes),
            kind="stmt",
            line=stmt.lineno,
            stmt=stmt,
            yields=tuple(yields),
            defs=frozenset(defs),
            uses=frozenset(uses),
            advice_defs=frozenset(advice),
            raises=isinstance(stmt, ast.Raise),
        )
        if isinstance(stmt, ast.While):
            node.loop_kind = "while"
            node.test_const_true = _is_const_true(stmt.test)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            node.loop_kind = "for"
        self.nodes.append(node)
        return node

    # -- structure ----------------------------------------------------

    def _block(self, stmts: list[ast.stmt], preds: list[int]) -> list[int]:
        current = list(preds)
        for stmt in stmts:
            current = self._statement(stmt, current)
        return current

    def _statement(self, stmt: ast.stmt, preds: list[int]) -> list[int]:
        assert self.cfg is not None
        node = self._stmt_node(stmt)
        for pred in preds:
            self.cfg.add_edge(pred, node.index)

        if isinstance(stmt, ast.If):
            then_out = self._block(stmt.body, [node.index])
            if stmt.orelse:
                else_out = self._block(stmt.orelse, [node.index])
            else:
                else_out = [node.index]
            return then_out + else_out

        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            self.loops.append((node.index, []))
            body_out = self._block(stmt.body, [node.index])
            _, breaks = self.loops.pop()
            for index in body_out:
                self.cfg.add_edge(index, node.index)  # back edge
            exits = list(breaks)
            if not (
                isinstance(stmt, ast.While) and node.test_const_true
            ):
                if stmt.orelse:
                    exits.extend(self._block(stmt.orelse, [node.index]))
                else:
                    exits.append(node.index)
            return exits

        if isinstance(stmt, ast.Break):
            if self.loops:
                self.loops[-1][1].append(node.index)
            return []

        if isinstance(stmt, ast.Continue):
            if self.loops:
                self.cfg.add_edge(node.index, self.loops[-1][0])
            return []

        if isinstance(stmt, (ast.Return, ast.Raise)):
            self.cfg.add_edge(node.index, self.cfg.exit)
            return []

        if isinstance(stmt, _TRY_STATEMENTS):
            mark = len(self.nodes)
            body_out = self._block(stmt.body, [node.index])
            body_nodes = list(range(mark, len(self.nodes)))
            handler_out: list[int] = []
            for handler in stmt.handlers:
                handler_out.extend(
                    self._block(
                        handler.body, [node.index] + body_nodes
                    )
                )
            else_out = (
                self._block(stmt.orelse, body_out)
                if stmt.orelse
                else body_out
            )
            merged = else_out + handler_out
            if stmt.finalbody:
                merged = self._block(stmt.finalbody, merged)
            return merged

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._block(stmt.body, [node.index])

        return [node.index]


def build_cfg(
    func: ast.FunctionDef,
    namespace: dict[str, Any],
    *,
    name: str = "<automaton>",
) -> CFG:
    """Compile one automaton generator's AST into a :class:`CFG`."""
    return _Builder(namespace).build(func, name)
