"""AST extraction for the static protocol linter.

This module turns an algorithm module into checkable
:class:`AutomatonView` objects: for every function a
:class:`~repro.algorithms._schema.ModuleSchema` declares, it locates the
generator that constitutes the automaton (the named function itself if
it is a generator, else its unique inner generator — the standard
``def factory(ctx):`` idiom), and statically classifies every ``yield``
in the generator's own scope.

Classification resolves names through the *imported* module's globals,
so ``yield ops.QueryFD()`` and ``yield Snapshot(INPUT_REGISTER_PREFIX)``
both resolve no matter how the op was imported.  Dynamic yields
(``yield pending``) and closure-dependent register names
(``f"{spec.name}/R/"``) resolve to *unknown* and are skipped — the
linter never guesses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Iterator, Sequence

from ..errors import SpecificationError
from ..runtime import ops

#: Operation classes a yield may resolve to.
OP_CLASSES = (
    ops.Read,
    ops.Write,
    ops.Snapshot,
    ops.QueryFD,
    ops.Decide,
    ops.Nop,
    ops.CompareAndSwap,
)

#: Ops that carry a register name in their first argument.
_REGISTER_OPS = {
    ops.Read: "register",
    ops.Write: "register",
    ops.CompareAndSwap: "register",
    ops.Snapshot: "prefix",
}


@dataclass(frozen=True)
class ResolvedRegister:
    """A statically-resolved register operand.

    ``exact`` is ``True`` when the full name is known and ``False`` when
    only a leading prefix could be resolved (the tail was dynamic, e.g.
    an index interpolated into an f-string).
    """

    text: str
    exact: bool


@dataclass
class YieldView:
    """One ``yield`` (or ``yield from``) inside an automaton's scope."""

    node: ast.expr
    line: int
    is_from: bool
    op: type | None = None  #: resolved op class, or None if dynamic
    register: ResolvedRegister | None = None
    #: (block, index) chain from the generator body down to the
    #: statement containing this yield; used by path-sensitive rules.
    statement_path: tuple[tuple[ast.AST | None, list, int], ...] = ()


@dataclass
class AutomatonView:
    """Everything a rule needs to know about one declared function."""

    name: str  #: schema name (possibly dotted)
    kind: str  #: "C", "S", or "-" (kind-neutral subroutine)
    file: str
    module_name: str
    node: ast.AST  #: the generator's FunctionDef
    yields: list[YieldView] = field(default_factory=list)
    while_loops: list[ast.While] = field(default_factory=list)

    @property
    def line(self) -> int:
        return self.node.lineno


# -- name resolution ------------------------------------------------------


def resolve_expression(node: ast.expr, namespace: dict[str, Any]) -> Any:
    """Resolve a Name/Attribute/Constant chain against ``namespace``.

    Returns the resolved object, or :data:`_UNRESOLVED` when the
    expression depends on local/closure state the linter cannot see.
    """
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        if node.id in namespace:
            return namespace[node.id]
        return _UNRESOLVED
    if isinstance(node, ast.Attribute):
        base = resolve_expression(node.value, namespace)
        if base is _UNRESOLVED:
            return _UNRESOLVED
        try:
            return getattr(base, node.attr)
        except AttributeError:
            return _UNRESOLVED
    return _UNRESOLVED


class _Unresolved:
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<unresolved>"


_UNRESOLVED = _Unresolved()


def _resolve_register(
    node: ast.expr, namespace: dict[str, Any]
) -> ResolvedRegister | None:
    """The static text (full name or leading prefix) of a register
    operand, or ``None`` when nothing can be resolved."""
    value = resolve_expression(node, namespace)
    if isinstance(value, str):
        return ResolvedRegister(value, exact=True)
    if isinstance(node, ast.JoinedStr):
        parts: list[str] = []
        exact = True
        for piece in node.values:
            if isinstance(piece, ast.Constant) and isinstance(
                piece.value, str
            ):
                parts.append(piece.value)
                continue
            if isinstance(piece, ast.FormattedValue):
                resolved = resolve_expression(piece.value, namespace)
                if isinstance(resolved, str):
                    parts.append(resolved)
                    continue
            exact = False
            break
        prefix = "".join(parts)
        if not prefix:
            return None
        return ResolvedRegister(prefix, exact=exact)
    return None


def classify_yield(
    node: ast.expr, namespace: dict[str, Any]
) -> tuple[type | None, ResolvedRegister | None, ast.expr | None]:
    """(op class, resolved register, register operand AST) of a plain
    ``yield`` expression.  The operand AST is returned even when the
    register text could not be fully resolved, so structural checks
    (e.g. ownership of an f-string's index component) can inspect it."""
    inner = node.value if isinstance(node, ast.Yield) else None
    if inner is None or not isinstance(inner, ast.Call):
        return None, None, None
    op_class = resolve_expression(inner.func, namespace)
    if not (isinstance(op_class, type) and op_class in OP_CLASSES):
        return None, None, None
    register = None
    operand: ast.expr | None = None
    if op_class in _REGISTER_OPS:
        if inner.args:
            operand = inner.args[0]
        else:
            wanted = _REGISTER_OPS[op_class]
            for keyword in inner.keywords:
                if keyword.arg == wanted:
                    operand = keyword.value
        if operand is not None:
            register = _resolve_register(operand, namespace)
    return op_class, register, operand


def _classify_yield(
    node: ast.expr, namespace: dict[str, Any]
) -> tuple[type | None, ResolvedRegister | None]:
    """(op class, register operand) of a plain ``yield`` expression."""
    op_class, register, _ = classify_yield(node, namespace)
    return op_class, register


# -- generator location ---------------------------------------------------

_SCOPE_BARRIERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_scope_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """All nodes in ``func``'s own scope (nested defs excluded)."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPE_BARRIERS):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_generator(func: ast.AST) -> bool:
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom))
        for node in _own_scope_nodes(func)
    )


def _lookup_def(tree: ast.Module, dotted: str) -> ast.AST | None:
    """Find the (possibly nested) def/class addressed by ``dotted``."""
    scope: Sequence[ast.stmt] = tree.body
    found: ast.AST | None = None
    for segment in dotted.split("."):
        found = None
        for node in scope:
            if (
                isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
                and node.name == segment
            ):
                found = node
                break
        if found is None:
            return None
        scope = found.body
    return found


def _automaton_generator(func: ast.AST, dotted: str) -> ast.AST:
    """The generator constituting the automaton declared as ``dotted``.

    Either the named def itself (if it yields), or its unique inner
    generator — the ``def factory(ctx)`` idiom.
    """
    if _is_generator(func):
        return func
    inner = [
        node
        for node in getattr(func, "body", [])
        if isinstance(node, ast.FunctionDef) and _is_generator(node)
    ]
    if len(inner) != 1:
        raise SpecificationError(
            f"{dotted}: expected the function to be a generator or to "
            f"contain exactly one inner generator, found {len(inner)}"
        )
    return inner[0]


# -- statement paths (for path-sensitive rules) ---------------------------

_BLOCK_FIELDS = ("body", "orelse", "finalbody", "handlers")


def _statement_paths(
    func: ast.AST,
) -> Iterator[tuple[ast.stmt, tuple]]:
    """Yield ``(statement, path)`` for every statement in ``func``'s own
    scope, where ``path`` is the ``(parent, block, index)`` chain from
    the function body down to the statement."""

    def walk(
        parent: ast.AST | None, block: list, path: tuple
    ) -> Iterator[tuple[ast.stmt, tuple]]:
        for index, statement in enumerate(block):
            here = path + ((parent, block, index),)
            yield statement, here
            if isinstance(statement, _SCOPE_BARRIERS + (ast.ClassDef,)):
                continue
            for field_name in _BLOCK_FIELDS:
                sub = getattr(statement, field_name, None)
                if not sub:
                    continue
                if field_name == "handlers":
                    for handler in sub:
                        yield from walk(statement, handler.body, here)
                else:
                    yield from walk(statement, sub, here)

    yield from walk(func, list(getattr(func, "body", [])), ())


def _yields_in_statement(
    statement: ast.stmt,
) -> Iterator[ast.Yield | ast.YieldFrom]:
    """Yield expressions inside one statement, nested defs excluded."""
    if isinstance(statement, _SCOPE_BARRIERS + (ast.ClassDef,)):
        return
    stack = list(ast.iter_child_nodes(statement))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPE_BARRIERS + (ast.ClassDef,)):
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _statement_own_yields(
    statement: ast.stmt,
) -> Iterator[ast.Yield | ast.YieldFrom]:
    """Yields belonging to the *header* of a compound statement or to a
    simple statement — i.e. not inside its sub-blocks."""
    nested: set[int] = set()
    for field_name in _BLOCK_FIELDS:
        sub = getattr(statement, field_name, None)
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
    for node in _yields_in_statement(statement):
        if id(node) not in nested:
            yield node


#: Public aliases for the IR layer (:mod:`repro.lint.ir.cfg`), which
#: classifies yields per CFG node using the same machinery the flat
#: extraction uses.
statement_own_yields = _statement_own_yields


# -- public API -----------------------------------------------------------


def extract_automata(
    tree: ast.Module,
    schema: Any,
    *,
    module: ModuleType | None = None,
    namespace: dict[str, Any] | None = None,
    file: str = "<module>",
    module_name: str = "<module>",
) -> list[AutomatonView]:
    """Build :class:`AutomatonView` objects for every declared function.

    Raises :class:`~repro.errors.SpecificationError` when the schema
    names a function the module does not define — schema drift is a bug,
    not a lint finding.
    """
    if namespace is None:
        namespace = dict(vars(module)) if module is not None else {}
    views: list[AutomatonView] = []
    for dotted in schema.checked_functions:
        func = _lookup_def(tree, dotted)
        if func is None:
            raise SpecificationError(
                f"{module_name}: lint schema names {dotted!r}, which the "
                "module does not define"
            )
        generator = _automaton_generator(func, dotted)
        view = AutomatonView(
            name=dotted,
            kind=schema.kind_of(dotted),
            file=file,
            module_name=module_name,
            node=generator,
        )
        for statement, path in _statement_paths(generator):
            for node in _statement_own_yields(statement):
                op, register = (
                    (None, None)
                    if isinstance(node, ast.YieldFrom)
                    else _classify_yield(node, namespace)
                )
                view.yields.append(
                    YieldView(
                        node=node,
                        line=node.lineno,
                        is_from=isinstance(node, ast.YieldFrom),
                        op=op,
                        register=register,
                        statement_path=path,
                    )
                )
            if isinstance(statement, ast.While):
                view.while_loops.append(statement)
        views.append(view)
    return views
