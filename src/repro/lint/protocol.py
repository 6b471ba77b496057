"""Name resolution and generator location for the lint IR.

For every function a :class:`~repro.algorithms._schema.ModuleSchema`
declares, :func:`automaton_generator` locates the generator that
constitutes the automaton (the named function itself if it is a
generator, else its unique inner generator — the standard
``def factory(ctx):`` idiom), and :func:`classify_yield` statically
classifies what a ``yield`` in it yields, for the CFG builder
(:mod:`repro.lint.ir.cfg`).

Classification resolves names through the *imported* module's globals,
so ``yield ops.QueryFD()`` and ``yield Snapshot(INPUT_REGISTER_PREFIX)``
both resolve no matter how the op was imported.  Dynamic yields
(``yield pending``) and closure-dependent register names
(``f"{spec.name}/R/"``) resolve to *unknown* and are skipped — the
linter never guesses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
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
    inner: ast.expr | None, namespace: dict[str, Any]
) -> tuple[type | None, ResolvedRegister | None, ast.expr | None]:
    """(op class, resolved register, register operand AST) of the value
    a plain ``yield`` yields.  The operand AST is returned even when the
    register text could not be fully resolved, so structural checks
    (e.g. ownership of an f-string's index component) can inspect it."""
    if not isinstance(inner, ast.Call):
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


# -- generator location ---------------------------------------------------

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_SCOPE_BARRIERS = _DEFINITIONS + (ast.Lambda,)


def own_scope_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """All nodes in ``func``'s own scope: a nested def, class or lambda
    is yielded but not entered."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPE_BARRIERS):
            stack.extend(ast.iter_child_nodes(node))


def _is_generator(func: ast.AST) -> bool:
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom))
        for node in own_scope_nodes(func)
    )


def _lookup_def(
    tree: ast.Module, dotted: str
) -> ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef | None:
    """Find the (possibly nested) def/class addressed by ``dotted``."""
    scope: Sequence[ast.stmt] = tree.body
    found = None
    for segment in dotted.split("."):
        found = next(
            (
                node
                for node in scope
                if isinstance(node, _DEFINITIONS) and node.name == segment
            ),
            None,
        )
        if found is None:
            return None
        scope = found.body
    return found


def automaton_generator(
    tree: ast.Module, dotted: str, *, module_name: str
) -> ast.FunctionDef:
    """The generator constituting the automaton declared as ``dotted``.

    Either the named def itself (if it yields), or its unique inner
    generator — the ``def factory(ctx)`` idiom.  Raises
    :class:`~repro.errors.SpecificationError` when the module does not
    define ``dotted`` — schema drift is a bug, not a lint finding — or
    when the def is neither.
    """
    func = _lookup_def(tree, dotted)
    if func is None:
        raise SpecificationError(
            f"{module_name}: lint schema names {dotted!r}, which the "
            "module does not define"
        )
    if isinstance(func, ast.FunctionDef) and _is_generator(func):
        return func
    inner = [
        node
        for node in func.body
        if isinstance(node, ast.FunctionDef) and _is_generator(node)
    ]
    if len(inner) != 1:
        raise SpecificationError(
            f"{dotted}: expected the function to be a generator or to "
            f"contain exactly one inner generator, found {len(inner)}"
        )
    return inner[0]
