"""Schema-to-Python codegen: lower an automaton generator to a flat
step function dispatched by an integer program counter.

The interpreted executor drives each automaton as a Python generator:
every step pays a ``send`` through the generator machinery, an exact-type
dispatch over the yielded operation object, and the allocation of that
operation object itself.  This module compiles the *source* of an
automaton into a specialized closure that performs the same steps with
none of that overhead:

* each ``yield`` becomes a numbered *suspension site*; the generated
  step function resumes at the site recorded in ``_K_pc``, performs the
  pending operation inline (``_K_write(...)`` instead of constructing a
  ``Write`` and dispatching on it), binds the result, and runs the
  automaton's own code verbatim until the next site;
* control flow that contains no yield is emitted verbatim
  (``ast.unparse``), so straight-line computation runs at native Python
  speed; only yield-bearing ``if``/``while``/``for`` statements are
  split into trampoline blocks;
* operation objects are never allocated on the untraced path, and reads
  or snapshots whose result the automaton discards are eliminated
  (their effect is observationally a no-op — ``QueryFD`` and
  ``CompareAndSwap`` are always performed because they raise or write).

Equivalence discipline: anything this compiler cannot *prove* it lowers
faithfully raises :class:`UnsupportedAutomaton` and the engine falls
back to driving the generator — an automaton is either compiled exactly
or not at all, never approximately.  The accepted (documented)
deviations from generator semantics are:

* operation *arguments* are evaluated when the operation is performed
  (the process's next step) rather than when the generator constructed
  the object (its previous step).  The process is suspended in between
  and only its own locals feed the expression, so no other process can
  observe or affect the difference.
* reading a never-assigned local yields the ``_K_UNBOUND`` sentinel
  instead of ``UnboundLocalError``; correct automata never do this.
* a *statically inlined* subroutine (see below) resolves its module
  globals through the defining module's live ``__globals__`` dict, but
  a builtin it references is frozen to the builtin object unless the
  defining module shadows it at compile time; rebinding builtins after
  compilation is not tracked.

``yield from`` delegation is lowered in two tiers.  When the callee is
a statically resolvable module-level generator function, its body is
*inlined* into the caller's dispatch loop: locals are renamed with a
per-inline-site prefix, parameters become assignments evaluated in call
order, ``return expr`` plumbs through a per-frame result temp, and the
callee's module globals are read through an injected reference to its
live ``__globals__``.  Inlining recurses (a subroutine that delegates
to ``collect_array`` is inlined with it) with a call-depth guard;
recursive delegation and anything unresolvable (e.g. ``yield from
agreement.resolve()`` on a
runtime-typed object) drops to the second tier: a *delegate site* that
drives the sub-iterator with the interpreter's exact PEP-380 protocol
and operation dispatch, still inside the compiled step function.
Pathological inline expansion raises :class:`UnsupportedAutomaton`.

See ``docs/performance.md`` ("Compiled execution kernel") for the
architecture overview and fallback rules.
"""

from __future__ import annotations

import ast
import builtins
import hashlib
import importlib
import inspect
import textwrap
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import ProtocolError
from ..runtime import ops as _ops

__all__ = [
    "COMPILER_TAG",
    "UnsupportedAutomaton",
    "OpSite",
    "CompiledProgram",
    "Refusal",
    "compile_automaton",
    "compiled_source",
    "clear_cache",
    "cached_programs",
    "cached_refusals",
]

#: Version/feature tag of this compiler.  The compilation cache —
#: including *negative* entries — is keyed on ``(code, COMPILER_TAG)``,
#: so a cached "unsupported" verdict from an older compiler cannot pin
#: an automaton to the interpreter once the compiler learns new shapes.
#: Bump when the compilable subset or generated code changes.
COMPILER_TAG = "3:yield-from-inline+tree-dispatch"


class UnsupportedAutomaton(Exception):
    """The automaton lies outside the compilable subset; the engine
    must fall back to driving its generator directly."""


class _Unbound:
    """Sentinel held by automaton locals before their first assignment."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<unbound>"


class _Stop:
    """Sentinel marking iterator exhaustion in lowered ``for`` loops."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<stop>"


_UNBOUND = _Unbound()
_STOP = _Stop()

#: Constructor field order per operation class (mirrors the frozen
#: dataclass definitions in :mod:`repro.runtime.ops`).
_OP_FIELDS: dict[type, tuple[str, ...]] = {
    _ops.Read: ("register",),
    _ops.Write: ("register", "value"),
    _ops.Snapshot: ("prefix",),
    _ops.QueryFD: (),
    _ops.Decide: ("value",),
    _ops.Nop: (),
    _ops.CompareAndSwap: ("register", "expected", "new"),
}

_OP_KIND: dict[type, str] = {
    _ops.Read: "read",
    _ops.Write: "write",
    _ops.Snapshot: "snapshot",
    _ops.QueryFD: "query",
    _ops.Decide: "decide",
    _ops.Nop: "nop",
    _ops.CompareAndSwap: "cas",
}

def _generic_delegate(op, ctx, mem, write, snap, query, cas, time):
    """Perform an unusual operation object yielded through a delegate
    site.  Mirrors the engine fallback's ``generic`` (and therefore
    ``Executor._perform``) exactly, including its error messages."""
    if op is None:
        raise ProtocolError(f"{ctx.pid} has no pending operation")
    if isinstance(op, _ops.QueryFD):
        return query(time)
    if isinstance(op, _ops.Read):
        return mem.get(op.register)
    if isinstance(op, _ops.Write):
        write(op.register, op.value)
        return None
    if isinstance(op, _ops.Snapshot):
        return snap(op.prefix)
    if isinstance(op, _ops.CompareAndSwap):
        return cas(op.register, op.expected, op.new)
    if isinstance(op, _ops.Nop):
        return None
    raise ProtocolError(f"{ctx.pid} yielded a non-operation: {op!r}")


#: Names injected into the generated ``_K_make`` as defaulted keyword
#: parameters, so the generated module never leaks names into (or reads
#: stale copies of) the automaton's real module globals.
_INJECTED: dict[str, Any] = {
    "_K_UNBOUND": _UNBOUND,
    "_K_STOP": _STOP,
    "_K_Read": _ops.Read,
    "_K_Write": _ops.Write,
    "_K_Snapshot": _ops.Snapshot,
    "_K_CAS": _ops.CompareAndSwap,
    "_K_Decide": _ops.Decide,
    "_K_NopT": _ops.Nop,
    "_K_QueryT": _ops.QueryFD,
    "_K_NOP": _ops.Nop(),
    "_K_QUERY": _ops.QueryFD(),
    "_K_generic": _generic_delegate,
}

#: First block id used for internal blocks (entry, loop heads, joins).
#: Suspension sites are numbered from 0 as they are discovered — with
#: inlining their total is unknown until lowering finishes — and the
#: high base keeps ``sorted(blocks)`` emitting the hot sites first.
_INTERNAL_BASE = 1 << 20

#: Maximum depth of nested static inlining; deeper chains drop to the
#: dynamic delegate tier (which handles them exactly, just slower).
_MAX_INLINE_DEPTH = 8

#: Hard cap on yield-from expansions (inline frames + delegate sites)
#: per automaton — the clean escape for pathological expansion.
_MAX_INLINE_EXPANSIONS = 128

_SCOPE_BARRIERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


@dataclass(frozen=True)
class OpSite:
    """One suspension site of a compiled automaton.

    ``register`` is the statically-constant register operand (or
    snapshot prefix) when the source expression is a string literal;
    ``register_prefix`` is the longest constant leading part when it is
    an f-string.  Both are ``None``/``""`` for fully dynamic operands.
    The static-footprint cross-check consumes these.

    ``kind == "delegate"`` marks a dynamic ``yield from`` site: the
    operations performed there come from a runtime sub-iterator, so the
    site's register metadata is unknown (``None``) and the engine must
    assume it may snapshot.
    """

    site: int
    kind: str
    source: str
    register: str | None = None
    register_prefix: str | None = None
    result_used: bool = True


@dataclass(frozen=True)
class CompiledProgram:
    """A compiled automaton: generated source plus its instantiator.

    ``make(ctx, rt, *freevars)`` returns ``(step, step_traced)`` — two
    closures sharing the same program state; the engine calls exactly
    one of them.  ``rt`` is the 7-tuple
    ``(mem, write, snap, query, cas, out, ev)`` of engine runtime hooks.
    """

    name: str
    qualname: str
    module: str
    n_sites: int
    sites: tuple[OpSite, ...]
    freevars: tuple[str, ...]
    source: str
    content_hash: str
    make: Callable[..., tuple[Callable[[int], int], Callable[[int], int]]]
    #: ``module.qualname`` of every statically inlined subroutine
    #: (deduplicated; the coverage report uses this to mark subroutines
    #: as compiled-via-inlining).
    inlined: tuple[str, ...] = ()


# -- AST scanning helpers -------------------------------------------------


def _scan(node: ast.AST, *, skip_loops: bool = False):
    """Own-scope descendants of ``node`` (nested function scopes — and,
    with ``skip_loops``, inner loops — excluded)."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        n = stack.pop()
        if isinstance(n, _SCOPE_BARRIERS):
            continue
        if skip_loops and isinstance(n, (ast.While, ast.For)):
            continue
        yield n
        stack.extend(ast.iter_child_nodes(n))


def _contains_yield(node: ast.AST) -> bool:
    return any(
        isinstance(n, (ast.Yield, ast.YieldFrom)) for n in _scan(node)
    )


def _needs_lowering(stmt: ast.stmt) -> bool:
    """Whether ``stmt`` must be split into trampoline blocks.

    A statement is emitted verbatim only when nothing inside it can
    transfer control out of the generated dispatch loop: no yield, no
    ``return``, and no ``break``/``continue`` that would bind to the
    trampoline's own ``while True`` instead of a user loop.
    """
    if _contains_yield(stmt):
        return True
    if isinstance(stmt, (ast.Return, ast.Break, ast.Continue)):
        return True  # the scans below only see descendants
    if any(isinstance(n, ast.Return) for n in _scan(stmt)):
        return True
    if isinstance(stmt, (ast.While, ast.For)):
        return False  # its own breaks/continues are bound by it
    return any(
        isinstance(n, (ast.Break, ast.Continue))
        for n in _scan(stmt, skip_loops=True)
    )


class _StripAnnotations(ast.NodeTransformer):
    """Rewrite ``x: T = v`` to ``x = v`` (and bare ``x: T`` to ``pass``).

    Function-body annotations are never evaluated or stored at runtime,
    but an annotated name cannot appear in the generated functions'
    ``nonlocal`` declarations — so the annotations must go.
    """

    def visit_AnnAssign(self, node: ast.AnnAssign) -> ast.stmt:
        self.generic_visit(node)
        if node.value is None:
            return ast.copy_location(ast.Pass(), node)
        return ast.copy_location(
            ast.Assign(targets=[node.target], value=node.value), node
        )


def _is_effect_free(node: ast.expr) -> bool:
    """Conservatively: evaluating ``node`` has no side effects, so it
    may be skipped when the operation's result is discarded."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Name):
        return True
    if isinstance(node, ast.Attribute):
        return _is_effect_free(node.value)
    if isinstance(node, ast.Subscript):
        return _is_effect_free(node.value) and _is_effect_free(node.slice)
    if isinstance(node, (ast.Tuple, ast.List)):
        return all(_is_effect_free(e) for e in node.elts)
    if isinstance(node, ast.BinOp):
        return _is_effect_free(node.left) and _is_effect_free(node.right)
    if isinstance(node, ast.UnaryOp):
        return _is_effect_free(node.operand)
    if isinstance(node, ast.JoinedStr):
        return all(_is_effect_free(v) for v in node.values)
    if isinstance(node, ast.FormattedValue):
        return _is_effect_free(node.value)
    if isinstance(node, ast.IfExp):
        return (
            _is_effect_free(node.test)
            and _is_effect_free(node.body)
            and _is_effect_free(node.orelse)
        )
    return False


def _const_register(node: ast.expr) -> tuple[str | None, str | None]:
    """``(exact, prefix)`` statically known about a register operand."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, None
    if isinstance(node, ast.JoinedStr):
        first = node.values[0] if node.values else None
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return None, first.value
        return None, ""
    return None, ""


# -- static name resolution ----------------------------------------------


class _Resolver:
    """Resolves operation-constructor expressions against the
    automaton's *static* environment: module globals, builtins, and
    import statements inside the function body whose bound names are
    never reassigned."""

    def __init__(self, fn: Callable, local_names: set[str]) -> None:
        self._globals = fn.__globals__
        self._locals = set(local_names)
        self._static_locals = {}
        self._package = fn.__globals__.get("__package__") or ""
        #: injected name -> module ``__globals__`` dict; inlined bodies
        #: read callee-module globals as ``_K_mN['name']`` subscripts,
        #: which resolve statically through this table.
        self._dicts: dict[str, dict] = {}

    def register_dict(self, name: str, mapping: dict) -> None:
        self._dicts[name] = mapping

    def learn_imports(self, fnode: ast.AST) -> None:
        assigned: set[str] = set()
        imports: list[tuple[str, tuple]] = []
        for n in _scan(fnode):
            if isinstance(n, ast.ImportFrom):
                for alias in n.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    imports.append(
                        (bound, (n.module or "", n.level, alias.name))
                    )
            elif isinstance(n, ast.Import):
                for alias in n.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imports.append((bound, (alias.name, 0, None)))
            elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                assigned.add(n.id)
        for bound, (module, level, attr) in imports:
            if bound in assigned:
                continue
            try:
                target = importlib.import_module(
                    "." * level + module,
                    package=self._package if level else None,
                )
                self._static_locals[bound] = (
                    target if attr is None else getattr(target, attr)
                )
            except Exception:  # noqa: BLE001 - stays dynamic
                continue

    def resolve(self, node: ast.expr) -> Any:
        if isinstance(node, ast.Name):
            name = node.id
            if name in self._static_locals:
                return self._static_locals[name]
            if name in self._locals:
                return None  # dynamic: bound at run time
            if name in self._globals:
                return self._globals[name]
            return getattr(builtins, name, None)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is None:
                return None
            return getattr(base, node.attr, None)
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id in self._dicts
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            return self._dicts[node.value.id].get(node.slice.value)
        return None


def _normalize_op_args(
    call: ast.Call, op_cls: type
) -> list[ast.expr]:
    """Map a constructor call's arguments onto the op's field order."""
    fields = _OP_FIELDS[op_cls]
    if any(isinstance(a, ast.Starred) for a in call.args):
        raise UnsupportedAutomaton(f"*args in {op_cls.__name__}(...)")
    if any(kw.arg is None for kw in call.keywords):
        raise UnsupportedAutomaton(f"**kwargs in {op_cls.__name__}(...)")
    slots: dict[str, ast.expr] = {}
    for i, arg in enumerate(call.args):
        if i >= len(fields):
            raise UnsupportedAutomaton(
                f"too many arguments to {op_cls.__name__}(...)"
            )
        slots[fields[i]] = arg
    for kw in call.keywords:
        if kw.arg not in fields or kw.arg in slots:
            raise UnsupportedAutomaton(
                f"bad keyword {kw.arg!r} to {op_cls.__name__}(...)"
            )
        slots[kw.arg] = kw.value
    if set(slots) != set(fields):
        raise UnsupportedAutomaton(
            f"missing arguments to {op_cls.__name__}(...)"
        )
    return [slots[f] for f in fields]


# -- yield-from inlining helpers ------------------------------------------


class _Default:
    """Marks a parameter bound to its (already-evaluated) default."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


class _ScopeInfo(ast.NodeVisitor):
    """Collects, over one function body, every referenced ``Name`` and
    the names bound by nested scopes (lambdas, defs, comprehension
    targets).  The inliner's rename/rewrite pass is purely textual over
    ``Name`` nodes, so any nested-scope binding that collides with a
    name it would rewrite forces the dynamic tier instead."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self.nested_bound: set[str] = set()

    def visit_Name(self, node: ast.Name) -> None:
        self.names.add(node.id)

    def _bind_args(self, args: ast.arguments) -> None:
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            self.nested_bound.add(a.arg)
        if args.vararg:
            self.nested_bound.add(args.vararg.arg)
        if args.kwarg:
            self.nested_bound.add(args.kwarg.arg)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._bind_args(node.args)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.nested_bound.add(node.name)
        self._bind_args(node.args)
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(
                n.ctx, (ast.Store, ast.Del)
            ):
                self.nested_bound.add(n.id)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _visit_comp(self, node: ast.AST) -> None:
        for gen in node.generators:  # type: ignore[attr-defined]
            for n in ast.walk(gen.target):
                if isinstance(n, ast.Name):
                    self.nested_bound.add(n.id)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp


def _bind_call(fn: Callable, code: Any, call: ast.Call):
    """Map a call's arguments onto the callee's parameters.

    Returns ``[(param_name, ast_node | _Default)]`` in *evaluation*
    order (explicit arguments as written, defaults after), or ``None``
    when the call cannot be bound statically — the dynamic tier then
    reproduces whatever ``TypeError`` the real call would raise.
    """
    pos = list(code.co_varnames[: code.co_argcount])
    kwonly = list(
        code.co_varnames[
            code.co_argcount : code.co_argcount + code.co_kwonlyargcount
        ]
    )
    if len(call.args) > len(pos):
        return None
    out: list[tuple[str, Any]] = []
    bound: set[str] = set()
    for name, arg in zip(pos, call.args):
        out.append((name, arg))
        bound.add(name)
    for kw in call.keywords:
        if kw.arg in bound or (kw.arg not in pos and kw.arg not in kwonly):
            return None
        out.append((kw.arg, kw.value))
        bound.add(kw.arg)
    defaults = fn.__defaults__ or ()
    for name, value in zip(pos[len(pos) - len(defaults) :], defaults):
        if name not in bound:
            out.append((name, _Default(value)))
            bound.add(name)
    kwdefaults = fn.__kwdefaults__ or {}
    for name in kwonly:
        if name not in bound:
            if name not in kwdefaults:
                return None
            out.append((name, _Default(kwdefaults[name])))
            bound.add(name)
    if set(pos) - bound:
        return None
    return out


class _InlineTransform(ast.NodeTransformer):
    """Rewrites an inlined callee body into the caller's scope: locals
    renamed with the inline-site prefix, module globals read through the
    injected ``__globals__`` reference, shadowed builtins pinned to
    injected constants, everything else (unshadowed builtins) bare."""

    def __init__(
        self,
        rename: dict[str, str],
        global_name: str | None,
        gdict: dict,
        const_map: dict[str, str],
    ) -> None:
        self._rename = rename
        self._global_name = global_name
        self._gdict = gdict
        self._const_map = const_map

    def visit_Name(self, node: ast.Name) -> ast.expr:
        new = self._rename.get(node.id)
        if new is not None:
            return ast.copy_location(ast.Name(id=new, ctx=node.ctx), node)
        if node.id in self._gdict and self._global_name is not None:
            return ast.copy_location(
                ast.Subscript(
                    value=ast.Name(id=self._global_name, ctx=ast.Load()),
                    slice=ast.Constant(value=node.id),
                    ctx=ast.Load(),
                ),
                node,
            )
        const = self._const_map.get(node.id)
        if const is not None:
            return ast.copy_location(
                ast.Name(id=const, ctx=ast.Load()), node
            )
        return node


class _CompileEnv:
    """Shared per-compilation state for both lowering passes: the name
    resolver, the automaton's parameter name, and the injected-value
    registry (callee-module ``__globals__`` dicts, default-argument
    objects, pinned builtins).  Values are interned by identity so the
    traced and untraced passes allocate identical names."""

    def __init__(self, resolver: _Resolver, param: str) -> None:
        self.resolver = resolver
        self.param = param
        self.inject: dict[str, Any] = dict(_INJECTED)
        self._mod_names: dict[int, str] = {}
        self._const_names: dict[int, str] = {}

    def module_dict_name(self, gdict: dict) -> str:
        name = self._mod_names.get(id(gdict))
        if name is None:
            name = f"_K_m{len(self._mod_names)}"
            self._mod_names[id(gdict)] = name
            self.inject[name] = gdict
            self.resolver.register_dict(name, gdict)
        return name

    def const_name(self, value: Any) -> str:
        name = self._const_names.get(id(value))
        if name is None:
            name = f"_K_v{len(self._const_names)}"
            self._const_names[id(value)] = name
            self.inject[name] = value
        return name


# -- lowering -------------------------------------------------------------


class _Lowerer:
    """Lowers one automaton body into trampoline blocks.

    Block ids: suspension sites are numbered from 0 in discovery order
    (hottest, first in the dispatch chain); the entry prologue and
    internal blocks (loop heads, joins) start at ``_INTERNAL_BASE``.
    ``_K_pc`` holds the site to resume at (``-2`` once halted).
    """

    def __init__(self, env: _CompileEnv, *, traced: bool) -> None:
        self.env = env
        self.resolver = env.resolver
        self.traced = traced
        self.entry_id = _INTERNAL_BASE
        self._next_id = _INTERNAL_BASE + 1
        self._next_temp = 0
        self.blocks: dict[int, list[str]] = {}
        self.sites: list[OpSite] = []
        self.extra_locals: list[str] = []
        self.inlined: list[str] = []
        self._cur: list[str] = []
        self._loops: list[tuple[int, int]] = []  # (head, after)
        self._frames: list[tuple[str, int]] = []  # (ret_var, exit_block)
        self._inline_stack: list[Any] = []  # callee code objects
        self._next_inline = 0
        self.blocks[self.entry_id] = self._cur

    # -- emission helpers ----------------------------------------------

    def _emit(self, line: str) -> None:
        self._cur.append(line)

    def _start(self, bid: int) -> None:
        self._cur = self.blocks.setdefault(bid, [])

    def _new_id(self) -> int:
        bid = self._next_id
        self._next_id += 1
        return bid

    def _new_temp(self) -> str:
        # Both lowering passes allocate temps in the same deterministic
        # order, so the traced and untraced bodies share declarations.
        name = f"_K_t{self._next_temp}"
        self._next_temp += 1
        self._declare(name)
        return name

    def _declare(self, name: str) -> None:
        if name not in self.extra_locals:
            self.extra_locals.append(name)

    def _goto(self, bid: int) -> None:
        self._emit(f"_K_b = {bid}")
        self._emit("continue")

    def _goto_if(self, cond: str, bid: int) -> None:
        self._emit(f"if {cond}:")
        self._emit(f"    _K_b = {bid}")
        self._emit("    continue")

    def _halt(self) -> None:
        self._emit("_K_pc = -2")
        self._emit("return 1")

    # -- statement lowering --------------------------------------------

    def lower_function(self, body: list[ast.stmt]) -> None:
        if self.lower_stmts(body):
            self._halt()
        # Unreachable-but-created blocks (e.g. the after-block of a
        # terminal ``while True``) must still parse — and must fail
        # loudly if control ever reaches one.
        for lines in self.blocks.values():
            if not lines:
                lines.append(
                    "raise RuntimeError('unreachable compiled block')"
                )

    def lower_stmts(self, stmts: list[ast.stmt]) -> bool:
        for stmt in stmts:
            if not self.lower_stmt(stmt):
                return False
        return True

    def lower_stmt(self, stmt: ast.stmt) -> bool:
        if not _needs_lowering(stmt):
            if isinstance(stmt, (ast.Global, ast.Nonlocal)):
                raise UnsupportedAutomaton(
                    "global/nonlocal inside an automaton"
                )
            for line in ast.unparse(stmt).splitlines():
                self._emit(line)
            return True
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Yield):
            return self.lower_yield(stmt.value, None)
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.YieldFrom
        ):
            return self.lower_yield_from(stmt.value, None)
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.value, ast.Yield)
        ):
            return self.lower_yield(
                stmt.value, ast.unparse(stmt.targets[0])
            )
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.value, ast.YieldFrom)
        ):
            return self.lower_yield_from(
                stmt.value, ast.unparse(stmt.targets[0])
            )
        if isinstance(stmt, ast.While):
            return self.lower_while(stmt)
        if isinstance(stmt, ast.For):
            return self.lower_for(stmt)
        if isinstance(stmt, ast.If):
            return self.lower_if(stmt)
        if isinstance(stmt, ast.Return):
            if self._frames:
                # Inside an inline frame ``return expr`` becomes the
                # frame's result: assign the ret temp, jump to the
                # frame's continuation.
                ret, exit_id = self._frames[-1]
                value = (
                    "None"
                    if stmt.value is None
                    else ast.unparse(stmt.value)
                )
                self._emit(f"{ret} = {value}")
                self._goto(exit_id)
                return False
            if stmt.value is not None and not (
                isinstance(stmt.value, ast.Constant)
                and stmt.value.value is None
            ):
                raise UnsupportedAutomaton("return with a value")
            self._halt()
            return False
        if isinstance(stmt, ast.Break):
            if not self._loops:
                raise UnsupportedAutomaton("break outside loop")
            self._goto(self._loops[-1][1])
            return False
        if isinstance(stmt, ast.Continue):
            if not self._loops:
                raise UnsupportedAutomaton("continue outside loop")
            self._goto(self._loops[-1][0])
            return False
        raise UnsupportedAutomaton(
            f"cannot lower a yield inside {type(stmt).__name__}"
        )

    def lower_while(self, stmt: ast.While) -> bool:
        head = self._new_id()
        after = self._new_id()
        exit_target = self._new_id() if stmt.orelse else after
        self._goto(head)
        self._start(head)
        test = stmt.test
        if not (isinstance(test, ast.Constant) and test.value):
            self._goto_if(f"not ({ast.unparse(test)})", exit_target)
        self._loops.append((head, after))
        reachable = self.lower_stmts(stmt.body)
        self._loops.pop()
        if reachable:
            self._goto(head)
        if stmt.orelse:
            self._start(exit_target)
            if self.lower_stmts(stmt.orelse):
                self._goto(after)
        self._start(after)
        return True

    def lower_for(self, stmt: ast.For) -> bool:
        iterator = self._new_temp()
        current = self._new_temp()
        self._emit(f"{iterator} = iter({ast.unparse(stmt.iter)})")
        head = self._new_id()
        after = self._new_id()
        exit_target = self._new_id() if stmt.orelse else after
        self._goto(head)
        self._start(head)
        self._emit(f"{current} = next({iterator}, _K_STOP)")
        self._goto_if(f"{current} is _K_STOP", exit_target)
        self._emit(f"{ast.unparse(stmt.target)} = {current}")
        self._loops.append((head, after))
        reachable = self.lower_stmts(stmt.body)
        self._loops.pop()
        if reachable:
            self._goto(head)
        if stmt.orelse:
            self._start(exit_target)
            if self.lower_stmts(stmt.orelse):
                self._goto(after)
        self._start(after)
        return True

    def lower_if(self, stmt: ast.If) -> bool:
        then_id = self._new_id()
        after = self._new_id()
        self._goto_if(f"{ast.unparse(stmt.test)}", then_id)
        if self.lower_stmts(stmt.orelse):
            self._goto(after)
        self._start(then_id)
        if self.lower_stmts(stmt.body):
            self._goto(after)
        self._start(after)
        return True

    # -- yield lowering -------------------------------------------------

    def lower_yield(self, node: ast.Yield, target: str | None) -> bool:
        value = node.value
        if value is None:
            raise UnsupportedAutomaton("bare yield")
        if not isinstance(value, ast.Call):
            raise UnsupportedAutomaton(
                "yield of a non-constructor expression"
            )
        op_cls = self.resolver.resolve(value.func)
        if op_cls not in _OP_FIELDS:
            raise UnsupportedAutomaton(
                f"cannot statically resolve operation "
                f"{ast.unparse(value.func)!r}"
            )
        args = _normalize_op_args(value, op_cls)
        site = len(self.sites)
        kind = _OP_KIND[op_cls]
        reg_node = args[0] if kind in ("read", "write", "snapshot", "cas") else None
        exact, prefix = (
            _const_register(reg_node) if reg_node is not None else (None, None)
        )
        self.sites.append(
            OpSite(
                site=site,
                kind=kind,
                source=ast.unparse(value),
                register=exact,
                register_prefix=prefix,
                result_used=target is not None,
            )
        )
        # Suspend: the *next* step performs this operation.
        self._emit(f"_K_pc = {site}")
        self._emit("return 0")
        self._start(site)
        srcs = [ast.unparse(a) for a in args]
        if self.traced:
            return self._emit_traced_effect(kind, srcs, target)
        return self._emit_effect(kind, args, srcs, target)

    def _emit_effect(
        self,
        kind: str,
        args: list[ast.expr],
        srcs: list[str],
        target: str | None,
    ) -> bool:
        e = self._emit
        if kind == "write":
            e(f"_K_write({srcs[0]}, {srcs[1]})")
            if target:
                e(f"{target} = None")
        elif kind == "read":
            if target:
                e(f"{target} = _K_mem.get({srcs[0]})")
            elif not _is_effect_free(args[0]):
                e(f"{srcs[0]}")
        elif kind == "snapshot":
            if target:
                e(f"{target} = _K_snap({srcs[0]})")
            elif not _is_effect_free(args[0]):
                e(f"{srcs[0]}")
        elif kind == "nop":
            if target:
                e(f"{target} = None")
        elif kind == "query":
            # Always performed: the engine's query hook enforces the
            # C-processes-cannot-query rule even when the result is
            # discarded.
            e(f"{target or '_K_r'} = _K_query(_K_time)")
        elif kind == "cas":
            e(f"{target or '_K_r'} = _K_cas({srcs[0]}, {srcs[1]}, {srcs[2]})")
        else:  # decide
            e(f"_K_out[0] = {srcs[0]}")
            e("_K_pc = -2")
            e("return 2")
            return False
        return True

    def _emit_traced_effect(
        self, kind: str, srcs: list[str], target: str | None
    ) -> bool:
        e = self._emit
        if kind == "write":
            e(f"_K_a0 = {srcs[0]}")
            e(f"_K_a1 = {srcs[1]}")
            e("_K_write(_K_a0, _K_a1)")
            e("_K_ev[0] = _K_Write(_K_a0, _K_a1)")
            e("_K_ev[1] = None")
            if target:
                e(f"{target} = None")
        elif kind == "read":
            e(f"_K_a0 = {srcs[0]}")
            e("_K_r = _K_mem.get(_K_a0)")
            e("_K_ev[0] = _K_Read(_K_a0)")
            e("_K_ev[1] = _K_r")
            if target:
                e(f"{target} = _K_r")
        elif kind == "snapshot":
            e(f"_K_a0 = {srcs[0]}")
            e("_K_r = _K_snap(_K_a0)")
            e("_K_ev[0] = _K_Snapshot(_K_a0)")
            e("_K_ev[1] = _K_r")
            if target:
                e(f"{target} = _K_r")
        elif kind == "nop":
            e("_K_ev[0] = _K_NOP")
            e("_K_ev[1] = None")
            if target:
                e(f"{target} = None")
        elif kind == "query":
            e("_K_r = _K_query(_K_time)")
            e("_K_ev[0] = _K_QUERY")
            e("_K_ev[1] = _K_r")
            if target:
                e(f"{target} = _K_r")
        elif kind == "cas":
            e(f"_K_a0 = {srcs[0]}")
            e(f"_K_a1 = {srcs[1]}")
            e(f"_K_a2 = {srcs[2]}")
            e("_K_r = _K_cas(_K_a0, _K_a1, _K_a2)")
            e("_K_ev[0] = _K_CAS(_K_a0, _K_a1, _K_a2)")
            e("_K_ev[1] = _K_r")
            if target:
                e(f"{target} = _K_r")
        else:  # decide
            e(f"_K_a0 = {srcs[0]}")
            e("_K_ev[0] = _K_Decide(_K_a0)")
            e("_K_ev[1] = None")
            e("_K_out[0] = _K_a0")
            e("_K_pc = -2")
            e("return 2")
            return False
        return True

    # -- yield-from lowering --------------------------------------------

    def lower_yield_from(
        self, node: ast.YieldFrom, target: str | None
    ) -> bool:
        if self._next_inline >= _MAX_INLINE_EXPANSIONS:
            raise UnsupportedAutomaton(
                "yield-from expansion exceeds the inline budget"
            )
        plan = self._inline_plan(node)
        if plan is not None:
            return self._lower_inline(plan, target)
        return self._lower_delegate(node, target)

    def _inline_plan(self, node: ast.YieldFrom):
        """Statically analyze a ``yield from`` callee; ``None`` routes
        the site to the dynamic delegate tier."""
        call = node.value
        if not isinstance(call, ast.Call):
            return None
        fn = self.resolver.resolve(call.func)
        code = getattr(fn, "__code__", None)
        if (
            fn is None
            or code is None
            or not inspect.isgeneratorfunction(fn)
            or code.co_freevars
            or code.co_flags & (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS)
        ):
            return None
        if any(c is code for c in self._inline_stack):
            return None  # recursive delegation: drive it dynamically
        if len(self._inline_stack) >= _MAX_INLINE_DEPTH:
            return None
        if any(isinstance(a, ast.Starred) for a in call.args):
            return None
        if any(kw.arg is None for kw in call.keywords):
            return None
        binding = _bind_call(fn, code, call)
        if binding is None:
            return None
        try:
            fnode = _function_node(fn)
        except UnsupportedAutomaton:
            return None
        fnode = ast.fix_missing_locations(_StripAnnotations().visit(fnode))
        if any(
            isinstance(
                n, (ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)
            )
            for n in _scan(fnode)
        ):
            return None
        local_names = {*code.co_varnames, *code.co_cellvars}
        info = _ScopeInfo()
        for stmt in fnode.body:
            info.visit(stmt)
        gdict = fn.__globals__
        if info.nested_bound & local_names or info.nested_bound & set(
            gdict
        ):
            return None  # textual rename/rewrite would capture
        global_refs = info.names - local_names - info.nested_bound
        caller_ns = self.resolver._globals
        const_map: dict[str, str] = {}
        mod_refs = False
        for name in sorted(global_refs):
            if name in gdict:
                mod_refs = True
            elif hasattr(builtins, name):
                if name in caller_ns:
                    # The caller's module shadows this builtin: pin the
                    # real builtin as an injected constant.
                    const_map[name] = self.env.const_name(
                        getattr(builtins, name)
                    )
            else:
                return None  # would NameError; keep generator semantics
        return (fn, code, fnode, binding, local_names, gdict, mod_refs, const_map)

    def _lower_inline(self, plan, target: str | None) -> bool:
        fn, code, fnode, binding, local_names, gdict, mod_refs, const_map = plan
        seq = self._next_inline
        self._next_inline += 1
        prefix = f"_K_i{seq}_"
        self.inlined.append(f"{fn.__module__}.{fn.__qualname__}")
        # Deterministic declaration order: varnames, then cellvars.
        for name in dict.fromkeys((*code.co_varnames, *code.co_cellvars)):
            self._declare(prefix + name)
        ret = f"{prefix}ret"
        self._declare(ret)
        rename = {name: prefix + name for name in local_names}
        gname = self.env.module_dict_name(gdict) if mod_refs else None
        transform = _InlineTransform(rename, gname, gdict, const_map)
        body = [
            ast.fix_missing_locations(transform.visit(stmt))
            for stmt in fnode.body
        ]
        # Bind parameters in evaluation order (argument expressions are
        # caller-scope; defaults are injected already-evaluated objects).
        for name, item in binding:
            src = (
                self.env.const_name(item.value)
                if isinstance(item, _Default)
                else ast.unparse(item)
            )
            self._emit(f"{prefix}{name} = {src}")
        exit_id = self._new_id()
        self._frames.append((ret, exit_id))
        self._inline_stack.append(code)
        reachable = self.lower_stmts(body)
        self._inline_stack.pop()
        self._frames.pop()
        if reachable:
            self._emit(f"{ret} = None")
            self._goto(exit_id)
        self._start(exit_id)
        if target:
            self._emit(f"{target} = {ret}")
        return True

    def _lower_delegate(
        self, node: ast.YieldFrom, target: str | None
    ) -> bool:
        """One reusable suspension site driving a runtime sub-iterator
        with the interpreter's exact PEP-380 protocol."""
        seq = self._next_inline
        self._next_inline += 1
        gen = f"_K_g{seq}"
        pend = f"_K_p{seq}"
        self._declare(gen)
        self._declare(pend)
        site = len(self.sites)
        self.sites.append(
            OpSite(
                site=site,
                kind="delegate",
                source=ast.unparse(node),
                register=None,
                register_prefix=None,
                result_used=target is not None,
            )
        )
        after = self._new_id()
        e = self._emit
        e(f"{gen} = iter({ast.unparse(node.value)})")
        e("try:")
        e(f"    {pend} = next({gen})")
        e("except StopIteration as _K_e:")
        e(f"    {gen} = None")
        if target:
            e(f"    {target} = _K_e.value")
        e(f"    _K_b = {after}")
        e("    continue")
        e(f"_K_pc = {site}")
        e("return 0")
        self._start(site)
        self._emit_delegate_perform(gen, pend, target, after)
        self._start(after)
        return True

    def _emit_delegate_perform(
        self, gen: str, pend: str, target: str | None, after: int
    ) -> None:
        """The delegate site body: exact-type dispatch mirroring the
        engine fallback, then advance the sub-iterator."""
        e = self._emit
        ctx = self.env.param
        e(f"_K_o = type({pend})")
        e("if _K_o is _K_Write:")
        e(f"    _K_write({pend}.register, {pend}.value)")
        e("    _K_r = None")
        e("elif _K_o is _K_Read:")
        e(f"    _K_r = _K_mem.get({pend}.register)")
        e("elif _K_o is _K_Snapshot:")
        e(f"    _K_r = _K_snap({pend}.prefix)")
        e("elif _K_o is _K_NopT:")
        e("    _K_r = None")
        e("elif _K_o is _K_QueryT:")
        e("    _K_r = _K_query(_K_time)")
        e("elif _K_o is _K_CAS:")
        e(
            f"    _K_r = _K_cas({pend}.register, {pend}.expected, "
            f"{pend}.new)"
        )
        e("elif _K_o is _K_Decide:")
        if self.traced:
            e(f"    _K_ev[0] = {pend}")
            e("    _K_ev[1] = None")
        e(f"    _K_out[0] = {pend}.value")
        e("    _K_pc = -2")
        e("    return 2")
        e("else:")
        e(
            f"    _K_r = _K_generic({pend}, {ctx}, _K_mem, _K_write, "
            f"_K_snap, _K_query, _K_cas, _K_time)"
        )
        if self.traced:
            e(f"_K_ev[0] = {pend}")
            e("_K_ev[1] = _K_r")
        e("try:")
        e(
            f"    {pend} = next({gen}) if _K_r is None "
            f"else {gen}.send(_K_r)"
        )
        e("except StopIteration as _K_e:")
        e(f"    {gen} = None")
        if target:
            e(f"    {target} = _K_e.value")
        e(f"    _K_b = {after}")
        e("    continue")
        e("return 0")


# -- compilation ----------------------------------------------------------


def _function_node(fn: Callable) -> ast.FunctionDef:
    try:
        source = textwrap.dedent(inspect.getsource(fn))
    except (OSError, TypeError) as exc:
        raise UnsupportedAutomaton(f"source unavailable: {exc}") from exc
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:  # pragma: no cover - defensive
        raise UnsupportedAutomaton(f"unparseable source: {exc}") from exc
    if not tree.body or not isinstance(tree.body[0], ast.FunctionDef):
        raise UnsupportedAutomaton("not a plain function definition")
    fnode = tree.body[0]
    if fnode.decorator_list:
        raise UnsupportedAutomaton("decorated automaton")
    return fnode


def _render(
    fnode: ast.FunctionDef,
    param: str,
    freevars: tuple[str, ...],
    declared: list[str],
    untraced: _Lowerer,
    traced: _Lowerer,
    inject_names: list[str],
) -> str:
    inject = ", ".join(f"{name}={name}" for name in inject_names)
    fv = "".join(f", {name}" for name in freevars)
    lines = [
        f"def _K_make({param}, _K_rt{fv}, *, {inject}):",
        "    (_K_mem, _K_write, _K_snap, _K_query, _K_cas, _K_out, _K_ev)"
        " = _K_rt",
    ]
    for name in declared:
        lines.append(f"    {name} = _K_UNBOUND")
    lines.append(f"    _K_pc = {untraced.entry_id}")
    nl = ", ".join(["_K_pc", param] + declared)
    # The runtime helpers are bound once in ``_K_make`` and never
    # reassigned; passing them as positional defaults turns every access
    # in the step body into a fast-local load instead of a cell deref.
    rt_defaults = ", ".join(
        f"{name}={name}"
        for name in (
            "_K_mem", "_K_write", "_K_snap", "_K_query",
            "_K_cas", "_K_out", "_K_ev",
        )
    )
    for fname, low in (("_K_step", untraced), ("_K_step_traced", traced)):
        lines.append(f"    def {fname}(_K_time, {rt_defaults}):")
        lines.append(f"        nonlocal {nl}")
        lines.append("        _K_b = _K_pc")
        lines.append("        while True:")
        _render_dispatch(lines, low.blocks, sorted(low.blocks), "            ")
    lines.append("    return (_K_step, _K_step_traced)")
    return "\n".join(lines) + "\n"


# Below this width a linear if/elif run beats the comparison overhead of
# further halving; 4 keeps leaf runs at 2-4 arms.
_DISPATCH_LEAF = 4


def _render_dispatch(
    lines: list[str],
    blocks: dict[int, list[str]],
    ids: list[int],
    indent: str,
) -> None:
    """Emit the block dispatch as a binary decision tree.

    A flat ``elif`` chain over every block id costs O(blocks) integer
    comparisons per dispatch — and every intra-step ``continue`` pays it
    again from the top, which dominated campaign profiles for automata
    with dozens of blocks.  Halving on ``<`` keeps each dispatch at
    O(log blocks) while the per-block bodies stay byte-for-byte what the
    lowerer produced.
    """
    if len(ids) <= _DISPATCH_LEAF:
        for j, bid in enumerate(ids):
            kw = "if" if j == 0 else "elif"
            lines.append(f"{indent}{kw} _K_b == {bid}:")
            for line in blocks[bid]:
                lines.append(f"{indent}    {line}")
        lines.append(f"{indent}else:")
        lines.append(
            f"{indent}    raise RuntimeError("
            "f'compiled automaton stepped at invalid pc {_K_b}')"
        )
        return
    mid = len(ids) // 2
    lines.append(f"{indent}if _K_b < {ids[mid]}:")
    _render_dispatch(lines, blocks, ids[:mid], indent + "    ")
    lines.append(f"{indent}else:")
    _render_dispatch(lines, blocks, ids[mid:], indent + "    ")


def _compile(fn: Callable) -> CompiledProgram:
    code = fn.__code__
    if not inspect.isgeneratorfunction(fn):
        raise UnsupportedAutomaton("not a generator function")
    if (
        code.co_argcount != 1
        or code.co_kwonlyargcount
        or code.co_flags & (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS)
    ):
        raise UnsupportedAutomaton(
            "automaton signature is not a single positional (ctx)"
        )
    fnode = _function_node(fn)
    fnode = ast.fix_missing_locations(_StripAnnotations().visit(fnode))
    param = code.co_varnames[0]
    user_locals = [
        name
        for name in (*code.co_varnames[1:], *code.co_cellvars)
        if name != param
    ]
    # de-dup while preserving order (a cellvar can also be a varname)
    seen: set[str] = set()
    user_locals = [
        n for n in user_locals if not (n in seen or seen.add(n))
    ]
    freevars = code.co_freevars
    for name in (param, *user_locals, *freevars):
        if name.startswith("_K_"):
            raise UnsupportedAutomaton(f"reserved name {name!r} in automaton")
    resolver = _Resolver(
        fn, {param, *user_locals, *freevars}
    )
    resolver.learn_imports(fnode)
    env = _CompileEnv(resolver, param)

    untraced = _Lowerer(env, traced=False)
    untraced.lower_function(fnode.body)
    traced = _Lowerer(env, traced=True)
    traced.lower_function(fnode.body)
    if (
        untraced.sites != traced.sites
        or untraced.extra_locals != traced.extra_locals
        or untraced.inlined != traced.inlined
    ):  # pragma: no cover - invariant
        raise UnsupportedAutomaton("traced/untraced lowering diverged")
    n_sites = len(untraced.sites)
    inlined = tuple(dict.fromkeys(untraced.inlined))
    declared = user_locals + untraced.extra_locals
    inject_names = list(env.inject)
    body = _render(
        fnode, param, freevars, declared, untraced, traced, inject_names
    )
    header = (
        f"# compiled automaton: {fn.__module__}.{fn.__qualname__}\n"
        f"# sites: {n_sites}; freevars: {', '.join(freevars) or '-'}\n"
    )
    if inlined:
        header += f"# inlined: {', '.join(inlined)}\n"
    source = header + body
    digest = hashlib.sha256(source.encode()).hexdigest()

    # Execute the generated def against the automaton's *live* module
    # globals (so monkeypatching and late rebinding behave exactly as
    # they do for the generator), then remove the definition again.
    # All injected values travel as defaulted parameters.
    namespace = fn.__globals__
    for name, value in env.inject.items():
        namespace[name] = value
    try:
        exec(compile(source, f"<kernel:{fn.__qualname__}>", "exec"), namespace)
        make = namespace.pop("_K_make")
    finally:
        for name in env.inject:
            namespace.pop(name, None)
    return CompiledProgram(
        name=fn.__name__,
        qualname=fn.__qualname__,
        module=fn.__module__,
        n_sites=n_sites,
        sites=tuple(untraced.sites),
        freevars=freevars,
        source=source,
        content_hash=digest,
        make=make,
        inlined=inlined,
    )


@dataclass(frozen=True)
class Refusal:
    """A cached negative compilation result: which automaton was
    refused, and why."""

    qualname: str
    module: str
    reason: str


#: Compilation cache keyed on ``(code object, COMPILER_TAG)``: every
#: closure produced by the same factory shares one program (free
#: variables are bound at ``make`` time, not compile time).  Negative
#: results are cached too, so the engine pays the unsupported-subset
#: analysis once per automaton, not once per process — and because the
#: tag participates in the key, a stale "unsupported" verdict cached by
#: an older compiler build is simply never consulted again.  A refusal
#: is cached as its reason, never as the exception: re-raising one
#: exception object would grow its traceback with every raise and keep
#: every raising frame (and the system it was running) alive.
_CACHE: dict[Any, CompiledProgram | Refusal] = {}


def compile_automaton(fn: Callable) -> CompiledProgram:
    """Compile one automaton (factory) function, with caching.

    Raises :class:`UnsupportedAutomaton` when ``fn`` lies outside the
    compilable subset; the result (including the failure) is cached on
    ``(fn.__code__, COMPILER_TAG)``.
    """
    code = getattr(fn, "__code__", None)
    if code is None:
        raise UnsupportedAutomaton(
            f"{fn!r} is not a plain Python function"
        )
    key = (code, COMPILER_TAG)
    cached = _CACHE.get(key)
    if cached is not None:
        if isinstance(cached, Refusal):
            raise UnsupportedAutomaton(cached.reason)
        return cached
    try:
        program = _compile(fn)
    except UnsupportedAutomaton as exc:
        _CACHE[key] = Refusal(fn.__qualname__, fn.__module__, str(exc))
        raise
    _CACHE[key] = program
    return program


def compiled_source(fn: Callable) -> str:
    """The generated source of ``fn``'s compiled program (compiles on
    first use)."""
    return compile_automaton(fn).source


def clear_cache() -> None:
    """Drop every cached program (tests and benchmarks use this to
    measure cold-compile costs)."""
    _CACHE.clear()


def cached_programs() -> list[CompiledProgram]:
    """Every successfully compiled program currently cached."""
    return [p for p in _CACHE.values() if isinstance(p, CompiledProgram)]


def cached_refusals() -> list[Refusal]:
    """Every cached refusal (automata that fall back)."""
    return [p for p in _CACHE.values() if isinstance(p, Refusal)]
