"""Lazy package re-exports (PEP 562).

A package ``__init__`` declares which names it re-exports from which
submodule and gets back the module-level ``__getattr__`` and
``__dir__`` that import a submodule the first time one of its names is
read.  Every entry point then loads only the modules whose code it
runs: a campaign cell never compiles the explorer, and a fabric worker
registers before it loads the chaos engine.

The table maps a relative module, spelled as in the import line it
replaces, to the names taken from it: ``{".ops": ("Read",)}`` stands
for ``from .ops import Read``, and ``{".": ("ops",)}`` for
``from . import ops``.  A resolved name is stored in the package's
globals, so the next read is a plain attribute lookup.  A name the
table does not hold is tried as a submodule (``from repro.resilience
import supervisor``); anything else raises :class:`AttributeError`.
"""

from __future__ import annotations

import sys
from types import ModuleType
from typing import Any, Callable, Mapping, MutableMapping, Sequence


def _load(module: str) -> ModuleType:
    # ``__import__`` rather than ``importlib.import_module``: only the
    # former shows in ``python -X importtime``.
    __import__(module)
    return sys.modules[module]


def lazy_exports(
    package: str,
    namespace: MutableMapping[str, Any],
    table: Mapping[str, Sequence[str]],
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, whose globals are
    ``namespace``, serving the names of ``table``."""
    source = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = source.get(name)
        if module == ".":
            value: Any = _load(f"{package}.{name}")
        elif module is not None:
            value = getattr(_load(package + module), name)
        else:
            missing = AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
            if not name.isidentifier():
                raise missing
            try:
                value = _load(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise missing from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *source})

    return __getattr__, __dir__
