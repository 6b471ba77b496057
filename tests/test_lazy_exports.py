"""The packages' lazy re-exports (:mod:`repro._lazy`).

Each package ``__init__`` that re-exports names from its submodules
declares them three times: the ``_EXPORTS`` table that serves them at
run time, the ``TYPE_CHECKING`` imports that type checkers read, and
``__all__``.  These tests hold the three equal (mypy and ruff read the
imports, this suite runs the table) and check, in a fresh interpreter,
that importing the packages loads none of the tables' submodules and
that every exported name then resolves to the object its defining
module holds.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Every package with an export table.  ``repro.kernel`` and
#: ``repro.lint`` load all of their submodules: only their own commands
#: import them, and those run all of it.
PACKAGES = (
    "repro",
    "repro.algorithms",
    "repro.analysis",
    "repro.chaos",
    "repro.checker",
    "repro.classify",
    "repro.core",
    "repro.detectors",
    "repro.memory",
    "repro.resilience",
    "repro.runtime",
    "repro.tasks",
    "repro.topology",
)

#: Modules the packages import eagerly: the helper and the lint schemas.
EAGER = ("repro._lazy", "repro.algorithms._schema")


def _declarations(package: str):
    """``(table, TYPE_CHECKING imports, __all__)`` of a package init,
    read with ``ast``; both mappings are ``{module: sorted names}``."""
    init = SRC.joinpath(*package.split("."), "__init__.py")
    tree = ast.parse(init.read_text())
    table = typed = names = None
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(
            node.targets[0], ast.Name
        ):
            if node.targets[0].id == "_EXPORTS":
                table = {
                    module: sorted(exported)
                    for module, exported in ast.literal_eval(
                        node.value
                    ).items()
                }
            elif node.targets[0].id == "__all__":
                names = ast.literal_eval(node.value)
        elif isinstance(node, ast.If) and ast.unparse(node.test) == (
            "TYPE_CHECKING"
        ):
            typed = {}
            for statement in node.body:
                assert isinstance(statement, ast.ImportFrom), ast.unparse(
                    statement
                )
                module = "." * statement.level + (statement.module or "")
                typed[module] = sorted(
                    alias.name for alias in statement.names
                )
    return table, typed, names


def test_every_package_with_a_table_is_listed():
    found = {
        ".".join(path.relative_to(SRC).parts[:-1])
        for path in SRC.glob("repro/**/__init__.py")
        if "_EXPORTS" in path.read_text()
    }
    assert found == set(PACKAGES)


def test_table_all_and_type_checking_imports_agree():
    for package in PACKAGES:
        table, typed, names = _declarations(package)
        assert table is not None, f"{package}: no _EXPORTS table"
        assert typed == table, f"{package}: TYPE_CHECKING imports differ"
        exported = [name for names in table.values() for name in names]
        assert len(exported) == len(set(exported)), package
        # ``repro.__version__`` is the one exported name defined in place.
        assert set(names) - set(exported) <= {"__version__"}, package
        assert set(exported) <= set(names), package


#: Imports every package, checks that no table submodule came with
#: them, then resolves every export each way a caller can.
FRESH_PROBE = """
import importlib
import sys

PACKAGES = {packages!r}
EAGER = {eager!r}

packages = [importlib.import_module(name) for name in PACKAGES]
loaded = sorted(name for name in sys.modules if name.startswith("repro"))
assert loaded == sorted(PACKAGES + EAGER), loaded

for package in packages:
    table = package._EXPORTS
    for module, names in table.items():
        for name in names:
            value = getattr(package, name)
            if module == ".":
                assert value is sys.modules[package.__name__ + "." + name]
                continue
            home = sys.modules[package.__name__ + module]
            assert value is getattr(home, name), (package, name)
            # ... and is the object of the module that defines it.
            owner = getattr(value, "__module__", None)
            qualname = getattr(value, "__qualname__", "")
            if str(owner).startswith("repro.") and "." not in qualname:
                assert getattr(sys.modules[owner], qualname) is value
    star = {{}}
    exec(f"from {{package.__name__}} import *", star)
    for name in package.__all__:
        assert star[name] is getattr(package, name), (package, name)
    assert set(package.__all__) <= set(dir(package)), package
    for missing in ("no_such_export", "not an identifier"):
        try:
            getattr(package, missing)
        except AttributeError:
            pass
        else:
            raise AssertionError((package, missing))

from repro.resilience import supervisor
assert supervisor is sys.modules["repro.resilience.supervisor"]
print("ok")
"""


def test_exports_resolve_in_a_fresh_interpreter():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    code = FRESH_PROBE.format(packages=PACKAGES, eager=EAGER)
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ok"]

