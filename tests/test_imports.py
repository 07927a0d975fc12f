"""Every helper has one home: no package module imports another module's
underscore name, the package exports no name that only tests use, and no
underscore name is left that no package code reads."""

import ast
from pathlib import Path

import deferlab

PACKAGE = Path(deferlab.__file__).parent


def private(name: str) -> bool:
    """An underscore name; dunders such as ``__version__`` are public."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def foreign_private_imports(source: str) -> list[str]:
    """Every ``from <package module> import _name`` in ``source``, and every
    ``module._name`` read through a package module imported by name."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "deferlab"
        ):
            for alias in node.names:
                if private(alias.name):
                    found.append(f"{'.' * node.level}{node.module or ''} import {alias.name}")
                elif node.module is None or node.module == "deferlab":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_detector_finds_both_forms():
    source = "from .deferral import _x, y\nfrom . import nets\nnets._layer(1)\n"
    assert foreign_private_imports(source) == [".deferral import _x", "nets._layer"]
    assert foreign_private_imports("from . import __version__\nimport numpy._x\n") == []


def test_no_module_imports_another_modules_underscore_name():
    offenders = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := foreign_private_imports(path.read_text()))
    }
    assert offenders == {}


def exported_only(package: Path) -> set[str]:
    """The names ``__init__.py`` exports that no other module of ``package``
    reads: as a name, an attribute or an import."""
    init = ast.parse((package / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    read = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return exported - read


def test_detector_finds_exports_no_module_reads(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import f, g, h\nfrom .b import k\n")
    (tmp_path / "a.py").write_text("def f(): pass\ndef g(): pass\ndef h(): pass\n")
    (tmp_path / "b.py").write_text("from .a import g\nimport x\nx.h()\ndef k(): f\n")
    assert exported_only(tmp_path) == {"k"}


def test_exported_only_names_are_the_readers_of_cli_files():
    # A name the package never reads serves callers outside it. The two below
    # read back what the CLI writes; any other such name is an API that only
    # tests use, and belongs in the tests.
    assert exported_only(PACKAGE) == {"load_checkpoint", "load_csv_dataset"}


def dead_private_names(package: Path) -> set[str]:
    """Every module-level underscore name of ``package`` that no package
    code reads outside the statement defining it: as a name, an attribute
    or an import."""
    defined, read = set(), set()
    for path in package.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            own = set()
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
            defined.update(name for name in own if private(name))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.ImportFrom):
                    read.update(alias.name for alias in node.names)
                    continue
                else:
                    continue
                if name not in own:
                    read.add(name)
    return defined - read


def test_detector_finds_private_names_only_their_definitions_read(tmp_path):
    (tmp_path / "a.py").write_text(
        "_K = 1\n_DEAD = 2\n"
        "def _walk(n): return _walk(n - 1)\n"
        "def _used(): return _K\n"
        "def run(): return _used()\n"
        "class _Box:\n    pass\n"
    )
    (tmp_path / "b.py").write_text("from . import a\nx = a._Box\n")
    assert dead_private_names(tmp_path) == {"_DEAD", "_walk"}


def test_every_private_name_is_read_by_package_code():
    # A helper that only tests read is an API that only tests use: delete it
    # and port its assertions to the path that replaced it.
    assert dead_private_names(PACKAGE) == set()
