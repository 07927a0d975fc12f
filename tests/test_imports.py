"""Every helper has one home: no package module imports another module's
underscore name."""

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
