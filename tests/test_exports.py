import ast
import importlib
from pathlib import Path

import pytest

MODULES = ("cli", "config", "dataio", "forecast", "models", "neuralnet", "odeint", "svgplot", "symrec")
SRC = Path(__file__).resolve().parent.parent / "src" / "tumordyn"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"tumordyn.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def top_level_definitions(source: str) -> set[str]:
    """Names a module binds at its top level by a `def`, a `class` or an assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_defined_in_its_module(name):
    # an import listed in `__all__` would count one object as two public names
    module = importlib.import_module(f"tumordyn.{name}")
    defined = top_level_definitions((SRC / f"{name}.py").read_text(encoding="utf-8"))
    assert [n for n in module.__all__ if n not in defined] == []


def unused_imports(source: str) -> list[str]:
    """Names the module imports but neither uses nor lists in `__all__`."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used and name not in exported]


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    assert unused_imports((SRC / f"{name}.py").read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_each_kind():
    source = (
        "from __future__ import annotations\nimport os\nimport numpy as np\nimport a.b\n"
        "from .m import f, g as h, k\n__all__ = ['k']\nnp.zeros(1)\n"
    )
    assert unused_imports(source) == ["os", "a", "f", "h"]
