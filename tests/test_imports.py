"""Every name a module of the package imports is used in that module, and
every private name a module defines is referred to somewhere in the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "holocone"


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detects_an_unused_import():
    src = "import os\nfrom typing import List, Tuple\nx: Tuple = os.sep\n"
    assert unused_imports(src) == [(2, "List")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source: str):
    """Module-level private functions, classes and globals: (line, name)."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out += [(node.lineno, n) for n in names if n.startswith("_") and not n.startswith("__")]
    return out


def references(sources):
    """(module, name) pairs that `sources` (module stem -> source) refer
    to: names read in a module, `module._x` attributes and `from .module
    import _x` anywhere."""
    refs = set()
    for module, source in sources.items():
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                refs.add((module, n.id))
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                refs.add((n.value.id, n.attr))
            elif isinstance(n, ast.ImportFrom) and n.module:
                refs.update((n.module.split(".")[-1], a.name) for a in n.names)
    return refs


def dead_private_names(sources):
    refs = references(sources)
    return [
        (module, line, name)
        for module, source in sources.items()
        for line, name in private_definitions(source)
        if (module, name) not in refs
    ]


def test_detects_a_dead_private_name():
    sources = {
        "a": "_x = 1\n_y: int = 2\n__all__ = []\ndef _f():\n    return _x\nclass _C:\n    pass\n",
        "b": "from . import a\nfrom .a import _C\ndef _f():\n    pass\nz = a._f()\n",
    }
    # a._f is called from b and a._C imported there; b._f shares a._f's
    # name but nothing refers to it.
    assert dead_private_names(sources) == [("a", 2, "_y"), ("b", 3, "_f")]


def test_no_dead_private_names():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources) == []
