"""Every name a module of the package imports is used in that module,
every private name a module defines is referred to somewhere in the
package, only `weights` splits "name=text" fields or compares each entry
of a sequence with the next, only `semigroup` compares with
`MAX_BOUND`, and only `weights` and `polyhedral` import `Fraction`."""

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


def key_value_splits(source: str):
    """Lines of the calls `.split("=")` and `.partition("=")` in source,
    whatever else they are passed."""
    return [
        n.lineno
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and n.func.attr in ("split", "partition") and n.args
        and isinstance(n.args[0], ast.Constant) and n.args[0].value == "="
    ]


def test_detects_a_key_value_split():
    src = 'a = "p=1".split("=", 1)\nb = s.partition("=")\nc = s.split(",")\nd = s.partition(";")\n'
    assert key_value_splits(src) == [1, 2]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "weights.py"), ids=lambda p: p.name
)
def test_only_weights_reads_key_value_fields(path):
    # weights.parse_fields is the one reader of "name=text" fields
    assert key_value_splits(path.read_text(encoding="utf-8")) == []


def adjacent_scans(source: str):
    """Lines of the calls zip(x, x[1:]) and map(f, x, x[1:]) in source, x
    one expression: a walk over each entry of x and the next."""
    return [
        n.lineno
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        and len(n.args) == {"zip": 2, "map": 3}.get(n.func.id)
        and ast.unparse(n.args[-1]) == ast.unparse(n.args[-2]) + "[1:]"
    ]


def test_detects_an_adjacent_scan():
    src = ("a = zip(w, w[1:])\nb = all(map(ge, x.y, x.y[1:]))\nc = zip(kappa, nu[1:])\n"
           "d = map(ge, w, w[2:])\ne = zip(w, w[1:], v)\nf = map(w, w[1:])\n")
    assert adjacent_scans(src) == [1, 2]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "weights.py"), ids=lambda p: p.name
)
def test_only_weights_scans_adjacent_entries(path):
    # weights.is_weakly_decreasing is the one rule for a dominant block
    assert adjacent_scans(path.read_text(encoding="utf-8")) == []


def max_bound_comparisons(source: str):
    """Lines of the comparisons in source with `MAX_BOUND` or `m.MAX_BOUND`
    on either side."""
    return [
        n.lineno
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Compare)
        and any(isinstance(v, ast.Name) and v.id == "MAX_BOUND"
                or isinstance(v, ast.Attribute) and v.attr == "MAX_BOUND"
                for v in (n.left, *n.comparators))
    ]


def test_detects_a_max_bound_comparison():
    src = ("a = b > MAX_BOUND\nc = 0 <= b <= semigroup.MAX_BOUND\n"
           "d = MAX_BOUND + 1\ne = f(semigroup.MAX_BOUND)\n")
    assert max_bound_comparisons(src) == [1, 2]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "semigroup.py"), ids=lambda p: p.name
)
def test_only_semigroup_checks_the_box_bound(path):
    # semigroup.check_bound is the one range check of a box bound
    assert max_bound_comparisons(path.read_text(encoding="utf-8")) == []


def fraction_imports(source: str):
    """Lines of the imports in source of the module `fractions`, of a
    name from it, or of a name `Fraction` from anywhere."""
    return [
        n.lineno
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.ImportFrom)
        and (n.module == "fractions" or any(a.name == "Fraction" for a in n.names))
        or isinstance(n, ast.Import) and any(a.name == "fractions" for a in n.names)
    ]


def test_detects_a_fraction_import():
    src = ("from fractions import Fraction\nimport fractions as fr\nimport os, fractions\n"
           "from math import gcd\nfrom .weights import Fraction\nx = Fraction(1, 2)\n")
    assert fraction_imports(src) == [1, 2, 3, 5]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name not in ("weights.py", "polyhedral.py")),
    ids=lambda p: p.name,
)
def test_only_weights_and_polyhedral_import_fraction(path):
    # weights parses rational coordinates and polyhedral coerces them to
    # integers; every other module computes in ints
    assert fraction_imports(path.read_text(encoding="utf-8")) == []
