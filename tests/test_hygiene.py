"""Source hygiene checks that need only the standard library's ``ast``:
no module keeps an import it does not use or raises a bare ``ValueError``
or ``TypeError`` (bad arguments raise ``InvalidInputError``), and the public
name list is exact."""

import ast
import collections
from pathlib import Path

import pytest

import manifold_xi

PACKAGE = Path(manifold_xi.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing else refers to."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_the_checker_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["os (line 1)"]
    assert unused_imports("from a import b as c\nc.d\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def bare_builtin_raises(source: str) -> list[str]:
    """``raise ValueError(...)`` / ``raise TypeError`` statements, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        exc = node.exc if isinstance(node, ast.Raise) else None
        name = exc.func if isinstance(exc, ast.Call) else exc
        if isinstance(name, ast.Name) and name.id in ("ValueError", "TypeError"):
            found.append(f"{name.id} (line {node.lineno})")
    return found


def test_the_checker_finds_a_bare_builtin_raise():
    source = "raise ValueError('x')\nraise TypeError\nraise KeyError('k')\nraise\n"
    assert bare_builtin_raises(source) == ["ValueError (line 1)", "TypeError (line 2)"]
    assert bare_builtin_raises("raise errors.InvalidInputError('x')\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bare_value_or_type_error(path):
    assert bare_builtin_raises(path.read_text(encoding="utf-8")) == []


def test_public_names_resolve_and_are_listed_once():
    names = manifold_xi.__all__
    assert [n for n in names if not hasattr(manifold_xi, n)] == []
    assert [n for n, k in collections.Counter(names).items() if k > 1] == []
