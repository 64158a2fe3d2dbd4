"""Every name that a module of the package imports is used in that module,
and the package reads only the environment variables it documents.

Parsed with the stdlib ast module; the package __init__ files are skipped by
the import check, since they import names only to re-export them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "symprol"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation such as -> "Subspace" uses the name it quotes
    for node in ast.walk(tree):
        ann = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                        if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_modules_found():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _environment_names(tree):
    """Names read through os.environ or os.getenv; "?" for a name that is
    not a string literal or an access of another form."""
    def is_environ(node):
        return isinstance(node, ast.Attribute) and node.attr == "environ" \
            and isinstance(node.value, ast.Name) and node.value.id == "os"

    def literal(node):
        return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else "?"

    names, seen = set(), set()
    for node in ast.walk(tree):
        f = node.func if isinstance(node, ast.Call) else None
        if isinstance(f, ast.Attribute) and f.attr == "get" and is_environ(f.value):
            names.add(literal(node.args[0]) if node.args else "?")
            seen.add(id(f.value))
        elif isinstance(f, ast.Attribute) and f.attr == "getenv" \
                and isinstance(f.value, ast.Name) and f.value.id == "os":
            names.add(literal(node.args[0]) if node.args else "?")
        elif isinstance(node, ast.Subscript) and is_environ(node.value):
            names.add(literal(node.slice))
            seen.add(id(node.value))
    if any(is_environ(node) and id(node) not in seen for node in ast.walk(tree)):
        names.add("?")
    return names


def test_environment_variables():
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        names |= _environment_names(ast.parse(path.read_text()))
    assert names == {"SYMPROL_WITNESS_GRID"}
