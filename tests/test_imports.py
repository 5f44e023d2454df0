"""No module of the library imports a name it never uses (stdlib ``ast``
only; ``__init__.py`` re-exports and is skipped)."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "varprox"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _dotted(node):
    """``a.b.c`` for a chain of attribute lookups on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def unused_imports(source):
    """Names bound by an import statement and never read.  ``import a.b``
    counts as used only where ``a.b`` (or an attribute of it) is looked up;
    names listed in ``__all__`` count as used."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {_dotted(node) for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [(name, line) for name, line in imported
            if not any(u == name or u.startswith(name + ".")
                       for u in used if u)]


def test_detector_sees_unused_names_and_submodules():
    source = ("import os\nimport scipy.linalg\nimport scipy.sparse\n"
              "from numpy import zeros as z, ones\n__all__ = ['ones']\n"
              "scipy.linalg.solve(z(2))\n")
    assert unused_imports(source) == [("os", 1), ("scipy.sparse", 3)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
