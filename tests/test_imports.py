"""Static checks of the library source (stdlib ``ast`` only).

* No module imports a name it never uses (``__init__.py`` re-exports and is
  skipped).
* Every top-level function, class and method of ``src/varprox`` is reached
  by name from a root: a name ``__init__.py`` imports, ``cli.main``, an
  identifier of ``perfbench/*.py``, a name ``tests/test_acceptance.py``
  imports, or a dunder method.  Entries of ``__all__`` are not roots.
* Every library and benchmark file parses as Python 3.10, the floor that
  ``pyproject.toml`` declares.
"""

import ast
import pathlib
from collections import defaultdict

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "varprox"
PERFBENCH = ROOT / "perfbench"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PY310_FILES = sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def identifiers(nodes, strings=False):
    """Every name read or attribute looked up under ``nodes``; with
    ``strings``, also string constants that are identifiers (lookups by
    name, as ``getattr`` does)."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif (strings and isinstance(sub, ast.Constant)
                  and isinstance(sub.value, str) and sub.value.isidentifier()):
                out.add(sub.value)
    return out


def imported_names(tree):
    return {a.asname or a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for a in node.names}


def unreachable(modules, root_names, root_defs=()):
    """Definitions of ``modules`` (a ``{name: source}`` map) that no root
    reaches, as sorted ``module.qualname`` strings.

    A definition is a top-level function or class, a method, or a
    module-level assignment (walked, never reported).  Reaching a name
    reaches every definition of that name; a reached definition reaches the
    names its body reads.  A class body counts without its methods.
    ``root_defs`` holds ``module.qualname`` roots; dunder methods are roots.
    """
    by_name = defaultdict(list)
    roots = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, DEFS):
                key = f"{module}.{node.name}"
                body = [node]
                if isinstance(node, ast.ClassDef):
                    methods = [s for s in node.body if isinstance(s, DEFS)]
                    body = node.bases + node.decorator_list + [
                        s for s in node.body if not isinstance(s, DEFS)]
                    for meth in methods:
                        entry = (f"{key}.{meth.name}", [meth], True)
                        by_name[meth.name].append(entry)
                        if meth.name.startswith("__") and meth.name.endswith("__"):
                            roots.append(entry)
                entry = (key, body, True)
                by_name[node.name].append(entry)
                if key in root_defs:
                    roots.append(entry)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name) and t.id != "__all__":
                        by_name[t.id].append((f"{module}.{t.id}", [node], False))
    stack = roots + [e for name in root_names for e in by_name.get(name, ())]
    seen = set()
    while stack:
        key, body, _ = stack.pop()
        if key in seen:
            continue
        seen.add(key)
        for name in identifiers(body):
            stack.extend(by_name.get(name, ()))
    return sorted(key for entries in by_name.values()
                  for key, _, reported in entries
                  if reported and key not in seen)


def test_detector_sees_unused_names_and_submodules():
    source = ("import os\nimport scipy.linalg\nimport scipy.sparse\n"
              "from numpy import zeros as z, ones\n__all__ = ['ones']\n"
              "scipy.linalg.solve(z(2))\n")
    assert unused_imports(source) == [("os", 1), ("scipy.sparse", 3)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_reachability_walk_follows_names_not_exports():
    source = (
        "__all__ = ['orphan', 'Box']\n"
        "TABLE = {'k': helper}\n"
        "def root(): return Box().size + TABLE\n"
        "def helper(): return 1\n"
        "def orphan(): return helper()\n"
        "class Box:\n"
        "    def __init__(self): self.n = dunder_only()\n"
        "    @property\n"
        "    def size(self): return self.n\n"
        "    def unused(self): return 0\n"
        "def dunder_only(): return 2\n")
    assert unreachable({"m": source}, {"root"}) == ["m.Box.unused", "m.orphan"]
    assert unreachable({"m": source}, set(), {"m.root"}) == [
        "m.Box.unused", "m.orphan"]
    assert unreachable({"m": source}, {"orphan", "unused"}) == [
        "m.Box", "m.Box.size", "m.root"]


def test_every_library_definition_is_reachable():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    roots = imported_names(ast.parse(modules["__init__"]))
    roots |= imported_names(ast.parse(ACCEPTANCE.read_text()))
    roots |= identifiers([ast.parse(p.read_text())
                          for p in sorted(PERFBENCH.glob("*.py"))],
                         strings=True)
    assert unreachable(modules, roots, {"cli.main"}) == []


@pytest.mark.parametrize("path", PY310_FILES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parses_as_python_310(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
