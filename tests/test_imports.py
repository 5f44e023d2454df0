"""Static checks of the library source (stdlib ``ast`` only).

* No module imports a name it never uses (``__init__.py`` re-exports and is
  skipped).
* Every top-level function, class and method of ``src/varprox`` is reached
  by name from a root: ``cli.main``, an identifier of ``perfbench/*.py``, a
  name ``tests/test_acceptance.py`` imports, or a dunder method.  Neither
  the re-exports of ``__init__.py`` nor entries of ``__all__`` are roots: a
  definition only a unit test calls is not in use.
* Every parameter of every function, method and closure of
  ``src/varprox`` is read in its body (a body that only raises
  ``NotImplementedError`` is exempt): an option no code reads changes
  nothing when it is set.
* Every dataclass field of ``src/varprox`` that has a default is read, as
  an attribute or as a string, somewhere in ``src/``, ``perfbench/`` or
  ``tests/``.
* The library's settable values (defaulted parameters of functions,
  methods and closures, positional or keyword-only, plus defaulted
  ``@dataclass`` fields) number at most ``SETTABLE_VALUES``.
* Every library and benchmark file parses as Python 3.10, the floor that
  ``pyproject.toml`` declares.
* No library module but ``inner.py`` reads one of inner's system helpers
  (``INNER_HELPERS``): other modules solve an inner system through a
  ``solve_*`` route.
* No library module but ``inner.py`` and ``baselines.py`` (whose reference
  solvers stay independent of the routes they check) calls a dense solver:
  ``numpy``/``scipy`` ``linalg.solve``, ``lstsq``, ``inv`` or ``pinv``, any
  ``scipy.linalg`` attribute, or ``cholesky_factor``/``cholesky_solve``.
* No library module imports a thread, process or event-loop module
  (``CONCURRENCY``): varprox runs in one thread of one process.
"""

import ast
import pathlib
from collections import defaultdict

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "varprox"
PERFBENCH = ROOT / "perfbench"
TESTS = ROOT / "tests"
ACCEPTANCE = TESTS / "test_acceptance.py"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PY310_FILES = sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# Settable values of src/varprox/*.py as counted by settable_values; lower
# it when a change removes some, never raise it.
SETTABLE_VALUES = 88
INNER_HELPERS = {"_dual_matrix", "_dual_solve", "_psd_solve", "_sym_solve",
                 "_prox_solve", "_band_solve", "_spd_factor"}
LINALG_SOLVERS = {"solve", "lstsq", "inv", "pinv"}
CHOLESKY = {"cholesky_factor", "cholesky_solve"}
CONCURRENCY = {"threading", "concurrent", "multiprocessing", "asyncio"}


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


def dense_solver_lookups(source):
    """The dense solvers ``source`` looks up, sorted: ``linalg.solve``,
    ``lstsq``, ``inv`` or ``pinv`` by attribute or import, any
    ``scipy.linalg`` name, and ``cholesky_factor``/``cholesky_solve``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = _dotted(node) or ""
            parts = name.split(".")
            if (name.startswith("scipy.linalg.")
                    or (parts[-2:-1] == ["linalg"]
                        and parts[-1] in LINALG_SOLVERS)):
                found.add(name)
        elif isinstance(node, ast.Name) and node.id in CHOLESKY:
            found.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                name = f"{node.module}.{a.name}"
                if a.name in CHOLESKY:
                    found.add(a.name)
                elif (node.module == "scipy.linalg" or name == "scipy.linalg"
                        or (node.module == "numpy.linalg"
                            and a.name in LINALG_SOLVERS)):
                    found.add(name)
    return sorted(found)


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


def imported_modules(source):
    """The top-level packages of the absolute imports of ``source``,
    sorted (``from concurrent.futures import X`` gives ``concurrent``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return sorted(found)


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
    names its body reads.  A method is reached only by an attribute lookup
    (``obj.name``) or a root name, never by a bare name, which is a local
    or a module-level one.  A class body counts without its methods.
    ``root_defs`` holds ``module.qualname`` roots; dunder methods are roots.
    """
    by_name, by_attr = defaultdict(list), defaultdict(list)
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
                        by_attr[meth.name].append(entry)
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
    stack = roots + [e for name in root_names
                     for e in by_name.get(name, []) + by_attr.get(name, [])]
    seen = set()
    while stack:
        key, body, _ = stack.pop()
        if key in seen:
            continue
        seen.add(key)
        for sub in (s for node in body for s in ast.walk(node)):
            if isinstance(sub, ast.Name):
                stack.extend(by_name.get(sub.id, ()))
            elif isinstance(sub, ast.Attribute):
                stack.extend(by_name.get(sub.attr, []) + by_attr.get(sub.attr, []))
    return sorted(key for entries in [*by_name.values(), *by_attr.values()]
                  for key, _, reported in entries
                  if reported and key not in seen)


def _raises_not_implemented(fn):
    """True when ``fn``'s body, after a docstring, is one
    ``raise NotImplementedError``."""
    body = fn.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def unread_parameters(source, module="m"):
    """``module.qualname(param)`` for every parameter of a function, method
    or closure that its body never reads, sorted.  A zero-argument
    ``super()`` reads the first parameter."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                a = child.args
                params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                params += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
                subs = [sub for stmt in child.body for sub in ast.walk(stmt)]
                read = {sub.id for sub in subs if isinstance(sub, ast.Name)
                        and isinstance(sub.ctx, ast.Load)}
                if params and any(isinstance(sub, ast.Call) and not sub.args
                                  and getattr(sub.func, "id", None) == "super"
                                  for sub in subs):
                    read.add(params[0])
                if not _raises_not_implemented(child):
                    out.extend(f"{name}({p})" for p in params if p not in read)
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(ast.parse(source), module)
    return sorted(out)


def defaulted_fields(source, module="m"):
    """``(module.Class.field, field)`` for every field with a default of a
    ``@dataclass`` class, in source order."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in node.decorator_list]
        if not any(_dotted(d) in ("dataclass", "dataclasses.dataclass")
                   for d in decorators):
            continue
        out += [(f"{module}.{node.name}.{s.target.id}", s.target.id)
                for s in node.body
                if isinstance(s, ast.AnnAssign) and s.value is not None]
    return out


def settable_values(source):
    """Defaulted parameters (positional or keyword-only) of every function,
    method and closure, plus the defaulted ``@dataclass`` fields."""
    params = sum(len(node.args.defaults)
                 + sum(d is not None for d in node.args.kw_defaults)
                 for node in ast.walk(ast.parse(source))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return params + len(defaulted_fields(source))


def attribute_reads(sources):
    """Attributes looked up (not assigned) and identifier strings of
    ``sources``."""
    out = set()
    for source in sources:
        for sub in ast.walk(ast.parse(source)):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                out.add(sub.attr)
            elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                  and sub.value.isidentifier()):
                out.add(sub.value)
    return out


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
        "def root():\n"
        "    unused = 0\n"
        "    return Box().size + TABLE + unused\n"
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
    modules = {p.stem: p.read_text() for p in MODULES}
    roots = imported_names(ast.parse(ACCEPTANCE.read_text()))
    roots |= identifiers([ast.parse(p.read_text())
                          for p in sorted(PERFBENCH.glob("*.py"))],
                         strings=True)
    assert unreachable(modules, roots, {"cli.main"}) == []


def test_unread_parameter_detector():
    source = (
        "def f(a, b=1, *args, c, **kw):\n"
        "    b = 2\n"
        "    return a + c\n"
        "def outer(x, y):\n"
        "    def inner(z, w):\n"
        "        return x + z\n"
        "    return inner\n"
        "class K:\n"
        "    def m(self, p):\n"
        "        'doc'\n"
        "        raise NotImplementedError\n"
        "    def n(self, q):\n"
        "        raise NotImplementedError(q)\n"
        "    def o(self, r):\n"
        "        raise ValueError\n"
        "class S(K):\n"
        "    def __init__(self, s):\n"
        "        super().__init__()\n")
    assert unread_parameters(source) == [
        "m.K.o(r)", "m.K.o(self)", "m.S.__init__(s)", "m.f(args)", "m.f(b)",
        "m.f(kw)", "m.outer(y)", "m.outer.inner(w)"]


def test_every_parameter_is_read():
    found = [name for path in sorted(SRC.glob("*.py"))
             for name in unread_parameters(path.read_text(), path.stem)]
    assert found == []


def test_unread_field_detector():
    source = (
        "from dataclasses import dataclass, field\n"
        "import dataclasses\n"
        "@dataclass\n"
        "class P:\n"
        "    need: int\n"
        "    used: int = 0\n"
        "    named: int = 0\n"
        "    stored: list = field(default_factory=list)\n"
        "    orphan: float = 1.0\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Q:\n"
        "    lone: int = 0\n"
        "class R:\n"
        "    plain: int = 0\n")
    reader = ("def g(p):\n"
              "    p.stored = []\n"
              "    P(orphan=2.0)\n"
              "    return p.used + getattr(p, 'named')\n")
    fields = defaulted_fields(source)
    assert [key for key, _ in fields] == [
        "m.P.used", "m.P.named", "m.P.stored", "m.P.orphan", "m.Q.lone"]
    read = attribute_reads([source, reader])
    assert [key for key, name in fields if name not in read] == [
        "m.P.stored", "m.P.orphan", "m.Q.lone"]


def test_every_defaulted_field_is_read():
    readers = [p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))
               + sorted(PERFBENCH.glob("*.py")) + sorted(TESTS.glob("*.py"))]
    read = attribute_reads(readers)
    fields = [f for path in MODULES
              for f in defaulted_fields(path.read_text(), path.stem)]
    assert [key for key, name in fields if name not in read] == []


def test_settable_value_counter():
    source = (
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *args, c, d=2, e=None, **kw):\n"
        "    def g(h=3):\n"
        "        return h\n"
        "    return g\n"
        "@dataclass\n"
        "class P:\n"
        "    need: int\n"
        "    used: int = 0\n"
        "    def m(self, q=4):\n"
        "        return q\n"
        "class R:\n"
        "    plain: int = 0\n")
    # b, d, e; h; used; q
    assert settable_values(source) == 6


def test_settable_values_do_not_grow():
    count = sum(settable_values(p.read_text()) for p in SRC.glob("*.py"))
    assert count <= SETTABLE_VALUES


@pytest.mark.parametrize("path", PY310_FILES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parses_as_python_310(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "inner.py"],
                         ids=lambda p: p.name)
def test_inner_system_helpers_stay_in_inner(path):
    assert identifiers([ast.parse(path.read_text())]) & INNER_HELPERS == set()


def test_dense_solver_detector():
    source = ("import numpy as np\nimport scipy.linalg\n"
              "from numpy.linalg import pinv\nfrom scipy import linalg\n"
              "from .inner import cholesky_solve\n"
              "np.linalg.solve(a, b)\nnp.linalg.norm(a)\nnp.linalg.eigvalsh(a)\n"
              "scipy.linalg.lapack.dpotrf(a)\ncholesky_factor(a)\n")
    assert dense_solver_lookups(source) == [
        "cholesky_factor", "cholesky_solve", "np.linalg.solve",
        "numpy.linalg.pinv", "scipy.linalg", "scipy.linalg.lapack",
        "scipy.linalg.lapack.dpotrf"]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in ("inner.py", "baselines.py")],
    ids=lambda p: p.name)
def test_dense_solves_stay_in_inner_and_baselines(path):
    assert dense_solver_lookups(path.read_text()) == []


def test_imported_module_detector():
    source = ("import os.path\nimport numpy as np\n"
              "from concurrent.futures import ThreadPoolExecutor\n"
              "from . import linops\nfrom .trace import SolverTrace\n"
              "def f():\n    import threading\n")
    assert imported_modules(source) == ["concurrent", "numpy", "os",
                                        "threading"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_thread_or_process_pools(path):
    assert set(imported_modules(path.read_text())) & CONCURRENCY == set()
