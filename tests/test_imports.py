"""Imports: importing fklab stays light (scipy.integrate and scipy.optimize,
which together cost about a quarter of a second at start-up, are never
loaded, nor is scipy.sparse), no fklab module names scipy.sparse or its
ARPACK solver at all, so LAPACK's tridiagonal solve stays the one
eigen-solver, no fklab module imports a name it does not use, and fklab
exports nothing that only the tests read."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import fklab


def test_import_leaves_out_integrate_and_optimize():
    src = str(Path(fklab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, fklab; print([m for m in ('scipy.integrate', "
            "'scipy.optimize', 'scipy.sparse', 'scipy.sparse.linalg') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_second_eigen_solver():
    # a lazy import inside a function escapes the check above, which sees
    # only what `import fklab` loads, so read the sources
    named = sorted((path.name, word) for path in Path(fklab.__file__).parent.glob("*.py")
                   for word in ("scipy.sparse", "eigsh", "ArpackError")
                   if word in path.read_text())
    assert named == []


def _unused_imports(source: str) -> list:
    """Names a module imports but never reads, from its syntax tree."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    assert _unused_imports("import os\nfrom math import pi, tau\nprint(os.sep, tau)\n") \
        == [(2, "pi")]
    # __init__ imports the public names in order to re-export them
    unused = {path.name: _unused_imports(path.read_text())
              for path in sorted(Path(fklab.__file__).parent.glob("*.py"))
              if path.name != "__init__.py"}
    assert {k: v for k, v in unused.items() if v} == {}


def _reads_outside_definitions(source: str) -> set:
    """Names a module reads, as a bare name or an attribute, leaving out the
    reads inside the top-level statement that defines that same name."""
    read = set()
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            own = {stmt.name}
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            own = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        else:
            own = set()
        read |= {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
                 if isinstance(n, (ast.Name, ast.Attribute))} - own
    return read


def test_no_export_is_test_only():
    # f's call of itself is not a read of f; g is read by the last line
    assert _reads_outside_definitions(
        "def f(n):\n    return f(n - 1)\n\ndef g():\n    return m.h\n\ng()\n") \
        == {"n", "m", "h", "g"}
    package = Path(fklab.__file__).parent
    root = package.parents[1]
    exported = [alias.asname or alias.name
                for node in ast.parse((package / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    sources = [*(p for p in package.glob("*.py") if p.name != "__init__.py"),
               *root.glob("demos/*.py"), *root.glob("perfbench/*.py")]
    read = set().union(*(_reads_outside_definitions(p.read_text()) for p in sources))
    assert sorted(set(exported) - read) == []
