"""Every name a package module imports is used in that module, and the
package runs on numpy alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gsdyn"


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


def test_checker_flags_an_unused_name():
    src = "import math\nimport os.path\nfrom typing import List, Dict\nx: List[int] = os.sep\n"
    assert unused_imports(src) == [(1, "math"), (3, "Dict")]


def test_package_has_no_unused_imports():
    found = {
        path.name: unused
        for path in sorted(SRC.glob("*.py"))
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}


def imported_roots(source: str):
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_does_not_import_scipy():
    assert imported_roots("import scipy.integrate\nfrom os import sep\n") == {"scipy", "os"}
    found = [
        p.name for p in sorted(SRC.glob("*.py")) if "scipy" in imported_roots(p.read_text())
    ]
    assert found == []


def test_cli_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = (
        "import sys, gsdyn.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
