"""Every name a package module imports is used in that module."""

import ast
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
