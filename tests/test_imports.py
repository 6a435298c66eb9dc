"""Every name a package module imports is used in that module, every
function, class and method the package defines is used by the package, the
package runs on numpy alone, and the exact commands start without numpy."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from gsdyn.cli import main

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


# Definitions no package code references, each kept for a stated reason.
USED_OUTSIDE = {
    "jets.faa_di_bruno_identity_sum": "the identity an acceptance criterion checks",
    "seminorms.SeminormSpec.describe": "called by perfbench/workloads.py",
    "weights.gevrey_index": "called by perfbench/tracing.py for each young_conjugate call",
}


def unreferenced_definitions(sources):
    """The top-level functions, classes and UPPER_CASE constants, and the
    methods of top-level classes, of `sources` (module name -> source) whose
    name no code in `sources` uses outside the definition's own body.  Dunder
    methods are called implicitly and are not checked; assigning a name does
    not use it."""
    defined, refs = [], {}

    def visit(module, node, owners):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                qual = owners + (child.name,)
                top = not owners or (len(owners) == 1 and isinstance(node, ast.ClassDef))
                if top and not (child.name.startswith("__") and child.name.endswith("__")):
                    defined.append((module, qual))
                visit(module, child, qual)
                continue
            if not owners and isinstance(child, (ast.Assign, ast.AnnAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                defined.extend(
                    (module, (t.id,)) for t in targets if isinstance(t, ast.Name) and t.id.isupper()
                )
            if isinstance(child, ast.Attribute) or (
                isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store)
            ):
                name = child.id if isinstance(child, ast.Name) else child.attr
                refs.setdefault(name, []).append((module, owners))
            visit(module, child, owners)

    for module, source in sources.items():
        visit(module, ast.parse(source), ())
    return sorted(
        ".".join((module,) + qual)
        for module, qual in defined
        if all(m == module and owners[: len(qual)] == qual for m, owners in refs.get(qual[-1], []))
    )


def test_checker_flags_an_unreferenced_definition():
    src = (
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "class A:\n    def __init__(self):\n        self.x = used()\n\n"
        "    def helper(self):\n        return 0\n\n"
        "    def entry(self):\n        return self.helper()\n"
    )
    assert unreferenced_definitions({"mod": src}) == ["mod.A", "mod.A.entry", "mod.recursive"]
    user = "import mod\nmod.A().entry()\n"
    assert unreferenced_definitions({"mod": src, "user": user}) == ["mod.recursive"]


def test_checker_flags_an_unread_constant():
    src = (
        "READ = 1\nUNREAD = READ + 1\n_PRIVATE: int = 2\nlower = 3\n\n"
        "def f():\n    return READ\n\nf()\n"
    )
    assert unreferenced_definitions({"mod": src}) == ["mod.UNREAD", "mod._PRIVATE"]
    user = "import mod\nprint(mod.UNREAD)\n"
    assert unreferenced_definitions({"mod": src, "user": user}) == ["mod._PRIVATE"]


def test_package_code_uses_every_definition():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_definitions(sources) == sorted(USED_OUTSIDE)


def family_dispatch(source: str):
    """Lines of `source` that call isinstance with Gevrey or LogPower."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            names = {getattr(n, "id", getattr(n, "attr", None)) for a in node.args for n in ast.walk(a)}
            if names & {"Gevrey", "LogPower"}:
                lines.append(node.lineno)
    return lines


def test_only_weights_knows_the_families():
    # a family's formulas are methods of its class, so no other module tests the class
    src = "isinstance(w, Gevrey)\nisinstance(w, (int, weights.LogPower))\nisinstance(w, Weight)\n"
    assert family_dispatch(src) == [1, 2]
    found = {
        p.name: lines
        for p in sorted(SRC.glob("*.py"))
        if p.name != "weights.py" and (lines := family_dispatch(p.read_text()))
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


EXACT_COMMANDS = [
    ["conjugate", "--weight", "gevrey:2", "--x", "1", "--check"],
    ["weight-check", "--weight", "logpow:2"],  # reaches the log-power S(a)
    ["poly", "iterate", "--psi", "0,0,1", "--m", "3"],
    ["poly", "fixed-points", "--psi", "0,0,1"],
    ["poly", "normal-form", "--psi", "3,2"],
]


def test_exact_commands_load_no_numpy(capsys):
    seminorm = ["--format", "json", "seminorm", "--model", "gauss:1", "--weight", "gevrey:2"]
    code = (
        "import contextlib, io, json, sys\n"
        "from gsdyn.cli import main\n"
        "runs = [('numpy' in sys.modules, 0, '')]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        code = main(argv)\n"
        "    runs.append(('numpy' in sys.modules, code, out.getvalue()))\n"
        "print(json.dumps(runs))\n"
    )
    argvs = json.dumps(EXACT_COMMANDS + [seminorm])
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    r = subprocess.run(
        [sys.executable, "-c", code, argvs], capture_output=True, text=True, env=env, timeout=120
    )
    assert r.returncode == 0, r.stderr
    runs = json.loads(r.stdout)
    # after the import and each exact command: no numpy; the seminorm loads it
    assert [(loaded, rc) for loaded, rc, _ in runs] == [(False, 0)] * 6 + [(True, 0)]
    # and reports what a process that had numpy from the start reports
    assert main(seminorm) == 0
    assert runs[-1][2] == capsys.readouterr().out
