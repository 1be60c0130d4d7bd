"""Package-wide structure checks."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qvampire"
# production code: the package and the benchmark, not the tests of either
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted(
    p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")
)


def _public_definitions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def _referenced_names(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_name_has_a_production_caller():
    defined = set().union(*(_public_definitions(p) for p in sorted(PACKAGE.glob("*.py"))))
    referenced = set().union(*(_referenced_names(p) for p in CALLERS))
    unused = sorted(defined - referenced)
    assert not unused, f"public names with no production caller: {unused}"


# what ``import qvampire`` adds to ``sys.modules`` beyond numpy and the package itself
IMPORT_MODULES = {
    "__future__", "_heapq", "_queue", "_string", "concurrent", "concurrent.futures",
    "concurrent.futures._base", "concurrent.futures.thread", "copy", "dataclasses",
    "heapq", "logging", "queue", "string", "traceback",
}


def test_import_loads_no_new_module():
    # the checked Gauss-Legendre rule loads at a scan's first thermal tile
    probe = (
        "import sys, numpy; before = set(sys.modules); import qvampire; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "numpy.polynomial" not in out
    assert "qvampire.blocktable" not in out
    extra = sorted(m for m in out if m.split(".")[0] != "qvampire" and m not in IMPORT_MODULES)
    assert not extra, f"import qvampire loads new modules: {extra}"
