"""Package-wide structure checks."""

import ast
import builtins
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    """The names a module reads, not those it only binds: loaded names,
    attribute names and imported names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


def _private_definitions(path):
    """The private functions and classes, and the upper-case constants, that a
    module defines at its top level; dunder names are Python's to call."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper())
    return {name for name in names if name.isupper() or name.startswith("_")
            and not name.startswith("__")}


def test_every_private_name_and_constant_has_a_package_caller():
    # a helper or constant only the tests read belongs in the tests: the
    # refinement check blocktable's bound replaced, its binomial rows and
    # their chunk size live there as oracles, and must not drift back
    read = set().union(*(_referenced_names(p) for p in sorted(PACKAGE.glob("*.py"))))
    unread = sorted(
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _private_definitions(path) - read
    )
    assert not unread, f"private names and constants no package code reads: {unread}"
    assert {"_ellipse_arcs", "_log_error_bound", "TABLE_TOL"} <= _private_definitions(
        PACKAGE / "blocktable.py"
    )


def _caught_names(path):
    """The names (and attribute names) in the ``except`` clauses of a module."""
    return {
        getattr(node, "id", None) or getattr(node, "attr", None)
        for handler in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None
        for node in ast.walk(handler.type)
    }


def test_every_error_type_is_told_apart_by_production_code():
    # a type that no handler catches by name is only a message of QVampireError
    from qvampire import errors

    caught = set().union(*(_caught_names(p) for p in CALLERS))
    untold = sorted(
        name for name in _public_definitions(PACKAGE / "errors.py")
        if not issubclass(getattr(errors, name), Warning) and name not in caught
    )
    assert not untold, f"error types no production code catches: {untold}"


def _builtin_exception(name):
    kind = getattr(builtins, name or "", None)
    return kind if isinstance(kind, type) and issubclass(kind, BaseException) else None


def _stray_raises(node, caught=frozenset()):
    """The built-in exceptions raised under ``node`` outside the body of a ``try`` of
    the same function that catches them, as ``(line, name)``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        # Python's attribute lookup catches a module __getattr__'s AttributeError
        caught = {"AttributeError"} if getattr(node, "name", "") == "__getattr__" else set()
    if isinstance(node, ast.Raise) and node.exc is not None:
        raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        kind = _builtin_exception(getattr(raised, "id", None))
        if kind and not any(issubclass(kind, _builtin_exception(name)) for name in caught):
            yield node.lineno, raised.id
    for field, value in ast.iter_fields(node):
        inner = caught
        if isinstance(node, ast.Try) and field == "body":
            inner = caught | {
                name.id for handler in node.handlers if handler.type is not None
                for name in ast.walk(handler.type)
                if isinstance(name, ast.Name) and _builtin_exception(name.id)
            }
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _stray_raises(child, inner)


def test_a_builtin_exception_is_raised_only_to_a_handler_of_its_function():
    # every refusal is a QVampireError, which cli.main prints; a built-in type is
    # raised only where the same function catches it, as read_value does
    stray = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _stray_raises(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not stray, f"built-in exceptions raised to the caller: {stray}"


def test_cli_leaves_the_verdicts_to_analysis_and_verify():
    # cli parses and writes: analysis.analyze and verify.sweep decide
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    reached = {
        (getattr(node.value, "attr", None) or getattr(node.value, "id", None), node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    assert {attr for module, attr in reached if module == "analysis"} == {"analyze"}
    assert not reached & {("verify", "regional_subtraction"), ("fock", "fidelity")}
    assert "analysis" not in _package_imports(PACKAGE / "cli.py")
    assert "parse_region_spec" not in _referenced_names(PACKAGE / "cli.py")


def _package_imports(path):
    """The sibling modules a package module imports (``from .x`` or ``from . import x``)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module else (a.name for a in node.names))
    return names


def test_monte_carlo_side_never_imports_the_fock_engine():
    # the scan, its analysis and the analytic profile stand without the exact engine
    for name in ("spatial", "montecarlo", "blocktable", "analysis", "config"):
        reached, todo = set(), [name]
        while todo:
            new = _package_imports(PACKAGE / f"{todo.pop()}.py") - reached
            reached |= new
            todo.extend(new)
        assert not reached & {"fock", "verify"}, f"{name} reaches {sorted(reached)}"



def test_blocktable_imports_no_sibling_but_errors():
    # the rule check needs no scan setting, so montecarlo's lazy import of it
    # cannot close a cycle
    assert _package_imports(PACKAGE / "blocktable.py") == {"errors"}


def _modules_after(code):
    """The modules a fresh interpreter holds once ``code`` has run."""
    probe = f"import sys; {code}; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(out.splitlines()[-1].split())


def test_import_loads_no_new_module():
    # each submodule loads on first access, so a command pays only for what it runs
    added = _modules_after("import numpy, qvampire") - _modules_after("import numpy")
    assert added == {"qvampire"}


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# a full-rank, non-diagonal state of order 29, whose eigh is large enough for
# OpenBLAS to hand to a second thread
MIXED_STATE = (
    "from qvampire import fock; fock.DensityMatrix(0.5 * (fock.make_thermal(1.0, 28).elements"
    " + fock.make_coherent(1.0, 28).elements))"
)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc")
@pytest.mark.parametrize("first, preset, changed", [
    ("import qvampire", {}, {"OPENBLAS_NUM_THREADS": "1"}),
    ("import qvampire", {"OMP_NUM_THREADS": "2"}, {}),
    ("import numpy, qvampire", {}, {}),
])
def test_import_runs_openblas_on_one_thread_unless_told_otherwise(first, preset, changed):
    # the package's matrices are too small to share, so a second BLAS thread
    # would only spin; a count the process set, or a numpy loaded first, stays
    probe = (
        f"import json, os; given = dict(os.environ); {first}; {MIXED_STATE}; "
        "keys = given.keys() | os.environ.keys(); "
        "print(json.dumps([{k: os.environ.get(k) for k in keys if given.get(k) != os.environ.get(k)},"
        " len(os.listdir('/proc/self/task'))]))"
    )
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    got, threads = json.loads(out)
    assert got == changed
    if changed and os.cpu_count() >= 2:
        assert threads == 1


def test_submodules_load_no_new_library_module():
    # all six documented submodules: numpy.polynomial and blocktable load at a
    # scan's first thermal tile, and no draw pool loads concurrent.futures
    names = ("analysis", "errors", "fock", "montecarlo", "spatial", "verify")
    imports = ", ".join(f"qvampire.{name}" for name in names)
    added = _modules_after(f"import numpy, {imports}") - _modules_after("import numpy")
    assert not added & {"numpy.polynomial", "qvampire.blocktable"}
    extra = sorted(m for m in added if m.split(".")[0] != "qvampire")
    assert set(extra) <= {"__future__", "copy", "dataclasses"}, extra


def test_submodule_loads_on_first_access():
    # only the six documented submodules load by attribute; other names raise
    loaded = _modules_after(
        "import qvampire; assert qvampire.fock.make_thermal(1.0, 40).dim > 0; "
        "assert not hasattr(qvampire, 'nope') and not hasattr(qvampire, 'config')"
    )
    package = {m for m in loaded if m.split(".")[0] == "qvampire"}
    assert package == {"qvampire", "qvampire.errors", "qvampire.fock"}


def test_verify_command_loads_no_scan_side_module(tmp_path):
    # verify reads no config and checks no quadrature rule
    argv = ["verify", "--out", str(tmp_path), "--states", "fock:1", "--ca", "0.5", "--r", "0.1"]
    loaded = _modules_after(f"from qvampire import cli; assert cli.main({argv!r}) == 0")
    unwanted = {"qvampire.config", "qvampire.blocktable", "numpy.polynomial", "secrets"}
    unwanted |= {"qvampire.montecarlo", "qvampire.spatial", "qvampire.analysis"}
    assert not loaded & unwanted, sorted(loaded & unwanted)
    package = {m for m in loaded if m.split(".")[0] == "qvampire"}
    expected = {"cli", "csvio", "errors", "fock", "verify"}
    assert package == {"qvampire"} | {f"qvampire.{m}" for m in expected}


SMALL_SCAN = (
    "scenario=subtraction\ngrid.width=16\ngrid.height=12\nprofile.kind=uniform_ellipse\n"
    "profile.rx=7\nprofile.ry=5\nmask.region=rect:5,4,5,4\nmask.herald_target=0.013\n"
    "scan.superpixel=4\nscan.dwell=0.00012\nscan.seed=5\n"
)


def test_thermal_scan_loads_no_polynomial_module(tmp_path):
    # blocktable computes its Gauss-Legendre base rule without numpy.polynomial
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(SMALL_SCAN)
    argv = ["scan", "--config", str(cfg), "--out", str(tmp_path / "out")]
    loaded = _modules_after(f"from qvampire import cli; assert cli.main({argv!r}) == 0")
    assert "qvampire.blocktable" in loaded
    assert not [m for m in loaded if m.startswith("numpy.polynomial")]


def test_thermal_scan_and_its_analyze_call_no_lapack(tmp_path, monkeypatch):
    # each base rule is found by Newton's method, not an eigensolver, and the
    # rule caches start empty, so the scan builds its rule here
    import numpy as np
    from functools import lru_cache

    from qvampire import blocktable, cli

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, lambda *a, _name=name, **k: pytest.fail(_name))
    for name in ("_gauss_legendre", "_panel_rule"):
        monkeypatch.setattr(blocktable, name, lru_cache(getattr(blocktable, name).__wrapped__))
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(SMALL_SCAN)
    assert cli.main(["scan", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    scan = str(tmp_path / "out" / "scan.csv")
    assert cli.main(["analyze", "--scan", scan, "--out", str(tmp_path / "rep")]) == 0


def test_config_loads_no_hash_module():
    # a seedless scan draws its seed from os.urandom
    loaded = _modules_after("import qvampire.config")
    unwanted = {"secrets", "hmac", "hashlib", "_hashlib"}
    assert not loaded & unwanted, sorted(loaded & unwanted)


def test_scan_and_analyze_load_no_fock_engine(tmp_path):
    # the Monte Carlo commands run without the exact engine, each in its own process
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(SMALL_SCAN)
    commands = (
        ["scan", "--config", str(cfg), "--out", str(tmp_path / "out")],
        ["analyze", "--scan", str(tmp_path / "out" / "scan.csv"), "--out", str(tmp_path / "rep")],
    )
    for argv in commands:
        loaded = _modules_after(f"from qvampire import cli; assert cli.main({argv!r}) == 0")
        assert {"qvampire.montecarlo", "qvampire.spatial"} <= loaded
        assert not loaded & {"qvampire.fock", "qvampire.verify"}, argv[0]



@pytest.mark.parametrize("workload", ["scan_desk", "scan_full", "verify_sweep"])
def test_traced_benchmark_worker_runs(tmp_path, workload):
    # the traced worker calls the package's functions and reads its results by
    # name, so a renamed name would otherwise fail only when the benchmark runs
    result = tmp_path / "result.json"
    argv = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
            "--seed", "1", "--mode", "traced", "--src", str(PACKAGE.parent),
            "--out", str(tmp_path / "out"), "--result", str(result)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(result.read_text(encoding="utf-8"))
    assert res["exit_codes"] and not any(res["exit_codes"])
    assert res["check"]["failed"] == 0, res["check"]["problems"]


# a small scan, and per config key a value that must change its scan.csv; a
# profile key of another kind than the default names that kind
CONFIG_BASE = {
    "scenario": "subtraction", "grid.width": "16", "grid.height": "12",
    "mask.region": "rect:4,3,8,6", "scan.superpixel": "4", "scan.dwell": "1.2e-05",
    "scan.seed": "1",
}
CONFIG_CHANGES = {
    "scenario": "initial",
    "grid.width": "20",
    "grid.height": "16",
    "profile.kind": "gaussian",
    "profile.cx": "5",
    "profile.cy": "4",
    "profile.rx": "4",
    "profile.ry": "3",
    "profile.ring_gain": "3",
    "profile.sigma_x": ("2", "gaussian"),
    "profile.sigma_y": ("2", "gaussian"),
    "mask.region": "rect:0,0,8,6",
    "mask.contrast": "0.9",
    "mask.herald_target": "0.05",
    "source.nbar": "2",
    "source.kind": "coherent",
    "source.coherence_time": "2e-07",
    "scan.superpixel": "3",
    "scan.dwell": "6e-06",
    "scan.seed": "2",
    "detector.bin_width": "2.4e-08",
    "detector.herald.efficiency": "0.3",
    "detector.herald.dark_prob": "0.01",
    "detector.camera.efficiency": "0.3",
    "detector.camera.dark_prob": "0.01",
}
# checked and echoed, but a scan draws on the calling thread at any thread count and
# the dwell's whole bins at any cap; ROADMAP item 2 deletes both keys
SAME_SCAN_KEYS = {"scan.threads": "4", "scan.bins_cap": "500"}


def test_every_config_key_changes_a_scan(tmp_path):
    from qvampire import config, montecarlo as mc

    def scan_csv(cfg):
        scenario = config.build_scenario(cfg)
        path = tmp_path / "scan.csv"
        mc.save_scan_csv(path, mc.run_scan(scenario.source, scenario.scan))
        return path.read_bytes()

    assert set(config.DEFAULTS) - set(SAME_SCAN_KEYS) == set(CONFIG_CHANGES)
    kinds = ("uniform_ellipse_with_ring", "gaussian")
    bases = {kind: {**CONFIG_BASE, "profile.kind": kind} for kind in kinds}
    scans = {kind: scan_csv(base) for kind, base in bases.items()}
    for key, change in CONFIG_CHANGES.items():
        value, kind = change if isinstance(change, tuple) else (change, kinds[0])
        assert scan_csv({**bases[kind], key: value}) != scans[kind], key
    for key, value in SAME_SCAN_KEYS.items():  # a key that regains an effect leaves the set
        assert scan_csv({**bases[kinds[0]], key: value}) == scans[kinds[0]], key
