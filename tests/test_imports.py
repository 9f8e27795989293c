"""Start-up cost: importing gcruin loads numpy, not scipy's heavy submodules.

``scipy.integrate`` alone pulls in ``scipy.special``, ``scipy.optimize``,
``scipy.linalg`` and ``scipy.sparse``, several times the cost of the package
itself.  Quadrature imports it on first use (``measures._quad``), and the few
special functions import inside the functions that call them, so a run that
never integrates never pays for it.  Likewise ``concurrent.futures``, which
loads ``queue``, is imported by the first Monte Carlo call that runs its
chunks on a thread pool.  Each check runs in a fresh interpreter, because
this test session has long since imported all of them.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gcruin

SRC = Path(gcruin.__file__).resolve().parent
HEAVY = ("scipy.integrate", "scipy.special", "scipy.optimize", "scipy.linalg", "scipy.sparse",
         "concurrent.futures")

#: the README's max closed-form and walk examples, which integrate nothing
README_RUNS = {
    "max_closed_form": (["ruin", "--model", json.dumps({
        "algebra": {"kind": "max"},
        "claim_law": {"family": "uniform", "a": 0, "b": 1},
        "premium_law": {"family": "uniform", "a": 0, "b": 2}}), "--u", "0.5"], "ruin.csv"),
    "walk": (["walk", "--algebra", '{"kind": "kendall", "alpha": 1.0}',
              "--step-law", '{"family": "uniform", "a": 0, "b": 1}',
              "--n", "5", "--paths", "10000"], "walk.csv"),
}


def loaded_heavy_modules(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; the HEAVY modules it left loaded."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    probe = f"{code}\nimport json, sys\nprint(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    return json.loads(run.stdout.strip().splitlines()[-1])


def test_import_loads_no_heavy_scipy_submodule():
    assert loaded_heavy_modules("import gcruin, gcruin.cli") == []


@pytest.mark.parametrize("name", sorted(README_RUNS))
def test_readme_runs_without_quadrature_load_no_heavy_scipy_submodule(tmp_path, name):
    argv, data_file = README_RUNS[name]
    code = (f"from gcruin import cli\n"
            f"assert cli.main({['--out', str(tmp_path), *argv]!r}) == 0")
    assert loaded_heavy_modules(code) == []
    assert (tmp_path / data_file).is_file()


def module_level_nodes(tree: ast.Module):
    """Every node run at import: all but the bodies of functions and lambdas."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_scipy_submodule_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in module_level_nodes(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            found.append(f"line {node.lineno}: from {node.module} import ...")
        elif isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import {a.name}" for a in node.names
                      if a.name.startswith("scipy.")]
    assert found == []


def test_quad_is_called_only_inside_measures_quad():
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [f for f in ast.walk(tree)
                     if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and (
                    isinstance(func, ast.Attribute) and func.attr == "quad"
                    or isinstance(func, ast.Name) and func.id == "quad"):
                inside = [f.name for f in functions
                          if f.lineno <= node.lineno <= f.end_lineno]
                callers.add((path.name, inside[-1] if inside else None))
    assert callers == {("measures.py", "_quad")}
