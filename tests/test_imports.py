"""Static scans of the package source.

Every name a module imports is read somewhere in it, no module imports a
sibling inside a function, every tolerance below 1e-6 is named: a field
of config.Tolerances or a module constant, and only operators.py calls
numpy.linalg.eigh or eigvalsh, so every spectrum takes one path.  Only the
projected Newton loop and the saddle step solve a KKT system, so every
simplex descent takes one loop, and every trial point of a Newton step is
projected in geometry, through the one product-of-simplices layout.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "avcqc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Imported names that the module never reads and does not list in __all__."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        (line, name) for name, line in imported.items() if name not in read | exported
    )


def test_scan_flags_an_unused_import():
    src = "import os\nfrom numpy import array, zeros\n__all__ = ['zeros']\nos.sep\n"
    assert unused_imports(src) == [(2, "array")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def function_level_imports(source):
    """(line, module) of package imports made inside a function body."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "avcqc"
            ):
                found.add((node.lineno, "." * node.level + (node.module or "")))
            elif isinstance(node, ast.Import):
                found.update((node.lineno, a.name) for a in node.names
                             if a.name.split(".")[0] == "avcqc")
    return sorted(found)


def test_scan_flags_a_function_level_import():
    src = ("from .config import Caps\nimport numpy\n"
           "def f():\n    from .channels import Avcqc\n    import json\n"
           "    def g():\n        import avcqc.coding\n")
    assert function_level_imports(src) == [(4, ".channels"), (7, "avcqc.coding")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_sibling_imports(path):
    assert function_level_imports(path.read_text()) == []


def bare_tolerances(source):
    """(line, value) of float literals in (0, 1e-6) outside module-level assignments."""
    tree = ast.parse(source)
    named = {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for node in ast.walk(stmt)
    }
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) < 1e-6
        and id(node) not in named
    )


def test_scan_flags_a_bare_tolerance():
    src = "_EPS = 1e-9\ndef f(x, tol=1e-12):\n    return x > _EPS + 1e-6 + 5e-7\n"
    assert bare_tolerances(src) == [(2, 1e-12), (3, 5e-7)]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "config.py"], ids=lambda p: p.name
)
def test_no_bare_tolerances(path):
    assert bare_tolerances(path.read_text()) == []


def lapack_spectra(source):
    """(line, name) of numpy.linalg.eigh / eigvalsh references, as attributes or imports."""
    names = {"eigh", "eigvalsh"}
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
            found.add((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found.update((node.lineno, a.name) for a in node.names if a.name in names)
    return sorted(found)


def test_scan_flags_a_lapack_spectrum():
    src = ("import numpy as np\nfrom numpy.linalg import eigvalsh, norm\n"
           "w, v = np.linalg.eigh(a)\nnp.linalg.norm(a)\nnumpy.linalg.eigvalsh(a)\n")
    assert lapack_spectra(src) == [(2, "eigvalsh"), (3, "eigh"), (5, "eigvalsh")]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "operators.py"], ids=lambda p: p.name
)
def test_spectra_go_through_operators(path):
    assert lapack_spectra(path.read_text()) == []


def referrers(source, name):
    """Top-level definitions (or "<module>") that refer to name, by name or attribute."""
    found = set()
    for stmt in ast.parse(source).body:
        owner = getattr(stmt, "name", "<module>")
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Name) and node.id == name) or (
                    isinstance(node, ast.Attribute) and node.attr == name):
                found.add(owner)
    return sorted(found)


def test_scan_flags_a_kkt_solve():
    src = ("from .geometry import _solve_kkt\nimport avcqc.geometry as g\n"
           "def f():\n    return _solve_kkt\nclass C:\n    def m(self):\n        g._solve_kkt()\n"
           "def _solve_kkt():\n    pass\nx = _solve_kkt\n")
    assert referrers(src, "_solve_kkt") == ["<module>", "C", "f"]


def test_one_loop_solves_the_kkt_systems():
    callers = {(p.stem, name) for p in MODULES for name in referrers(p.read_text(), "_solve_kkt")}
    assert callers == {("geometry", "_projected_newton"), ("capacity", "_saddle_direction")}


def test_simplex_projections_stay_in_geometry():
    # a Newton trial point is projected by geometry._Simplices; outside
    # geometry only the saddle step's hold bound projects, p + d_x alone
    callers = {(p.stem, name) for p in MODULES
               for name in referrers(p.read_text(), "project_simplex_rows")}
    assert {c for c in callers if c[0] != "geometry"} == {("capacity", "_saddle_direction")}
