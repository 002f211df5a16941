"""Module boundaries: no module of the package reads another module's
private names, none imports numpy when it is imported, and none calls
BLAS or LAPACK."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "coalesce"
MODULES = sorted(PACKAGE.glob("*.py"))
SIBLINGS = {path.stem for path in MODULES} - {"__init__"}


def private(name):
    return name.startswith("_") and not name.startswith("__")


def sibling_of(node):
    """The sibling module an ``import from`` statement names, else None."""
    if node.level == 1:
        return node.module
    if node.level == 0 and (node.module or "").startswith("coalesce."):
        return node.module.split(".", 1)[1]
    return None


def violations(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = sibling_of(node)
            for alias in node.names:
                if module in SIBLINGS and private(alias.name):
                    found.append(f"line {node.lineno}: from .{module} "
                                 f"import {alias.name}")
        elif (isinstance(node, ast.Attribute) and private(node.attr)
              and isinstance(node.value, ast.Name)
              and node.value.id in SIBLINGS - {path.stem}):
            found.append(f"line {node.lineno}: "
                         f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_reads_across_modules(path):
    assert violations(path) == []


def test_checker_flags_both_forms(tmp_path):
    source = tmp_path / "cli.py"
    source.write_text("from . import experiments\n"
                      "from .spectrum import _grid_maxima, find_peaks\n"
                      "experiments._track(1)\n"
                      "experiments.run_fig1_spectra()\n"
                      "self._cache = 1\n", encoding="utf-8")
    assert violations(source) == [
        "line 2: from .spectrum import _grid_maxima",
        "line 3: experiments._track",
    ]


def import_time_imports(path):
    """(line, module) of each import run when ``path`` is imported.

    Those are the import statements outside every function body; class
    bodies and top-level ``if``/``try`` blocks run at import time.
    """
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend((child.lineno, alias.name)
                             for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append((child.lineno, child.module))
            visit(child)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    return found


def numpy_imports(path):
    return [f"line {line}: {module}"
            for line, module in import_time_imports(path)
            if module.split(".")[0] == "numpy"]


def test_all_nine_modules_checked():
    assert len(MODULES) == 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numpy_at_import(path):
    # numpy is imported inside the functions that build arrays
    assert numpy_imports(path) == []


def test_numpy_checker_skips_only_function_bodies(tmp_path):
    source = tmp_path / "spectrum.py"
    source.write_text("import math\n"
                      "import numpy as np\n"
                      "from numpy import linalg\n"
                      "try:\n"
                      "    import numpy.fft\n"
                      "except ImportError:\n"
                      "    pass\n"
                      "class Grid:\n"
                      "    import numpy\n"
                      "    def build(self):\n"
                      "        import numpy as np\n"
                      "def scan():\n"
                      "    from numpy import linspace\n", encoding="utf-8")
    assert numpy_imports(source) == [
        "line 2: numpy",
        "line 3: numpy",
        "line 5: numpy.fft",
        "line 9: numpy",
    ]


# numpy's BLAS and LAPACK entry points.  With none of them called, a CLI
# process loses nothing by starting OpenBLAS with one thread (cli.run).
BLAS_NAMES = {"linalg", "dot", "vdot", "inner", "outer", "matmul", "einsum",
              "tensordot"}


def blas_uses(path):
    """The ``@`` products and BLAS/LAPACK names in ``path``, by line."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                   filename=str(path))):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, "." + node.attr))
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            found.extend((node.lineno, f"import {name}") for name in names
                         if BLAS_NAMES & set(name.split(".")))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_blas_or_lapack_calls(path):
    assert blas_uses(path) == []


def test_blas_checker_flags_every_form(tmp_path):
    source = tmp_path / "spectrum.py"
    source.write_text("import numpy as np\n"
                      "import numpy.linalg\n"
                      "from numpy import dot, sum\n"
                      "from numpy.linalg import norm\n"
                      "a = np.linalg.solve(m, v)\n"
                      "b = m @ v\n"
                      "m @= v\n"
                      "c = np.einsum('ij,j', m, v) * np.sum(v)\n"
                      "d = outer(a, b) + a * b\n"
                      "inner_width = np.vdot(a, b)\n", encoding="utf-8")
    assert blas_uses(source) == [
        "line 2: import numpy.linalg",
        "line 3: import dot",
        "line 4: import numpy.linalg",
        "line 5: .linalg",
        "line 6: @",
        "line 7: @",
        "line 8: .einsum",
        "line 9: outer",
        "line 10: .vdot",
    ]
