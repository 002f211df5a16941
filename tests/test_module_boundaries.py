"""No module of the package reads another module's private names."""

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
