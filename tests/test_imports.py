"""Every name that a package or test module imports is referenced in it.

The scan reads each module's syntax tree: a name bound by ``import`` or
``from ... import`` must appear as a name somewhere in the module.
``__init__.py`` files, which re-export, and ``__future__`` imports are
exempt.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src/fblbound", "tests")
                 for path in (ROOT / folder).glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source):
    """(line, name) of every imported name the module never references."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        for name in names:
            bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_reports_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from a import b as c, d\n"
              "import numpy as np\n"
              "x = d + np.pi\n")
    assert unused_imports(source) == [(2, "os"), (3, "c")]
