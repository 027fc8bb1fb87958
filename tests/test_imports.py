"""Every name that a package or test module imports is referenced in it,
every private helper of the package is referenced somewhere, and no
package module reads the process environment.

The scans read the modules' syntax trees.  A name bound by ``import`` or
``from ... import`` must appear as a name somewhere in its module;
``__init__.py`` files, which re-export, and ``__future__`` imports are
exempt.  A module-level function, class or constant of ``src/fblbound``
whose name starts with one underscore must be read by some module under
``src/`` or ``tests/``: as a name, an attribute, an imported name or a
string equal to it (``monkeypatch.setattr(module, "_NAME", ...)``); a
bare name counts only in the defining module, since elsewhere it names
that module's own binding.  Dunders are exempt.  Importing the CLI
leaves ``numpy.random``, ``statistics`` and ``random`` unloaded.
"""

import ast
import functools
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src/fblbound", "tests")
                 for path in (ROOT / folder).glob("*.py")
                 if path.name != "__init__.py")
PACKAGE = sorted((ROOT / "src/fblbound").glob("*.py"))


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


def environment_reads(source):
    """(line, name) of every read of the process environment: the
    attributes ``environ``, ``getenv`` and ``putenv`` of ``os``, and those
    names imported from ``os``."""
    names = {"environ", "getenv", "putenv"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"os.{a.name}") for a in node.names
                      if a.name in names]
    return sorted(found)


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_package_reads_no_environment(path):
    # settings such as the decoding thread count are not environment knobs
    assert environment_reads(path.read_text()) == []


def test_environment_scan_reports_reads():
    source = ("import os\n"
              "from os import getenv, path\n"
              "a = os.environ.get('X')\n"
              "b = os.getenv('Y')\n"
              "os.putenv('Z', '1')\n"
              "c = os.path.join('a')\n")
    assert environment_reads(source) == [
        (2, "os.getenv"), (3, "os.environ"), (4, "os.getenv"),
        (5, "os.putenv")]


def test_scan_reports_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from a import b as c, d\n"
              "import numpy as np\n"
              "x = d + np.pi\n")
    assert unused_imports(source) == [(2, "os"), (3, "c")]


def private_definitions(source):
    """(line, name) of every module-level function, class or constant
    whose name starts with one underscore."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


def references(source):
    """(names the module reads, names it may read from another module): the
    second are attributes, imported names and whole-string constants."""
    own, shared = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            own.add(node.id)
        elif isinstance(node, ast.Attribute):
            shared.add(node.attr)
        elif isinstance(node, ast.alias):
            shared.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            shared.add(node.value)
    return own, shared


@functools.cache
def shared_references():
    return set().union(*(references(p.read_text())[1]
                         for p in PACKAGE + MODULES))


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unreferenced_private_helpers(path):
    source = path.read_text()
    refs = references(source)[0] | shared_references()
    assert [(line, name) for line, name in private_definitions(source)
            if name not in refs] == []


def test_private_scan_reports_unreferenced_names():
    source = ("_CAP = 3\n"
              "_USED: int = 4\n"
              "__all__ = ['f']\n"
              "def _helper():\n"
              "    return _USED\n"
              "def _patched():\n"
              "    pass\n"
              "class _Spare:\n"
              "    pass\n"
              "x = setattr(m, '_patched', 0)\n")
    found = private_definitions(source)
    assert found == [(1, "_CAP"), (2, "_USED"), (4, "_helper"),
                     (6, "_patched"), (8, "_Spare")]
    own, shared = references(source)
    assert [name for _, name in found if name not in own | shared] == [
        "_CAP", "_helper", "_Spare"]
    assert references("import m\nfrom m import _a\nm._b\n_c\n") == (
        {"m", "_c"}, {"m", "_a", "_b"})


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random takes 12-16 ms to import; commands that draw nothing
    # do not pay for it, nor for statistics (``fbl.q_inv``), which loads
    # random.  Counted are the modules the import adds: a site hook may
    # load random at interpreter start
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", "import sys; before = set(sys.modules); "
         "import fblbound.cli; print(*(m in set(sys.modules) - before "
         "for m in ('numpy', 'numpy.random', 'statistics', 'random')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True", "False", "False", "False"]
