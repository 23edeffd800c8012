"""The package uses numpy core only: no module reaches numpy.linalg,
every import is from the standard library, numpy or the package itself,
nothing imports pickle or lets numpy unpickle, nothing writes the
process environment or names a BLAS thread variable, and every name the
package exports exists and is on a pinned list."""

import ast
import re
import sys
from pathlib import Path

import pytest

import nirb

SRC = Path(__file__).resolve().parents[1] / "src" / "nirb"


def linalg_uses(tree):
    """Line numbers of ``np.linalg`` / ``numpy.linalg`` attributes and of
    imports of ``numpy.linalg`` in a parsed module (docstrings and comments
    are not code and do not count)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg" \
                and isinstance(node.value, ast.Name) \
                and node.value.id in ("np", "numpy"):
            yield node.lineno
        elif isinstance(node, ast.Import) and any(
                a.name.startswith("numpy.linalg") for a in node.names):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.startswith("numpy.linalg")
                or (node.module == "numpy"
                    and any(a.name == "linalg" for a in node.names))):
            yield node.lineno


@pytest.mark.parametrize("source", [
    "import numpy as np\nx = np.linalg.solve(a, b)\n",
    "import numpy\nx = numpy.linalg.norm(v)\n",
    "from numpy import linalg\n",
    "from numpy.linalg import eigh\n",
    "import numpy.linalg as la\n",
])
def test_scan_catches(source):
    assert list(linalg_uses(ast.parse(source)))


def test_package_uses_numpy_core_only():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {f"{path.name}:{line}"
             for path in files
             for line in linalg_uses(ast.parse(path.read_text("utf-8")))}
    assert not found, f"numpy.linalg used at {sorted(found)}"


ALLOWED_ROOTS = set(sys.stdlib_module_names) | {"numpy", "nirb"}


def foreign_imports(tree):
    """(line, module) of every import whose top-level package is neither in
    the standard library, nor numpy, nor nirb; relative imports count as
    the package's own."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.split(".")[0] not in ALLOWED_ROOTS:
                yield node.lineno, name


@pytest.mark.parametrize("source, caught", [
    ("import scipy\n", True),
    ("from scipy.linalg import eigh\n", True),
    ("import numba as nb\n", True),
    ("import os, struct\nfrom dataclasses import dataclass\n", False),
    ("import numpy as np\nfrom nirb.linalg import sym_eig\n", False),
    ("from . import io\n", False),
])
def test_import_scan(source, caught):
    assert bool(list(foreign_imports(ast.parse(source)))) == caught


def test_package_adds_no_dependencies():
    found = {f"{path.name}:{line} {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in foreign_imports(ast.parse(path.read_text("utf-8")))}
    assert not found, f"imports outside stdlib, numpy and nirb: {sorted(found)}"


def pickle_uses(tree):
    """Line numbers of imports of ``pickle`` and of ``allow_pickle=``
    keywords whose value is anything but the constant False."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
                a.name.split(".")[0] == "pickle" for a in node.names):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "pickle":
            yield node.lineno
        elif isinstance(node, ast.keyword) and node.arg == "allow_pickle" \
                and not (isinstance(node.value, ast.Constant)
                         and node.value.value is False):
            yield node.value.lineno


@pytest.mark.parametrize("source, caught", [
    ("import pickle\n", True),
    ("import pickle as pk\n", True),
    ("from pickle import loads\n", True),
    ("np.load(path, allow_pickle=True)\n", True),
    ("np.load(path, allow_pickle=flag)\n", True),
    ("np.save(fh, a, allow_pickle=True)\n", True),
    ("np.load(path, allow_pickle=False)\n", False),
    ("np.load(path)\nimport pickletools_like\n", False),
])
def test_pickle_scan(source, caught):
    assert bool(list(pickle_uses(ast.parse(source)))) == caught


def test_package_never_pickles():
    found = {f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py"))
             for line in pickle_uses(ast.parse(path.read_text("utf-8")))}
    assert not found, f"pickle used at {sorted(found)}"


THREAD_VARS = re.compile(r"\b(OPENBLAS|OMP|MKL)_NUM_THREADS\b")
ENV_MUTATORS = {"update", "setdefault", "pop", "popitem", "clear",
                "__setitem__", "__delitem__"}


def _is_os_environ(node):
    return isinstance(node, ast.Attribute) and node.attr == "environ" \
        and isinstance(node.value, ast.Name) and node.value.id == "os"


def environment_writes(tree):
    """Line numbers where a parsed module writes the process environment:
    stores to, deletes from or mutating calls on ``os.environ``, calls of
    ``os.putenv``/``os.unsetenv``, and imports of those names from ``os``,
    which would hide such writes from this scan."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_os_environ(node.value) \
                and isinstance(node.ctx, (ast.Store, ast.Del)):
            yield node.lineno
        elif _is_os_environ(node) and isinstance(node.ctx, ast.Store):
            yield node.lineno
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) and (
                    (node.func.attr in ENV_MUTATORS
                     and _is_os_environ(node.func.value))
                    or (node.func.attr in ("putenv", "unsetenv")
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "os")):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os" \
                and any(a.name in ("environ", "putenv", "unsetenv")
                        for a in node.names):
            yield node.lineno


@pytest.mark.parametrize("source, caught", [
    ("import os\nos.environ['OPENBLAS_NUM_THREADS'] = '1'\n", True),
    ("import os\nos.environ['X'] = '1'\n", True),
    ("import os\ndel os.environ['X']\n", True),
    ("import os\nos.environ.update(X='1')\n", True),
    ("import os\nos.environ.setdefault('X', '1')\n", True),
    ("import os\nos.putenv('X', '1')\n", True),
    ("import os\nos.environ = {}\n", True),
    ("from os import environ\n", True),
    ("import os\nx = os.environ.get('X')\n", False),
    ("import os\nx = os.environ['X']\n", False),
    ("import os\nos.makedirs(path, exist_ok=True)\n", False),
])
def test_environment_scan(source, caught):
    assert bool(list(environment_writes(ast.parse(source)))) == caught


@pytest.mark.parametrize("text, caught", [
    ("x = 'OPENBLAS_NUM_THREADS'\n", True),
    ("# set OMP_NUM_THREADS first\n", True),
    ("limits = {'MKL_NUM_THREADS': 1}\n", True),
    ("# OpenBLAS runs small products on one thread\n", False),
])
def test_thread_variable_scan(text, caught):
    assert bool(THREAD_VARS.search(text)) == caught


def test_package_leaves_threading_to_the_environment():
    # the BLAS thread count is the caller's to set; the package keeps its
    # products small enough to stay on one thread instead
    found = set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text("utf-8")
        found |= {f"{path.name}:{line}"
                  for line in environment_writes(ast.parse(text))}
        found |= {f"{path.name}:{text.count(chr(10), 0, m.start()) + 1}"
                  for m in THREAD_VARS.finditer(text)}
    assert not found, f"environment or thread variables at {sorted(found)}"


def test_every_exported_name_resolves():
    # a deletion that leaves its name in __all__ would otherwise only
    # show as a failing star import
    assert [name for name in nirb.__all__ if not hasattr(nirb, name)] == []


# the public names, sorted: removing or adding one changes this list, so a
# change to the package's surface is made here on purpose
PUBLIC = [
    "AnalyticReference", "BrusselatorProblem", "Discretization",
    "ErrorReport", "FieldTrajectory", "OfflineArtifacts", "OnlineResult",
    "RectificationTensor", "ReducedBasis", "StudyConfig", "TimeGrid",
    "TriMesh", "apply_rectification", "assemble", "brusselator_trajectory",
    "build_rectification", "build_structured", "convergence_study",
    "discretize", "evaluate_errors", "heat_backward_euler",
    "heat_crank_nicolson", "interpolate_field", "leave_one_out",
    "load_config", "manufactured_f", "manufactured_u", "norms", "offline",
    "online", "pod", "solve_coarse", "solve_fine",
]


def test_exported_names_are_pinned():
    assert sorted(nirb.__all__) == PUBLIC
    assert len(set(nirb.__all__)) == len(nirb.__all__)
