"""The package's sparse kernels are gathers and sums over a short slot axis
(``linalg.SparseSym``): nothing in it calls ``reduceat``, whose scalar loop
over every short row those kernels replace."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "nirb"


def reduceat_uses(tree):
    """Line numbers of ``reduceat`` attributes of any ufunc and of the
    string ``"reduceat"`` (as ``getattr`` would take it) in a parsed module;
    docstrings and comments that mention it are not code and do not
    count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "reduceat":
            yield node.lineno
        elif isinstance(node, ast.Constant) and node.value == "reduceat":
            yield node.lineno


@pytest.mark.parametrize("source, caught", [
    ("import numpy as np\ny = np.add.reduceat(x, starts)\n", True),
    ("from numpy import add\ny = add.reduceat(x, starts, axis=1)\n", True),
    ("import numpy as np\nf = np.maximum.reduceat\n", True),
    ("import numpy as np\nf = getattr(np.add, 'reduceat')\n", True),
    ("import numpy as np\ny = np.add.reduce(x, axis=-2)\n", False),
    ('"""No np.add.reduceat here."""\n# nor reduceat\nx = 1\n', False),
])
def test_scan_catches(source, caught):
    assert bool(list(reduceat_uses(ast.parse(source)))) == caught


def test_package_never_calls_reduceat():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {f"{path.name}:{line}"
             for path in files
             for line in reduceat_uses(ast.parse(path.read_text("utf-8")))}
    assert not found, f"reduceat used at {sorted(found)}"
