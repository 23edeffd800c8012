"""Scans of the package source.  The package's sparse kernels are gathers
and sums over a short slot axis (``linalg.SparseSym``): nothing in it calls
``reduceat``, whose scalar loop over every short row those kernels replace.
And every module-level function and class is reached from the package
itself or exported in ``nirb.__all__``, not only from the tests."""

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


def definitions_and_references(trees):
    """Module-level functions and classes of parsed modules, {name: "module:
    line"}, and the set of names the modules refer to: loaded names,
    attribute names and imported names.  A definition's own body does not
    count as a reference to it, so a function that only calls itself is
    still unreferenced."""
    defined, referred = {}, set()
    for module, tree in trees.items():
        for top in tree.body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                owner = top.name
                defined[owner] = f"{module}:{top.lineno}"
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != owner:
                    referred.add(name)
    return defined, referred


def orphans(trees, exported):
    defined, referred = definitions_and_references(trees)
    return sorted(where for name, where in defined.items()
                  if name not in referred and name not in exported)


@pytest.mark.parametrize("sources, exported, found", [
    ({"a": "def f():\n    pass\n"}, (), ["a:1"]),
    ({"a": "def f():\n    pass\n"}, ("f",), []),
    ({"a": "def f():\n    return f()\n"}, (), ["a:1"]),
    ({"a": "def f():\n    pass\n", "b": "from a import f\n"}, (), []),
    ({"a": "def f():\n    pass\n", "b": "import a\ng = a.f\n"}, (), []),
    ({"a": "class C:\n    pass\n\n\ndef g():\n    return C()\n"}, (),
     ["a:5"]),
])
def test_orphan_scan_catches(sources, exported, found):
    trees = {name: ast.parse(text) for name, text in sources.items()}
    assert orphans(trees, exported) == found


def test_every_function_is_reached_from_the_package():
    # a function or class that only tests reach is dead code
    import nirb

    trees = {path.stem: ast.parse(path.read_text("utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert trees
    found = orphans(trees, nirb.__all__)
    assert not found, f"defined but never referenced in the package: {found}"
