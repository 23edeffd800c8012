"""Scans of the package source.  The package's sparse kernels are gathers
and sums over a short slot axis (``linalg.SparseSym``): nothing in it calls
``reduceat``, whose scalar loop over every short row those kernels replace.
And every module-level function and class is reached from the package
itself or exported in ``nirb.__all__``, not only from the tests; every
method and property of those classes is too, or is reached from the
benchmark scripts (``benchmarks/*.py``, read and not changed).  The
problem of a study is read in one place, the registry
``models.problem_of``, no march is chosen by a ``scheme`` name, and one
function, ``pipeline._sweep``, forks worker processes."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nirb"
BENCH = ROOT / "benchmarks"


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


def names_in(node, owners=()):
    """The names that ``node`` refers to, loaded names, attribute names and
    imported names, except those in ``owners``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, ast.alias):
            name = sub.name
        else:
            continue
        if name not in owners:
            yield name


def definitions_and_references(trees):
    """Module-level functions and classes of parsed modules and the methods
    and properties of those classes, {"module:line": name} each, and the
    set of names the modules refer to.  A definition's own body does not
    count as a reference to it, so a function or method that only calls
    itself is still unreferenced.  Dunder methods are called by Python, not
    by name, and are not listed."""
    defined, members, referred = {}, {}, set()
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for module, tree in trees.items():
        for top in tree.body:
            if not isinstance(top, defs + (ast.ClassDef,)):
                referred.update(names_in(top))
                continue
            defined[f"{module}:{top.lineno}"] = top.name
            parts = [top]
            if isinstance(top, ast.ClassDef):
                parts = ast.iter_child_nodes(top)
            for node in parts:
                owners = {top.name}
                if node is not top and isinstance(node, defs):
                    owners.add(node.name)
                    if not (node.name.startswith("__")
                            and node.name.endswith("__")):
                        members[f"{module}:{node.lineno}"] = node.name
                referred.update(names_in(node, owners))
    return defined, members, referred


def orphans(trees, exported, outside=frozenset()):
    """Where the unreferenced, unexported definitions of ``trees`` are; a
    method or property also counts as referenced when a name in
    ``outside`` (the names another code base refers to) is its own."""
    defined, members, referred = definitions_and_references(trees)
    found = [where for where, name in defined.items()
             if name not in referred and name not in exported]
    found += [where for where, name in members.items()
              if name not in referred | outside and name not in exported]
    return sorted(found)


@pytest.mark.parametrize("sources, exported, found", [
    ({"a": "def f():\n    pass\n"}, (), ["a:1"]),
    ({"a": "def f():\n    pass\n"}, ("f",), []),
    ({"a": "def f():\n    return f()\n"}, (), ["a:1"]),
    ({"a": "def f():\n    pass\n", "b": "from a import f\n"}, (), []),
    ({"a": "def f():\n    pass\n", "b": "import a\ng = a.f\n"}, (), []),
    ({"a": "class C:\n    pass\n\n\ndef g():\n    return C()\n"}, (),
     ["a:5"]),
    ({"a": "class C:\n    def m(self):\n        return self.m()\n\n\n"
           "x = C()\n"}, (), ["a:2"]),
    ({"a": "class C:\n    @property\n    def m(self):\n        pass\n"
           "\n\nx = C().m\n"}, (), []),
    ({"a": "class C:\n    def __init__(self):\n        pass\n\n\n"
           "x = C()\n"}, (), []),
])
def test_orphan_scan_catches(sources, exported, found):
    trees = {name: ast.parse(text) for name, text in sources.items()}
    assert orphans(trees, exported) == found


def test_a_member_reached_from_outside_is_kept():
    trees = {"a": ast.parse("class C:\n    def m(self):\n        pass\n\n\n"
                            "x = C()\n")}
    assert orphans(trees, (), {"m"}) == []


def test_every_function_is_reached_from_the_package():
    # a function, class, method or property that only tests reach is dead
    # code; a method or property may also be reached from the benchmark
    import nirb

    trees = {path.stem: ast.parse(path.read_text("utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert trees
    bench = set()
    for path in sorted(BENCH.glob("*.py")):
        bench.update(names_in(ast.parse(path.read_text("utf-8"))))
    assert bench
    found = orphans(trees, nirb.__all__, bench)
    assert not found, f"defined but never referenced in the package: {found}"


def sites(tree, module, hit):
    """Where in a parsed module the nodes lie for which ``hit(node)``
    holds: "module.function" of the innermost function around each, or
    "module" for one outside any function."""
    found = set()
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if hit(child):
                found.add(where)
            inner = where
            if isinstance(child, defs):
                inner = f"{module}.{getattr(child, 'name', '<lambda>')}"
            visit(child, inner)

    visit(tree, module)
    return found


def problem_readers(tree, module):
    """Where a parsed module reads the attribute ``problem`` (or names it
    as a string, as ``getattr`` would take it), by ``sites``."""
    return sites(tree, module, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "problem"
        and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Constant) and node.value == "problem"))


def fork_callers(tree, module):
    """Where a parsed module calls ``fork``, as ``os.fork()`` or, imported
    by name, ``fork()``, by ``sites``; naming it otherwise, as
    ``hasattr(os, "fork")`` does, is not a call."""
    return sites(tree, module, lambda node: (
        isinstance(node, ast.Call)
        and (isinstance(node.func, ast.Attribute) and node.func.attr == "fork"
             or isinstance(node.func, ast.Name) and node.func.id == "fork")))


def scheme_parameters(tree):
    """Line numbers of the parameters named ``scheme`` in a parsed
    module."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.arg) and node.arg == "scheme"]


@pytest.mark.parametrize("source, found", [
    ("def f(config):\n    return config.problem\n", {"m.f"}),
    ("def f(config):\n    return config.problem == 'heat'\n", {"m.f"}),
    ("def f(config):\n    return getattr(config, 'problem')\n", {"m.f"}),
    ("class C:\n    def g(self):\n        return self.problem\n",
     {"m.g"}),
    ("def f(c):\n    return [lambda: c.problem]\n", {"m.<lambda>"}),
    ("x = config.problem\n", {"m"}),
    ("def f(config):\n    config.problem = 'heat'\n", set()),
    ("def f(config):\n    return models.problem_of(config)\n", set()),
    ('def f():\n    """The problem."""\n    problem = 1\n', set()),
])
def test_problem_scan_catches(source, found):
    assert problem_readers(ast.parse(source), "m") == found


@pytest.mark.parametrize("source, caught", [
    ("def f(forms, scheme='newton'):\n    pass\n", True),
    ("def f(*, scheme):\n    pass\n", True),
    ("g = lambda scheme: scheme\n", True),
    ("def f(step):\n    scheme = step\n", False),
])
def test_scheme_scan_catches(source, caught):
    assert bool(scheme_parameters(ast.parse(source))) == caught


@pytest.mark.parametrize("source, found", [
    ("import os\ndef f():\n    return os.fork()\n", {"m.f"}),
    ("from os import fork\ndef f():\n    pid = fork()\n", {"m.f"}),
    ("import os\ndef f():\n    os.fork()\n\n\ndef g():\n    os.fork()\n",
     {"m.f", "m.g"}),
    ("import os\ndef f():\n    def child():\n        os.fork()\n",
     {"m.child"}),
    ("import os\npid = os.fork()\n", {"m"}),
    ("import os\ndef f():\n    return hasattr(os, 'fork')\n", set()),
    ('def f():\n    """Calls os.fork()."""\n', set()),
])
def test_fork_scan_catches(source, found):
    assert fork_callers(ast.parse(source), "m") == found


def test_one_function_forks():
    # every worker process comes from one sweep, which owns the queue,
    # the shared records, the reaping and the cleanup on every path
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= fork_callers(ast.parse(path.read_text("utf-8")), path.stem)
    assert found == {"pipeline._sweep"}


def test_one_function_reads_the_problem_name():
    # every choice between the problems goes through the registry, so a
    # new problem or a changed one touches ``models`` alone
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= problem_readers(ast.parse(path.read_text("utf-8")),
                                 path.stem)
    assert found == {"models.problem_of"}


def test_no_function_takes_a_scheme():
    # a march takes its step function, not the name of one
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in scheme_parameters(ast.parse(path.read_text("utf-8")))]
    assert not found, f"scheme parameters at {found}"
