"""No module of the package imports a name it never uses or imports inside
a function, and no private helper is left that nothing calls.

A stdlib stand-in for a linter's unused-import rule: every name bound by an
import statement must be read somewhere in the module, or be listed in its
``__all__`` (the package's re-exports).  Every import sits at module level,
so a module's dependencies are all in its header.  The dead-helper guard
asks the same of module-level private functions, classes and constants,
across the whole package.  No module uses a bare ``assert`` either:
``python -O`` strips them, and the package's own checks must hold in
every mode.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "theta_selmer"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {elt.value for elt in node.value.elts}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"line {line}: {name}"
        for name, line in bound.items()
        if name not in read and name not in exported
    )


def test_detector_flags_an_unused_import():
    src = "import os\nimport sys\nfrom math import pi, tau\n__all__ = ['tau']\nprint(sys)\n"
    assert unused_imports(src) == ["line 1: os", "line 3: pi"]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def function_imports(source: str) -> list[str]:
    """Import statements anywhere inside a function body."""
    return sorted(
        f"line {node.lineno}: {func.name}"
        for func in ast.walk(ast.parse(source))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )


def test_detector_flags_a_function_import():
    src = (
        "import os\n"
        "def f():\n    import math\n    return math.pi\n"
        "class C:\n    def g(self):\n        for _ in ():\n            from . import x\n"
        "def h():\n    return os.sep\n"
    )
    assert function_imports(src) == ["line 3: f", "line 8: g"]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name
)
def test_no_function_local_imports(path):
    assert function_imports(path.read_text()) == []


def module_level_names(node) -> list[str]:
    """The names a module-level statement defines: a def or class, or the
    plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [
        elt.id
        for target in targets
        for elt in (target.elts if isinstance(target, ast.Tuple) else [target])
        if isinstance(elt, ast.Name)
    ]


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level private defs, classes and constants that no module
    references.

    ``sources`` maps module names to their text.  A name counts as
    referenced when it is read, looked up as an attribute or imported
    anywhere in the package, its own module included; binding it is not
    a reference.
    """
    trees = {name: ast.parse(src) for name, src in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return sorted(
        f"{name}.{defined}"
        for name, tree in trees.items()
        for node in tree.body
        for defined in module_level_names(node)
        if defined.startswith("_")
        and not defined.startswith("__")
        and defined not in referenced
    )


def test_detector_flags_a_dead_helper():
    sources = {
        "a": "def _used(): pass\ndef _dead(): pass\nclass _Gone: pass\ndef public(): pass\n",
        "b": "from .a import _used\nimport a\nprint(a._Gone)\n",
        "c": "def _local(): pass\ndef f(): return _local()\n",
    }
    assert dead_helpers(sources) == ["a._dead"]


def test_detector_flags_a_dead_constant():
    sources = {
        "a": "_USED = 1\n_DEAD = 2\n_PAIR, _LOST = 3, 4\n_TYPED: int = 5\n__all__ = []\n",
        "b": "from .a import _USED\nimport a\nprint(a._PAIR)\n",
        "c": "_LOCAL = {}\ndef f(): return _LOCAL\n_STORED = 0\n_STORED += 1\n",
    }
    assert dead_helpers(sources) == ["a._DEAD", "a._LOST", "a._TYPED", "c._STORED"]


def test_no_dead_private_helpers():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert dead_helpers(sources) == []


def bare_asserts(source: str) -> list[str]:
    """The assert statements of a module, which python -O strips."""
    lines = sorted(node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Assert))
    return [f"line {line}" for line in lines]


def test_detector_flags_a_bare_assert():
    src = (
        "def f(x):\n    assert x, 'x'\n    if not x:\n        raise AssertionError('x')\n"
        "class C:\n    def g(self):\n        for _ in ():\n            assert self\n"
        "assert f\n"
    )
    assert bare_asserts(src) == ["line 2", "line 8", "line 9"]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name
)
def test_no_bare_asserts(path):
    assert bare_asserts(path.read_text()) == []
