"""Every private helper in src/widthk has a caller in the package: each
module-level function and class method named with a single leading
underscore is referenced somewhere in src/widthk outside its own def, so no
helper lives on for the tests alone."""

import ast
import collections
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "widthk"


def _private_defs(tree: ast.Module):
    # module-level functions and class methods named _x (not __x)
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in members:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if fn.name.startswith("_") and not fn.name.startswith("__"):
                    yield fn


def _references(tree: ast.AST) -> collections.Counter:
    # names read (x) and attributes reached (obj.x); an import is no use
    uses = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
    return uses


def _unused(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    uses = sum((_references(tree) for tree in trees.values()), collections.Counter())
    unused = []
    for name, tree in trees.items():
        for fn in _private_defs(tree):
            if uses[fn.name] == _references(fn)[fn.name]:
                unused.append(f"{name}:{fn.lineno}: {fn.name}")
    return unused


def test_every_private_helper_has_a_caller_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert "perm.py" in sources
    assert _unused(sources) == []


def test_the_check_sees_an_unused_helper():
    sources = {
        "a.py": (
            "from b import _imported\n"
            "def _used(x):\n    return x\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "def _imported():\n    pass\n"
            "class C:\n"
            "    def _method(self):\n        return self._other()\n"
            "    def _other(self):\n        pass\n"
            "    def __init__(self):\n        pass\n"
            "def public():\n    return _used(1)\n"
        ),
        "b.py": "def _imported():\n    pass\n",
    }
    assert _unused(sources) == [
        "a.py:4: _recursive",
        "a.py:6: _imported",
        "a.py:9: _method",
        "b.py:1: _imported",
    ]
