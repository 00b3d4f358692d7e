"""Every function in src/widthk that calls itself has a known bound on its
depth: a recursion whose depth grows with n raises RecursionError near
Python's default limit of 1000 frames, so such a function is written as a
loop.  A self call is a call of the function's own name, bare or through
self or cls, anywhere in its body."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "widthk"

# "module:function" -> what bounds the depth of its recursion
ALLOWED = {
    "cli.py:_emit_kv_rows": "the nesting of the CLI's own output data",
    "perm.py:_embeds": "the length of the pattern",
    "perm.py:extend": "n, which the enumeration cap bounds",
}


def _self_callers(name: str, source: str) -> list[str]:
    tree = ast.parse(source, filename=name)
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            bare = isinstance(f, ast.Name) and f.id == fn.name
            bound = (
                isinstance(f, ast.Attribute)
                and f.attr == fn.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")
            )
            if bare or bound:
                found.append(f"{name}:{fn.name}")
                break
    return found


def test_every_self_calling_function_has_a_bound():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _self_callers(path.name, path.read_text())
    assert sorted(found) == sorted(ALLOWED)


def test_the_check_sees_a_self_call():
    source = (
        "def loop(n):\n    return sum(range(n))\n"
        "def rows(n):\n    return [] if n == 0 else rows(n - 1) + [n]\n"
        "class C:\n"
        "    def walk(self, n):\n        return n and self.walk(n - 1)\n"
        "    def __new__(cls):\n        return super().__new__(cls)\n"
        "def outer(n):\n"
        "    def inner(m):\n        return inner(m - 1)\n"
        "    return inner(n)\n"
    )
    assert _self_callers("a.py", source) == ["a.py:rows", "a.py:walk", "a.py:inner"]
