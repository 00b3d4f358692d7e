"""Only poly.py knows how a packed integer is laid out in bytes: no other
module in src/widthk names to_bytes, from_bytes, array or _SLOT_CODES, so
every other module reads its packed rows back through poly's _unpack."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "widthk"
FORMAT_NAMES = {"to_bytes", "from_bytes", "array", "_SLOT_CODES"}


def _format_uses(sources: dict[str, str]) -> list[str]:
    # names read (x), attributes reached (obj.x), names imported and modules
    # imported from, in every module but poly.py
    uses = []
    for name, text in sources.items():
        if name == "poly.py":
            continue
        for node in ast.walk(ast.parse(text, filename=name)):
            if isinstance(node, ast.Name):
                found = node.id
            elif isinstance(node, ast.Attribute):
                found = node.attr
            elif isinstance(node, ast.alias):
                found = node.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom):
                found = (node.module or "").split(".")[0]
            else:
                continue
            if found in FORMAT_NAMES:
                uses.append(f"{name}:{node.lineno}: {found}")
    return list(dict.fromkeys(uses))  # `from array import array` names it twice


def test_only_poly_names_the_slot_format():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert {"poly.py", "perm.py", "genfun.py"} <= set(sources)
    assert _format_uses(sources) == []


def test_the_check_sees_the_slot_format_outside_poly():
    sources = {
        "poly.py": "from array import array\n_SLOT_CODES = {}\nx = (1).to_bytes(1, 'little')\n",
        "a.py": "from .poly import _SLOT_CODES, _unpack\nraw = n.to_bytes(4, 'little')\n",
        "b.py": "import array\nv = int.from_bytes(raw, 'little')\nw = _unpack(v, 8)\n",
        "c.py": "from array import typecodes\nfrom array import array as packed\n",
    }
    assert _format_uses(sources) == [
        "a.py:1: _SLOT_CODES",
        "a.py:2: to_bytes",
        "b.py:1: array",
        "b.py:2: from_bytes",
        "c.py:1: array",
        "c.py:2: array",
    ]
