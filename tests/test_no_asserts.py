"""Library code validates with checks that raise: ``python -O`` strips ``assert``.

Nor does it lift CPython's limit on int-to-text conversion: an exact result
too long to print is a usage error, not a reason to print megabytes.
"""
import ast
from pathlib import Path

import volkenborn

SOURCES = sorted(Path(volkenborn.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_keeps_the_int_to_text_limit():
    name = "set_int_max_str_digits"
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if getattr(node, "attr", None) == name
        or getattr(node, "id", None) == name
        or (isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names))
    ]
    assert found == []
