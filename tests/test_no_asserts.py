"""Library code validates with checks that raise: ``python -O`` strips ``assert``."""
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
