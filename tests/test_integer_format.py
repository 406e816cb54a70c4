"""The integer-coefficient format of linear-factor products stays inside ``polynomials``.

``linear_product`` returns bare int lists and ``int_poly`` scales them into a
``Polynomial``; every other module asks ``polynomials`` for the finished
polynomial instead of working out that scale by hand.
"""
import ast
from pathlib import Path

import volkenborn

SOURCES = sorted(Path(volkenborn.__file__).parent.glob("*.py"))
INTEGER_FORMAT = {"linear_product", "int_poly"}


def _names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def test_only_polynomials_names_the_integer_format():
    assert any(path.name == "polynomials.py" for path in SOURCES)
    found = [
        f"{path.name}:{lineno} {name}"
        for path in SOURCES
        if path.name != "polynomials.py"
        for name, lineno in _names(ast.parse(path.read_text(), filename=str(path)))
        if name in INTEGER_FORMAT
    ]
    assert found == []
