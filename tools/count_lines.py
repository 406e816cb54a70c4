"""Print the line count and the code-line count of each module of the package.

The line count is what ``wc -l`` prints (newline characters).  A code line
is a line holding a token other than a comment, a docstring or layout
(line breaks and indentation); a token that spans lines, such as a
triple-quoted string that is not a docstring, counts on every line it
spans.  Usage::

    python tools/count_lines.py [package-directory]

The directory defaults to ``src/volkenborn`` beside this script's parent.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """The (line, column) where each module, class or function docstring begins."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(path: Path) -> tuple[int, int]:
    """(newline count, code-line count) of one source file."""
    source = path.read_text(encoding="utf-8")
    docstrings = docstring_starts(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "volkenborn"
    rows = [(path.stem, *count(path)) for path in sorted(package.glob("*.py"))]
    print(f"{'module':<12} {'lines':>6} {'code':>6}")
    for name, lines, code in sorted(rows, key=lambda row: -row[1]):
        print(f"{name:<12} {lines:>6} {code:>6}")
    print(f"{'total':<12} {sum(r[1] for r in rows):>6} {sum(r[2] for r in rows):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
