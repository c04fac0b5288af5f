"""Count the lines of code in each module of src/fungrasp.

A line holds code when a token other than a comment, a line break or an
indent sits on it. Docstrings (a string statement that opens a module,
a class or a function) do not count, nor do comments and blank lines; a
statement spread over several lines counts each line it covers that
holds a token.

    python3 scripts/code_lines.py            # one line per module, then the total
    python3 scripts/code_lines.py FILE ...   # the same for the named files
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fungrasp"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or sorted(PACKAGE.glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
