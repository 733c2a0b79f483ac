"""Code lines per module of a Python source tree.

    python3 tools/code_lines.py SRC_DIR

Counts, in every ``*.py`` file under SRC_DIR, the non-blank lines that lie
outside module, class and function docstrings and are not full-line
comments: the count CHANGES.md and ROADMAP.md quote for ``src/embedlab``.
A docstring is the string literal that opens a module, class or function
body; every line it spans is left out.  Other string literals, and code
lines that end in a comment, count.

Prints one line per module, largest first (ties by path), as
``<count> <path relative to SRC_DIR>``, then ``<total> total``.  Standard
library only.
"""

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers spanned by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """Non-blank lines of ``text`` outside docstrings and full-line comments."""
    skip = docstring_lines(ast.parse(text))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), start=1)
        if number not in skip and line.strip() and not line.lstrip().startswith("#")
    )


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/code_lines.py SRC_DIR", file=sys.stderr)
        return 64
    root = Path(argv[0])
    counts = {str(path.relative_to(root)): code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(root.rglob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{count} {name}")
    print(f"{sum(counts.values())} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
