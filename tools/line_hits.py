"""Statements of a Python package that no test executes.

    python3 tools/line_hits.py SRC_DIR

Runs pytest in-process in the current directory, with SRC_DIR first on
``sys.path``, under a line tracer (``sys.settrace`` and
``threading.settrace``) that starts before the package is imported, so its
module-level statements count too.  Only frames of files under SRC_DIR are
traced.  A statement counts as executed when a line event falls on one of
its lines, decorators included: a compound statement's body runs only after
its header, so a line of its body counts for it too.  Docstrings are not
statements.  Code that runs only in a child process is not seen.

Prints each statement under SRC_DIR that no test executed, in file and line
order, as ``<path relative to SRC_DIR>:<line> <source line>``, then
``<n> of <m> statements unexecuted``.  Exits with pytest's exit code.
Standard library plus pytest, and ``docstring_lines`` from
``code_lines.py`` beside it.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

from code_lines import docstring_lines


def statements(tree: ast.Module) -> dict:
    """``{first line: its lines}`` for each statement of ``tree`` but the
    docstrings (``code_lines.docstring_lines``), decorators included."""
    skip = docstring_lines(tree)
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and node.lineno not in skip:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            found[node.lineno] = set(range(first, node.end_lineno + 1))
    return found


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/line_hits.py SRC_DIR", file=sys.stderr)
        return 64
    root = Path(argv[0]).resolve()
    prefix = str(root) + "/"
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(root))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main([])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        executed = {line for name, line in hits if name == str(path)}
        for lineno, own in sorted(statements(ast.parse(text)).items()):
            total += 1
            if not own & executed:
                missed += 1
                print(f"{path.relative_to(root)}:{lineno} {lines[lineno - 1].strip()}")
    print(f"{missed} of {total} statements unexecuted")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
