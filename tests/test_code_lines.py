"""tools/code_lines.py on a fixture tree."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

# 6 code lines: the module, class and function docstrings, the full-line
# comments and the blank lines do not count; a string that is not a
# docstring and a line that ends in a comment do
FIXTURE = '''"""Module docstring
over two lines."""

# a full-line comment
import math  # a trailing comment


class Box:
    """Class docstring."""

    size = 2

    def area(self):
        """Function
        docstring."""
        text = """not a docstring"""
            # an indented comment
        return math.pi * self.size
'''


def run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=60)


def test_counts_code_lines_per_module_and_in_total(tmp_path):
    (tmp_path / "box.py").write_text(FIXTURE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "empty.py").write_text('"""Only a docstring."""\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    done = run(str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["6 box.py", f"0 {Path('pkg') / 'empty.py'}", "6 total"]


def test_needs_one_source_directory():
    done = run()
    assert done.returncode == 64 and not done.stdout
    assert "code_lines.py SRC_DIR" in done.stderr
