"""tools/line_hits.py on a fixture package with one untaken branch."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_hits.py"

# 5 statements: the decorator's import, the def with its decorator, the if
# and both returns; the docstrings are not statements
PACKAGE = '''"""A fixture package."""

import functools


@functools.cache
def sign(x):
    """The sign of x, 1 for zero."""
    if x < 0:
        return -1
    return 1
'''

TEST = '''from tiny import sign


def test_positive():
    assert sign(2) == 1
'''


def test_names_exactly_the_untaken_branch(tmp_path):
    (tmp_path / "src" / "tiny").mkdir(parents=True)
    (tmp_path / "src" / "tiny" / "__init__.py").write_text(PACKAGE)
    (tmp_path / "test_tiny.py").write_text(TEST)
    done = subprocess.run([sys.executable, str(TOOL), "src"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-2:] == ["tiny/__init__.py:10 return -1", "1 of 5 statements unexecuted"]


def test_usage():
    done = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 64 and done.stderr.startswith("usage:")
