import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

# 7 code lines: the docstrings, the comment lines and the blank lines do not
# count; both lines of the call and both of the string that is no docstring do
FIXTURE = '''"""Module docstring,
on two lines."""

import os  # a comment after code


def f(x):
    """Function docstring."""
    # a comment line
    return os.path.join(x,
                        "y")


class C:
    """Class docstring."""
    s = """not a docstring,
    on two lines"""
'''


def test_counts_the_fixture(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# only a comment\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    out = subprocess.run(
        [sys.executable, str(TOOL), "pkg"], cwd=tmp_path, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert [line.split() for line in out] == [
        ["7", str(Path("pkg") / "a.py")], ["1", str(Path("pkg") / "b.py")], ["8", "total"],
    ]
