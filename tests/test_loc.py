"""``tools/loc.py``: code lines, counting no blank, comment or docstring
line."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOC = ROOT / "tools" / "loc.py"

# 7 code lines: the import, the class and def lines, the two lines of the
# return statement and the two of the string that is no docstring
FIXTURE = '''"""A module docstring
on two lines."""
import os

# a comment


class A:
    """A class docstring."""

    def f(self, x):
        """A function
        docstring."""
        return (x +  # a comment after code
                1)

    s = """a string, not
a docstring"""
'''


def run(*args):
    return subprocess.run([sys.executable, str(LOC), *map(str, args)], check=True,
                          capture_output=True, text=True).stdout.splitlines()


def test_fixture(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert run(path) == ["     7  fixture.py", "     7  total"]


def test_every_module_of_the_package_by_default():
    lines = run()
    modules = sorted(f"sphfan/{p.name}" for p in (ROOT / "src" / "sphfan").glob("*.py"))
    assert [line.split()[1] for line in lines[:-1]] == modules
    assert int(lines[-1].split()[0]) == sum(int(line.split()[0]) for line in lines[:-1])
