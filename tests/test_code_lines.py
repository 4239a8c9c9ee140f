"""The code-line counter of benchmarks/code_lines.py on a hand-counted sample."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("code_lines", ROOT / "benchmarks" / "code_lines.py")
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# counted: the import, both lines of TEXT, the def, and the four lines
# of the call; not counted: both docstrings, comments and blank lines
SAMPLE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment

TEXT = """first
second"""


def f(x):
    """Function docstring."""
    # another comment
    return os.path.join(
        x,
        "y",
    )
'''


def test_code_lines_counts_the_hand_counted_sample():
    assert code_lines.code_lines(SAMPLE) == 8


def test_code_lines_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [
        ["1", str(tmp_path / "b.py")],
        ["8", str(tmp_path / "pkg" / "a.py")],
        ["9", "total"],
    ]
