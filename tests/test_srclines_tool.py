"""``tools/srclines.py``, the code-line count ``src/`` is measured by, on a
small file: docstrings, comments and blank lines do not count, and a
string or bracket that spans lines counts each line that holds code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "srclines.py"
SOURCE = '''"""A module docstring,
over two lines."""

# a comment


class A:
    """A class docstring."""

    x = """a string
that is code"""  # a trailing comment

    def f(self):
        """A function docstring."""
        return [
            1,  # inside a bracket
            # a comment line inside a bracket

            2,
        ]
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("srclines_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blank_lines(tmp_path, capsys):
    tool = _load_tool()
    assert tool.code_lines(SOURCE) == 8  # class, x's two lines, def, return, 1, 2 and ]
    assert tool.code_lines("") == 0
    (tmp_path / "m.py").write_text(SOURCE)
    (tmp_path / "n.py").write_text("x = 1\n\n")
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "file              code  lines",
        "m.py                 8     20",
        "n.py                 1      2",
        "total                9     22",
    ]
