"""``tools/mutate.py``, the single-token mutation probe, on a toy tree.

The tool is loaded by path, its ``ROOT`` pointed at a temporary tree and
its pytest runs stubbed, so no child process starts."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutate.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("mutate_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutants_come_from_the_copy_not_the_working_tree(tmp_path, monkeypatch, capsys):
    tree = tmp_path / "tree"
    for name in ("src", "tests", "perfbench"):
        (tree / name).mkdir(parents=True)
    for name in ("README.md", "pyproject.toml"):
        (tree / name).write_text("")
    (tree / "src" / "m.py").write_text("def f(x):\n    return x == 1\n")
    tool = _load_tool()
    monkeypatch.setattr(tool, "ROOT", tree)
    runs = []

    def passes(workdir, tests, timeout):
        if not runs:  # the working tree changes while the unmutated copy is tested
            (tree / "src" / "m.py").write_text("def f(x):\n    return x < 5 and x > 0\n")
        runs.append(workdir)
        return len(runs) == 1

    monkeypatch.setattr(tool, "_passes", passes)
    assert tool.main(["src/m.py:f", "--tests", "tests", "--copy", str(tmp_path / "copy")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "killed   src/m.py:2 f: Eq -> NotEq",
        "killed   src/m.py:2 f: 1 -> 2",
        "2 mutants, 0 survived",
    ]
    assert (tmp_path / "copy" / "src" / "m.py").read_text() == "def f(x):\n    return x == 1\n"
