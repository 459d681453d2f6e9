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


def _toy_tree(tmp_path, source: str) -> Path:
    """A tree with everything the tool copies and ``src/m.py`` holding ``source``."""
    tree = tmp_path / "tree"
    for name in ("src", "tests", "perfbench"):
        (tree / name).mkdir(parents=True)
    for name in ("README.md", "pyproject.toml"):
        (tree / name).write_text("")
    (tree / "src" / "m.py").write_text(source)
    return tree


def test_mutants_come_from_the_copy_not_the_working_tree(tmp_path, monkeypatch, capsys):
    tree = _toy_tree(tmp_path, "def f(x):\n    return x == 1\n")
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


def test_a_bare_file_target_mutates_every_function_and_method(tmp_path, monkeypatch, capsys):
    """``FILE`` with no function mutates each site of every module-level
    function and method, nested functions within their enclosing one, and
    names the function on each line; module-level code is left alone."""
    tree = _toy_tree(
        tmp_path,
        "LIMIT = 3\n"
        "def f(x):\n"
        "    def g(y):\n"
        "        return not y\n"
        "    return g(x)\n"
        "class C:\n"
        "    SIZE = 4\n"
        "    def h(self, x):\n"
        "        return x in self or x is None\n"
        "def k(x):\n"
        "    return x < 2\n"
    )
    tool = _load_tool()
    monkeypatch.setattr(tool, "ROOT", tree)
    outcomes = iter([True, False, True, False, False, False, False, False, False])  # the unmutated copy, then each mutant
    monkeypatch.setattr(tool, "_passes", lambda workdir, tests, timeout: next(outcomes))
    assert tool.main(["src/m.py", "src/m.py:k", "--tests", "tests", "--copy", str(tmp_path / "copy")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "killed   src/m.py:4 f: drop not",
        "SURVIVED src/m.py:9 C.h: Or -> And",
        "killed   src/m.py:9 C.h: In -> NotIn",
        "killed   src/m.py:9 C.h: Is -> IsNot",
        "killed   src/m.py:11 k: Lt -> GtE",
        "killed   src/m.py:11 k: 2 -> 3",
        "killed   src/m.py:11 k: Lt -> GtE",  # src/m.py:k, as before
        "killed   src/m.py:11 k: 2 -> 3",
        "8 mutants, 1 survived",
    ]
    assert next(outcomes, None) is None
