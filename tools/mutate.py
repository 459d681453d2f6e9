"""Single-token mutation probe: change one token of a function and see
whether the tests notice.

    python tools/mutate.py --copy /tmp/mutants \\
        src/sumgraph/codes.py:decide_total_perfect_code \\
        src/sumgraph/graphs.py:_sum_graphs \\
        --tests tests/test_codes.py tests/test_graphs.py

Each target is ``FILE:FUNCTION`` (a module-level function, or a method as
``FILE:Class.method``), or a bare ``FILE``, which stands for every
module-level function and every method of a module-level class in it, in
file order; each output line names the function its site lies in.  Sites
at module level, such as a constant, are not mutated.  The mutants of a
function are:

* each comparison operator flipped (``==``/``!=``, ``<``/``>=``,
  ``>``/``<=``, ``in``/``not in``, ``is``/``is not``);
* each ``and`` made ``or`` and each ``or`` made ``and``;
* each ``not`` dropped;
* each integer constant plus one.

``src/``, ``tests/``, ``perfbench/``, ``README.md`` and ``pyproject.toml``
are copied to the ``--copy`` directory, which must not exist yet.  For
each mutant the target file is rewritten there (by ``ast.unparse``, so
its comments are dropped), and pytest runs the ``--tests`` files with
``-x`` against the copy, in a child whose address space is capped at
:data:`MEMORY_LIMIT` bytes (1.5 GB): a mutant that loops and grows, such
as one of ``_Closure.add`` that stops marking what it reached, fails
there with ``MemoryError`` and counts as killed instead of filling the
machine's memory.  A mutant survives when they all pass.  The
working tree is only read, once, to make the copy: each target is read
back from the copy, so the mutants are those of the code the unmutated
run tested.  The unmutated copy must pass first.  Exit
status: 0 when every mutant was killed, 1 when some survived.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MEMORY_LIMIT = 1_500_000_000  # bytes of address space for each pytest child
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")
FLIPS = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE,
    ast.LtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}


def _function(tree: ast.Module, name: str) -> ast.AST:
    node: ast.AST = tree
    for part in name.split("."):
        node = next(
            n for n in node.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and n.name == part
        )
    return node


def _functions(tree: ast.Module) -> list[str]:
    """The names a bare ``FILE`` target stands for: every module-level
    function, and every method of a module-level class as ``Class.method``,
    in file order.  A nested function's sites are its enclosing one's."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    names = []
    for node in tree.body:
        if isinstance(node, kinds):
            names.append(node.name)
        elif isinstance(node, ast.ClassDef):
            names.extend(f"{node.name}.{n.name}" for n in node.body if isinstance(n, kinds))
    return names


def _sites(func: ast.AST) -> list[tuple[int, int, str]]:
    """(node number in ``ast.walk`` order, operand index, description) of
    every mutation the function admits."""
    sites = []
    for k, node in enumerate(ast.walk(func)):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in FLIPS:
                    sites.append((k, i, f"{type(op).__name__} -> {FLIPS[type(op)].__name__}"))
        elif isinstance(node, ast.BoolOp):
            sites.append((k, 0, f"{type(node.op).__name__} -> {'Or' if isinstance(node.op, ast.And) else 'And'}"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            sites.append((k, 0, "drop not"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            sites.append((k, 0, f"{node.value} -> {node.value + 1}"))
    return sites


def _mutant(tree: ast.Module, name: str, site: tuple[int, int, str]) -> tuple[str, int]:
    """The module source with one site mutated, and the site's line."""
    tree = copy.deepcopy(tree)
    k, i, _ = site
    node = list(ast.walk(_function(tree, name)))[k]
    if isinstance(node, ast.Compare):
        node.ops[i] = FLIPS[type(node.ops[i])]()
    elif isinstance(node, ast.BoolOp):
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    elif isinstance(node, ast.UnaryOp):  # not x -> not not x, which is x as a truth value
        node.operand = ast.UnaryOp(ast.Not(), node.operand)
    else:
        node.value += 1
    return ast.unparse(tree) + "\n", node.lineno


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _passes(workdir: Path, tests: list[str], timeout: float) -> bool:
    env = {**os.environ, "PYTHONPATH": str(workdir / "src")}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(
            command, cwd=workdir, env=env, capture_output=True, timeout=timeout, preexec_fn=_limit_memory
        )
    except subprocess.TimeoutExpired:
        return False  # a mutant that hangs is noticed
    return done.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "targets", nargs="+", help="FILE:FUNCTION or FILE (all its functions), the file relative to the repository"
    )
    parser.add_argument("--tests", nargs="+", required=True, help="test files pytest runs on each mutant")
    parser.add_argument("--copy", required=True, help="a new directory for the mutated copy")
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per mutant's test run")
    args = parser.parse_args(argv)

    workdir = Path(args.copy)
    workdir.mkdir(parents=True)
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, workdir / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, workdir / name)
    if not _passes(workdir, args.tests, args.timeout):
        print("the tests fail on the unmutated copy", file=sys.stderr)
        return 2

    survivors = total = 0
    for target in args.targets:
        path, _, name = target.partition(":")
        original = (workdir / path).read_text(encoding="utf-8")
        tree = ast.parse(original)
        for name in [name] if name else _functions(tree):
            for site in _sites(_function(tree, name)):
                source, line = _mutant(tree, name, site)
                (workdir / path).write_text(source, encoding="utf-8")
                killed = not _passes(workdir, args.tests, args.timeout)
                survivors += not killed
                total += 1
                print(f"{'killed  ' if killed else 'SURVIVED'} {path}:{line} {name}: {site[2]}", flush=True)
        (workdir / path).write_text(original, encoding="utf-8")
    print(f"{total} mutants, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
