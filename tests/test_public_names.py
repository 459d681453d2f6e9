"""Every public name resolves: each module's ``__all__``, the functions
the benchmark tracer in ``perfbench/spans.py`` patches by name, and every
group attribute the README names.  Each name is declared in one module
only, every name the package exports is also used outside the tests,
every private name and import in the package is used, and every decider
of a (G, H) pair takes just those two parameters."""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import sumgraph

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("codes", "errors", "exprs", "families", "graphs", "groups")


def _spans_layers():
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


@pytest.mark.parametrize("module", ("__init__",) + MODULES)
def test_all_names_resolve(module):
    mod = sumgraph if module == "__init__" else importlib.import_module(f"sumgraph.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, (module, missing)


def test_each_public_name_is_declared_once():
    """The package re-exports every module's ``__all__`` with a star
    import, so a name in two modules' lists would silently shadow one."""
    owners = {}
    for module in MODULES:
        for name in importlib.import_module(f"sumgraph.{module}").__all__:
            owners.setdefault(name, []).append(module)
    shared = {name: mods for name, mods in owners.items() if len(mods) > 1}
    assert not shared, shared
    assert len(sumgraph.__all__) == len(set(sumgraph.__all__))
    assert set(sumgraph.__all__) == {"__version__", *owners}


def test_traced_layer_functions_resolve():
    names = [name for names in _spans_layers().values() for name in names]
    assert "exprs.build_group" in names
    for name in names:
        module, func = name.split(".")
        assert callable(getattr(importlib.import_module(f"sumgraph.{module}"), func, None)), name


def _identifiers(code: str) -> set[str]:
    """Names, attributes and imported names in ``code``; words in strings
    and docstrings do not count."""
    out = set()
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
    return out


def _readme_code() -> list[str]:
    """The README's Python blocks and inline code spans."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    snippets = re.findall(r"```python\n(.*?)```", text, re.S)
    return snippets + re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))


def _readme_identifiers() -> set[str]:
    """Identifiers in the README's Python blocks and inline code spans."""
    out = set()
    for code in _readme_code():
        try:
            out |= _identifiers(code)
        except SyntaxError:  # a shell command or a group expression
            pass
    return out


def test_every_export_is_used_outside_the_tests():
    used = _readme_identifiers()
    sources = [p for p in (ROOT / "src" / "sumgraph").glob("*.py") if p.name != "__init__.py"]
    for path in sources + sorted((ROOT / "perfbench").glob("*.py")):
        used |= _identifiers(path.read_text(encoding="utf-8"))
    unused = [name for name in sumgraph.__all__ if name not in used]
    assert not unused, unused


def test_every_family_and_rule_decider_takes_g_and_h():
    """One signature for every decider of a (G, H) pair: the family
    deciders and the four rule deciders that ``decide_code`` dispatches to."""
    codes = importlib.import_module("sumgraph.codes")
    families = importlib.import_module("sumgraph.families")
    source = ast.parse(inspect.getsource(codes.decide_code))
    dispatched = [node.func.id for node in ast.walk(source) if isinstance(node, ast.Call)]
    assert len(set(dispatched)) == 4, dispatched
    deciders = [getattr(families, name) for name in families.__all__ if name != "is_code_perfect"]
    P = inspect.Parameter
    expected = [(P.POSITIONAL_OR_KEYWORD, P.empty, cls) for cls in (sumgraph.Group, sumgraph.Subgroup)]
    for decider in deciders + [getattr(codes, name) for name in dispatched]:
        params = inspect.signature(decider, eval_str=True).parameters.values()
        assert [(p.kind, p.default, p.annotation) for p in params] == expected, decider


def test_readme_group_attributes_exist():
    """Every ``G.<name>`` the README shows is an attribute of a group."""
    names = {name for code in _readme_code() for name in re.findall(r"\bG\.([A-Za-z_]\w*)", code)}
    assert {"table", "rows", "element_orders"} <= names, names
    G = sumgraph.cyclic(4)
    missing = sorted(name for name in names if not hasattr(G, name))
    assert not missing, missing



def _bound_names(node: ast.AST) -> list[str]:
    """The names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)]


def _read_names(tree: ast.AST) -> set[str]:
    """Names read (not assigned) and attributes anywhere in ``tree``."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)) or isinstance(n, ast.Attribute)
    }


def test_every_private_name_and_import_is_used():
    """Each module-level private name in the package is read somewhere in
    the package, and each name a module imports is read in that module or
    listed in its ``__all__``: a helper that a simplification leaves
    orphaned, or an import it leaves behind, fails here."""
    sources = sorted((ROOT / "src" / "sumgraph").glob("*.py"))
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sources}
    read_in = {module: _read_names(tree) for module, tree in trees.items()}
    read_anywhere = set().union(*read_in.values())
    orphans, unused = [], []
    for module, tree in trees.items():
        mod = sumgraph if module == "__init__" else importlib.import_module(f"sumgraph.{module}")
        kept = read_in[module] | set(getattr(mod, "__all__", ()))
        for node in tree.body:
            private = [name for name in _bound_names(node) if name.startswith("_") and not name.startswith("__")]
            orphans += [(module, name) for name in private if name not in read_anywhere]
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = [(alias.asname or alias.name).partition(".")[0] for alias in node.names]
                unused += [(module, name) for name in bound if name != "*" and name not in kept]
    assert not orphans, orphans
    assert not unused, unused
