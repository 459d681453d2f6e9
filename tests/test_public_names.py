"""Every public name resolves: each module's ``__all__`` and the functions
the benchmark tracer in ``perfbench/spans.py`` patches by name."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import sumgraph

MODULES = ("codes", "errors", "exprs", "families", "graphs", "groups")


def _spans_layers():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


@pytest.mark.parametrize("module", ("__init__",) + MODULES)
def test_all_names_resolve(module):
    mod = sumgraph if module == "__init__" else importlib.import_module(f"sumgraph.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, (module, missing)


def test_traced_layer_functions_resolve():
    names = [name for names in _spans_layers().values() for name in names]
    assert "exprs.build_group" in names
    for name in names:
        module, func = name.split(".")
        assert callable(getattr(importlib.import_module(f"sumgraph.{module}"), func, None)), name
