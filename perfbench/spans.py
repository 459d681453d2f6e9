"""Spans around calls into the public functions of ``sumgraph``.

:class:`Tracer` replaces each traced function, in every module namespace
that binds it (``from .graphs import build_graph`` copies the binding, so
patching the defining module alone would miss most calls), with a wrapper
that records a span: name, start, end, parent span and operation id.  Spans
stay in memory until the run ends; :func:`layer_table` turns them into the
per-layer metrics and :func:`write_spans` stores them.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict
from pathlib import Path

# Traced functions by layer, as ``module.function``.
LAYERS = {
    "exprs.parse": ("exprs.parse_group_expr",),
    "groups.construct": (
        "exprs.build_group",
        "groups.cyclic",
        "groups.dihedral",
        "groups.dicyclic",
        "groups.quaternion",
        "groups.direct_product",
        "groups.abelian",
        "groups.elementary_abelian_2",
    ),
    "groups.validate": ("groups.group_from_cayley_table",),
    "groups.lattice": ("groups.normal_subgroups",),
    "groups.classes": ("groups.conjugacy_classes",),
    "groups.generated": ("groups.subgroup_generated",),
    "groups.cosets": ("groups.right_cosets",),
    "codes.decide": (
        "codes.decide_perfect_code",
        "codes.decide_total_perfect_code",
        "codes.decide_perfect_code_extended",
        "codes.decide_total_perfect_code_extended",
    ),
    "codes.oracle": ("codes.find_perfect_code_bruteforce", "codes.find_total_perfect_code_bruteforce"),
    "codes.crosscheck": ("codes.cross_check",),
    "graphs.build": ("graphs.build_graph",),
    "graphs.components": ("graphs.components",),
    "families": (
        "families.cyclic_perfect_code",
        "families.abelian_2group_perfect_code",
        "families.dihedral_perfect_code",
        "families.dicyclic_perfect_code",
        "families.abelian_total_perfect_code",
        "families.is_code_perfect",
    ),
    "cli.main": ("cli.main",),
}
LAYER_OF = {name: layer for layer, names in LAYERS.items() for name in names}
MODULES = ("groups", "graphs", "codes", "families", "exprs", "cli")

# Span fields, stored as lists to keep a long run's spans small.
NAME, START, END, PARENT, OP, NOTE = range(6)


class Tracer:
    """Records nested spans while installed; one instance per traced run.

    Each root span (a call made by the benchmark itself) is one operation;
    its descendants carry its operation id.
    """

    def __init__(self, sg):
        self.sg = sg
        self.spans: list[list] = []
        self.op = -1
        self.recording = True  # off while the benchmark checks outputs
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._lattice_seen: dict[int, object] = {}
        self._observe = {
            "groups.normal_subgroups": self._found_subgroups,
            "codes.cross_check": lambda args, r: [len(r.entries), len(r.disagreements)],
        }
        for name in LAYERS["codes.decide"]:
            self._observe[name] = lambda args, r: r.witness is not None
        for name in LAYERS["codes.oracle"]:
            self._observe[name] = lambda args, r: r is not None

    def _found_subgroups(self, args, result) -> int:
        """Subgroups found: counted on the first lattice call per group."""
        G = args[0]
        if id(G) in self._lattice_seen:
            return 0
        self._lattice_seen[id(G)] = G  # keeps G alive, so its id stays unique
        return len(result)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = self._observe.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if not stack:  # a root span starts a new operation
                self.op += 1
                self._lattice_seen.clear()
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if observe is not None:
                span[NOTE] = observe(args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        namespaces = [self.sg] + [getattr(self.sg, m) for m in MODULES]
        for name in LAYER_OF:
            module, func = name.split(".")
            original = getattr(getattr(self.sg, module), func)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, attr, value))
                        setattr(ns, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched.clear()


def layer_table(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer metrics per pass: self times, call counts and ratios.

    A span's self time is its duration minus the durations of its child
    spans.  A graph build is charged to the decider layer when its parent
    span is a decider (witness re-validation), else to the oracle side.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    notes: dict[str, list] = defaultdict(list)
    build_decider = build_oracle = 0.0
    outer_constructs = 0
    for i, s in enumerate(spans):
        layer = LAYER_OF[s[NAME]]
        own = s[END] - s[START] - child[i]
        self_s[layer] += own
        calls[layer] += 1
        if s[NOTE] is not None:
            notes[layer].append(s[NOTE])
        parent = LAYER_OF[spans[s[PARENT]][NAME]] if s[PARENT] >= 0 else None
        if layer == "graphs.build":
            if parent == "codes.decide":
                build_decider += own
            else:
                build_oracle += own
        if layer == "groups.construct" and parent != "groups.construct":
            outer_constructs += 1

    def ratio(layer: str) -> float:
        values = notes[layer]
        return sum(values) / len(values) if values else 0.0

    per_pass = {
        "cli.main_self_s": self_s["cli.main"],
        "exprs.parse_s": self_s["exprs.parse"],
        "groups.construct_calls": outer_constructs,
        "groups.construct_s": self_s["groups.construct"],
        "groups.validate_s": self_s["groups.validate"],
        "groups.lattice_calls": calls["groups.lattice"],
        "groups.lattice_s": self_s["groups.lattice"],
        "groups.subgroups_found": sum(notes["groups.lattice"]),
        "groups.classes_s": self_s["groups.classes"],
        "groups.generated_calls": calls["groups.generated"],
        "groups.generated_s": self_s["groups.generated"],
        "groups.cosets_calls": calls["groups.cosets"],
        "groups.cosets_s": self_s["groups.cosets"],
        "codes.decide_calls": calls["codes.decide"],
        "codes.decide_self_s": self_s["codes.decide"],
        "graphs.build_calls": calls["graphs.build"],
        "graphs.build_s": self_s["graphs.build"],
        "graphs.build_oracle_s": build_oracle,
        "graphs.build_decider_s": build_decider,
        "graphs.components_s": self_s["graphs.components"],
        "codes.oracle_calls": calls["codes.oracle"],
        "codes.oracle_self_s": self_s["codes.oracle"],
        "codes.crosscheck_self_s": self_s["codes.crosscheck"],
        "codes.checks": sum(n for n, _ in notes["codes.crosscheck"]),
        "codes.disagreements": sum(d for _, d in notes["codes.crosscheck"]),
        "families.calls": calls["families"],
        "families.s": self_s["families"],
    }
    table = {k: v / passes for k, v in per_pass.items()}
    table["codes.witness_ratio"] = ratio("codes.decide")
    table["codes.oracle_found_ratio"] = ratio("codes.oracle")
    return table


def write_spans(path: Path, spans: list[list], meta: dict) -> None:
    """Gzipped JSON lines: a header with ``meta``, then one span per line
    as [name, start, end, parent, op, note], times relative to the first."""
    t0 = spans[0][START] if spans else 0.0
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as f:
        f.write(json.dumps({"meta": meta, "fields": ["name", "start", "end", "parent", "op", "note"]}) + "\n")
        for s in spans:
            f.write(json.dumps([s[NAME], round(s[START] - t0, 7), round(s[END] - t0, 7), s[PARENT], s[OP], s[NOTE]]) + "\n")
