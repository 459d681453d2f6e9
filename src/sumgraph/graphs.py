"""Sum graphs over a normal subgroup: build, components, export.

Given a group G and a normal subgroup H, the *sum graph* joins distinct
x and y whenever x*y lands in H minus the identity; the *extended* variant
keeps the identity, i.e. joins x and y whenever x*y is in H at all.
Normality makes the relation symmetric, so both are simple graphs on G,
built by :func:`_sum_graphs`.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import Iterable, Iterator

from .errors import InternalInconsistencyError
from .groups import Group, Subgroup, _coset_masks, _require_iterable, _require_type, _units, require_normal

__all__ = [
    "SumGraph",
    "build_graph",
    "components",
    "graph_to_json",
    "to_dot",
]


def _bits(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending."""
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        out.append(v)
        mask &= mask - 1
    return out


class SumGraph:
    """A simple graph on the elements of a group, one Python int bitmask
    row per vertex, so the set algebra of the build, the component walk
    and the code checks is a few int operations per row."""

    def __init__(self, group: Group, subgroup: Subgroup, extended: bool, rows: tuple[int, ...]):
        self.group = group
        self.subgroup = subgroup
        self.extended = extended
        self.n = group.order
        self.rows = rows

    @cached_property
    def _component_masks(self) -> tuple[tuple[int, int], ...]:
        """Connected components as ``(mask, least)`` pairs, ordered by least
        vertex, ``least`` the smallest degree in it: one BFS per component,
        so every row is read once and its degree taken as it is read."""
        rows = self.rows
        remaining = (1 << self.n) - 1
        out = []
        while remaining:
            comp = frontier = remaining & -remaining
            least = self.n
            while frontier:
                reached = 0
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    row = rows[low.bit_length() - 1]
                    reached |= row
                    degree = row.bit_count()
                    if degree < least:
                        least = degree
                frontier = reached & ~comp
                comp |= frontier
            remaining &= ~comp
            out.append((comp, least))
        return tuple(out)

    def neighbors(self, v: int) -> list[int]:
        return _bits(self.rows[v])

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self.rows[u] >> (u + 1) << (u + 1)  # neighbours above u
            out.extend((u, v) for v in _bits(row))
        return out

    def __repr__(self) -> str:
        kind = "extended sum graph" if self.extended else "sum graph"
        return f"<{kind} on {self.group!r} over subgroup of order {self.subgroup.order}>"


def _sum_graphs(
    G: Group, subgroups: Iterable[Subgroup]
) -> Iterator[tuple[SumGraph, SumGraph, tuple[tuple[int, int], ...]]]:
    """The plain and the extended sum graph of G over each normal subgroup
    of ``subgroups``, in order, with the extended graph's components,
    yielded one triple at a time.

    x*y lies in H exactly when y lies in the right coset Hx^-1 (H is
    normal), so each graph is read off H's coset record
    (:attr:`~sumgraph.groups.Subgroup._cosets`), ``least[x]`` = min(Hx),
    with ``least_inv[x]`` = min(Hx^-1).  One pass over x ORs bit x into
    the mask of its coset, ``cm[least[x]]`` (:func:`~sumgraph.groups._coset_masks`),
    and extended row x is the mask of Hx^-1, less bit x when x lies in it:
    no n x n array is made.  The relation is symmetric exactly when
    x -> x^-1 maps each coset into one coset, i.e. ``least_inv`` is
    constant on each.  The plain graph is the extended one less each pair
    {x, x^-1}, as x * x^-1 = e is the one product it leaves out: row x
    drops the bit ``Group._inverse_bits`` keeps for x.

    The components are ``(mask, least)`` pairs, one per coset unit
    ``(r, p)`` (:func:`~sumgraph.groups._units`): the mask of Hr and Hp,
    and the smallest degree in it.  Every row of one coset is the mask of
    the other, so the pair is closed, and it is complete bipartite between
    them, or a clique on Hr when p == r: connected, every degree |H|, less
    one in a clique.  These are the pairs a walk of the extended graph
    finds (:attr:`SumGraph._component_masks`), so none is walked.
    """
    _require_type(G, Group)
    _require_iterable(subgroups, "subgroups")
    inv = G.inverses
    for H in subgroups:
        require_normal(G, H)
        least = H._cosets.least.tolist()
        least_inv = list(map(least.__getitem__, inv))
        if least_inv != list(map(least_inv.__getitem__, least)):
            raise InternalInconsistencyError("adjacency came out asymmetric for a normal subgroup")
        cm = _coset_masks(least)
        extended = tuple(cm[p] ^ (1 << x) if least[x] == p else cm[p] for x, p in enumerate(least_inv))
        plain = tuple(map(operator.xor, extended, G._inverse_bits))
        parts = tuple((cm[r] | cm[p], H.order - (p == r)) for r, p in _units(H))
        yield SumGraph(G, H, False, plain), SumGraph(G, H, True, extended), parts


def build_graph(G: Group, H: Subgroup, extended: bool = False) -> SumGraph:
    """Construct the (extended) sum graph of G over the normal subgroup H."""
    plain, full, _ = next(_sum_graphs(G, [H]))
    return full if extended else plain


def components(graph: SumGraph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by least vertex."""
    _require_type(graph, SumGraph)
    return [tuple(_bits(comp)) for comp, _ in graph._component_masks]


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def graph_to_json(graph: SumGraph) -> dict:
    """A portable description: labels, subgroup, flavour, adjacency lists."""
    _require_type(graph, SumGraph)
    return {
        "group": graph.group.name,
        "order": graph.n,
        "labels": list(graph.group.labels),
        "subgroup": list(graph.subgroup.members),
        "extended": graph.extended,
        "adjacency": [graph.neighbors(v) for v in range(graph.n)],
    }


_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def to_dot(graph: SumGraph, color_components: bool = False) -> str:
    """Render as Graphviz DOT; optionally colour vertices by component.
    Labels are quoted DOT strings, with ``\\`` and ``"`` escaped."""
    _require_type(graph, SumGraph)
    colour = {}
    if color_components:
        for i, comp in enumerate(components(graph)):
            for v in comp:
                colour[v] = _PALETTE[i % len(_PALETTE)]
    lines = ["graph sumgraph {"]
    lines.append('  node [shape=circle fontsize=10];')
    for v in range(graph.n):
        label = graph.group.labels[v].replace("\\", "\\\\").replace('"', '\\"')
        attrs = [f'label="{label}"']
        if v in colour:
            attrs.append(f'style=filled fillcolor="{colour[v]}"')
        lines.append(f"  n{v} [{' '.join(attrs)}];")
    for u, v in graph.edges():
        lines.append(f"  n{u} -- n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
