"""Sum graphs over a normal subgroup: build, components, export.

Given a group G and a normal subgroup H, the *sum graph* joins distinct
x and y whenever x*y lands in H minus the identity; the *extended* variant
keeps the identity, i.e. joins x and y whenever x*y is in H at all.
Normality makes the relation symmetric, so both are simple graphs on G.

Adjacency is stored as one Python int bitmask per vertex, which keeps the
set algebra (component sweeps, code checking) branch-free and fast for the
orders this package supports.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import InternalInconsistencyError
from .groups import Group, Subgroup, _require_iterable, _require_type, require_normal

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
    """A simple graph on the elements of a group, one bitmask row per vertex."""

    def __init__(self, group: Group, subgroup: Subgroup, extended: bool, rows: tuple[int, ...]):
        self.group = group
        self.subgroup = subgroup
        self.extended = extended
        self.n = group.order
        self.rows = rows

    @cached_property
    def _component_masks(self) -> tuple[tuple[int, int], ...]:
        """Connected components as ``(mask, least)`` pairs, ordered by least
        vertex, where ``least`` is the smallest degree in the component:
        one BFS per component, walking each frontier low bit by low bit, so
        every row is read once and its degree taken as it is read."""
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


_GATHER_CELLS = 1 << 20  # adjacency cells one chunk holds at most
_INDEX_CELLS = 1 << 15  # table cells one row block of a chunk's gather reads at most


def _int_rows(adj: np.ndarray) -> tuple[int, ...]:
    """The last axis of a boolean array as Python int bitmasks, bit y of
    row x set when ``adj[..., x, y]``: one ``packbits`` of every row, then
    one ``int.from_bytes`` per row over the ``bytes`` that ``tolist`` makes
    of a void view, 2-3x faster than slicing one ``bytes`` object per row."""
    packed = np.packbits(adj, axis=-1, bitorder="little")
    width = packed.shape[-1]
    data = packed.reshape(-1, width).view(np.dtype((np.void, width))).ravel().tolist()
    return tuple(map(int.from_bytes, data, itertools.repeat("little")))


def _adjacency(in_h: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``adj[i, x, y] = in_h[i, table[x, y]]``, gathered in blocks of rows of
    at most ``_INDEX_CELLS`` table cells, so no index array of more cells
    is made (an n x n one is 2 MB in intp at order 512).  A table of at
    most that many cells is one block, taken by one call, for which numpy
    makes the intp copy.  A larger one is cast block by block into one intp
    buffer of at most 256 KB, and each row of ``in_h`` takes it straight
    into its own contiguous run of ``adj``: a ``take`` into a slice across
    rows of ``in_h`` would be staged in a temporary and copied back."""
    k, n = in_h.shape
    rows = max(1, _INDEX_CELLS // n)
    if rows >= n:  # one call costs a third of the blocked loop's at order 32 (3 us against 9)
        return in_h.take(table, axis=1)
    index = np.empty((rows, n), np.intp)
    adj = np.empty((k, n, n), dtype=bool)
    for top in range(0, n, rows):
        block = index[: min(rows, n - top)]
        np.copyto(block, table[top : top + rows])
        for member, out in zip(in_h, adj[:, top : top + rows]):
            member.take(block, out=out, mode="clip")  # table entries are in range
    return adj


def _sum_graphs(G: Group, subgroups: Iterable[Subgroup]) -> Iterator[tuple[SumGraph, SumGraph]]:
    """The plain and the extended sum graph of G over each normal subgroup
    of ``subgroups``, in order, yielded one pair at a time.

    The subgroups are built in chunks, as many as fit in ``_GATHER_CELLS``
    adjacency cells (at least one), so a chunk holds at most 1 MB of
    cells however many subgroups there are.  A chunk's bool array holds
    the extended adjacency of each of its subgroups, with one diagonal
    clear, one symmetry check and one :func:`_int_rows` for them all.  It
    is gathered by :func:`_adjacency` in row blocks, with no n x n index
    array.  The plain graph is the extended one less each pair {x, x^-1},
    since x * x^-1 = e is the one product it leaves out: row x drops the
    bit the group keeps for x (``Group._inverse_bits``), by one ``map``
    over the chunk's rows.  The pairs are symmetric, so the extended
    graph's symmetry check covers both.
    """
    _require_type(G, Group)
    _require_iterable(subgroups, "subgroups")
    n = G.order
    subgroups = list(subgroups)
    step = max(1, _GATHER_CELLS // (n * n))
    for start in range(0, len(subgroups), step):
        chunk = subgroups[start : start + step]
        for H in chunk:
            require_normal(G, H)
        k = len(chunk)
        in_h = np.zeros((k, n), dtype=bool)
        in_h.ravel()[[i * n + m for i, H in enumerate(chunk) for m in H.members]] = True
        adj = _adjacency(in_h, G.table)  # adj[i, x, y]: x*y lies in the i-th subgroup
        adj.reshape(k, n * n)[:, :: n + 1] = False
        if not np.array_equal(adj, adj.transpose(0, 2, 1)):
            raise InternalInconsistencyError("adjacency came out asymmetric for a normal subgroup")
        extended = _int_rows(adj)
        plain = tuple(map(operator.xor, extended, itertools.cycle(G._inverse_bits)))
        for i, H in enumerate(chunk):
            rows = slice(i * n, (i + 1) * n)
            yield SumGraph(G, H, False, plain[rows]), SumGraph(G, H, True, extended[rows])


def build_graph(G: Group, H: Subgroup, extended: bool = False) -> SumGraph:
    """Construct the (extended) sum graph of G over the normal subgroup H."""
    plain, full = next(_sum_graphs(G, [H]))
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
