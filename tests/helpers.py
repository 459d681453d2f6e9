"""Shared sweep builders for the test suite.

The heavyweight fixtures (every built-in group up to order 48, plus the
brute-force cross-check report for each) are computed once per test run
and shared by the module tests and the acceptance gate.
"""

from __future__ import annotations

from functools import cache

from sumgraph import CrossCheckReport, Group, cross_check, sweep_groups

SWEEP_MAX_ORDER = 48


@cache
def sweep(max_order: int = SWEEP_MAX_ORDER) -> tuple[Group, ...]:
    """Every built-in group of order <= max_order, in the order of
    :func:`sumgraph.sweep_groups` (all its families, Q8 last)."""
    return tuple(sweep_groups(max_order))


@cache
def sweep_reports(max_order: int = SWEEP_MAX_ORDER) -> tuple[tuple[Group, CrossCheckReport], ...]:
    """cross_check report for every sweep group (deciders vs brute force)."""
    return tuple((G, cross_check(G)) for G in sweep(max_order))


def subset_perfect_codes(adjacency: list[list[int]]) -> list[tuple[int, ...]]:
    """All perfect codes of a small graph by raw subset enumeration.

    Independent implementation used to double-check the package's search:
    no bitmasks, no component split, just the definition over all 2^n
    subsets. Only usable for graphs with at most ~16 vertices.
    """
    n = len(adjacency)
    assert n <= 16, "subset enumeration is for small graphs only"
    found = []
    for pick in range(1 << n):
        chosen = [v for v in range(n) if pick >> v & 1]
        ok = True
        for v in range(n):
            hits = sum(1 for c in chosen if c == v or adjacency[v][c])
            if hits != 1:
                ok = False
                break
        if ok:
            found.append(tuple(chosen))
    return found


def subset_total_perfect_codes(adjacency: list[list[int]]) -> list[tuple[int, ...]]:
    """All total perfect codes of a small graph by raw subset enumeration."""
    n = len(adjacency)
    assert n <= 16, "subset enumeration is for small graphs only"
    found = []
    for pick in range(1 << n):
        chosen = [v for v in range(n) if pick >> v & 1]
        ok = True
        for v in range(n):
            hits = sum(1 for c in chosen if adjacency[v][c])
            if hits != 1:
                ok = False
                break
        if ok:
            found.append(tuple(chosen))
    return found


def adjacency_matrix(graph) -> list[list[int]]:
    """Dense 0/1 adjacency matrix of a SumGraph, for the subset checkers."""
    n = graph.n
    return [[graph.rows[u] >> v & 1 for v in range(n)] for u in range(n)]
