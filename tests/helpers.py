"""Shared sweep builders and references for the test suite.

The heavyweight fixtures (every built-in group up to order 48, plus the
brute-force cross-check report for each) are computed once per test run
and shared by the module tests and the acceptance gate.  The reference
deciders read the same rules as :mod:`sumgraph.codes` unit by unit, over
:func:`~sumgraph.coset_units` and ``G.mul``, so whole verdicts -- rule,
witness and certificate -- can be compared with an independent reading.
"""

from __future__ import annotations

import random
from functools import cache

import numpy as np

from sumgraph import (
    CrossCheckReport,
    Group,
    Subgroup,
    coset_units,
    cross_check,
    group_from_cayley_table,
    right_cosets,
    sweep_groups,
)

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


def relabelled(G: Group, seed: int) -> tuple[Group, np.ndarray]:
    """G rebuilt through ``group_from_cayley_table`` with its elements
    renamed by a seeded permutation that moves the identity off index 0
    (when G has two elements or more); element x of G is ``perm[x]``."""
    perm = list(range(G.order))
    random.Random(seed).shuffle(perm)
    if G.order > 1 and perm[G.identity] == 0:
        other = (G.identity + 1) % G.order
        perm[G.identity], perm[other] = perm[other], perm[G.identity]
    perm = np.array(perm)
    table = np.empty_like(G.table)
    table[np.ix_(perm, perm)] = perm[G.table]
    return group_from_cayley_table(table), perm


# ---------------------------------------------------------------------------
# Reference deciders: (exists, rule, witness, certificate), unit by unit
# ---------------------------------------------------------------------------


def _refuted(reason: str, **detail) -> tuple:
    return False, reason, None, {"reason": reason, **detail}


def _reference_perfect(G: Group, H: Subgroup) -> tuple:
    if H.order == 1:
        return True, "trivial-subgroup", tuple(range(G.order)), None
    if H.order == 2:
        h = next(m for m in H.members if m != G.identity)
        witness = tuple(x for x in range(G.order) if G.mul(G.inv(x), h) >= x)
        return True, "order-two-subgroup", witness, None
    chosen: list[int] = []
    for unit in coset_units(G, H):
        c = unit[0]
        x = c.representative
        if len(unit) == 1:  # x*x in H: the pivot is the least self-inverse member
            pivots = [v for v in c.members if G.inv(v) == v]
            if not pivots:
                return _refuted("square-coset-without-involution", coset_representative=x)
            chosen.append(pivots[0])
        else:
            chosen.extend([x, G.inv(x)])
    return True, "square-cosets-have-involutions", tuple(sorted(chosen)), None


def _reference_total(G: Group, H: Subgroup) -> tuple:
    if H.order == 2:
        h = next(m for m in H.members if m != G.identity)
        for x in range(G.order):
            if G.mul(x, x) == h:
                return _refuted("square-element-not-involution", element=x)
        return True, "order-two-matching", tuple(range(G.order)), None
    if H.order == 3:
        orders = G.element_orders
        if not (G.abelian and all(6 % o == 0 for o in orders) and sum(3 % o == 0 for o in orders) == 3):
            return _refuted("not-elementary-two-times-three", group_order=G.order)
        chosen = []
        for c in right_cosets(G, H):
            centre = next(v for v in c.members if G.inv(v) == v)
            chosen.extend([centre, min(v for v in c.members if v != centre)])
        return True, "elementary-two-times-three", tuple(sorted(chosen)), None
    return _refuted("subgroup-order-unsuitable", subgroup_order=H.order)


def _reference_extended_perfect(G: Group, H: Subgroup) -> tuple:
    if H.order == 1:
        return True, "trivial-subgroup", tuple(v for v in range(G.order) if G.inv(v) >= v), None
    outside = sorted({G.mul(x, x) for x in range(G.order)} - set(H.members))
    if not outside:
        witness = tuple(sorted(c.representative for c in right_cosets(G, H)))
        return True, "squares-inside-subgroup", witness, None
    sq = outside[0]
    element = min(x for x in range(G.order) if G.mul(x, x) == sq)
    return _refuted("square-outside-subgroup", element=element, square=sq)


def _reference_extended_total(G: Group, H: Subgroup) -> tuple:
    if H.order != 2:
        return _refuted("subgroup-order-not-two", subgroup_order=H.order)
    h = next(m for m in H.members if m != G.identity)
    chosen = set()
    for x in range(G.order):
        y = G.inv(x)
        component = (x, G.mul(x, h), y, G.mul(y, h))
        if x == min(component):
            chosen |= {x, min(v for v in component[2:] if v != x)}
    return True, "order-two-subgroup", tuple(sorted(chosen)), None


def reference_verdict(G: Group, H: Subgroup, extended: bool, total: bool) -> tuple:
    """``(exists, rule, witness, certificate)`` the deciders must give for
    the question (extended, total), read unit by unit."""
    if extended:
        return (_reference_extended_total if total else _reference_extended_perfect)(G, H)
    return (_reference_total if total else _reference_perfect)(G, H)
