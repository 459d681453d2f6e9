"""Shared sweep builders and references for the test suite.

The heavyweight fixtures (every built-in group up to order 48, plus the
brute-force cross-check report for each) are computed once per test run
and shared by the module tests and the acceptance gate.  The reference
deciders read the same rules as :mod:`sumgraph.codes` unit by unit, over
cosets read off the table by definition (:func:`cosets_by_definition`),
not through the package's coset construction, so whole verdicts -- rule,
witness and certificate -- can be compared with an independent reading.
"""

from __future__ import annotations

import random
from functools import cache
from typing import NamedTuple

import numpy as np

from sumgraph import (
    BadParameterError,
    CrossCheckReport,
    Group,
    NoIdentityError,
    NoInverseError,
    NotAssociativeError,
    NotLatinSquareError,
    SWEEP_FAMILIES,
    Subgroup,
    build_graph,
    conjugacy_classes,
    cross_check,
    decide_perfect_code,
    group_from_cayley_table,
    normal_subgroups,
    require_normal,
    require_subgroup,
    sweep_groups,
)

SWEEP_MAX_ORDER = 48

# The groups of the benchmark's ``verify`` workload, orders 32-256.
VERIFY_GROUPS = (
    "Q8 x Z2 x Z2 x Z2",
    "E2^5",
    "D16 x D8",
    "Q8 x Q8",
    "Dic6 x Z4",
    "D24 x Z4",
    "Q8 x Z12",
    "Z2 x Z2 x Z24",
    "D256",
    "Dic48",
)


@cache
def sweep(max_order: int = SWEEP_MAX_ORDER) -> tuple[Group, ...]:
    """Every built-in group of order <= max_order, in the order of
    :func:`sumgraph.sweep_groups`: its default families, then Q8, which
    the default leaves out and the suite names here."""
    return tuple(sweep_groups(max_order, (*SWEEP_FAMILIES, "quaternion")))


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


def permutation_group(generators: list[tuple[int, ...]]) -> Group:
    """The group the permutations generate (each a tuple p with p[i] the
    image of i), its elements in ascending tuple order and the product
    x*y = "x, then y", built through ``group_from_cayley_table``."""
    identity = tuple(range(len(generators[0])))
    elements, frontier = {identity}, [identity]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = tuple(g[i] for i in x)
            if y not in elements:
                elements.add(y)
                frontier.append(y)
    ordered = sorted(elements)
    index = {p: k for k, p in enumerate(ordered)}
    table = [[index[tuple(y[i] for i in x)] for y in ordered] for x in ordered]
    return group_from_cayley_table(table)


def subgroup_as_group(G: Group, H: Subgroup) -> tuple[Group, dict[int, int]]:
    """H as a group of its own: the table restricted to H's members and
    reindexed densely, with the map from G's indices to the new ones."""
    require_subgroup(G, H)
    idx = np.array(H.members)
    relabeled = np.searchsorted(idx, G.table[np.ix_(idx, idx)])  # members are sorted, the block closed
    labels = [G.labels[m] for m in H.members]
    return group_from_cayley_table(relabeled, labels), {old: new for new, old in enumerate(H.members)}


def code_perfect_by_lattice(G: Group) -> bool:
    """Whether every normal subgroup of G gives a perfect code: the whole
    normal lattice, each subgroup decided by ``decide_perfect_code``."""
    return all(decide_perfect_code(G, H).exists for H in normal_subgroups(G))


def is_dedekind(G: Group) -> bool:
    """Whether every subgroup of G is normal: whether each cyclic <g>
    holds g's conjugacy class.  Conjugates generate conjugate subgroups,
    so one member per class is tested, its powers read off the table."""
    for cls in conjugacy_classes(G):
        powers, x = {G.identity}, cls[0]
        while x not in powers:
            powers.add(x)
            x = G.rows[x][cls[0]]
        if not powers.issuperset(cls):
            return False
    return True


def code_perfect_by_dedekind(G: Group) -> bool:
    """The paper's classification of the code-perfect Dedekind groups: Z4
    and Z2^t x A with A abelian of odd order, and no non-abelian one
    (Q8 x E2^k x A).  G must be Dedekind."""
    if not is_dedekind(G):
        raise ValueError(f"{G.name} has a non-normal subgroup")
    if not G.abelian:
        return False
    orders = G.element_orders  # Z4, or a Sylow 2-subgroup without elements of order 4
    return G.order == 4 and 4 in orders or all(o % 4 for o in orders)


def validate_by_definition(table: list[list[int]]) -> None:
    """Raise what :func:`sumgraph.group_from_cayley_table` must raise for a
    square table of at most 32 rows, checking each property by definition
    in the documented order: entry range, rows then columns that are not
    permutations, a two-sided identity, a two-sided inverse of each element,
    and associativity over all n^3 triples, the first failing (x, y, z)
    named.  Returns None when the table is a group."""
    n = len(table)
    assert n <= 32, "the n^3 associativity scan is for small tables only"
    if any(not 0 <= v < n for row in table for v in row):
        raise BadParameterError(f"table entries must lie in 0..{n - 1}")
    for r, row in enumerate(table):
        if sorted(row) != list(range(n)):
            raise NotLatinSquareError(f"row {r} is not a permutation")
    for c in range(n):
        if sorted(row[c] for row in table) != list(range(n)):
            raise NotLatinSquareError(f"column {c} is not a permutation")
    idents = [e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))]
    if not idents:
        raise NoIdentityError("no two-sided identity element")
    e = idents[0]
    for x in range(n):
        if not any(table[x][y] == e == table[y][x] for y in range(n)):
            raise NoInverseError(f"element {x} has no two-sided inverse")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    raise NotAssociativeError(
                        f"associativity fails at ({x}, {y}, {z}): ({x}*{y})*{z} != {x}*({y}*{z})"
                    )


def is_normal_by_definition(G: Group, H) -> bool:
    """Whether g^-1 * h * g lies in H for every g in G and h in H: the
    whole n x |H| conjugation, read product by product off the table."""
    members = set(H)
    return all(G.rows[G.rows[G.inverses[g]][h]][g] in members for g in range(G.order) for h in members)


def greedy_generators(G: Group, members) -> list[int]:
    """Generators of the subgroup with these members, chosen greedily: each
    member, in ascending order, that the ones chosen before it do not
    generate.  The generated set is regrown after each choice by closing
    it under right multiplication by the chosen elements, read off the
    table, so the package's closure is not used."""
    chosen: list[int] = []
    have = {G.identity}
    for v in sorted(members):
        if v in have:
            continue
        chosen.append(v)
        frontier = list(have)
        while frontier:
            x = frontier.pop()
            for g in chosen:
                y = G.rows[x][g]
                if y not in have:
                    have.add(y)
                    frontier.append(y)
    return chosen


def cosets_by_definition(G: Group, H: Subgroup) -> list[tuple[int, ...]]:
    """The right cosets Hx = {h*x : h in H}, each sorted, read product by
    product off the table: the identity's coset first, then the rest in the
    order an ascending walk over x first meets them."""
    seen: set[int] = set()
    cosets = []
    for x in (G.identity, *range(G.order)):
        if x not in seen:
            coset = tuple(sorted(G.rows[h][x] for h in H.members))
            seen.update(coset)
            cosets.append(coset)
    return cosets


def units_by_definition(G: Group, H: Subgroup) -> list[tuple[tuple[int, ...], ...]]:
    """The cosets of :func:`cosets_by_definition` grouped into units:
    ``(Hx,)`` when x*x is in H, else Hx with the coset holding x^-1, listed
    where the first of the two is met."""
    cosets = cosets_by_definition(G, H)
    coset_of = {v: c for c in cosets for v in c}
    units, paired = [], set()
    for c in cosets:
        if c in paired:
            continue
        x = c[0]
        if G.rows[x][x] in H:
            units.append((c,))
        else:
            partner = coset_of[G.inverses[x]]
            paired.add(partner)
            units.append((c, partner))
    return units


def order_three_coset_scan(G: Group, H: Subgroup) -> bool:
    """The total-code rule for a normal subgroup of order 3, in any group:
    every element outside H squares into H, and every coset holds an
    element of order at least 3, so each block is a 3-star rather than a
    triangle.  By the theory this picks out G = Z2-factors x Z3, which the
    tests check against ``decide_total_perfect_code`` on non-abelian groups
    too; in an abelian group the coset condition always holds."""
    require_normal(G, H)
    if H.order != 3:
        raise BadParameterError(f"the scan applies to subgroups of order 3, got {H.order}")
    if any(x not in H and G.rows[x][x] not in H for x in range(G.order)):
        return False
    return all(any(G.element_orders[v] > 2 for v in coset) for coset in cosets_by_definition(G, H))


class Block(NamedTuple):
    """One coset unit of one graph flavour, as :func:`audit_blocks` found it."""

    flavor: str  # "plain" | "extended"
    vertices: tuple[int, ...]
    coset_representatives: tuple[int, ...]  # one per coset of the unit
    kind: str
    witness: tuple[str, int, int] | None  # ("unexpected-edge" | "missing-edge", v, w), None when it matches
    divergence: tuple[int, ...]


_SHAPES = {  # (one coset, every vertex joined to the whole facing coset) -> kind
    (True, True): "complete",
    (True, False): "complete_minus_matching",  # less each vertex's pairing with its inverse
    (False, True): "complete_bipartite",
    (False, False): "bipartite_minus_perfect_matching",
}


def audit_blocks(G: Group, H: Subgroup) -> list[Block]:
    """The paper's structure result, checked edge for edge: each sum graph
    over H is the disjoint union of one block per coset unit.

    The units are those of :func:`units_by_definition`, and each gives a
    plain then an extended block.  Vertex v of a unit is predicted to be
    joined to every vertex of the coset facing it other than v: its own
    coset in a one-coset unit, the partner coset in a pair; the plain
    graph drops v^-1 as well.  The prediction reads the table only for
    the cosets h*x and the inverses, never for the products x*y that the
    graph build tests against H, so the audit does not check the table
    against itself.  Each row of :func:`sumgraph.build_graph`'s graphs is
    compared with it bit for bit: the first row that differs is the
    block's ``witness``, naming the least edge it has and should not, or
    else misses, and its ``kind`` is ``"other"``.  A matching block's kind
    is the shape of its adjacency (``_SHAPES``).  For a matching plain
    one-coset block, ``divergence`` lists the vertices where "v is a
    square in G" and "v is joined to every other vertex of the block"
    differ: the two agree in many groups but not all, so the audit
    reports where they part, without asserting either.
    """
    graphs = (build_graph(G, H), build_graph(G, H, extended=True))
    blocks = []
    for unit in units_by_definition(G, H):
        vertices = tuple(sorted(v for coset in unit for v in coset))
        facing = {v: sum(1 << w for w in unit[-1 - i] if w != v) for i, coset in enumerate(unit) for v in coset}
        one_coset = len(unit) == 1
        for graph in graphs:
            witness = None
            for v in vertices:
                expected = facing[v] if graph.extended else facing[v] & ~(1 << G.inverses[v])
                row = graph.rows[v]
                if row != expected:
                    extra, missing = row & ~expected, expected & ~row
                    edge = extra or missing
                    witness = ("unexpected-edge" if extra else "missing-edge", v, (edge & -edge).bit_length() - 1)
                    break
            kind, divergence = "other", ()
            if witness is None:
                whole = [graph.rows[v] == facing[v] for v in vertices]
                kind = _SHAPES[one_coset, all(whole)]
                if one_coset and not graph.extended:
                    divergence = tuple(v for v, w in zip(vertices, whole) if (v in G.square_set) != w)
            flavor = "extended" if graph.extended else "plain"
            blocks.append(Block(flavor, vertices, tuple(c[0] for c in unit), kind, witness, divergence))
    return blocks


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
        witness = tuple(x for x in range(G.order) if G.rows[G.inverses[x]][h] >= x)
        return True, "order-two-subgroup", witness, None
    chosen: list[int] = []
    for unit in units_by_definition(G, H):
        c = unit[0]
        x = c[0]
        if len(unit) == 1:  # x*x in H: the pivot is the least self-inverse member
            pivots = [v for v in c if G.inverses[v] == v]
            if not pivots:
                return _refuted("square-coset-without-involution", coset_representative=x)
            chosen.append(pivots[0])
        else:
            chosen.extend([x, G.inverses[x]])
    return True, "square-cosets-have-involutions", tuple(sorted(chosen)), None


def _reference_total(G: Group, H: Subgroup) -> tuple:
    if H.order == 2:
        h = next(m for m in H.members if m != G.identity)
        for x in range(G.order):
            if G.rows[x][x] == h:
                return _refuted("square-element-not-involution", element=x)
        return True, "order-two-matching", tuple(range(G.order)), None
    if H.order == 3:
        orders = G.element_orders
        if not (G.abelian and all(6 % o == 0 for o in orders) and sum(3 % o == 0 for o in orders) == 3):
            return _refuted("not-elementary-two-times-three", group_order=G.order)
        chosen = []
        for c in cosets_by_definition(G, H):
            centre = next(v for v in c if G.inverses[v] == v)
            chosen.extend([centre, min(v for v in c if v != centre)])
        return True, "elementary-two-times-three", tuple(sorted(chosen)), None
    return _refuted("subgroup-order-unsuitable", subgroup_order=H.order)


def _reference_extended_perfect(G: Group, H: Subgroup) -> tuple:
    if H.order == 1:
        return True, "trivial-subgroup", tuple(v for v in range(G.order) if G.inverses[v] >= v), None
    outside = sorted({G.rows[x][x] for x in range(G.order)} - set(H.members))
    if not outside:
        witness = tuple(sorted(c[0] for c in cosets_by_definition(G, H)))
        return True, "squares-inside-subgroup", witness, None
    sq = outside[0]
    element = min(x for x in range(G.order) if G.rows[x][x] == sq)
    return _refuted("square-outside-subgroup", element=element, square=sq)


def _reference_extended_total(G: Group, H: Subgroup) -> tuple:
    if H.order != 2:
        return _refuted("subgroup-order-not-two", subgroup_order=H.order)
    h = next(m for m in H.members if m != G.identity)
    chosen = set()
    for x in range(G.order):
        y = G.inverses[x]
        component = (x, G.rows[x][h], y, G.rows[y][h])
        if x == min(component):
            chosen |= {x, min(v for v in component[2:] if v != x)}
    return True, "order-two-subgroup", tuple(sorted(chosen)), None


def reference_verdict(G: Group, H: Subgroup, extended: bool, total: bool) -> tuple:
    """``(exists, rule, witness, certificate)`` the deciders must give for
    the question (extended, total), read unit by unit."""
    if extended:
        return (_reference_extended_total if total else _reference_extended_perfect)(G, H)
    return (_reference_total if total else _reference_perfect)(G, H)
