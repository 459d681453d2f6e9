"""Group construction, validation, subgroup and coset machinery."""

import itertools
import math
import os
import random
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sumgraph import (
    BadParameterError,
    CyclicExpr,
    InternalInconsistencyError,
    NoIdentityError,
    NoInverseError,
    NotASubgroupError,
    NotAssociativeError,
    NotLatinSquareError,
    NotNormalError,
    Subgroup,
    SumGraphError,
    abelian,
    abelian_isomorphism_types,
    build_graph,
    build_group,
    conjugacy_classes,
    cyclic,
    cyclic_perfect_code,
    decide_code,
    decide_perfect_code,
    dicyclic,
    dihedral,
    dihedral_perfect_code,
    direct_product,
    elementary_abelian_2,
    group_from_cayley_table,
    max_supported_order,
    normal_subgroups,
    parse_group_expr,
    quaternion,
    right_cosets,
    subgroup_generated,
    sweep_groups,
)

from sumgraph import groups as groups_module

from helpers import (
    VERIFY_GROUPS,
    cosets_by_definition,
    greedy_generators,
    is_dedekind,
    is_normal_by_definition,
    permutation_group,
    relabelled,
    subgroup_as_group,
    sweep,
    units_by_definition,
    validate_by_definition,
)


def _full_scan_violation(table):
    """Reference associativity check: the first (x, y, z) with
    (x*y)*z != x*(y*z) over all n^3 triples, or None."""
    t = np.asarray(table, dtype=np.int64)
    bad = np.argwhere(t[t, :] != t[:, t])  # [x, y, z]: (x*y)*z vs x*(y*z)
    return tuple(int(v) for v in bad[0]) if len(bad) else None


def _power(i, suffix):
    if i == 0:
        return suffix or "e"
    return ("a" if i == 1 else f"a^{i}") + suffix


def _dihedral_loop(n):
    """Reference per-cell construction of the dihedral table and labels."""
    size = 2 * n
    table = np.empty((size, size), dtype=np.int64)
    for x in range(size):
        i, xf = x % n, x >= n
        for y in range(size):
            j, yf = y % n, y >= n
            if not xf and not yf:
                table[x, y] = (i + j) % n
            elif not xf and yf:
                table[x, y] = n + (i + j) % n
            elif xf and not yf:
                table[x, y] = n + (i - j) % n
            else:
                table[x, y] = (i - j) % n
    labels = [_power(i, "") for i in range(n)] + [_power(i, "b") for i in range(n)]
    return table, tuple(labels)


def _dicyclic_loop(n):
    """Reference per-cell construction of the dicyclic table and labels."""
    m = 2 * n
    size = 4 * n

    def b_index(exp):
        return m + (exp - 1) % m

    table = np.empty((size, size), dtype=np.int64)
    for x in range(size):
        xf = x >= m
        i = (x % m + 1) % m if xf else x
        for y in range(size):
            yf = y >= m
            j = (y % m + 1) % m if yf else y
            if not xf and not yf:
                table[x, y] = (i + j) % m
            elif not xf and yf:
                table[x, y] = b_index(i + j)
            elif xf and not yf:
                table[x, y] = b_index(i - j)
            else:
                table[x, y] = (i - j + n) % m
    labels = [_power(i, "") for i in range(m)] + [_power((i + 1) % m, "b") for i in range(m)]
    return table, tuple(labels)


def _direct_product_reference(*factors):
    """Reference product table and labels: one fancy-indexed add per factor."""
    sizes = [g.order for g in factors]
    n = math.prod(sizes)
    strides = [math.prod(sizes[k + 1 :]) for k in range(len(sizes))]
    table = np.zeros((n, n), dtype=np.int64)
    coords = []
    for g, size, stride in zip(factors, sizes, strides):
        c = (np.arange(n) // stride) % size
        coords.append(c)
        table += g.table.astype(np.int64)[np.ix_(c, c)] * stride
    labels = tuple(
        "(" + ",".join(g.labels[int(c[x])] for g, c in zip(factors, coords)) + ")"
        for x in range(n)
    )
    return table, labels


def _closure_reference(table, seed):
    """Reference closure: smallest product-closed superset of ``seed``,
    re-multiplying the whole set by itself until it stops growing."""
    idx = np.unique(np.fromiter(seed, dtype=np.int64))
    while True:
        prods = table[np.ix_(idx, idx)].ravel()
        merged = np.union1d(idx, prods)
        if merged.size == idx.size:
            return frozenset(int(v) for v in idx)
        idx = merged


def _normal_subgroups_reference(G):
    """Reference lattice, to a fixed point: the atoms are the normal
    closures of the conjugacy classes, each closed by
    :func:`_closure_reference`, and each normal subgroup B found is joined
    with each atom A as the set product B*A, which is their join since both
    are normal.  Every normal subgroup is the join of the atoms of the
    classes it holds."""
    atoms = {_closure_reference(G.table, c) for c in conjugacy_classes(G)}
    atoms = [(atom, np.fromiter(atom, dtype=np.int64)) for atom in atoms]
    seed = frozenset([G.identity])
    found = {seed}
    queue = [seed]
    while queue:
        base = queue.pop()
        rows = np.fromiter(base, dtype=np.int64)
        for atom, columns in atoms:
            if atom <= base:
                continue
            ext = frozenset(G.table[np.ix_(rows, columns)].ravel().tolist())
            if ext not in found:
                found.add(ext)
                queue.append(ext)
    return [tuple(sorted(s)) for s in sorted(found, key=lambda s: (len(s), tuple(sorted(s))))]


def _all_subgroups_reference(G):
    """Reference lattice of every subgroup: extend each known subgroup by
    one element and re-close, to a fixed point."""
    seed = frozenset([G.identity])
    found = {seed}
    queue = [seed]
    while queue:
        base = queue.pop()
        for g in range(G.order):
            if g in base:
                continue
            ext = _closure_reference(G.table, base | {g})
            if ext not in found:
                found.add(ext)
                queue.append(ext)
    return [tuple(sorted(s)) for s in sorted(found, key=lambda s: (len(s), tuple(sorted(s))))]


def test_cyclic_is_modular_addition():
    G = cyclic(6)
    assert G.order == 6
    assert G.labels == ("0", "1", "2", "3", "4", "5")
    for i in range(6):
        for j in range(6):
            assert G.rows[i][j] == (i + j) % 6
    assert G.identity == 0
    assert G.inverses[2] == 4
    assert str(G.tag) == "Z6"


def test_dihedral_labels_and_relations():
    G = dihedral(4)
    assert G.order == 8
    assert G.labels == ("e", "a", "a^2", "a^3", "b", "ab", "a^2b", "a^3b")
    a, b = 1, 4
    # b has order 2, a has order 4, and conjugation by b inverts a
    assert G.rows[b][b] == G.identity
    assert G.element_orders[a] == 4
    assert G.rows[G.rows[b][a]][G.inverses[b]] == G.inverses[a]
    # flips are exactly the elements of order 2 together with a^2
    assert G.involution_set == {2, 4, 5, 6, 7}
    assert str(G.tag) == "D8"


def test_dicyclic_relations():
    n = 3
    G = dicyclic(n)
    assert G.order == 4 * n
    a = 1
    b = G.label_index["b"]
    assert G.labels[-1] == "b"
    assert G.element_orders[a] == 2 * n
    # b^2 = a^n and b a b^-1 = a^-1
    assert G.rows[b][b] == n  # a^n sits at index n
    assert G.rows[G.rows[b][a]][G.inverses[b]] == G.inverses[a]
    # a^n is the unique involution
    assert G.involution_set == {n}
    assert str(G.tag) == "Dic3"


def test_quaternion_unit_multiplication():
    G = quaternion()
    assert G.labels == ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    li = G.label_index
    assert G.rows[li["i"]][li["j"]] == li["k"]
    assert G.rows[li["j"]][li["i"]] == li["-k"]
    assert G.rows[li["i"]][li["i"]] == li["-1"]
    assert G.rows[li["-1"]][li["-1"]] == li["1"]
    assert G.involution_set == {li["-1"]}


# Hamilton's rules on the units 1, i, j, k: (x, y) -> (unit, sign) of x*y.
_Q8_UNIT_MUL = {
    ("1", "1"): ("1", 1), ("1", "i"): ("i", 1), ("1", "j"): ("j", 1), ("1", "k"): ("k", 1),
    ("i", "1"): ("i", 1), ("j", "1"): ("j", 1), ("k", "1"): ("k", 1),
    ("i", "i"): ("1", -1), ("j", "j"): ("1", -1), ("k", "k"): ("1", -1),
    ("i", "j"): ("k", 1), ("j", "i"): ("k", -1),
    ("j", "k"): ("i", 1), ("k", "j"): ("i", -1),
    ("k", "i"): ("j", 1), ("i", "k"): ("j", -1),
}


def test_quaternion_matches_hamilton_rules():
    # reference construction: index 2u + (sign < 0) for the unit u of 1, i, j, k
    labels = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    units = ("1", "i", "j", "k")
    table = np.empty((8, 8), dtype=np.int64)
    for x in range(8):
        for y in range(8):
            unit, sign = _Q8_UNIT_MUL[(units[x // 2], units[y // 2])]
            negative = (x & 1) ^ (y & 1) ^ (sign < 0)
            table[x, y] = 2 * units.index(unit) + negative
    reference = group_from_cayley_table(table, labels)
    G = quaternion()
    assert np.array_equal(G.table, reference.table)
    assert G.labels == reference.labels
    assert G.tag == parse_group_expr("Q8")


def test_direct_product_componentwise():
    G = direct_product(cyclic(4), cyclic(3))
    assert G.order == 12
    assert G.labels[0] == "(0,0)"
    assert G.labels[1] == "(0,1)"  # last coordinate varies fastest
    assert G.labels[3] == "(1,0)"
    # (1,2)*(3,2) = (0,1)
    x = G.label_index["(1,2)"]
    y = G.label_index["(3,2)"]
    assert G.labels[G.rows[x][y]] == "(0,1)"
    assert G.abelian
    factor_lists = [
        (dihedral(4), cyclic(3)), (quaternion(), cyclic(2), cyclic(4)), (dicyclic(3), dihedral(3)),
        (dihedral(4), dihedral(4), cyclic(2)), (quaternion(), quaternion()), (cyclic(1), dihedral(5)),
    ]
    for factors in factor_lists:
        G = direct_product(*factors)
        table, labels = _direct_product_reference(*factors)
        assert np.array_equal(G.table, table) and G.labels == labels, factors
        assert G.tag.parts == tuple(g.tag for g in factors)


def test_elementary_abelian_two_group():
    G = elementary_abelian_2(3)
    assert G.order == 8
    for g in range(1, 8):
        assert G.element_orders[g] == 2
    assert elementary_abelian_2(0).order == 1


def test_abelian_matches_product_of_cyclic_factors():
    types = [f for f in abelian_isomorphism_types(128) if len(f) > 1] + [(2,) * 9, (1, 2), (3, 1)]
    for factors in types:
        G = abelian(list(factors))
        P = direct_product(*(cyclic(f) for f in factors))
        table, labels = _direct_product_reference(*(cyclic(f) for f in factors))
        assert G.table.dtype == P.table.dtype
        assert G.table.tobytes() == P.table.tobytes(), factors
        assert np.array_equal(G.table, table), factors
        assert G.labels == P.labels == labels and G.tag == P.tag, factors


def test_squares_are_doubles_in_additive_groups():
    G = cyclic(8)
    assert G.square_set == {0, 2, 4, 6}
    G = cyclic(5)
    assert G.square_set == {0, 1, 2, 3, 4}


def test_rejects_non_latin_table():
    table = [[0, 1, 2, 3], [1, 2, 1, 0], [2, 3, 0, 1], [3, 0, 1, 2]]
    with pytest.raises(NotLatinSquareError) as exc:
        group_from_cayley_table(table)
    assert "row 1" in str(exc.value)


def test_rejects_table_without_identity():
    table = [[1, 2, 3, 0], [0, 1, 2, 3], [2, 3, 0, 1], [3, 0, 1, 2]]
    with pytest.raises(NoIdentityError):
        group_from_cayley_table(table)


def test_rejects_table_with_one_sided_inverse():
    # a Latin square with two-sided identity 0 in which element 2 has right
    # inverse 3 but left inverse 4
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(NoInverseError) as exc:
        group_from_cayley_table(table)
    assert "2" in str(exc.value)


def test_rejects_non_associative_table():
    # swapping an intercalate of the Z6 table preserves the Latin property,
    # the identity, and all inverses, but breaks associativity
    table = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    r, s = 1, 4
    table[r][r], table[r][s] = table[r][s], table[r][r]
    table[s][r], table[s][s] = table[s][s], table[s][r]
    with pytest.raises(NotAssociativeError) as exc:
        group_from_cayley_table(table)
    message = str(exc.value)
    assert "(" in message and "," in message  # names the violating triple


def _intercalate_swaps(table):
    """Every table obtained by swapping one 2x2 intercalate of ``table``
    that keeps index 0 a two-sided identity and every inverse two-sided."""
    n = len(table)
    for r1 in range(n):
        for r2 in range(r1 + 1, n):
            for c1 in range(n):
                for c2 in range(c1 + 1, n):
                    if table[r1][c1] != table[r2][c2] or table[r1][c2] != table[r2][c1]:
                        continue
                    t = [row[:] for row in table]
                    t[r1][c1], t[r1][c2] = t[r1][c2], t[r1][c1]
                    t[r2][c1], t[r2][c2] = t[r2][c2], t[r2][c1]
                    if any(t[0][x] != x or t[x][0] != x for x in range(n)):
                        continue
                    if any(t[t[x].index(0)][x] != 0 for x in range(n)):
                        continue
                    yield t


def test_light_test_agrees_with_full_scan_on_intercalate_swaps():
    swaps = 0
    for G in (cyclic(6), cyclic(12), dihedral(6), quaternion(),
              direct_product(cyclic(2), cyclic(6))):
        for t in _intercalate_swaps(G.table.tolist()):
            swaps += 1
            if _full_scan_violation(t) is None:
                assert group_from_cayley_table(t).order == G.order
                continue
            with pytest.raises(NotAssociativeError) as exc:
                group_from_cayley_table(t)
            triple = re.search(r"\((\d+), (\d+), (\d+)\)", str(exc.value))
            x, a, y = (int(v) for v in triple.groups())
            assert t[t[x][a]][y] != t[x][t[a][y]]
    assert swaps > 100


def test_light_test_names_the_same_triple_in_any_row_blocks(monkeypatch):
    """Light's test compares each round in blocks of rows; whatever their
    size, from one row to the whole table, a table that is not
    associative is named by the same first failing (x, a, y) in row-major
    order, so the message is that of one whole n x n compare."""
    tables = [t for G in (cyclic(12), dihedral(6), direct_product(cyclic(2), cyclic(6)))
              for t in _intercalate_swaps(G.table.tolist()) if _full_scan_violation(t) is not None]
    tables += [_swap_intercalate(_z256(), 1, 129, 2, 130), _swap_intercalate(_z256(), 72, 200, 100, 228)]
    # Z6 with an intercalate swapped and every label shifted by one: the identity is 1, row 0 fails
    tables.append([[5, 0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3],
                   [2, 3, 4, 5, 0, 1], [3, 4, 5, 0, 1, 2], [4, 5, 3, 1, 2, 0]])
    messages = {}
    for cells in (1 << 20, 1 << 16, 7 * 256, 256, 300, 1):
        monkeypatch.setattr(groups_module, "_LIGHT_BLOCK_CELLS", cells)
        for i, t in enumerate(tables):
            with pytest.raises(NotAssociativeError) as exc:
                group_from_cayley_table(t)
            assert messages.setdefault(i, str(exc.value)) == str(exc.value), (cells, i)
    assert messages[len(tables) - 3] == "associativity fails at (1, 1, 1): (1*1)*1 != 1*(1*1)"
    assert messages[len(tables) - 2] == "associativity fails at (71, 1, 100): (71*1)*100 != 71*(1*100)"
    assert messages[len(tables) - 1] == "associativity fails at (0, 0, 2): (0*0)*2 != 0*(0*2)"
    assert len(tables) > 30


def _quaternion_by_relabelling(_):
    """Q8 read off the validated ``dicyclic(2)`` by label: 1 = e, i = a,
    j = b, -1 = a^2 and k = ij = ab."""
    D = dicyclic(2)
    dic = [D.label_index[x] for x in ("e", "a^2", "a", "a^3", "b", "a^2b", "ab", "a^3b")]
    table = np.array([[dic.index(D.rows[x][y]) for y in dic] for x in dic])
    return table, ("1", "-1", "i", "-i", "j", "-j", "k", "-k")


def test_vectorised_constructors_match_loops():
    cases = [(dihedral, _dihedral_loop, n) for n in range(3, 65)] + [
        (dicyclic, _dicyclic_loop, n) for n in range(2, 33)
    ]
    cases.append((lambda _: quaternion(), _quaternion_by_relabelling, None))
    cases += [(dihedral, _dihedral_loop, 128), (dihedral, _dihedral_loop, 256),
              (dicyclic, _dicyclic_loop, 64), (dicyclic, _dicyclic_loop, 128)]
    for build, reference, n in cases:
        G = build(n)
        table, labels = reference(n)
        assert np.array_equal(G.table, table), (build.__name__, n)
        assert G.labels == labels, (build.__name__, n)
        if G.order == 512:  # D512 and Dic128: the loops' table, in int16 and byte for byte
            assert G.table.dtype == np.int16, (build.__name__, n)
            assert G.table.tobytes() == table.astype(np.int16).tobytes(), (build.__name__, n)

    i = np.arange(512)
    for G, table in ((cyclic(512), np.add.outer(i, i) % 512),
                     (elementary_abelian_2(9), np.bitwise_xor.outer(i, i))):
        assert G.table.dtype == np.int16, G
        assert G.table.tobytes() == table.astype(np.int16).tobytes(), G


def test_order_cap_is_checked_before_allocation(monkeypatch):
    monkeypatch.delenv("SUMGRAPH_MAX_ORDER", raising=False)
    cases = ((cyclic, 2000), (dihedral, 1000), (dicyclic, 500), (dihedral, 10**6), (dicyclic, 10**6))
    for build, param in cases:
        tracemalloc.start()
        try:
            with pytest.raises(BadParameterError, match="exceeds the supported cap"):
                build(param)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (build.__name__, peak)


@pytest.mark.parametrize(
    "table, labels, message",
    [
        ([], None, "table must be square"),
        ([[0, 1], [1]], None, "table must be a square array of integers"),
        ([[0]], 7, "labels must be a sequence, got int"),
        ([[0, 1], [1, 0]], "ab", "labels must be a sequence of strings, not a str"),
        ([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]], ["e", "a", "a", "c"], "label 'a' is repeated"),
        (None, None, "table must be a square array of integers"),
        ([[0, 1, 0], [1, 0, 1]], None, r"table must be square, got shape \(2, 3\)"),
        ([[0, 1], [1, 0], [0, 1]], None, r"table must be square, got shape \(3, 2\)"),
        (np.zeros((0, 0), dtype=np.int64), None, "a group has at least one element"),
        ([[0, 1], [1, 0]], ["e"], "expected 2 labels, got 1"),
        ([[0.0, 1.9], [1.2, 0.3]], None, "table must be a square array of integers, not of float64"),
        ([[0, 1.5], [1, 0]], None, "table must be a square array of integers, not of float64"),
        ([[0, "1"], ["1", 0]], None, "table must be a square array of integers, not of <U"),
        (np.array([[False, True], [True, False]]), None, "table must be a square array of integers, not of bool"),
    ],
    ids=[
        "empty", "ragged-table", "labels-not-list", "labels-string", "repeated-label", "none", "wide", "tall",
        "zero-by-zero", "label-count", "floats", "one-float", "strings", "bools",
    ],
)
def test_group_from_cayley_table_rejects_malformed_input(table, labels, message):
    with pytest.raises(BadParameterError, match=message):
        group_from_cayley_table(table, labels)


def test_repeated_labels_are_rejected():
    """A label names one element: with two elements labelled 'a', the
    second could never be reached by its label.  A string is not split
    into one label per character."""
    for labels in ("xy", b"xy"):
        with pytest.raises(BadParameterError, match="labels must be a sequence of strings"):
            group_from_cayley_table([[0, 1], [1, 0]], labels)
    table = cyclic(4).table
    with pytest.raises(BadParameterError, match="label 'a' is repeated"):
        group_from_cayley_table(table, ("e", "a", "a", "c"))
    with pytest.raises(BadParameterError, match="label <50-character text> is repeated"):
        group_from_cayley_table(table, ("e", "x" * 50, "c", "x" * 50))
    G = group_from_cayley_table(table, ("e", "a", "b", "c"))
    assert G.label_index == {"e": 0, "a": 1, "b": 2, "c": 3}


def test_rejects_out_of_range_entries():
    with pytest.raises(BadParameterError):
        group_from_cayley_table([[0, 1], [1, 7]])
    with pytest.raises(BadParameterError):
        group_from_cayley_table([[0, 1]])


def _z256():
    return [[(i + j) % 256 for j in range(256)] for i in range(256)]


def _swap_intercalate(t, r1, r2, c1, c2):
    t[r1][c1], t[r1][c2] = t[r1][c2], t[r1][c1]
    t[r2][c1], t[r2][c2] = t[r2][c2], t[r2][c1]
    return t


def test_narrowed_validation_keeps_every_failure_at_order_256():
    """Validation narrows the table to int16 after the range check, so an
    entry that would wrap round in int16 (2**16 + 1 -> 1) must still be
    refused, and every later check must name what it named in int64."""
    cases = []
    for value in (-1, 256, 2**15, 2**16 + 1, 2**40):
        t = _z256()
        t[3][5] = value
        cases.append((t, BadParameterError, "table entries must lie in 0..255"))
    t = _z256()
    t[5][7] = t[5][8]
    cases.append((t, NotLatinSquareError, "row 5 is not a permutation"))
    t = _z256()
    t[5][7], t[5][8] = t[5][8], t[5][7]
    cases.append((t, NotLatinSquareError, "column 7 is not a permutation"))
    t = _z256()
    t[1], t[2] = t[2], t[1]
    cases.append((t, NoIdentityError, "no two-sided identity element"))
    # 1*127 = 0 but 127*1 = 128: a right inverse that is not a left one
    cases.append((_swap_intercalate(_z256(), 1, 129, 255, 127), NoInverseError,
                  "element 1 has no two-sided inverse"))
    cases.append((_swap_intercalate(_z256(), 1, 129, 2, 130), NotAssociativeError,
                  "associativity fails at (1, 1, 1): (1*1)*1 != 1*(1*1)"))
    for table, error, message in cases:
        for form in (table, np.array(table, dtype=np.int64)):
            with pytest.raises(error) as exc:
                group_from_cayley_table(form)
            assert type(exc.value) is error and str(exc.value) == message


def _mutated(data, G):
    """G's table after one to three seeded edits: a point edit (possibly
    out of range), an intercalate swap away from the identity's row and
    column, a swap of two rows, or a relabelling of every element."""
    n, e = G.order, G.identity
    t = G.table.tolist()
    index = st.integers(0, n - 1)
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        kind = data.draw(st.sampled_from(("intercalate", "point", "rows", "relabel")), label="kind")
        if kind == "intercalate":
            rest = [x for x in range(n) if x != e]
            swaps = [(r1, r2, c1, c2) for r1, r2 in itertools.combinations(rest, 2)
                     for c1, c2 in itertools.combinations(rest, 2)
                     if t[r1][c1] == t[r2][c2] and t[r1][c2] == t[r2][c1]]
            if swaps:
                _swap_intercalate(t, *data.draw(st.sampled_from(swaps), label="swap"))
        elif kind == "point":
            r, c = data.draw(index, label="row"), data.draw(index, label="column")
            t[r][c] = data.draw(st.integers(-1, n), label="value")
        elif kind == "rows":
            r1, r2 = data.draw(index, label="r1"), data.draw(index, label="r2")
            t[r1], t[r2] = t[r2], t[r1]
        else:
            perm = data.draw(st.permutations(range(n)), label="perm")
            out = [[0] * n for _ in range(n)]
            for x in range(n):
                for y in range(n):
                    v = t[x][y]
                    out[perm[x]][perm[y]] = perm[v] if 0 <= v < n else v
            t, e = out, perm[e]
    return t


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_validation_failures_match_the_definition(data):
    """Whatever order the checks run in, a mutated table raises the error
    of the first property it breaks in the documented order, with the
    documented message; a broken associativity names a failing triple."""
    groups = [G for G in sweep() if G.order <= 32]
    G = groups[data.draw(st.integers(0, len(groups) - 1), label="group")]
    table = _mutated(data, G)
    try:
        validate_by_definition(table)
    except SumGraphError as exc:
        want = exc
    else:
        event("accepted")
        assert group_from_cayley_table(table).order == G.order
        return
    event(type(want).__name__)
    with pytest.raises(SumGraphError) as got:
        group_from_cayley_table(table)
    assert type(got.value) is type(want)
    if isinstance(want, NotAssociativeError):
        x, a, y = (int(v) for v in re.search(r"\((\d+), (\d+), (\d+)\)", str(got.value)).groups())
        assert table[table[x][a]][y] != table[x][table[a][y]]
    else:
        assert str(got.value) == str(want)


def test_non_latin_table_fails_within_log_n_light_rounds(monkeypatch):
    """A table of order 512 with a two-sided identity and inverses whose
    rows repeat an entry is named as not a Latin square after at most
    log2(512) + 1 = 10 rounds of Light's test, also when eight rounds pass
    before one fails.  One whose column 0 is all zeros, so that every row
    is a candidate identity, is named before any round, in well under a
    second."""
    passed = []
    add = groups_module._Closure.add

    def counting_add(self, g, column=None):
        passed.append(g)
        add(self, g, column)

    i = np.arange(512)
    z512 = np.add.outer(i, i) % 512
    z512[5, 7] = z512[5, 8]
    # the product of E2^7 with a four-element table whose element 1 passes
    # Light's test but whose rows 2 and 3 repeat 0: element (m, z) is m*128 + z
    loop = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 0], [3, 2, 0, 0]])
    xor = np.bitwise_xor.outer(i[:128], i[:128])
    product = (loop[:, None, :, None] * 128 + xor[None, :, None, :]).reshape(512, 512)
    zero_column = np.add.outer(i, i) % 512
    zero_column[:, 0] = 0
    monkeypatch.setattr(groups_module._Closure, "add", counting_add)
    for table, message, rounds_passed in ((z512, "row 5 is not a permutation", 0),
                                          (product, "row 256 is not a permutation", 8),
                                          (zero_column, "row 1 is not a permutation", 0)):
        passed.clear()
        start = time.perf_counter()
        with pytest.raises(NotLatinSquareError) as exc:
            group_from_cayley_table(table)
        assert time.perf_counter() - start < 1.0
        assert str(exc.value) == message
        assert len(passed) == rounds_passed and len(passed) + 1 <= 10


def test_identity_is_found_from_column_0():
    """The identity is looked for among the rows with a 0 in column 0: a
    relabelled group's identity is found wherever it lies, and a table
    whose first candidate fails goes on to the next."""
    for G in (cyclic(7), dihedral(6), quaternion(), build_group(parse_group_expr("Z2 x Dic3"))):
        for seed in range(3):
            H, perm = relabelled(G, seed)
            assert H.identity == perm[G.identity] != 0
            assert all(H.inverses[perm[x]] == perm[G.inverses[x]] for x in range(G.order))
    # rows 0 and 1 hold 0 in column 0; only element 1 is a two-sided identity
    table = [[0, 0, 1], [0, 1, 2], [1, 2, 0]]
    assert groups_module._identity_and_inverses(np.array(table, dtype=np.int16)) == (1, (2, 1, 0))
    with pytest.raises(NotLatinSquareError, match="row 0 is not a permutation"):
        group_from_cayley_table(table)
    with pytest.raises(NotLatinSquareError):
        validate_by_definition(table)


def test_each_group_is_validated_once(monkeypatch):
    """A group built by a constructor or from an expression runs Light's
    test once, on the table it returns: a product composes its factors'
    tables and Q8 relabels Dic2's, unvalidated."""
    Q8, Z3 = quaternion(), cyclic(3)
    checked = []
    check = groups_module._check_associative

    def counting(table, identity):
        checked.append(len(table))
        return check(table, identity)

    monkeypatch.setattr(groups_module, "_check_associative", counting)
    builds = [lambda text=text: build_group(parse_group_expr(text))
              for text in ("Q8", "Q8 x Z4", "Z2 x Z2 x Z64", "(Z2 x Q8) x D8", "E2^3 x Dic3")]
    builds += [lambda: cyclic(6), lambda: dihedral(5), lambda: dicyclic(3), quaternion,
               lambda: abelian([2, 4, 3]), lambda: elementary_abelian_2(3),
               lambda: direct_product(Q8, Z3)]
    for build in builds:
        checked.clear()
        G = build()
        assert checked == [G.order], G.name


def _product_texts(depth):
    """Strategy for (text, order) of a product of two or three parts, each
    an atom or, above depth 0, a parenthesised product."""
    atoms = st.one_of(
        st.integers(1, 12).map(lambda n: (f"Z{n}", n)),
        st.integers(3, 8).map(lambda n: (f"D{2 * n}", 2 * n)),
        st.integers(2, 4).map(lambda n: (f"Dic{n}", 4 * n)),
        st.just(("Q8", 8)),
        st.integers(0, 3).map(lambda t: (f"E2^{t}", 2**t)),
    )
    parts = atoms if depth == 0 else st.one_of(atoms, _product_texts(depth - 1).map(lambda p: (f"({p[0]})", p[1])))
    return st.lists(parts, min_size=2, max_size=3).map(
        lambda ps: (" x ".join(t for t, _ in ps), math.prod(n for _, n in ps)))


@settings(max_examples=60, deadline=None)
@given(_product_texts(1).filter(lambda p: p[1] <= 256))
def test_composed_product_matches_product_of_built_factors(product):
    """Composing the parts' unvalidated tables gives what direct_product of
    the validated parts gives: the table byte for byte, labels and tag."""
    expr = parse_group_expr(product[0])
    G = build_group(expr)
    P = direct_product(*(build_group(part) for part in expr.parts))
    assert G.table.tobytes() == P.table.tobytes()
    assert G.labels == P.labels and str(G.tag) == str(P.tag) == product[0]


def test_validation_sorts_only_to_name_a_fault(monkeypatch):
    def refuse(table):
        raise AssertionError("the Latin-square sorts ran on a group table")

    monkeypatch.setattr(groups_module, "_check_latin", refuse)
    for text in ("D512", "Dic128", "E2^9", "Z512", "Q8 x Z4", "Z1"):
        build_group(parse_group_expr(text))
    relabelled(dihedral(12), 3)


def test_constructor_parameter_validation():
    with pytest.raises(BadParameterError):
        cyclic(0)
    with pytest.raises(BadParameterError):
        dihedral(2)
    with pytest.raises(BadParameterError):
        dicyclic(1)
    with pytest.raises(BadParameterError):
        abelian([3, 0])
    with pytest.raises(BadParameterError, match="sequence"):
        abelian(5)  # a bare order, not a list of factor orders
    # a huge negative parameter is named by its digit count, not printed
    for build, arg in (
        (cyclic, -10**5000), (dihedral, -10**5000), (dicyclic, -10**5000),
        (abelian, [-10**5000, 2]), (elementary_abelian_2, -10**5000), (sweep_groups, -10**5000),
    ):
        with pytest.raises(BadParameterError, match="-<5001-digit number> out of range"):
            build(arg)
    # a float, a string or a bool is not truncated, parsed or read as 0 or 1
    for build, arg in (
        (cyclic, 2.5), (cyclic, 6.0), (cyclic, "6"), (dihedral, 4.0), (dicyclic, 2.5),
        (abelian, [2.0, 3]), (elementary_abelian_2, "3"), (sweep_groups, 8.5),
        (cyclic, True), (cyclic, np.True_), (dihedral, True), (dicyclic, True),
        (abelian, [True, 2]), (elementary_abelian_2, False), (sweep_groups, True),
    ):
        with pytest.raises(BadParameterError, match="is not an integer"):
            build(arg)


def test_order_cap_and_env_override():
    with pytest.raises(BadParameterError):
        cyclic(513)
    old = os.environ.get("SUMGRAPH_MAX_ORDER")
    os.environ["SUMGRAPH_MAX_ORDER"] = "520"
    try:
        G = cyclic(514)
        assert G.order == 514
    finally:
        if old is None:
            del os.environ["SUMGRAPH_MAX_ORDER"]
        else:
            os.environ["SUMGRAPH_MAX_ORDER"] = old


def test_order_cap_stops_where_int16_indices_end(monkeypatch):
    """Every table is int16, so 32,767 is the highest cap: above it an
    index would not fit the table."""
    for raw in ("1", "32767"):
        monkeypatch.setenv("SUMGRAPH_MAX_ORDER", raw)
        assert max_supported_order() == int(raw)
    for raw in ("32768", "65536", "9" * 30):
        monkeypatch.setenv("SUMGRAPH_MAX_ORDER", raw)
        with pytest.raises(BadParameterError, match=r"out of range: must be in 1\.\.32767$"):
            max_supported_order()


def test_groups_are_named_by_their_expressions():
    groups = (
        cyclic(7), dihedral(4), quaternion(), direct_product(cyclic(2), cyclic(4)),
        elementary_abelian_2(3), direct_product(quaternion(), dicyclic(3)),
    )
    names = ["Z7", "D8", "Q8", "Z2 x Z4", "E2^3", "Q8 x Dic3"]
    for G, name in zip(groups, names):
        assert G.name == str(G.tag) == name
        assert build_group(parse_group_expr(name)).tag == G.tag
    bare = group_from_cayley_table(cyclic(3).table)
    assert bare.tag is None and bare.name == "generic"
    # a product with a bare factor has no expression either
    assert direct_product(bare, cyclic(2)).name == "generic"


def test_rebuilding_from_table_revalidates():
    rng = random.Random(7)
    for _ in range(5):
        n = rng.randrange(2, 12)
        G = rng.choice([cyclic(n), dihedral(max(3, n)), direct_product(cyclic(2), cyclic(n))])
        back = group_from_cayley_table(G.table.tolist(), labels=G.labels)
        assert back.order == G.order
        assert back.identity == G.identity


def test_subgroup_validation():
    G = cyclic(12)
    H = Subgroup(G, [0, 4, 8])
    assert len(H) == 3 and H.is_normal
    with pytest.raises(NotASubgroupError):
        Subgroup(G, [0, 4, 7])  # not closed
    with pytest.raises(NotASubgroupError, match=r"not closed under products: 1 \* 1 = 2 is outside"):
        Subgroup(cyclic(3), [0, 1])  # closed under no inverse: the inverse 2 of 1 is 1 * 1
    with pytest.raises(NotASubgroupError):
        Subgroup(G, [4, 8])  # no identity
    with pytest.raises(NotASubgroupError, match="a subgroup cannot be empty"):
        Subgroup(G, [])
    with pytest.raises(NotASubgroupError):
        Subgroup(G, [0, 99])  # out of range
    with pytest.raises(NotASubgroupError, match="<5001-digit number> out of range"):
        Subgroup(G, [0, 10**5000])
    assert Subgroup(G, [np.int64(0), np.int64(6)]).members == (0, 6)
    C = cyclic(4)
    for members in ([0, 2.7], ["0", "2"], ["a"], [None], [0, True, 2, 3]):  # 2.7 is not 2, True not 1
        with pytest.raises(BadParameterError, match="is not an integer"):
            Subgroup(C, members)


def test_subgroup_generated():
    G = dihedral(4)
    H = subgroup_generated(G, [2, 4])  # <a^2, b>
    assert tuple(H.members) == (0, 2, 4, 6)
    assert subgroup_generated(G, []).members == (0,)
    assert len(subgroup_generated(G, [1])) == 4
    assert subgroup_generated(G, [np.int64(2)]).members == (0, 2)
    C = cyclic(12)
    with pytest.raises(BadParameterError, match="is not an integer"):
        subgroup_generated(C, [1.5])  # not truncated to <1>
    with pytest.raises(BadParameterError, match="is not an integer"):
        subgroup_generated(C, ["3"])
    with pytest.raises(BadParameterError, match="^generator True is not an integer$"):
        subgroup_generated(C, [True])  # not read as <1>
    with pytest.raises(BadParameterError, match="out of range"):
        subgroup_generated(C, [12])


def test_subgroup_generated_matches_reference_closure():
    rng = random.Random(20241217)
    groups = [dihedral(8), dicyclic(6), quaternion(), direct_product(quaternion(), cyclic(2)),
              abelian([2, 2, 6]), cyclic(60), build_group(parse_group_expr("D8 x D8 x Z2"))]
    for G in groups:
        e = G.identity
        cases = [[], [e], [e, e]]
        for _ in range(40):
            gens = [rng.randrange(G.order) for _ in range(rng.randint(1, 4))]
            cases.append(gens + gens[: rng.randint(0, len(gens))])  # some duplicated
        for gens in cases:
            want = tuple(sorted(_closure_reference(G.table, gens + [e])))
            assert subgroup_generated(G, gens).members == want, (G, gens)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_subgroups_match_references_on_plain_and_relabelled_tables(data):
    """A generated subgroup has the reference closure's members, and its
    normality, like that of the same members given by hand, is the
    conjugation of every member by every element."""
    groups = sweep()
    G = groups[data.draw(st.integers(0, len(groups) - 1), label="group")]
    if data.draw(st.booleans(), label="relabel"):
        G = relabelled(G, data.draw(st.integers(0, 2**16), label="seed"))[0]
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3), label="gens")
    H = subgroup_generated(G, gens)
    assert set(H.members) == _closure_reference(G.table, gens + [G.identity])
    normal = is_normal_by_definition(G, H)
    assert H.is_normal == normal
    assert Subgroup(G, H.members).is_normal == normal


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_subgroup_is_proved_by_its_generators(data):
    """``Subgroup(G, M)`` accepts exactly the member sets that hold every
    product and an inverse of each member, read off the table; it keeps the
    greedy generators and the normality of the definition, and a refusal
    names members a and t whose product a * t lies outside."""
    groups = sweep(32)
    G = groups[data.draw(st.integers(0, len(groups) - 1), label="group")]
    if data.draw(st.booleans(), label="relabel"):
        G = relabelled(G, data.draw(st.integers(0, 2**16), label="seed"))[0]
    n, e = G.order, G.identity
    kind = data.draw(st.sampled_from(["random", "subgroup", "perturbed"]), label="kind")
    if kind == "random":
        members = data.draw(st.sets(st.integers(0, n - 1), max_size=n), label="members") | {e}
    else:
        gens = data.draw(st.lists(st.integers(0, n - 1), max_size=3), label="gens")
        members = set(subgroup_generated(G, gens).members)
        if kind == "perturbed":
            members ^= {data.draw(st.integers(0, n - 1), label="toggled")} - {e}
    closed = all(G.rows[a][b] in members for a in members for b in members)
    inverted = all(any(G.rows[a][b] == e for b in members) for a in members)
    event(f"{kind}: {'subgroup' if closed and inverted else 'refused'}")
    if closed and inverted:
        H = Subgroup(G, members)
        assert H.members == tuple(sorted(members))
        assert list(H._generators) == greedy_generators(G, members)
        assert H.is_normal == is_normal_by_definition(G, members)
    else:
        with pytest.raises(NotASubgroupError) as info:
            Subgroup(G, members)
        named = re.fullmatch(r"not closed under products: (\d+) \* (\d+) = (\d+) is outside", str(info.value))
        a, t, p = map(int, named.groups())
        assert a in members and t in members and G.rows[a][t] == p and p not in members


def test_closure_subgroup_checks_its_generators():
    G = dihedral(4)
    closure = groups_module._Closure(G.table, G.identity, [1])
    assert Subgroup._of_closure(G, closure).members == (0, 1, 2, 3)
    closure.members.pop()  # a member set no longer closed under a^1
    with pytest.raises(InternalInconsistencyError, match="not closed under its generator 1"):
        Subgroup._of_closure(G, closure)


def test_a_join_that_is_not_the_product_of_its_cosets_is_caught(monkeypatch):
    """Each lattice join is keyed by the OR of its base's coset masks and
    then closed: a key that is not the closed join's member mask is an
    internal inconsistency, not a new subgroup."""
    product_mask = groups_module._product_mask
    G = dihedral(6)
    monkeypatch.setattr(groups_module, "_product_mask", lambda *a: product_mask(*a) ^ (1 << G.identity))
    with pytest.raises(InternalInconsistencyError, match="a lattice join is not the product of its cosets"):
        normal_subgroups(G)


def test_trivial_and_whole_subgroups():
    G = dihedral(3)
    assert tuple(Subgroup(G, [G.identity])) == (0,)
    assert len(Subgroup(G, range(G.order))) == 6


def test_normal_subgroups_of_d8():
    G = dihedral(4)
    members = [H.members for H in normal_subgroups(G)]
    assert members == [
        (0,),
        (0, 2),
        (0, 1, 2, 3),
        (0, 2, 4, 6),
        (0, 2, 5, 7),
        (0, 1, 2, 3, 4, 5, 6, 7),
    ]
    assert all(H.is_normal for H in normal_subgroups(G))


def test_normal_subgroups_match_filtered_enumeration():
    for G in (cyclic(24), dihedral(4), dihedral(6), dicyclic(3), quaternion(),
              direct_product(cyclic(2), cyclic(4)), elementary_abelian_2(3)):
        assert G.order <= 24
        expected = [ms for ms in _all_subgroups_reference(G) if is_normal_by_definition(G, ms)]
        got = [H.members for H in normal_subgroups(G)]
        assert got == sorted(expected, key=lambda m: (len(m), m))


def test_normal_subgroups_match_reference():
    groups = [G for G in sweep()]
    groups += [build_group(parse_group_expr(text)) for text in VERIFY_GROUPS]
    groups += [build_group(parse_group_expr(text)) for text in ("D8 x D8 x Z2", "Q8 x Z2 x Z4")]
    for G in groups:
        got = [H.members for H in normal_subgroups(G)]
        assert got == _normal_subgroups_reference(G), G


def test_lattice_lists_are_fresh():
    G = dihedral(4)
    first = normal_subgroups(G)
    first.clear()
    assert len(normal_subgroups(G)) == 6


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_normal_lattice_is_invariant_under_relabelling(data):
    groups = sweep()
    G = groups[data.draw(st.integers(0, len(groups) - 1), label="group")]
    perm = np.array(data.draw(st.permutations(range(G.order)), label="perm"))
    table = np.empty_like(G.table)
    table[np.ix_(perm, perm)] = perm[G.table]  # element x is relabelled perm[x]
    R = group_from_cayley_table(table)
    mapped = sorted(tuple(sorted(int(perm[x]) for x in H.members)) for H in normal_subgroups(G))
    assert sorted(H.members for H in normal_subgroups(R)) == mapped


def test_lattice_and_coset_records_do_not_depend_on_labels():
    """``normal_subgroups`` of a relabelled table is the image of G's,
    member for member, over sweep(32), the benchmark's verify groups, and
    A4 and S4 built from permutations.  In S4 the transposition (12) and
    the 4-cycle (1234) lie in two rational classes with one normal
    closure, S4 itself, so the atoms are still deduplicated by their
    members.  Each subgroup's coset record holds min(Hx) for every x, in
    the table's dtype, and the heads read off it."""
    A4 = permutation_group([(1, 2, 0, 3), (0, 2, 3, 1)])
    S4 = permutation_group([(1, 2, 3, 0), (1, 0, 2, 3)])
    groups = [*sweep(32), *(build_group(parse_group_expr(text)) for text in VERIFY_GROUPS), A4, S4]
    assert [len(normal_subgroups(G)) for G in (A4, S4)] == [3, 4]
    for seed, G in enumerate(groups):
        R, perm = relabelled(G, seed)
        mapped = (tuple(sorted(int(perm[x]) for x in H.members)) for H in normal_subgroups(G))
        assert [H.members for H in normal_subgroups(R)] == sorted(mapped, key=lambda ms: (len(ms), ms)), G
        for K in (G, R):
            for H in normal_subgroups(K):
                least = K.table[list(H.members)].min(axis=0).tolist()  # column x holds Hx
                assert H._cosets.least.tolist() == least
                assert H._cosets.heads.tolist() == [x for x, r in enumerate(least) if r == x]
                assert H._cosets.least.typecode == H._cosets.heads.typecode == K.table.dtype.char


def test_subgroup_counts_against_known_values():
    assert len(normal_subgroups(elementary_abelian_2(3))) == 16  # abelian: every subgroup
    assert len(normal_subgroups(quaternion())) == 6  # Hamiltonian: every subgroup
    assert len(_all_subgroups_reference(dihedral(4))) == 10
    assert len(normal_subgroups(cyclic(60))) == 12
    assert len(normal_subgroups(cyclic(48))) == 10
    assert len(normal_subgroups(elementary_abelian_2(6))) == 2825  # the rank bounds the lattice


@pytest.mark.parametrize(
    "text, subgroups, keys",
    [
        ("E2^5", 374, 2_077),
        ("Q8 x Z2 x Z2 x Z2", 425, 2_897),
        ("D16 x D8", 104, 686),
        ("D24 x Z4", 45, 302),
        ("Z48", 10, 45),
    ],
)
def test_lattice_join_count(monkeypatch, text, subgroups, keys):
    """The lattice keys the join of each subgroup B it finds with at most
    one atom per coset of B outside B, and with each atom at most once.  In
    E2^5 each atom is a line, and the lines through the heads of distinct
    cosets are distinct, so every coset is keyed once: the count is the sum
    over the subspaces B of |G/B| - 1, that is 31 + 465 + 1,085 + 465 + 31.
    Only a key not found before is closed, so the closures made are the
    subgroups other than the trivial one, which is an atom."""
    G = build_group(parse_group_expr(text))  # fresh: the lattice is cached per group
    joined, product_mask = groups_module._Closure.joined, groups_module._product_mask
    closures, tried = [], []

    def counting_joined(self, *args):
        closures.append(self)
        return joined(self, *args)

    def counting_mask(*args):
        tried.append(args)
        return product_mask(*args)

    monkeypatch.setattr(groups_module._Closure, "joined", counting_joined)
    monkeypatch.setattr(groups_module, "_product_mask", counting_mask)
    assert len(normal_subgroups(G)) == subgroups
    assert len(tried) == keys
    assert len(closures) == subgroups - 1


def test_lattice_closes_one_atom_per_cyclic_subgroup(monkeypatch):
    """In Z_n every element is its own class, and g^j for j prime to
    ord(g) generates the cyclic subgroup g does, so the lattice closes one
    atom per cyclic subgroup, d(n) of them, not n, whichever index each
    element has: relabelled tables move the identity off index 0, so the
    first atom is not the trivial one.  The budget bound, which closes the
    derived subgroup, is stubbed out of the count."""
    init, made = groups_module._Closure.__init__, []

    def counting_init(self, *args):
        made.append(args)
        init(self, *args)

    groups = [cyclic(n) for n in range(1, 513)] + [relabelled(cyclic(n), n)[0] for n in range(1, 65)]
    monkeypatch.setattr(groups_module, "_normal_subgroup_bound", lambda G: 1)
    monkeypatch.setattr(groups_module._Closure, "__init__", counting_init)  # after validation's closures
    for G in groups:
        made.clear()
        H = normal_subgroups(G)
        divisors = sum(G.order % d == 0 for d in range(1, G.order + 1))
        assert len(made) == len(H) == divisors, G.order


def test_subgroup_budget_fails_fast(monkeypatch):
    # the bound counts the subgroups of G/G', read off the table without
    # listing a single subgroup
    for text, bound in (("E2^7", 29_212), ("Q8 x E2^5", 29_212), ("E2^8", 417_199), ("Q8 x E2^6", 417_199)):
        assert groups_module._normal_subgroup_bound(build_group(parse_group_expr(text))) == bound, text
    assert 31_663 <= groups_module.SUBGROUP_BUDGET < 417_199  # Q8 x E2^5 has 31,663 normal subgroups
    for G in sweep():
        assert groups_module._normal_subgroup_bound(G) <= len(normal_subgroups(G)), G
    for text in ("E2^8", "Q8 x E2^6"):
        G = build_group(parse_group_expr(text))
        start = time.perf_counter()
        with pytest.raises(BadParameterError, match="at least 417199 normal subgroups"):
            normal_subgroups(G)
        assert time.perf_counter() - start < 1, text
    # the running count is the backstop where the bound falls short:
    # Q8 x E2^3 has 425 normal subgroups, its bound is 374
    G = build_group(parse_group_expr("Q8 x E2^3"))
    assert groups_module._normal_subgroup_bound(G) == 374
    monkeypatch.setattr(groups_module, "SUBGROUP_BUDGET", 400)
    with pytest.raises(BadParameterError, match="more than the budget of 400 normal subgroups"):
        normal_subgroups(G)
    monkeypatch.setattr(groups_module, "SUBGROUP_BUDGET", 425)
    assert len(normal_subgroups(G)) == 425


def test_subgroup_bound_counts_every_subgroup_of_the_abelianisation():
    # the bound counts all of G/G', not only its elementary layers: exact
    # for an abelian group, and E2^6 x Z4 (55,599 subgroups) is refused
    # before any join
    for text, bound in (("Z4", 3), ("Z2 x Z4", 8), ("E2^7", 29_212), ("E2^6 x Z4", 55_599)):
        assert groups_module._normal_subgroup_bound(build_group(parse_group_expr(text))) == bound, text
    # large primes, whose p-th powers are taken by repeated squaring
    for text, bound in (("Z509", 2), ("Z2 x Z251", 4), ("Z3 x Z167", 4)):
        G = build_group(parse_group_expr(text))
        assert groups_module._normal_subgroup_bound(G) == bound == len(normal_subgroups(G)), text
    abelian_groups = [G for G in sweep() if G.abelian]
    assert len(abelian_groups) > 50
    for G in abelian_groups:
        assert groups_module._normal_subgroup_bound(G) == len(normal_subgroups(G)), G
    G = build_group(parse_group_expr("E2^6 x Z4"))
    start = time.perf_counter()
    with pytest.raises(BadParameterError, match="at least 55599 normal subgroups"):
        normal_subgroups(G)
    assert time.perf_counter() - start < 1


def test_right_cosets_partition():
    G = cyclic(12)
    H = Subgroup(G, [0, 4, 8])
    cosets = right_cosets(G, H)
    assert cosets == [(0, 4, 8), (1, 5, 9), (2, 6, 10), (3, 7, 11)]
    assert cosets == cosets_by_definition(G, H)


def test_right_cosets_match_the_definition_over_the_sweep():
    for G in sweep(24):
        for H in normal_subgroups(G):
            assert right_cosets(G, H) == cosets_by_definition(G, H)


def test_reference_units_pair_each_coset_with_its_inverse():
    """The tests' reference units, which the deciders are checked against:
    Hx alone when x*x is in H, else Hx with the coset holding x^-1."""
    G = cyclic(12)
    H = Subgroup(G, [0, 4, 8])
    # 2 + 2 = 4 lies in H, so H+2 stands alone; H+1 pairs with H+11 = H+3
    assert units_by_definition(G, H) == [((0, 4, 8),), ((1, 5, 9), (3, 7, 11)), ((2, 6, 10),)]
    for G in sweep(24):
        for H in normal_subgroups(G):
            units = units_by_definition(G, H)
            assert sorted(c for unit in units for c in unit) == sorted(right_cosets(G, H))
            for unit in units:
                x = unit[0][0]
                assert (len(unit) == 1) == (G.rows[x][x] in H)
                assert G.inverses[x] in unit[-1]
    D6 = dihedral(3)  # H = <b>: the inverses of the right coset {a^2, ab} are {a, ab}, not a right coset
    with pytest.raises(NotNormalError):
        decide_perfect_code(D6, subgroup_generated(D6, [3]))


def test_cosets_on_relabelled_tables():
    """With the identity off index 0, and for some H above H's least
    member, the cosets are still the table's Hx: the identity's first, the
    rest by least member."""
    texts = ("D12", "Dic4", "Q8 x Z2")
    groups = [relabelled(build_group(parse_group_expr(t)), seed)[0] for seed, t in enumerate(texts, 1)]
    identity_not_least = 0
    for G in groups:
        assert G.identity != 0, G
        for H in normal_subgroups(G):
            cosets = right_cosets(G, H)
            assert cosets == cosets_by_definition(G, H)
            assert G.identity in cosets[0]
            rest = [c[0] for c in cosets[1:]]
            assert rest == sorted(rest)
            identity_not_least += H.members[0] != G.identity
    assert identity_not_least >= 3


def test_square_cosets_are_inverse_closed():
    # for normal H: if x^2 in H then every y in Hx has y^2 in H and Hx is
    # inverse-closed; if x^2 not in H then Hx united with the coset of the
    # inverse is inverse-closed and contains no involution
    for G in sweep(24):
        for H in normal_subgroups(G):
            mem = set(H.members)
            for coset in right_cosets(G, H):
                x = coset[0]
                body = set(coset)
                if G.rows[x][x] in mem:
                    for y in body:
                        assert G.rows[y][y] in mem
                        assert G.inverses[y] in body
                else:
                    other = {G.rows[h][G.inverses[x]] for h in H.members}
                    union = body | other
                    for y in union:
                        assert G.inverses[y] in union
                        assert G.rows[y][y] != G.identity


def test_odd_abelian_square_roots_stay_in_subgroup():
    for factors in abelian_isomorphism_types(45):
        if any(f % 2 == 0 for f in factors):
            continue
        G = abelian(factors) if factors else cyclic(1)
        for H in normal_subgroups(G):  # in an abelian group every subgroup is normal
            mem = set(H.members)
            for g in range(G.order):
                if G.rows[g][g] in mem:
                    assert g in mem


def _order_by_definition(G, g) -> int:
    """The least k >= 1 with g^k the identity, one product at a time."""
    k, x = 1, g
    while x != G.identity:
        x, k = G.rows[x][g], k + 1
    return k


def test_element_orders_match_the_definition():
    texts = ("Z511", "Z512", "D512", "Q8 x E2^6", "E2^9", "Dic128", "Z2 x Z2 x Z128", "Q8 x Z64")
    large = [build_group(parse_group_expr(text)) for text in texts]
    sources = (dihedral(6), dicyclic(4), cyclic(60), *large[:4])
    groups = [*sweep(24), *large, *(relabelled(G, seed)[0] for seed, G in enumerate(sources, 1))]
    for G in groups:
        assert G.element_orders == tuple(_order_by_definition(G, g) for g in range(G.order)), G.name


def test_lagrange_and_involution_consistency():
    for G in sweep(24):
        for g in range(G.order):
            assert G.order % G.element_orders[g] == 0
        assert G.involution_set == {g for g in range(G.order)
                                       if g != G.identity and G.rows[g][g] == G.identity}


def test_conjugacy_classes_partition():
    G = dihedral(4)
    classes = conjugacy_classes(G)
    assert sorted(len(c) for c in classes) == [1, 1, 2, 2, 2]
    seen = sorted(v for c in classes for v in c)
    assert seen == list(range(8))
    # abelian groups: all classes singletons
    assert all(len(c) == 1 for c in conjugacy_classes(cyclic(9)))


def _orbit_of(G, g) -> set[int]:
    """The conjugates inv(x) * g * x of g, one element x at a time."""
    return {G.rows[G.rows[G.inverses[x]][g]][x] for x in range(G.order)}


def test_conjugacy_classes_are_the_conjugation_orbits():
    products = [build_group(parse_group_expr(text)) for text in ("D8 x D8", "Q8 x Q8")]
    relabellings = [relabelled(dihedral(6), 1)[0], relabelled(dicyclic(4), 2)[0]]
    groups = (*sweep(24), *products, *relabellings)
    assert any(G.name == "Q8" for G in groups)
    assert not any(R.abelian for R in relabellings)
    for G in groups:
        classes = conjugacy_classes(G)
        assert sorted(v for c in classes for v in c) == list(range(G.order)), G.name
        assert all(list(c) == sorted(c) for c in classes), G.name
        assert [c[0] for c in classes] == sorted(c[0] for c in classes), G.name
        for c in classes:
            assert all(_orbit_of(G, g) == set(c) for g in c), (G.name, c)


def test_direct_product_refuses_a_factor_that_is_not_a_group():
    for factors in ((5,), (cyclic(2), 3), (None, cyclic(2)), (cyclic(2).table, cyclic(2))):
        with pytest.raises(BadParameterError, match="direct_product factors must be groups, got"):
            direct_product(*factors)
    with pytest.raises(BadParameterError, match="needs at least one factor"):
        direct_product()
    G = dihedral(3)
    assert direct_product(G) is G  # one factor is its own product


def test_abelian_isomorphism_types_checks_max_order(monkeypatch):
    monkeypatch.delenv("SUMGRAPH_MAX_ORDER", raising=False)
    for max_order, message in ((2.5, "is not an integer"), ("8", "is not an integer"), (0, "out of range")):
        with pytest.raises(BadParameterError, match=message):
            abelian_isomorphism_types(max_order)
    start = time.perf_counter()
    with pytest.raises(BadParameterError, match="exceeds the supported cap"):
        abelian_isomorphism_types(200000)
    assert time.perf_counter() - start < 0.1
    assert abelian_isomorphism_types(1) == [()]


def test_sweep_rejects_an_empty_or_repeated_family_list():
    with pytest.raises(BadParameterError, match="no family"):
        sweep_groups(8, [])
    with pytest.raises(BadParameterError, match="'cyclic' is listed twice"):
        sweep_groups(8, ["cyclic", "dihedral", "cyclic"])
    with pytest.raises(BadParameterError, match="families must be a sequence of names"):
        sweep_groups(8, "cyclic")  # one name, not read letter by letter
    for families in ({"cyclic"}, iter(["cyclic"]), 5):  # unordered, one-shot, not a collection
        with pytest.raises(BadParameterError, match="families must be a sequence of names"):
            sweep_groups(8, families)
    with pytest.raises(BadParameterError, match="unknown family"):
        sweep_groups(8, [["cyclic"]])  # an unhashable name
    assert [G.name for G in sweep_groups(8, ["quaternion", "cyclic"])][:2] == ["Q8", "Z1"]


# Dedekind-Baer: every subgroup is normal exactly in the abelian groups and
# in Q8 x E2^k x A with A abelian of odd order.
DEDEKIND_PRODUCTS = {
    "Q8 x Z2": True,
    "Q8 x Z3": True,
    "Q8 x E2^2": True,
    "Q8 x Z3 x Z3": True,
    "Q8 x Z4": False,
    "D8 x Z2": False,
    "Dic3 x Z2": False,
}


def test_is_dedekind():
    assert is_dedekind(cyclic(12))
    assert is_dedekind(dicyclic(2))
    assert is_dedekind(quaternion())
    assert not is_dedekind(dihedral(3))
    assert not is_dedekind(dicyclic(3))
    for G in sweep():  # the non-abelian Dedekind groups here are Q8 and Dic2, which is Q8
        assert is_dedekind(G) == (G.abelian or G.name in ("Q8", "Dic2")), G.name
    for text, expected in DEDEKIND_PRODUCTS.items():
        assert is_dedekind(build_group(parse_group_expr(text))) == expected, text
    assert is_dedekind(relabelled(quaternion(), 3)[0])


def test_reading_the_table_keeps_no_list_copy():
    """Row reads, element orders and one decision at order 512 stay far
    below the 6 MB that a copy of the table as Python lists costs."""
    for G, generator in ((cyclic(512), 256), (dihedral(256), 2)):
        tracemalloc.start()
        try:
            assert G.rows[generator][generator] == G.table[generator, generator]
            assert len(G.element_orders) == 512
            decide_code(G, subgroup_generated(G, [generator]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, (G.name, peak)


def test_a_bare_table_makes_an_untagged_group_on_a_copy():
    """``group_from_cayley_table`` keeps a read-only int16 copy of the
    caller's table, whatever its form, so changing the caller's array
    changes nothing, and the group is ``generic``: it takes no tag, which
    the family deciders would trust as the group's name (Z8's table tagged
    Z4 made ``cyclic_perfect_code`` answer for Z4, and Z6's tagged D6 made
    ``dihedral_perfect_code`` raise an internal error), and no ``copy``."""
    given = cyclic(6).table.copy()
    for table in (given, given.astype(np.int64), given.tolist(), given.T):
        G = group_from_cayley_table(table)
        assert G.table.dtype == np.int16 and G.table.flags.c_contiguous and not G.table.flags.writeable
        assert not np.shares_memory(G.table, given)
        assert G.tag is None and G.name == "generic"
    given[0, 0] = 1  # the caller's array stays writable, and the group's table unchanged
    assert G.table[0, 0] == 0
    given[0, 0] = 0
    for keyword in ({"tag": CyclicExpr(6)}, {"copy": False}):
        with pytest.raises(TypeError):
            group_from_cayley_table(given, **keyword)
    with pytest.raises(TypeError):
        group_from_cayley_table(cyclic(8).table, None, CyclicExpr(4))
    Z8, Z6 = group_from_cayley_table(cyclic(8).table), group_from_cayley_table(cyclic(6).table)
    H = subgroup_generated(Z8, [2])  # order 4, where the Z4 rule and the generic one disagree
    assert not decide_perfect_code(Z8, H).exists
    for decide, G, H in (
        (cyclic_perfect_code, Z8, H),
        (dihedral_perfect_code, Z6, subgroup_generated(Z6, [3])),
    ):
        with pytest.raises(BadParameterError, match="expected a group built by the"):
            decide(G, H)


def test_building_a_group_and_a_graph_keeps_one_compact_table(monkeypatch):
    """Building D512 peaks under twice the bytes of its int16 table, which
    the group keeps without a copy, and building its sum graph over <a^2>
    under 1.5 times: Light's test works in row blocks and the graph
    compares coset representatives, never an n x n int32 or intp copy.
    The same bounds hold at order 2048."""
    monkeypatch.setenv("SUMGRAPH_MAX_ORDER", "2048")
    for text in ("D512", "D2048"):
        expr = parse_group_expr(text)
        tracemalloc.start()
        try:
            G = build_group(expr)
            _, build_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        H = subgroup_generated(G, [G.label_index["a^2"]])
        tracemalloc.start()
        try:
            build_graph(G, H)
            _, graph_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert G.table.dtype == np.int16 and not G.table.flags.writeable, text
        assert build_peak < 2 * G.table.nbytes, (text, build_peak)
        assert graph_peak < 1.5 * G.table.nbytes, (text, graph_peak)


def test_subgroup_as_group_is_homomorphic():
    G = cyclic(12)
    H = Subgroup(G, [0, 2, 4, 6, 8, 10])
    S, mapping = subgroup_as_group(G, H)
    assert S.order == 6
    members = H.members
    assert mapping == {m: i for i, m in enumerate(members)}
    for i in range(6):
        for j in range(6):
            assert members[S.rows[i][j]] == G.rows[members[i]][members[j]]
    # and it validates as a group in its own right
    assert math.gcd(S.order, G.order) == S.order
    # a non-abelian subgroup of a relabelled table, whose members are not
    # the ascending images of the original ones
    D, perm = relabelled(dihedral(12), 5)
    H = subgroup_generated(D, [int(perm[2]), int(perm[12])])  # <a^2, b>, dihedral of order 12
    S, mapping = subgroup_as_group(D, H)
    members = H.members
    assert S.order == 12 and not S.abelian
    assert mapping == {m: i for i, m in enumerate(members)}
    assert S.labels == tuple(D.labels[m] for m in members)
    for i in range(12):
        for j in range(12):
            assert members[S.rows[i][j]] == D.rows[members[i]][members[j]]
