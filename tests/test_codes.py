"""Code deciders, constructions, brute-force oracle, cross-checking."""

import dataclasses
import functools
import gc
import random
import weakref

import numpy as np
import pytest

import sumgraph.codes as codes
from sumgraph import (
    BadParameterError,
    InternalInconsistencyError,
    NotASubgroupError,
    NotNormalError,
    Subgroup,
    SumGraph,
    abelian,
    abelian_total_perfect_code,
    build_graph,
    build_group,
    components,
    cross_check,
    cyclic,
    decide_code,
    decide_perfect_code,
    decide_perfect_code_extended,
    decide_total_perfect_code,
    decide_total_perfect_code_extended,
    dicyclic,
    dihedral,
    direct_product,
    elementary_abelian_2,
    find_perfect_code_bruteforce,
    find_total_perfect_code_bruteforce,
    is_perfect_code,
    is_total_perfect_code,
    normal_subgroups,
    parse_group_expr,
    quaternion,
    subgroup_generated,
    verdict_to_json,
)

from helpers import (
    adjacency_matrix,
    reference_verdict,
    relabelled,
    subgroup_as_group,
    subset_perfect_codes,
    subset_total_perfect_codes,
    sweep,
    sweep_reports,
)

QUESTIONS = [(extended, total) for extended in (False, True) for total in (False, True)]


def test_definition_checkers_on_tiny_graphs():
    # edgeless graph: the only perfect code is all vertices
    G = cyclic(5)
    edgeless = build_graph(G, Subgroup(G, [G.identity]))
    assert is_perfect_code(edgeless, range(5))
    assert not is_perfect_code(edgeless, [0, 1])
    assert not is_total_perfect_code(edgeless, range(5))

    # single edge: either endpoint is a perfect code; total needs both
    G2 = cyclic(2)
    edge = build_graph(G2, Subgroup(G2, range(G2.order)))
    assert is_perfect_code(edge, [0])
    assert is_perfect_code(edge, [1])
    assert not is_perfect_code(edge, [0, 1])
    assert not is_total_perfect_code(edge, [0])
    assert is_total_perfect_code(edge, [0, 1])

    # K_3: any single vertex dominates everything exactly once
    G3 = cyclic(3)
    k3 = build_graph(G3, Subgroup(G3, range(G3.order)), extended=True)
    assert sum(r.bit_count() for r in k3.rows) // 2 == 3
    assert is_perfect_code(k3, [1])
    assert not is_perfect_code(k3, [0, 1])


def test_definition_checkers_reject_non_vertices():
    G = cyclic(2)
    edge = build_graph(G, Subgroup(G, range(G.order)))
    for checker in (is_perfect_code, is_total_perfect_code):
        for code in ([-1, 0], [7], [0, 2], [1.5], ["1"], [None]):
            with pytest.raises(BadParameterError):
                checker(edge, code)
    assert is_total_perfect_code(edge, [np.int64(0), np.int64(1)])


def test_bruteforce_golden_cases():
    G = cyclic(8)
    H = Subgroup(G, [0, 2, 4, 6])
    assert find_perfect_code_bruteforce(build_graph(G, H)) is None

    G = cyclic(12)
    H = Subgroup(G, [0, 4, 8])
    code = find_perfect_code_bruteforce(build_graph(G, H))
    assert tuple(code) == (0, 1, 6, 11)
    assert is_perfect_code(build_graph(G, H), code)

    G = cyclic(4)
    H = Subgroup(G, [0, 2])
    code = find_total_perfect_code_bruteforce(build_graph(G, H, extended=True))
    assert tuple(code) == (0, 1, 2, 3)


def test_bruteforce_agrees_with_subset_enumeration():
    cases = []
    for n in (6, 8, 12):
        G = cyclic(n)
        for H in normal_subgroups(G):
            cases.append((G, H))
    G = dihedral(4)
    for H in normal_subgroups(G):
        cases.append((G, H))
    for G, H in cases:
        if G.order > 16:
            continue
        for extended in (False, True):
            graph = build_graph(G, H, extended=extended)
            adj = adjacency_matrix(graph)
            all_codes = subset_perfect_codes(adj)
            found = find_perfect_code_bruteforce(graph)
            if found is None:
                assert all_codes == []
            else:
                assert tuple(found) == min(all_codes)
            all_total = subset_total_perfect_codes(adj)
            found_total = find_total_perfect_code_bruteforce(graph)
            if found_total is None:
                assert all_total == []
            else:
                assert tuple(found_total) in all_total


def test_decide_perfect_code_rules():
    G = cyclic(12)

    v = decide_perfect_code(G, Subgroup(G, [G.identity]))
    assert v.exists and v.rule == "trivial-subgroup"
    assert tuple(v.witness) == tuple(range(12))

    v = decide_perfect_code(G, Subgroup(G, [0, 6]))
    assert v.exists and v.rule == "order-two-subgroup"

    v = decide_perfect_code(G, Subgroup(G, [0, 4, 8]))
    assert v.exists and v.rule == "square-cosets-have-involutions"
    assert tuple(v.witness) == (0, 1, 6, 11)

    G8 = cyclic(8)
    v = decide_perfect_code(G8, Subgroup(G8, [0, 2, 4, 6]))
    assert not v.exists
    assert v.rule == "square-coset-without-involution"
    assert v.witness is None
    assert v.certificate["coset_representative"] == 1


def test_odd_order_subgroups_always_admit_codes():
    for G in sweep(24):
        for H in normal_subgroups(G):
            if len(H) % 2 == 0:
                continue
            assert decide_perfect_code(G, H).exists


def test_order_two_subgroup_means_matching():
    for G in sweep(20):
        for H in normal_subgroups(G):
            if len(H) != 2:
                continue
            graph = build_graph(G, H)
            assert max(r.bit_count() for r in graph.rows) <= 1


def test_construct_perfect_code():
    G = cyclic(12)
    code = decide_perfect_code(G, Subgroup(G, [0, 4, 8])).witness
    assert tuple(code) == (0, 1, 6, 11)

    G6 = cyclic(6)
    code = decide_perfect_code(G6, Subgroup(G6, [0, 3])).witness
    assert tuple(code) == (0, 1, 4)

    code = decide_perfect_code(G6, Subgroup(G6, [0, 2, 4])).witness
    assert tuple(code) == (0, 3)

    code = decide_perfect_code(G6, Subgroup(G6, [G6.identity])).witness
    assert tuple(code) == tuple(range(6))

    G8 = cyclic(8)
    verdict = decide_perfect_code(G8, Subgroup(G8, [0, 2, 4, 6]))
    assert verdict.exists is False and verdict.witness is None


def test_q8_golden_case():
    G = quaternion()
    H = subgroup_generated(G, [G.label_index["i"]])
    assert tuple(H.members) == (0, 1, 2, 3)
    v = decide_perfect_code(G, H)
    assert not v.exists
    assert find_perfect_code_bruteforce(build_graph(G, H)) is None


def test_decide_total_perfect_code():
    G = elementary_abelian_2(2)
    for H in normal_subgroups(G):
        if len(H) != 2:
            continue
        v = decide_total_perfect_code(G, H)
        assert v.exists and v.rule == "order-two-matching"
        assert is_total_perfect_code(build_graph(G, H), v.witness)

    G = cyclic(4)
    v = decide_total_perfect_code(G, Subgroup(G, [0, 2]))
    assert not v.exists
    assert v.rule == "square-element-not-involution"
    assert v.certificate["element"] == 1

    G = direct_product(cyclic(2), cyclic(2), cyclic(3))
    order3 = [g for g in range(G.order) if G.element_orders[g] == 3]
    H = Subgroup(G, [0] + order3)
    v = decide_total_perfect_code(G, H)
    assert v.exists and v.rule == "elementary-two-times-three"
    assert is_total_perfect_code(build_graph(G, H), v.witness)

    # wrong order: no total perfect code
    G = cyclic(12)
    v = decide_total_perfect_code(G, Subgroup(G, [0, 3, 6, 9]))
    assert not v.exists and v.rule == "subgroup-order-unsuitable"


def test_decide_extended_perfect_code():
    # even cyclic: positives are exactly the trivial subgroup, <2>, and Z_n
    for n in (4, 6, 10, 12):
        G = cyclic(n)
        winners = []
        for H in normal_subgroups(G):
            v = decide_perfect_code_extended(G, H)
            if v.exists:
                winners.append(H.members)
                assert is_perfect_code(build_graph(G, H, extended=True), v.witness)
        expected = [(0,), tuple(range(0, n, 2)), tuple(range(n))]
        assert winners == sorted(expected, key=lambda m: (len(m), m))

    # odd-order abelian: only the trivial and whole subgroups work
    for n in (9, 15):
        G = cyclic(n)
        for H in normal_subgroups(G):
            v = decide_perfect_code_extended(G, H)
            assert v.exists == (len(H) in (1, n))

    # elementary abelian 2-groups: every subgroup works
    G = elementary_abelian_2(3)
    for H in normal_subgroups(G):
        assert decide_perfect_code_extended(G, H).exists

    # negative certificate names a square outside the subgroup
    G = cyclic(6)
    v = decide_perfect_code_extended(G, Subgroup(G, [0, 3]))
    assert not v.exists
    assert v.certificate["square"] == 2


def test_decide_extended_total_perfect_code():
    G = cyclic(4)
    v = decide_total_perfect_code_extended(G, Subgroup(G, [0, 2]))
    assert v.exists and tuple(v.witness) == (0, 1, 2, 3)

    G = cyclic(6)
    v = decide_total_perfect_code_extended(G, Subgroup(G, [0, 2, 4]))
    assert not v.exists and v.rule == "subgroup-order-not-two"

    G = cyclic(5)
    for H in normal_subgroups(G):
        assert not decide_total_perfect_code_extended(G, H).exists


def test_deciders_require_normality():
    deciders = (
        decide_perfect_code,
        decide_total_perfect_code,
        decide_perfect_code_extended,
        decide_total_perfect_code_extended,
    )
    G = dihedral(4)
    H = Subgroup(G, [0, 4])
    for decider in deciders:
        with pytest.raises(NotNormalError):
            decider(G, H)

    # a subgroup of another group, even an equal one, is not a subgroup of G
    foreign = [
        (cyclic(8), Subgroup(cyclic(8), [0, 4])),
        (cyclic(12), Subgroup(cyclic(6), [0, 2, 4])),
        (cyclic(6), Subgroup(cyclic(6), [0, 2, 4])),
    ]
    for G, H in foreign:
        for decider in deciders:
            with pytest.raises(NotASubgroupError):
                decider(G, H)
        with pytest.raises(NotASubgroupError):
            abelian_total_perfect_code(G, H)


def test_cross_check_builds_each_graph_once(monkeypatch):
    # the deciders build no graph, so the oracle's one graph per
    # (subgroup, flavour) is the only one
    built = []
    init = SumGraph.__init__

    def counting_init(self, group, subgroup, extended, rows):
        built.append((subgroup.members, extended))
        init(self, group, subgroup, extended, rows)

    monkeypatch.setattr(SumGraph, "__init__", counting_init)
    for G in (cyclic(12), dihedral(6), dicyclic(3), quaternion(), elementary_abelian_2(3)):
        built.clear()
        expected = [(H.members, ext) for H in normal_subgroups(G) for ext in (False, True)]
        cross_check(G)
        assert sorted(built) == sorted(expected), G.name


def test_cross_check_builds_the_graphs_build_graph_builds(monkeypatch):
    """The graphs cross_check builds over all its subgroups at once have
    the rows build_graph gives one subgroup at a time."""
    built = []
    init = SumGraph.__init__

    def capturing_init(self, group, subgroup, extended, rows):
        built.append((subgroup.members, extended, rows))
        init(self, group, subgroup, extended, rows)

    groups = (*sweep(24), *(relabelled(G, seed)[0] for seed, G in enumerate(sweep(16))))
    monkeypatch.setattr(SumGraph, "__init__", capturing_init)
    for G in groups:
        built.clear()
        cross_check(G)
        batched = list(built)
        single = [
            (H.members, extended, build_graph(G, H, extended).rows)
            for H in normal_subgroups(G)
            for extended in (False, True)
        ]
        assert batched == single, G.name


def test_cross_check_walks_no_graph(monkeypatch):
    # all four searches of a subgroup read the components the build hands
    # out with its graphs; neither graph is walked
    walked = []
    walk = SumGraph._component_masks.func

    def counting_walk(graph):
        walked.append((graph.subgroup.members, graph.extended))
        return walk(graph)

    counted = functools.cached_property(counting_walk)
    counted.__set_name__(SumGraph, "_component_masks")
    monkeypatch.setattr(SumGraph, "_component_masks", counted)
    for G in (cyclic(12), dihedral(6), dicyclic(3), quaternion(), elementary_abelian_2(3)):
        report = cross_check(G)
        assert len(report.entries) == 4 * len(normal_subgroups(G)), G.name
    assert walked == []
    G = cyclic(12)
    components(build_graph(G, Subgroup(G, [0, 6])))
    assert walked == [((0, 6), False)]  # the patch counts the public walk


def test_cross_check_oracle_is_the_public_search_of_each_graph():
    """cross_check's plain searches cover the components of the extended
    graph, each a union of plain components; whether they find a code is
    what the public searchers find over the plain graph's own components.
    Over subgroups of order 1 and 2 one extended component can join two
    plain ones; the groups beyond sweep(48) have larger such graphs."""
    larger = [build_group(parse_group_expr(e)) for e in ("Z2 x Z2 x Z24", "Dic6 x Z4")] + [dihedral(128)]
    joined = 0
    for G, report in (*sweep_reports(48), *((G, cross_check(G)) for G in larger)):
        assert len(report.entries) == 4 * len(normal_subgroups(G)), G.name
        for entry in report.entries:
            H, extended = Subgroup(G, entry.subgroup), entry.verdict.flavor == "extended"
            total = entry.verdict.kind == "total"
            graph = build_graph(G, H, extended)
            search = find_total_perfect_code_bruteforce if total else find_perfect_code_bruteforce
            assert entry.oracle == (search(graph) is not None), (G.name, entry)
            if not (extended or total):
                joined += len(components(graph)) > len(components(build_graph(G, H, extended=True)))
    assert joined > 300, joined


def test_decide_code_leaves_no_graph_or_group_alive():
    # a decider keeps nothing that refers to the group once it returns
    G = dihedral(256)
    centre = Subgroup(G, [0, 128])
    verdicts = [
        decide_code(G, H, extended=extended, total=total)
        for H in (Subgroup(G, [G.identity]), centre)
        for extended in (False, True)
        for total in (False, True)
    ]
    assert sum(v.witness is not None for v in verdicts) == 4
    ref = weakref.ref(G)
    del G, centre
    gc.collect()
    assert ref() is None


def test_decide_code_builds_no_graph(monkeypatch):
    built = []
    init = SumGraph.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(SumGraph, "__init__", counting_init)
    for G in sweep(24):
        for H in normal_subgroups(G):
            for extended, total in QUESTIONS:
                decide_code(G, H, extended=extended, total=total)
    assert built == []


def test_extended_total_witness_is_the_oracle_code():
    # the closed form returns the lexicographically least total code, the
    # one the component search finds first
    checked = 0
    for G in sweep(64):
        for H in normal_subgroups(G):
            if H.order != 2:
                continue
            witness = decide_total_perfect_code_extended(G, H).witness
            oracle = find_total_perfect_code_bruteforce(build_graph(G, H, extended=True))
            assert witness == oracle, (G.name, H.members)
            checked += 1
    assert checked > 300


def _one_vertex_mutations(code, n):
    """Every set that differs from ``code`` by one vertex: removed, added or
    replaced."""
    members = set(code)
    outside = [v for v in range(n) if v not in members]
    yield from (sorted(members - {c}) for c in members)
    yield from (sorted(members | {v}) for v in outside)
    yield from (sorted(members - {c} | {v}) for c in members for v in outside)


def test_table_check_agrees_with_graph_checkers():
    results = set()
    for G in sweep(16):
        for H in normal_subgroups(G):
            for extended, total in QUESTIONS:
                witness = decide_code(G, H, extended=extended, total=total).witness
                if witness is None:
                    continue
                graph = build_graph(G, H, extended=extended)
                checker = is_total_perfect_code if total else is_perfect_code
                for code in [list(witness), *_one_vertex_mutations(witness, G.order)]:
                    by_table = codes._table_partitions(G, H, code, extended, closed=not total)
                    assert by_table == checker(graph, code), (G.name, H.members, extended, total, code)
                    results.add(by_table)
    assert results == {True, False}


def test_decider_rejects_a_wrong_witness():
    G = cyclic(4)
    H = Subgroup(G, [0, 2])
    cases = [  # plain edges: 0-2; extended edges: 0-2 and 1-3
        ("plain", "perfect", (0,)),  # leaves 1 and 3 undominated
        ("plain", "total", (0, 2)),  # 1 and 3 have no neighbours
        ("extended", "perfect", (0, 2)),  # both dominate 0 and 2
        ("extended", "total", (0, 1)),  # covers 2 and 3 only
    ]
    for flavor, kind, vertices in cases:

        def rule(G, H):
            return "wrong", vertices, None

        with pytest.raises(InternalInconsistencyError, match="fails validation"):
            codes._decider(flavor, kind)(rule)(G, H)


def _public_searches(G):
    """Both public searchers over both sum graphs of every normal subgroup."""
    for H in normal_subgroups(G):
        for extended in (False, True):
            graph = build_graph(G, H, extended=extended)
            find_perfect_code_bruteforce(graph)
            find_total_perfect_code_bruteforce(graph)


def _oracle_searches(monkeypatch, run=_public_searches) -> list[list[int]]:
    """[vertices, nodes, row reads] of every component search ``run`` makes
    over sweep(48), Z512 and D512, by default both public searchers over
    the sum graphs of both flavours.
    Nodes are calls of _cover_component, the root included; the recursion
    looks the function up in the module, so the patched counter sees every
    call, and it hands the root's rows down, so every read is counted."""
    searches = []
    search = codes._cover_component

    class CountedRows(tuple):
        def __getitem__(self, v):
            searches[-1][2] += 1
            return tuple.__getitem__(self, v)

    def counting(rows, comp_mask, closed, least, covered, chosen):
        if not covered:  # the root call of one component's search
            searches.append([comp_mask.bit_count(), 0, 0])
            rows = CountedRows(rows)
        searches[-1][1] += 1
        return search(rows, comp_mask, closed, least, covered, chosen)

    monkeypatch.setattr(codes, "_cover_component", counting)
    for G in sweep(48) + (cyclic(512), dihedral(256)):
        run(G)
    return searches


def test_oracle_nodes_stay_below_the_square_of_the_component(monkeypatch):
    # a search of a component with m vertices visits at most m^2 + 1 nodes
    searches = _oracle_searches(monkeypatch)
    assert len(searches) > 30_000
    over = [(size, nodes) for size, nodes, _ in searches if nodes > size**2 + 1]
    assert not over, over[:3]


def test_oracle_size_cut_keeps_searches_linear(monkeypatch):
    # a component of m vertices costs at most m + 1 nodes and 4m row reads.
    # The reads pin the size cut: without it, a node left with fewer
    # vertices than any neighbourhood still reads every dominator of its
    # lowest one, and a refuted complete block of m vertices (the total
    # code on K_m, as in the extended graph of Z512 over H = G) costs
    # about m^2 reads
    searches = _oracle_searches(monkeypatch)
    over = [record for record in searches if record[1] > record[0] + 1 or record[2] > 4 * record[0]]
    assert not over, over[:3]
    assert any(nodes == size + 1 for size, nodes, _ in searches)
    assert max(size for size, _, _ in searches) == 512


def test_cross_check_searches_keep_the_size_cut_bounds(monkeypatch):
    # the plain searches of cross_check cover the extended graph's
    # components with a cut one lower, and keep the public searches'
    # bounds: m + 1 nodes and 4m row reads for a part of m vertices
    searches = _oracle_searches(monkeypatch, cross_check)
    assert len(searches) > 25_000
    over = [record for record in searches if record[1] > record[0] + 1 or record[2] > 4 * record[0]]
    assert not over, over[:3]
    assert max(size for size, _, _ in searches) == 512


def _reference_code(adjacency: list[list[int]], closed: bool) -> tuple[int, ...] | None:
    """The oracle's search without the size cut and without the split into
    components: cover the lowest uncovered vertex by each of its dominators
    in ascending order, depth first, on plain vertex sets."""
    n = len(adjacency)

    def hood(u):
        return {v for v in range(n) if adjacency[u][v] or closed and v == u}

    def search(covered, chosen):
        free = [v for v in range(n) if v not in covered]
        if not free:
            return chosen
        for u in sorted(hood(free[0])):
            if not hood(u) & covered:
                got = search(covered | hood(u), chosen + [u])
                if got is not None:
                    return got
        return None

    got = search(set(), [])
    return None if got is None else tuple(sorted(got))


def _shell(adjacency: list[list[int]]) -> SumGraph:
    """A SumGraph holding only rows and n, for a graph no group yields."""
    graph = SumGraph.__new__(SumGraph)
    graph.n = len(adjacency)
    graph.rows = tuple(sum(bit << v for v, bit in enumerate(row)) for row in adjacency)
    return graph


def _random_adjacencies() -> list[list[list[int]]]:
    """600 seeded random graphs of 1 to 10 vertices, each of its own density.
    Random graphs are almost never sum graphs: isolated vertices, paths,
    components of mixed degree."""
    rng = random.Random(13)
    out = []
    for _ in range(600):
        n = rng.randint(1, 10)
        density = rng.random()
        adjacency = [[0] * n for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < density:
                    adjacency[u][v] = adjacency[v][u] = 1
        out.append(adjacency)
    return out


def test_component_walk_gives_connected_masks_and_their_least_degrees():
    # the walk's masks partition the vertices in order of least vertex, no
    # row leaves its mask, each mask is connected, and the least degree it
    # hands the oracle's size cut is the minimum over the mask
    for adjacency in _random_adjacencies():
        graph = _shell(adjacency)
        n = graph.n
        covered = 0
        lowest = []
        for mask, least in graph._component_masks:
            assert mask and not mask & covered, adjacency
            covered |= mask
            vertices = [v for v in range(n) if mask >> v & 1]
            lowest.append(vertices[0])
            assert all(graph.rows[v] & ~mask == 0 for v in vertices), adjacency
            reached, stack = {vertices[0]}, [vertices[0]]
            while stack:
                u = stack.pop()
                for v in range(n):
                    if adjacency[u][v] and v not in reached:
                        reached.add(v)
                        stack.append(v)
            assert sorted(reached) == vertices, adjacency
            assert least == min(sum(adjacency[v]) for v in vertices), adjacency
        assert covered == (1 << n) - 1
        assert lowest == sorted(lowest)


def test_oracle_matches_a_cut_free_search_on_random_graphs():
    # the cut must not change the code found
    found = {True: 0, False: 0}
    for adjacency in _random_adjacencies():
        graph = _shell(adjacency)
        for closed, every in ((True, subset_perfect_codes), (False, subset_total_perfect_codes)):
            code = codes._bruteforce(graph, closed)
            assert code == _reference_code(adjacency, closed), (adjacency, closed)
            codes_by_subsets = every(adjacency)
            assert (code is None) == (codes_by_subsets == []), (adjacency, closed)
            assert code is None or code in codes_by_subsets
            found[code is not None] += 1
    assert min(found.values()) > 100


def test_oracle_code_is_not_always_the_least():
    # the search branches on the dominators of the lowest uncovered vertex,
    # which does not make its code the lexicographically least one
    edges = ((0, 1), (0, 3), (0, 4), (1, 2), (1, 3), (2, 4))
    adjacency = [[0] * 5 for _ in range(5)]
    for u, v in edges:
        adjacency[u][v] = adjacency[v][u] = 1
    assert find_total_perfect_code_bruteforce(_shell(adjacency)) == (1, 2)
    assert min(subset_total_perfect_codes(adjacency)) == (0, 4)


def test_oracle_leaves_no_reference_cycle():
    # with the cyclic collector off, a searched graph and its group die as
    # soon as the last reference goes: the search holds nothing in a cycle
    gc.disable()
    try:
        G = dihedral(256)
        graph = build_graph(G, Subgroup(G, [0, 128]), extended=True)
        assert find_total_perfect_code_bruteforce(graph) is not None
        assert find_perfect_code_bruteforce(graph) is None  # an exhaustive search
        refs = weakref.ref(graph), weakref.ref(G)
        del G, graph
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_decide_code_dispatch():
    G = cyclic(6)
    H = Subgroup(G, [0, 3])
    assert decide_code(G, H).rule == decide_perfect_code(G, H).rule
    assert decide_code(G, H, total=True).rule == decide_total_perfect_code(G, H).rule
    assert (
        decide_code(G, H, extended=True).rule
        == decide_perfect_code_extended(G, H).rule
    )
    assert (
        decide_code(G, H, extended=True, total=True).rule
        == decide_total_perfect_code_extended(G, H).rule
    )


def test_deciders_give_the_unit_by_unit_verdicts():
    # whole verdicts, not only existence: the scan JSONL records neither
    # witnesses nor certificates, so this pins them against the rules read
    # coset by coset.  The products cover the trivial subgroup and |H| = 2
    # and 3 with both outcomes; the relabellings move the identity off 0.
    # Relabelled by seed 7, Z2 x Z2 x Z3 has a coset of its order-3
    # subgroup whose involution is its greatest member, so the |H| = 3
    # witness pins the centre of each block: a non-involution centre and
    # the least other member would make a different code there
    products = [
        build_group(parse_group_expr(text))
        for text in ("D8 x Z4", "Q8 x Z4", "Dic3 x Z4", "Z2 x Z2 x Z3", "Z6 x Z6")
    ]
    sources = (dihedral(6), dicyclic(3), quaternion(), cyclic(12), *products[:4])
    relabellings = [relabelled(G, seed)[0] for seed, G in enumerate(sources)]
    assert all(R.identity != 0 for R in relabellings)
    rules = set()
    pairs = 0
    for G in (*sweep(32), *products, *relabellings):
        for H in normal_subgroups(G):
            pairs += 1
            for extended, total in QUESTIONS:
                v = decide_code(G, H, extended=extended, total=total)
                got = (v.exists, v.rule, v.witness, v.certificate)
                assert got == reference_verdict(G, H, extended, total), (G.name, H.members, extended, total)
                rules.add(v.rule)
    assert pairs > 1000
    assert rules == {
        "trivial-subgroup",
        "order-two-subgroup",
        "square-cosets-have-involutions",
        "square-coset-without-involution",
        "order-two-matching",
        "square-element-not-involution",
        "elementary-two-times-three",
        "not-elementary-two-times-three",
        "subgroup-order-unsuitable",
        "squares-inside-subgroup",
        "square-outside-subgroup",
        "subgroup-order-not-two",
    }


def test_positive_verdicts_carry_validated_witnesses():
    for G in sweep(20):
        for H in normal_subgroups(G):
            for extended in (False, True):
                for total in (False, True):
                    v = decide_code(G, H, extended=extended, total=total)
                    graph = build_graph(G, H, extended=extended)
                    if v.exists:
                        assert v.witness is not None
                        checker = is_total_perfect_code if total else is_perfect_code
                        assert checker(graph, v.witness)
                    else:
                        assert v.witness is None
                        assert v.certificate is not None


def test_cross_check_z60():
    G = cyclic(60)
    report = cross_check(G)
    assert report.all_agree
    assert len(report.entries) == 4 * 12
    failures = [
        e.subgroup
        for e in report.entries
        if e.verdict.flavor == "plain" and e.verdict.kind == "perfect" and not e.verdict.exists
    ]
    expected = [
        tuple(range(0, 60, 2)),
        tuple(range(0, 60, 6)),
        tuple(range(0, 60, 10)),
    ]
    assert sorted(failures, key=lambda m: (len(m), m)) == sorted(
        expected, key=lambda m: (len(m), m)
    )


def test_cross_check_trivial_group():
    report = cross_check(cyclic(1))
    assert report.all_agree
    assert len(report.entries) == 4


def test_a_cross_check_report_stores_each_fact_once():
    """A report holds its entries and its time, and no copy of the group
    it checked, which the caller has, named by the expression that built it."""
    G = direct_product(quaternion(), cyclic(2))
    assert [field.name for field in dataclasses.fields(cross_check(G))] == ["entries", "seconds"]
    assert [quaternion().name, G.name, elementary_abelian_2(2).name] == ["Q8", "Q8 x Z2", "E2^2"]


def _nonabelian_products(max_order):
    """D x Zk, Dic x Zk, Q8 x Zk, D x D and Q8 x Q8 of order <= max_order."""
    out = []
    bases = [dihedral(n) for n in range(3, max_order // 4 + 1)]
    bases += [dicyclic(n) for n in range(2, max_order // 8 + 1)]
    bases.append(quaternion())
    for B in bases:
        out += [direct_product(B, cyclic(k)) for k in range(2, max_order // B.order + 1)]
    for m in range(3, max_order):
        out += [direct_product(dihedral(m), dihedral(n)) for n in range(m, max_order) if 4 * m * n <= max_order]
    if 64 <= max_order:
        out.append(direct_product(quaternion(), quaternion()))
    return out


def test_cross_check_nonabelian_products_up_to_64():
    groups = _nonabelian_products(64)
    assert len(groups) == 72
    for G in groups:
        report = cross_check(G)
        assert report.all_agree, (G, report.disagreements)


def test_sylow_two_reduction_for_abelian_groups():
    # existence for (A, H) implies existence for the Sylow-2 parts, and the
    # converse holds whenever the 2-part of H does not have order 2
    for factors in ((4, 3, 3), (2, 4, 3), (8, 3), (2, 2, 9), (4, 4), (16, 3)):
        A = abelian(factors)
        A2_sub = Subgroup(A, [g for g, o in enumerate(A.element_orders) if o & (o - 1) == 0])
        A2, mapping = subgroup_as_group(A, A2_sub)
        for H in normal_subgroups(A):
            h2_members = [
                h for h in H.members
                if A.element_orders[h] & (A.element_orders[h] - 1) == 0
            ]
            H2 = Subgroup(A2, [mapping[h] for h in h2_members])
            whole = decide_perfect_code(A, H).exists
            part = decide_perfect_code(A2, H2).exists
            if whole:
                assert part
            if len(H2) != 2 and part:
                assert whole


def test_verdict_json_schema():
    G = cyclic(12)
    H = Subgroup(G, [0, 4, 8])
    payload = verdict_to_json(G, H, decide_perfect_code(G, H))
    assert set(payload) == {
        "group",
        "subgroup",
        "flavor",
        "kind",
        "exists",
        "rule",
        "witness",
        "certificate",
    }
    assert payload["group"] == {"tag": "Z12", "order": 12}
    assert payload["subgroup"] == [0, 4, 8]
    assert payload["flavor"] == "plain" and payload["kind"] == "perfect"
    assert payload["exists"] is True
    assert payload["witness"] == [0, 1, 6, 11]
    assert payload["certificate"] is None
