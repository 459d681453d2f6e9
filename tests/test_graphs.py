"""Graph construction, components, the block structure, exports."""

import json
import re

import numpy as np
import pytest

import sumgraph.graphs as graphs_module
from sumgraph import (
    BadParameterError,
    InternalInconsistencyError,
    NotASubgroupError,
    NotNormalError,
    Subgroup,
    abelian_2group_perfect_code,
    abelian_total_perfect_code,
    build_graph,
    build_group,
    components,
    conjugacy_classes,
    cross_check,
    cyclic,
    cyclic_perfect_code,
    decide_code,
    decide_perfect_code,
    decide_perfect_code_extended,
    decide_total_perfect_code,
    decide_total_perfect_code_extended,
    dicyclic,
    dicyclic_perfect_code,
    dihedral,
    dihedral_perfect_code,
    find_perfect_code_bruteforce,
    find_total_perfect_code_bruteforce,
    graph_to_json,
    group_from_cayley_table,
    is_code_perfect,
    is_perfect_code,
    is_total_perfect_code,
    normal_subgroups,
    parse_group_expr,
    quaternion,
    require_normal,
    require_subgroup,
    right_cosets,
    subgroup_generated,
    to_dot,
    verdict_to_json,
)

from helpers import VERIFY_GROUPS, audit_blocks, relabelled, sweep


def test_plain_graph_edges_of_z6():
    G = cyclic(6)
    H = Subgroup(G, [0, 3])
    graph = build_graph(G, H)
    assert sorted(graph.edges()) == [(0, 3), (1, 2), (4, 5)]
    assert graph.rows[0].bit_count() == 1
    assert not graph.extended


def test_extended_graph_adds_inverse_pairs():
    G = cyclic(6)
    H = Subgroup(G, [0, 3])
    plain = build_graph(G, H)
    extended = build_graph(G, H, extended=True)
    plain_edges = set(plain.edges())
    extended_edges = set(extended.edges())
    assert plain_edges <= extended_edges
    diff = extended_edges - plain_edges
    assert diff == {(1, 5), (2, 4)}  # the x + (-x) = 0 pairs


def test_extended_minus_plain_is_exactly_the_inverse_matching():
    for G in sweep(20):
        for H in normal_subgroups(G):
            plain = set(build_graph(G, H).edges())
            extended = set(build_graph(G, H, extended=True).edges())
            assert plain <= extended
            expected = {
                tuple(sorted((x, G.inverses[x])))
                for x in range(G.order)
                if G.inverses[x] != x
            }
            assert extended - plain == expected


def test_extended_degrees_are_subgroup_sized():
    for G in sweep(16):
        for H in normal_subgroups(G):
            graph = build_graph(G, H, extended=True)
            t = len(H)
            for v in range(G.order):
                expected = t - 1 if G.rows[v][v] in H else t
                assert graph.rows[v].bit_count() == expected


def _components_reference(graph):
    """Reference components: a BFS over bitmasks that lists each frontier's
    set bits before reading their rows."""

    def bits(mask):
        out = []
        while mask:
            out.append((mask & -mask).bit_length() - 1)
            mask &= mask - 1
        return out

    remaining = (1 << graph.n) - 1
    out = []
    while remaining:
        comp = 0
        frontier = remaining & -remaining
        while frontier:
            comp |= frontier
            reached = 0
            for v in bits(frontier):
                reached |= graph.rows[v]
            frontier = reached & ~comp
        remaining &= ~comp
        out.append(tuple(bits(comp)))
    return out


def test_components_match_reference_bfs():
    for G in (*sweep(32), cyclic(512), dihedral(256)):  # Z512, D512
        for H in normal_subgroups(G):
            for extended in (False, True):
                graph = build_graph(G, H, extended=extended)
                assert components(graph) == _components_reference(graph), (G, H.members, extended)


@pytest.mark.parametrize(
    "groups",
    [
        pytest.param(lambda: sweep(20), id="sweep20"),
        pytest.param(lambda: [relabelled(G, 7)[0] for G in sweep(16)], id="relabelled-sweep16"),
        pytest.param(lambda: [dihedral(256), cyclic(512), relabelled(dicyclic(50), 3)[0]], id="large"),
    ],
)
def test_sum_graph_rows_are_the_definition(groups):
    """Row x of the extended graph over H is {y != x : x*y in H}, read off
    the table's rows; the plain graph also leaves out the y with x*y = e.
    Relabelled groups put the identity and every coset's least member
    anywhere, and D512 and Z512 take the coset minima of their subgroups
    of order 256 and 512 over two and four blocks of members."""
    for G in groups():
        for H in normal_subgroups(G):
            in_h = [False] * G.order
            for m in H.members:
                in_h[m] = True
            for extended in (False, True):
                graph = build_graph(G, H, extended=extended)
                for x, row in enumerate(G.rows):
                    want = {y for y in range(G.order) if y != x and in_h[row[y]]}
                    if not extended:
                        want -= {y for y in want if row[y] == G.identity}
                    assert set(graph.neighbors(x)) == want, (G.name, H.members, extended, x)


def test_asymmetric_adjacency_is_an_internal_error(monkeypatch):
    # with the normality check switched off, the non-normal <b> of D6 has
    # x*y in H but y*x outside it; the build's own symmetry check catches
    # that, for both flavours and inside cross_check
    monkeypatch.setattr(graphs_module, "require_normal", lambda G, H: None)
    G = dihedral(3)
    H = Subgroup(G, [G.identity, G.label_index["b"]])
    assert not H.is_normal
    for extended in (False, True):
        with pytest.raises(InternalInconsistencyError, match="asymmetric"):
            build_graph(G, H, extended=extended)
    with pytest.raises(InternalInconsistencyError, match="asymmetric"):
        cross_check(G, [H])


@pytest.mark.parametrize("collection", ["sweep-48", "relabelled-sweep-16", "verify", "large"])
def test_build_components_are_the_walked_components(collection):
    """The (mask, least) parts _sum_graphs hands out with each subgroup's
    graphs are what a walk of the extended graph finds, mask for mask and
    least degree for least degree, and no plain or extended row leaves
    the part of its vertex."""
    groups = {
        "sweep-48": lambda: sweep(48),
        "relabelled-sweep-16": lambda: [relabelled(G, seed)[0] for seed, G in enumerate(sweep(16))],
        "verify": lambda: [build_group(parse_group_expr(text)) for text in VERIFY_GROUPS],
        "large": lambda: [cyclic(512), dihedral(128), dihedral(256)],
    }[collection]()
    for G in groups:
        subgroups = normal_subgroups(G)
        built = list(graphs_module._sum_graphs(G, subgroups))
        assert len(built) == len(subgroups), G.name
        for H, (plain, full, parts) in zip(subgroups, built):
            assert parts == full._component_masks, (G.name, H.members)
            for mask, _ in parts:
                for v in graphs_module._bits(mask):
                    assert not (plain.rows[v] | full.rows[v]) & ~mask, (G.name, H.members, v)


def test_components_of_known_graphs():
    G = cyclic(6)
    H = Subgroup(G, [0, 3])
    assert components(build_graph(G, H, extended=True)) == [(0, 3), (1, 2, 4, 5)]

    G = cyclic(12)
    H = Subgroup(G, [0, 4, 8])
    sizes = sorted(len(c) for c in components(build_graph(G, H)))
    assert sizes == [3, 3, 6]


def test_trivial_subgroup_graphs():
    G = cyclic(5)
    H = Subgroup(G, [G.identity])
    assert not any(build_graph(G, H).rows)
    extended = build_graph(G, H, extended=True)
    assert sorted(extended.edges()) == [(1, 4), (2, 3)]


def test_whole_group_plain_graph_degrees():
    G = cyclic(6)
    graph = build_graph(G, Subgroup(G, range(G.order)))
    # self-inverse vertices (0 and 3) are adjacent to everything else;
    # the rest miss only their own inverse
    assert [r.bit_count() for r in graph.rows] == [5, 4, 4, 5, 4, 4]


def test_normality_is_required():
    G = dihedral(4)
    H = Subgroup(G, [0, 4])  # <b> is not normal in D8
    assert not H.is_normal
    with pytest.raises(NotNormalError):
        build_graph(G, H)


def test_foreign_subgroup_rejected():
    G = cyclic(6)
    other = cyclic(6)
    H = Subgroup(other, [0, 3])
    with pytest.raises(NotASubgroupError):
        build_graph(G, H)


_Z4 = cyclic(4)


@pytest.mark.parametrize(
    "call",
    [build_graph, right_cosets, decide_code, decide_perfect_code, decide_perfect_code_extended,
     decide_total_perfect_code, decide_total_perfect_code_extended, cyclic_perfect_code, abelian_total_perfect_code,
     abelian_2group_perfect_code, dihedral_perfect_code, dicyclic_perfect_code, require_normal, require_subgroup],
)
@pytest.mark.parametrize(
    "G, H, message",
    [
        (_Z4, [0, 2], "expected a Subgroup, got list"),
        (_Z4, 5, "expected a Subgroup, got int"),
        (_Z4, _Z4, "expected a Subgroup, got Group"),
        (5, Subgroup(_Z4, [0, 2]), "expected a Group, got int"),
    ],
)
def test_a_g_or_h_of_the_wrong_type_is_a_bad_parameter(call, G, H, message):
    """Every (G, H) entry point names the wrong type before it reads G or H,
    the family rules included, which read G's tag."""
    with pytest.raises(BadParameterError, match=f"^{message}$"):
        call(G, H)


_Z6 = cyclic(6)
_Z6_H3 = Subgroup(_Z6, [0, 2, 4])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Subgroup(5, [0]), "expected a Group, got int"),
        (lambda: subgroup_generated(5, [1]), "expected a Group, got int"),
        (lambda: normal_subgroups(5), "expected a Group, got int"),
        (lambda: conjugacy_classes(5), "expected a Group, got int"),
        (lambda: is_code_perfect(5), "expected a Group, got int"),
        (lambda: cross_check(5), "expected a Group, got int"),
        (lambda: cross_check(5, [_Z6_H3]), "expected a Group, got int"),
        (lambda: cross_check(_Z6, [[0, 2, 4]]), "expected a Subgroup, got list"),
        (lambda: is_perfect_code(5, [0]), "expected a SumGraph, got int"),
        (lambda: is_total_perfect_code(5, [0]), "expected a SumGraph, got int"),
        (lambda: find_perfect_code_bruteforce(5), "expected a SumGraph, got int"),
        (lambda: find_total_perfect_code_bruteforce(5), "expected a SumGraph, got int"),
        (lambda: components(5), "expected a SumGraph, got int"),
        (lambda: graph_to_json(5), "expected a SumGraph, got int"),
        (lambda: to_dot(5), "expected a SumGraph, got int"),
        (lambda: verdict_to_json(5, _Z6_H3, decide_code(_Z6, _Z6_H3)), "expected a Group, got int"),
        (lambda: verdict_to_json(_Z6, [0, 2, 4], decide_code(_Z6, _Z6_H3)), "expected a Subgroup, got list"),
        (lambda: verdict_to_json(_Z6, _Z6_H3, None), "expected a Verdict, got NoneType"),
        (lambda: subgroup_generated(_Z6, 5), "generators must be a sequence, got int"),
        (lambda: Subgroup(_Z6, 5), "members must be a sequence, got int"),
        (lambda: is_perfect_code(build_graph(_Z6, _Z6_H3), 5), "code must be a sequence, got int"),
        (lambda: is_total_perfect_code(build_graph(_Z6, _Z6_H3), 5), "code must be a sequence, got int"),
        (lambda: is_perfect_code(build_graph(_Z6, _Z6_H3), [0, True]), "code member True is not an integer"),
        (lambda: cross_check(_Z6, 5), "subgroups must be a sequence, got int"),
    ],
    ids=[
        "Subgroup", "subgroup_generated", "normal_subgroups", "conjugacy_classes", "is_code_perfect",
        "cross_check", "cross_check-subgroups", "cross_check-list", "is_perfect_code",
        "is_total_perfect_code", "find_perfect_code_bruteforce", "find_total_perfect_code_bruteforce",
        "components", "graph_to_json", "to_dot",
        "verdict_to_json-group", "verdict_to_json-subgroup", "verdict_to_json-verdict",
        "subgroup_generated-generators", "Subgroup-members", "is_perfect_code-code",
        "is_total_perfect_code-code", "cross_check-int", "is_perfect_code-bool",
    ],
)
def test_an_argument_of_the_wrong_type_is_a_bad_parameter(call, message):
    """The entry points that take a group, a graph or a verdict name a
    wrong type with a BadParameterError, not an AttributeError further in;
    those that take a sequence name a value that cannot be iterated, not a
    TypeError further in."""
    with pytest.raises(BadParameterError, match=f"^{message}$"):
        call()


def test_structure_report_classifies_known_blocks():
    G = cyclic(6)
    H = Subgroup(G, [0, 3])
    blocks = audit_blocks(G, H)
    assert all(b.witness is None for b in blocks)
    kinds = {(b.flavor, b.kind) for b in blocks}
    assert ("extended", "complete_bipartite") in kinds
    assert ("extended", "complete") in kinds
    bipartite = [b for b in blocks if b.kind == "complete_bipartite"][0]
    assert sorted(bipartite.vertices) == [1, 2, 4, 5]

    G = cyclic(12)
    H = Subgroup(G, [0, 4, 8])
    blocks = audit_blocks(G, H)
    assert all(b.witness is None for b in blocks)
    plain_blocks = [b for b in blocks if b.flavor == "plain"]
    h2_block = [b for b in plain_blocks if 2 in b.vertices][0]
    assert h2_block.kind == "complete_minus_matching"
    assert sorted(h2_block.vertices) == [2, 6, 10]
    # K_3 on {2,6,10} minus the inverse pair {2,10}
    graph = build_graph(G, H)
    assert graph.rows[2] >> 6 & 1 and graph.rows[6] >> 10 & 1
    assert not graph.rows[2] >> 10 & 1


def _flip_one_edge(monkeypatch, flavor, u, w):
    """Make ``audit_blocks`` see the built graph of one flavour with the
    edge pair {u, w} flipped: added when absent, removed when present."""
    build = graphs_module._sum_graphs

    def corrupted(G, subgroups):
        for *graphs, parts in build(G, subgroups):
            k = flavor == "extended"
            rows = list(graphs[k].rows)
            rows[u] ^= 1 << w
            rows[w] ^= 1 << u
            graphs[k] = graphs_module.SumGraph(G, graphs[k].subgroup, graphs[k].extended, tuple(rows))
            yield (*graphs, parts)

    monkeypatch.setattr(graphs_module, "_sum_graphs", corrupted)


@pytest.mark.parametrize(
    "order, members, flavor, edge, witnesses",
    [
        # an edge leaked between the units {0, 3} and {1, 4} + {2, 5}:
        # each block it touches reports it from its own side
        (6, [0, 3], "plain", (0, 1), {
            ("plain", (0, 3)): ("unexpected-edge", 0, 1),
            ("plain", (1, 2, 4, 5)): ("unexpected-edge", 1, 0),
        }),
        # the inverse pair {1, 5} dropped from the extended bipartite block
        (6, [0, 3], "extended", (1, 5), {("extended", (1, 2, 4, 5)): ("missing-edge", 1, 5)}),
        # an edge dropped inside the one-coset block {2, 6, 10}
        (12, [0, 4, 8], "plain", (2, 6), {("plain", (2, 6, 10)): ("missing-edge", 2, 6)}),
    ],
)
def test_structure_report_names_a_corrupted_edge(monkeypatch, order, members, flavor, edge, witnesses):
    G = cyclic(order)
    H = Subgroup(G, members)
    _flip_one_edge(monkeypatch, flavor, *edge)
    blocks = audit_blocks(G, H)
    failed = {(b.flavor, b.vertices): b for b in blocks if b.witness is not None}
    assert {key: b.witness for key, b in failed.items()} == witnesses
    assert all(b.kind == "other" and not b.divergence for b in failed.values())
    assert all(b.kind != "other" for b in blocks if b.witness is None)


def test_structure_divergence_is_reported_not_asserted():
    G = cyclic(8)
    H = Subgroup(G, [0, 2, 4, 6])
    blocks = audit_blocks(G, H)
    assert all(b.witness is None for b in blocks)  # shapes still classify perfectly
    assert tuple(v for b in blocks for v in b.divergence) == (2, 6)


def test_structure_sweep_matches_everywhere():
    """Every block matches, over all four block shapes and both readings
    of a divergence; per flavour, the blocks hold the package's right
    cosets, each in one block, plain block then extended."""
    relabelled_groups = [relabelled(G, seed)[0] for seed, G in enumerate(sweep(16))]  # identity off index 0
    seen = set()
    for G in (*sweep(24), *relabelled_groups):
        for H in normal_subgroups(G):
            if len(H) == 1:
                continue
            blocks = audit_blocks(G, H)
            assert all(b.witness is None for b in blocks), (G.name, H.members)
            cosets = {c[0]: c for c in right_cosets(G, H)}
            plain, extended = blocks[::2], blocks[1::2]
            assert {b.flavor for b in plain} == {"plain"} and {b.flavor for b in extended} == {"extended"}
            units = [(b.vertices, b.coset_representatives) for b in plain]
            assert units == [(b.vertices, b.coset_representatives) for b in extended], (G.name, H.members)
            assert sorted(x for _, reps in units for x in reps) == sorted(cosets), (G.name, H.members)
            assert all(vs == tuple(sorted(v for x in reps for v in cosets[x])) for vs, reps in units)
            seen |= {(b.flavor, b.kind, bool(b.divergence)) for b in blocks}
    assert seen == {
        ("plain", "complete", False), ("plain", "complete", True), ("plain", "complete_minus_matching", False),
        ("plain", "complete_minus_matching", True), ("plain", "bipartite_minus_perfect_matching", False),
        ("extended", "complete", False), ("extended", "complete_bipartite", False),
    }


def test_graph_json_round_trip_shape():
    G = cyclic(6)
    H = Subgroup(G, [0, 3])
    payload = graph_to_json(build_graph(G, H, extended=True))
    assert payload["order"] == 6
    assert payload["subgroup"] == [0, 3]
    assert payload["extended"] is True
    adjacency = payload["adjacency"]
    assert adjacency[0] == [3]
    # symmetric
    for u, nbrs in enumerate(adjacency):
        for v in nbrs:
            assert u in adjacency[v]
    json.dumps(payload)  # serializable


def test_dot_export_lists_all_edges_once():
    G = quaternion()
    H = Subgroup(G, [0, 1])
    graph = build_graph(G, H)
    dot = to_dot(graph)
    assert dot.startswith("graph ")
    edge_lines = [line for line in dot.splitlines() if " -- " in line]
    assert len(edge_lines) == sum(r.bit_count() for r in graph.rows) // 2
    colored = to_dot(graph, color_components=True)
    assert "fillcolor" in colored


def test_dot_labels_are_escaped():
    """A label with quotes or backslashes stays one DOT string that reads
    back as the label."""
    labels = ['say "hi"', "a\\b", 'end\\"']
    G = group_from_cayley_table(cyclic(3).table, labels)
    dot = to_dot(build_graph(G, Subgroup(G, range(3))))
    quoted = re.findall(r'label="((?:[^"\\]|\\.)*)"\]', dot)
    assert [re.sub(r"\\(.)", r"\1", q) for q in quoted] == labels
    assert 'label="say \\"hi\\""' in dot
