"""Family-specific deciders and whole-group classification."""

import ast
import inspect
import math
import random

import pytest

import sumgraph.families as families
import sumgraph.groups as groups_module
from sumgraph import (
    BadParameterError,
    InternalInconsistencyError,
    NotAbelianError,
    NotASubgroupError,
    NotNormalError,
    Subgroup,
    Verdict,
    abelian,
    abelian_2group_perfect_code,
    abelian_isomorphism_types,
    abelian_total_perfect_code,
    build_graph,
    build_group,
    cross_check,
    cyclic,
    cyclic_perfect_code,
    decide_perfect_code,
    decide_total_perfect_code,
    dicyclic,
    dicyclic_perfect_code,
    dihedral,
    dihedral_perfect_code,
    direct_product,
    elementary_abelian_2,
    find_total_perfect_code_bruteforce,
    is_code_perfect,
    normal_subgroups,
    parse_group_expr,
    quaternion,
    subgroup_generated,
)

from helpers import (
    code_perfect_by_dedekind,
    code_perfect_by_lattice,
    is_dedekind,
    order_three_coset_scan,
    permutation_group,
    relabelled,
    sweep,
)


def test_families_share_no_rule_with_the_generic_deciders():
    # the family deciders cross-check the generic ones, so they may not call
    # them; is_code_perfect's re-check of a refuted subgroup is the one exception
    imported = [
        (getattr(node, "module", None) or "", alias.name)
        for node in ast.walk(ast.parse(inspect.getsource(families)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    from_codes = [name for module, name in imported if "codes" in (module + "." + name).split(".")]
    assert from_codes == ["decide_perfect_code"]


def _cyclic_rule(n, a):
    """The cyclic decider on H = <a> in Z_n."""
    G = cyclic(n)
    return cyclic_perfect_code(G, subgroup_generated(G, [a % n]))


def test_cyclic_rule_known_values():
    assert not _cyclic_rule(60, 2)
    assert _cyclic_rule(60, 5)  # o(5)=12 even >= 4, 5 odd
    failing = [a for a in range(1, 61) if 60 % a == 0 and not _cyclic_rule(60, a)]
    assert failing == [2, 6, 10]

    # powers of two: works only for |H| in {1, 2, 2^k}
    for k in (2, 3, 4, 5):
        n = 2 ** k
        for a in range(1, n + 1):
            if n % a:
                continue
            expected = (n // a) in (1, 2, n)
            assert _cyclic_rule(n, a) == expected


def test_cyclic_rule_matches_generic_decider():
    for n in range(1, 61):
        G = cyclic(n)
        for a in range(1, n + 1):
            if n % a:
                continue
            H = subgroup_generated(G, [a % n])
            assert cyclic_perfect_code(G, H) == decide_perfect_code(G, H).exists, (n, a)


def _abelian_2group_rule(factors, members):
    """The 2-group decider on the subgroup with these mixed-radix indices."""
    G = abelian(factors)
    return abelian_2group_perfect_code(G, Subgroup(G, members))


def test_abelian_2group_examples():
    # Z2 x Z4, the order-8 counterexample subgroup {(0,0),(0,2),(1,0),(1,2)}
    assert not _abelian_2group_rule((2, 4), [0, 2, 4, 6])
    # {0} x Z4 splits into trivial-or-full factors
    assert _abelian_2group_rule((2, 4), [0, 1, 2, 3])
    # Z4 x Z4 axis and non-split cases
    assert _abelian_2group_rule((4, 4), [0, 4, 8, 12])
    assert not _abelian_2group_rule((4, 4), [0, 2, 8, 10])
    # the diagonal <(1,1)> is not a coordinate product but admits a code
    assert _abelian_2group_rule((4, 4), [0, 5, 10, 15])

    G = direct_product(cyclic(2), cyclic(4))
    K = Subgroup(G, [0, 2, 4, 6])
    assert not abelian_2group_perfect_code(G, K)

    # E2^t is read as t factors Z2, in the same element order as abelian()
    E = elementary_abelian_2(3)
    for K in normal_subgroups(E):
        if len(K) >= 3:
            assert abelian_2group_perfect_code(E, K) == _abelian_2group_rule((2, 2, 2), K.members)

    with pytest.raises(BadParameterError):
        _abelian_2group_rule((2, 4), [0, 2])  # |K| < 3
    with pytest.raises(BadParameterError):
        C = cyclic(8)
        abelian_2group_perfect_code(C, Subgroup(C, [0, 2, 4, 6]))  # ambient cyclic
    with pytest.raises(BadParameterError):
        _abelian_2group_rule((2, 6), [0, 2, 4])  # not a 2-group


def test_abelian_2group_matches_generic_decider():
    for factors in abelian_isomorphism_types(32):
        if len(factors) < 2 or any(f & (f - 1) for f in factors):
            continue
        G = abelian(factors)
        for K in normal_subgroups(G):  # in an abelian group every subgroup is normal
            if len(K) < 3:
                continue
            assert (
                abelian_2group_perfect_code(G, K)
                == decide_perfect_code(G, K).exists
            ), (factors, K.members)


def _decode(index, orders):
    out = []
    for f in reversed(orders):
        out.append(index % f)
        index //= f
    return tuple(reversed(out))


def _encode(coords, orders):
    acc = 0
    for c, f in zip(coords, orders):
        acc = acc * f + c
    return acc


def _abelian_2group_reference(orders, members):
    """The decider's earlier per-element loop version."""
    mset = set(members)
    n = math.prod(orders)

    def double(i):
        return _encode([(2 * c) % f for c, f in zip(_decode(i, orders), orders)], orders)

    socle = [i for i in range(n) if double(i) == 0]
    reach = set()
    for k in members:
        kc = _decode(k, orders)
        for w in socle:
            wc = _decode(w, orders)
            reach.add(_encode([(x + y) % f for x, y, f in zip(kc, wc, orders)], orders))
    return all(double(x) not in mset or x in reach for x in range(n))


def test_abelian_2group_matches_loop_reference_up_to_64():
    types = [f for f in abelian_isomorphism_types(64) if len(f) > 1 and not any(x & (x - 1) for x in f)]
    assert len(types) == 23
    rng = random.Random(64)
    for factors in types:
        G = abelian(factors)
        subgroups = [K for K in normal_subgroups(G) if len(K) >= 3]  # all subgroups
        if math.prod(factors) == 64:  # every subgroup up to order 32, a sample at 64
            subgroups = rng.sample(subgroups, min(len(subgroups), 40))
        for K in subgroups:
            expected = _abelian_2group_reference(factors, K.members)
            assert abelian_2group_perfect_code(G, K) == expected, (factors, K.members)


def test_family_deciders_check_the_family_and_the_parent():
    own = {
        cyclic_perfect_code: cyclic(8),
        abelian_2group_perfect_code: abelian((2, 4)),
        dihedral_perfect_code: dihedral(4),
        dicyclic_perfect_code: dicyclic(2),
        abelian_total_perfect_code: cyclic(6),
    }
    assert {d.__name__ for d in own} == set(families.__all__) - {"is_code_perfect"}
    # the four that read G.tag refuse a group of another family
    readers = (cyclic_perfect_code, abelian_2group_perfect_code, dihedral_perfect_code, dicyclic_perfect_code)
    for decider in readers:
        for other in readers:
            G = own[other]
            if other is not decider:
                with pytest.raises(BadParameterError, match="expected"):
                    decider(G, Subgroup(G, range(G.order)))
    # every (G, H) decider refuses a subgroup of another group, even an equal one
    for decider, G in own.items():
        twin = build_group(G.tag)
        H = Subgroup(twin, [0, 2, 4]) if twin.order == 6 else Subgroup(twin, range(twin.order))
        with pytest.raises(NotASubgroupError):
            decider(G, H)


def test_dihedral_catalogue():
    G = dihedral(3)
    for H in normal_subgroups(G):
        assert dihedral_perfect_code(G, H)

    G = dihedral(4)
    H = subgroup_generated(G, [2, 4])  # <a^2, b>
    assert dihedral_perfect_code(G, H)
    H = subgroup_generated(G, [2, 5])  # <a^2, ab>
    assert dihedral_perfect_code(G, H)
    with pytest.raises(NotNormalError):
        dihedral_perfect_code(G, Subgroup(G, [0, 4]))

    G = dihedral(12)
    H = subgroup_generated(G, [2])  # <a^2>, order 6, even steps
    assert not dihedral_perfect_code(G, H)
    with pytest.raises(BadParameterError):
        C = cyclic(6)
        dihedral_perfect_code(C, Subgroup(C, range(6)))


def test_dihedral_matches_generic_decider():
    for n in range(3, 13):
        G = dihedral(n)
        for H in normal_subgroups(G):
            assert dihedral_perfect_code(G, H) == decide_perfect_code(G, H).exists, (
                n,
                H.members,
            )


def test_dicyclic_catalogue():
    G = dicyclic(2)
    assert not dicyclic_perfect_code(G, subgroup_generated(G, [1]))  # <a>, order 4
    assert dicyclic_perfect_code(G, Subgroup(G, range(G.order)))

    G = dicyclic(3)
    assert dicyclic_perfect_code(G, subgroup_generated(G, [2]))  # <a^2>, 6/2=3 odd
    assert dicyclic_perfect_code(G, subgroup_generated(G, [3]))  # <a^3>, order 2

    for n in (2, 3, 4, 5):
        G = dicyclic(n)
        H = subgroup_generated(G, [n])  # <a^n>, the unique involution
        assert len(H) == 2
        assert dicyclic_perfect_code(G, H)

    with pytest.raises(NotNormalError):
        G = dicyclic(3)
        dicyclic_perfect_code(G, subgroup_generated(G, [G.order - 1]))  # <b>
    with pytest.raises(BadParameterError):
        C = cyclic(8)
        dicyclic_perfect_code(C, Subgroup(C, range(8)))


def test_dicyclic_matches_generic_decider():
    for n in range(2, 9):
        G = dicyclic(n)
        for H in normal_subgroups(G):
            assert dicyclic_perfect_code(G, H) == decide_perfect_code(G, H).exists, (
                n,
                H.members,
            )


def test_abelian_total_known_values():
    G = direct_product(cyclic(2), cyclic(5))
    two = [g for g in range(10) if g and G.rows[g][g] == 0]
    assert len(two) == 1
    assert abelian_total_perfect_code(G, Subgroup(G, [0] + two))

    G = cyclic(4)
    assert not abelian_total_perfect_code(G, Subgroup(G, [0, 2]))

    G = cyclic(6)
    assert abelian_total_perfect_code(G, Subgroup(G, [0, 2, 4]))
    # H = {0, 3}: nothing doubles to 3 in Z6, so the graph is a perfect
    # matching and the whole vertex set is a total perfect code
    assert abelian_total_perfect_code(G, Subgroup(G, [0, 3]))
    G = cyclic(8)
    assert not abelian_total_perfect_code(G, Subgroup(G, [0, 4]))

    with pytest.raises(NotAbelianError):
        D = dihedral(3)
        abelian_total_perfect_code(D, Subgroup(D, range(6)))


def test_abelian_total_matches_generic_decider_up_to_48():
    for factors in abelian_isomorphism_types(48):
        G = abelian(factors) if factors else cyclic(1)
        for H in normal_subgroups(G):
            assert (
                abelian_total_perfect_code(G, H)
                == decide_total_perfect_code(G, H).exists
            ), (factors, H.members)
    # the |H| = 3 rule past the sweep: every order-3 subgroup to order 192
    threes, found = 0, []
    for factors in abelian_isomorphism_types(192):
        if math.prod(factors) % 3:
            continue
        G = abelian(factors)
        generators = {min(x, G.inverses[x]) for x in range(G.order) if G.element_orders[x] == 3}  # one per H
        for H in (subgroup_generated(G, [x]) for x in sorted(generators)):
            threes += 1
            exists = abelian_total_perfect_code(G, H)
            assert exists == decide_total_perfect_code(G, H).exists, (factors, H.members)
            if exists:
                found.append(factors)
    assert threes == 419
    assert found == [(2,) * k + (3,) for k in range(7)]


def test_order_three_coset_scan():
    G = cyclic(6)
    assert order_three_coset_scan(G, Subgroup(G, [0, 2, 4]))

    G = dihedral(3)
    assert not order_three_coset_scan(G, subgroup_generated(G, [1]))

    G = cyclic(3)
    assert order_three_coset_scan(G, Subgroup(G, range(G.order)))

    G = cyclic(6)
    with pytest.raises(BadParameterError):
        order_three_coset_scan(G, Subgroup(G, [0, 3]))


def test_order_three_scan_equivalent_to_total_code_existence():
    # the scan conditions recognize exactly the groups Z2^n x Z3 with H the
    # order-3 subgroup, which by the total-code catalogue are exactly the
    # |H|=3 cases admitting a total perfect code
    for G in sweep(24):
        for H in normal_subgroups(G):
            if len(H) != 3:
                continue
            assert order_three_coset_scan(G, H) == decide_total_perfect_code(G, H).exists
    # past the sweep: order 96 admits a code, the non-abelian D6 x E2^2 does not
    for text, expected in (("E2^5 x Z3", True), ("D6 x E2^2", False)):
        G = build_group(parse_group_expr(text))
        threes = [H for H in normal_subgroups(G) if len(H) == 3]
        assert threes, text
        for H in threes:
            oracle = find_total_perfect_code_bruteforce(build_graph(G, H)) is not None
            assert order_three_coset_scan(G, H) == decide_total_perfect_code(G, H).exists
            assert order_three_coset_scan(G, H) == oracle == expected, text


def test_is_code_perfect_bruteforce():
    # one way to answer, the normal-closure test: no method to choose
    assert list(inspect.signature(is_code_perfect).parameters) == ["G"]
    assert is_code_perfect(cyclic(4))
    assert not is_code_perfect(cyclic(8))
    for n in range(1, 33):
        expected = n % 2 == 1 or (n % 2 == 0 and (n // 2 == 2 or n // 2 % 2 == 1))
        assert is_code_perfect(cyclic(n)) == expected, n

    # odd abelian groups and elementary abelian 2-groups are code-perfect
    assert is_code_perfect(abelian((9, 3)))
    assert is_code_perfect(abelian((5, 5)))
    assert is_code_perfect(elementary_abelian_2(4))
    # dihedral groups of order 6, 10, 14 are code-perfect
    for n in (3, 5, 7):
        assert is_code_perfect(dihedral(n))


_CLASSIFY_PRODUCTS = (
    "D8 x Z2", "Q8 x E2^3", "D12 x Z3", "D6 x Z3", "D12 x Z2", "Dic3 x Z4",
    "Q8 x Z3", "D8 x D6", "Z4 x Z4 x Z3", "Dic3 x Z3", "D10 x Z3", "E2^3 x Z9",
)


def _classify_groups():
    """sweep(64), products past it, relabelled tables, and A4 and S4 as
    permutation groups, which no constructor builds."""
    products = [build_group(parse_group_expr(text)) for text in _CLASSIFY_PRODUCTS]
    relabellings = [relabelled(G, seed)[0] for seed, G in enumerate((dihedral(6), dicyclic(3), *products[:6]))]
    A4 = permutation_group([(1, 2, 0, 3), (0, 2, 3, 1)])
    S4 = permutation_group([(1, 2, 3, 0), (1, 0, 2, 3)])
    assert (A4.order, S4.order) == (12, 24)
    return [*sweep(64), *products, *relabellings, A4, S4]


def test_is_code_perfect_matches_the_lattice():
    """The normal-closure test against every normal subgroup decided one
    by one; the groups include both answers with |N| = 2 and |N| >= 3."""
    verdicts = []
    for G in _classify_groups():
        verdict = is_code_perfect(G)
        assert verdict == code_perfect_by_lattice(G), G.name
        verdicts.append(verdict)
        if is_dedekind(G):
            assert code_perfect_by_dedekind(G) == verdict, G.name
    assert 100 < sum(verdicts) < len(verdicts) - 50
    # A4 and S4 are code-perfect; of the first products, D8 x Z2 and
    # Q8 x E2^3 are not, D12 x Z3 is
    assert verdicts[-2:] == [True, True]
    assert verdicts[len(sweep(64)):len(sweep(64)) + 3] == [False, False, True]


A5 = [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]
S5 = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]


@pytest.mark.parametrize(
    "generators, factor, order, normals, verdict",
    [
        (A5, 1, 60, 2, True),
        (S5, 1, 120, 3, True),
        (A5, 2, 120, 4, True),
        (S5, 2, 240, 7, True),
        (A5, 4, 240, 6, False),
        (S5, 4, 480, 11, False),
    ],
)
def test_non_solvable_groups(generators, factor, order, normals, verdict):
    """A5 and S5, where G' = G or G' = A5, and their products with Z2 and
    Z4: every other group the tests build is solvable."""
    G = permutation_group(generators)
    if factor > 1:
        G = direct_product(G, cyclic(factor))
    assert (G.order, len(normal_subgroups(G)), is_code_perfect(G)) == (order, normals, verdict)
    assert code_perfect_by_lattice(G) == verdict
    assert not cross_check(G).disagreements


def test_a_refuted_subgroup_is_rechecked(monkeypatch):
    """A "no" rests on the refuted closure having no perfect code: a
    decider that finds one there is an internal inconsistency."""
    seen = []

    def finds_a_code(G, H):
        seen.append(H.members)
        return Verdict("plain", "perfect", "square-cosets-have-involutions", (), None)

    monkeypatch.setattr(families, "decide_perfect_code", finds_a_code)
    G = cyclic(8)
    with pytest.raises(InternalInconsistencyError, match=r"\(0, 2, 4, 6\) has a perfect code"):
        is_code_perfect(G)
    assert seen == [(0, 2, 4, 6)]
    assert is_code_perfect(cyclic(6))  # a "yes" asks the decider nothing
    assert seen == [(0, 2, 4, 6)]


def test_a_mixed_subgroup_outside_the_dihedral_catalogue_is_caught():
    """Every normal mixed proper subgroup of a dihedral group has index 2:
    any other one handed to the decider is an internal inconsistency."""
    G = dihedral(4)
    H = groups_module._mark_normal(Subgroup(G, [0, 4]))  # <b>, which is not normal in D8
    with pytest.raises(InternalInconsistencyError, match="escaped the dihedral catalogue"):
        dihedral_perfect_code(G, H)


def test_is_code_perfect_dedekind():
    """The paper's classification of the code-perfect Dedekind groups,
    the test reference, against the normal-closure test."""
    for G, expected in (
        (cyclic(4), True), (quaternion(), False), (dicyclic(2), False), (direct_product(cyclic(2), cyclic(5)), True),
    ):
        assert code_perfect_by_dedekind(G) is is_code_perfect(G) is expected, G.name
    with pytest.raises(ValueError, match="non-normal subgroup"):
        code_perfect_by_dedekind(dihedral(3))

    # agreement on abelian groups
    for factors in abelian_isomorphism_types(24):
        G = abelian(factors) if factors else cyclic(1)
        assert code_perfect_by_dedekind(G) == is_code_perfect(G), factors
    # Q8 x E2^k is Dedekind and not code-perfect; from k = 6 its lattice
    # is over the budget, which the normal-closure test never lists
    for k in range(7):
        G = build_group(parse_group_expr(f"Q8 x E2^{k}" if k else "Q8"))
        assert is_dedekind(G)
        assert is_code_perfect(G) is code_perfect_by_dedekind(G) is False
    with pytest.raises(BadParameterError, match="budget"):
        normal_subgroups(G)

    # a Dedekind group that fails does so because a concrete subgroup fails
    G = cyclic(8)
    failing = [
        H.members for H in normal_subgroups(G) if not decide_perfect_code(G, H).exists
    ]
    assert failing == [(0, 2, 4, 6)]
    assert not code_perfect_by_dedekind(G)
