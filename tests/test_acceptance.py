"""Acceptance gate: eleven exact criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every line as it
prints; without ``-s`` the lines appear for failing criteria only.
"""

import time

from sumgraph import (
    Subgroup,
    abelian,
    abelian_isomorphism_types,
    abelian_total_perfect_code,
    build_graph,
    cyclic,
    cyclic_perfect_code,
    decide_code,
    decide_perfect_code,
    decide_perfect_code_extended,
    decide_total_perfect_code,
    dicyclic,
    dicyclic_perfect_code,
    dihedral,
    dihedral_perfect_code,
    abelian_2group_perfect_code,
    find_perfect_code_bruteforce,
    is_code_perfect,
    is_perfect_code,
    is_total_perfect_code,
    normal_subgroups,
    quaternion,
    subgroup_generated,
)

from helpers import (
    SWEEP_MAX_ORDER,
    audit_blocks,
    code_perfect_by_dedekind,
    is_dedekind,
    subgroup_as_group,
    sweep,
    sweep_reports,
)


def _report(n, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_01_perfect_code_decider_matches_oracle():
    started = time.perf_counter()
    reports = sweep_reports(SWEEP_MAX_ORDER)
    bad = []
    checks = 0
    for G, report in reports:
        for e in report.entries:
            if e.verdict.flavor == "plain" and e.verdict.kind == "perfect":
                checks += 1
                if not e.agree:
                    bad.append((G.name, e.subgroup))
    elapsed = time.perf_counter() - started
    names = {G.name for G in sweep(SWEEP_MAX_ORDER)}
    coverage = {"Z48", "D48", "Dic12", "Q8", "Z2 x Z2 x Z11"} <= names
    _report(
        1,
        not bad and elapsed <= 120 and coverage,
        f"{checks} subgroups, {len(bad)} disagreements, {elapsed:.1f}s",
    )


def test_criterion_02_z60_failing_subgroups():
    G = cyclic(60)
    subs = normal_subgroups(G)
    failing = [H.members for H in subs if not decide_perfect_code(G, H).exists]
    expected = [
        tuple(range(0, 60, 2)),
        tuple(range(0, 60, 6)),
        tuple(range(0, 60, 10)),
    ]
    _report(
        2,
        len(subs) == 12 and sorted(failing) == sorted(expected),
        f"{len(subs)} subgroups, failures at orders {sorted(len(m) for m in failing)}",
    )


def test_criterion_03_quaternion_order_four_subgroup():
    G = quaternion()
    H = subgroup_generated(G, [G.labels.index("i")])
    verdict = decide_perfect_code(G, H)
    oracle = find_perfect_code_bruteforce(build_graph(G, H))
    _report(
        3,
        len(H) == 4 and verdict.exists is False and oracle is None,
        f"rule={verdict.rule}",
    )


def test_criterion_04_z2_x_z4_counterexample():
    G = abelian((2, 4))
    members = [i for i in range(8) if G.labels[i] in ("(0,0)", "(0,2)", "(1,0)", "(1,2)")]
    H = Subgroup(G, members)
    verdict = decide_perfect_code(G, H)
    oracle = find_perfect_code_bruteforce(build_graph(G, H))
    _report(4, verdict.exists is False and oracle is None, f"rule={verdict.rule}")


def test_criterion_05_sylow_reduction_is_one_directional():
    A = abelian((4, 3, 3))
    H = subgroup_generated(A, [A.labels.index("(2,1,0)")])
    assert H.members == (0, 3, 6, 18, 21, 24)

    sylow_two = Subgroup(A, [g for g, o in enumerate(A.element_orders) if o & (o - 1) == 0])
    A2, to_new = subgroup_as_group(A, sylow_two)
    H2 = Subgroup(A2, [to_new[m] for m in H.members if m in to_new])
    assert A2.order == 4 and len(H2) == 2

    small = find_perfect_code_bruteforce(build_graph(A2, H2))
    large = find_perfect_code_bruteforce(build_graph(A, H))
    _report(
        5,
        small is not None and large is None,
        "Sylow part admits a code, the full group does not",
    )


def test_criterion_06_extended_components_are_complete_or_bipartite():
    other = []
    sized_wrong = []
    divergences = []
    for G in sweep(SWEEP_MAX_ORDER):
        for H in normal_subgroups(G):
            if len(H) < 2:
                continue
            blocks = audit_blocks(G, H)
            divergent = tuple(sorted({v for b in blocks for v in b.divergence}))
            if divergent:
                divergences.append((G.name, H.members, divergent))
            for block in blocks:
                if block.flavor != "extended":
                    continue
                if block.kind == "complete":
                    if len(block.vertices) != len(H):
                        sized_wrong.append((G.name, H.members, block.vertices))
                elif block.kind == "complete_bipartite":
                    if len(block.vertices) != 2 * len(H):
                        sized_wrong.append((G.name, H.members, block.vertices))
                else:
                    other.append((G.name, H.members, block.kind))
    # divergences are between the plain graph and its textbook description;
    # they are reported, never asserted against
    for name, members, vertices in divergences[:5]:
        print(f"  reported divergence: {name} H={members} vertices={vertices}")
    _report(
        6,
        not other and not sized_wrong,
        f"{len(other)} unclassified blocks, {len(divergences)} reported divergences",
    )


def test_criterion_07_total_codes_match_oracle_and_abelian_rule():
    bad = []
    for G, report in sweep_reports(SWEEP_MAX_ORDER):
        for e in report.entries:
            if e.verdict.flavor == "plain" and e.verdict.kind == "total" and not e.agree:
                bad.append((G.name, e.subgroup))
    rule_bad = []
    for G in sweep(SWEEP_MAX_ORDER):
        if not G.abelian:
            continue
        for H in normal_subgroups(G):
            if abelian_total_perfect_code(G, H) != decide_total_perfect_code(G, H).exists:
                rule_bad.append((G.name, H.members))
    _report(
        7,
        not bad and not rule_bad,
        f"{len(bad)} oracle disagreements, {len(rule_bad)} abelian-rule disagreements",
    )


def test_criterion_08_extended_deciders_and_even_cyclic_positives():
    bad = []
    for G, report in sweep_reports(SWEEP_MAX_ORDER):
        for e in report.entries:
            if e.verdict.flavor == "extended" and not e.agree:
                bad.append((G.name, e.verdict.kind, e.subgroup))
    shape_bad = []
    for n in range(2, SWEEP_MAX_ORDER + 1, 2):
        G = cyclic(n)
        positives = {
            H.members
            for H in normal_subgroups(G)
            if decide_perfect_code_extended(G, H).exists
        }
        expected = {(0,), tuple(range(0, n, 2)), tuple(range(n))}
        if positives != expected:
            shape_bad.append(n)
    _report(
        8,
        not bad and not shape_bad,
        f"{len(bad)} oracle disagreements, even-cyclic mismatches at {shape_bad}",
    )


def test_criterion_09_code_perfect_groups_are_classified():
    mismatched = []
    for factors in abelian_isomorphism_types(32):
        G = abelian(factors) if factors else cyclic(1)
        # Z4, or Z2^t x Q with Q odd abelian: every even factor is exactly 2
        expected = factors == (4,) or all(f == 2 for f in factors if f % 2 == 0)
        if is_code_perfect(G) != expected:
            mismatched.append(factors)
    dedekind_bad = []
    for G in sweep(32):
        if not is_dedekind(G):
            continue
        if code_perfect_by_dedekind(G) != is_code_perfect(G):
            dedekind_bad.append(G.name)
    _report(
        9,
        not mismatched and not dedekind_bad,
        f"classification mismatches {mismatched}, dedekind mismatches {dedekind_bad}",
    )


def test_criterion_10_positive_verdicts_carry_valid_witnesses():
    failures = 0
    positives = 0
    for G in sweep(SWEEP_MAX_ORDER):
        for H in normal_subgroups(G):
            for extended in (False, True):
                for total in (False, True):
                    verdict = decide_code(G, H, extended=extended, total=total)
                    if not verdict.exists:
                        continue
                    positives += 1
                    graph = build_graph(G, H, extended=extended)
                    checker = is_total_perfect_code if total else is_perfect_code
                    if verdict.witness is None or not checker(graph, verdict.witness):
                        failures += 1
    _report(10, failures == 0, f"{positives} positives, {failures} invalid witnesses")


def test_criterion_11_family_deciders_match_generic():
    started = time.perf_counter()
    bad = []
    for n in range(1, 121):
        G = cyclic(n)
        for a in range(1, n + 1):
            if n % a:
                continue
            H = subgroup_generated(G, [a % n])
            if cyclic_perfect_code(G, H) != decide_perfect_code(G, H).exists:
                bad.append(("cyclic", n, a))
    for n in range(3, 17):
        G = dihedral(n)
        for H in normal_subgroups(G):
            if dihedral_perfect_code(G, H) != decide_perfect_code(G, H).exists:
                bad.append(("dihedral", n, H.members))
    for n in range(2, 9):
        G = dicyclic(n)
        for H in normal_subgroups(G):
            if dicyclic_perfect_code(G, H) != decide_perfect_code(G, H).exists:
                bad.append(("dicyclic", n, H.members))
    for factors in abelian_isomorphism_types(32):
        if len(factors) < 2 or any(f & (f - 1) for f in factors):
            continue
        G = abelian(factors)
        for K in normal_subgroups(G):  # in an abelian group every subgroup is normal
            if len(K) < 3:
                continue
            if abelian_2group_perfect_code(G, K) != decide_perfect_code(G, K).exists:
                bad.append(("abelian-2", factors, K.members))
    elapsed = time.perf_counter() - started
    _report(
        11,
        not bad and elapsed <= 120,
        f"{len(bad)} disagreements, {elapsed:.1f}s",
    )
