"""Perfect and total perfect codes in sum graphs.

A *perfect code* of a graph is an independent set C such that every vertex
outside C has exactly one neighbour inside; equivalently the closed
neighbourhoods of C's members partition the vertex set.  A *total perfect
code* requires every vertex -- members of C included -- to have exactly one
neighbour in C, i.e. the open neighbourhoods partition the vertex set.

Each flavour/kind combination has a fast decider that reads the answer off
the group structure, produces an explicit witness code when one exists and
a small refuting certificate when none does; it reads only the Cayley table,
re-checking its witness there too (each is a rule body that :func:`_decider`
wraps, building its :class:`Verdict`).  The plain perfect-code rule and the
extended transversal read the least member of every right coset, and the
ascending heads of the cosets, from the subgroup's coset record
(:attr:`~sumgraph.groups.Subgroup._cosets`): the lattice keeps it for
every normal subgroup it lists, and any other subgroup gathers it from
the table once, on first use.  They walk those heads, building no coset;
the plain one pairs each Hx with Hx^-1 unless x*x lies in H.  The
|H| = 3 total rule walks the same heads and reads each three-element
coset Hx off the table.  So :func:`cross_check`, its graph build and its
four deciders gather no coset of a listed subgroup.
Brute-force searchers (exact cover
over a built graph, component by component) are the independent oracles;
a search node with fewer uncovered vertices than the component's smallest
neighbourhood, which comes with the component, is refuted at once, so a
refuted dense block costs linear, not quadratic, work; the public
searchers walk the graph they are given.  :func:`cross_check` runs
deciders against oracles over every normal subgroup of a group, building
both graph flavours of each subgroup from its coset masks, together with
the extended graph's components, which serve all four searches, so no
graph is walked; of each search it keeps only whether it found a code.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistencyError, _index
from .graphs import SumGraph, _bits, _sum_graphs
from .groups import (
    Group,
    Subgroup,
    _require_iterable,
    _require_type,
    normal_subgroups,
    require_normal,
)

__all__ = [
    "Verdict",
    "is_perfect_code",
    "is_total_perfect_code",
    "find_perfect_code_bruteforce",
    "find_total_perfect_code_bruteforce",
    "decide_perfect_code",
    "decide_total_perfect_code",
    "decide_perfect_code_extended",
    "decide_total_perfect_code_extended",
    "decide_code",
    "verdict_to_json",
    "CrossCheckEntry",
    "CrossCheckReport",
    "cross_check",
]


@dataclass(frozen=True)
class Verdict:
    """Outcome of one decider: the rule that settled it, then a witness code or a certificate."""

    flavor: str  # "plain" | "extended"
    kind: str  # "perfect" | "total"
    rule: str
    witness: tuple[int, ...] | None  # sorted vertex indices
    certificate: dict | None

    @property
    def exists(self) -> bool:
        return self.witness is not None


_Ruling = tuple[str, tuple[int, ...] | None, dict | None]  # a rule body's (rule, witness, certificate)


# ---------------------------------------------------------------------------
# Validation and brute-force search
# ---------------------------------------------------------------------------


def _partitions(n: int, neighbourhoods) -> bool:
    """Whether the vertex masks are pairwise disjoint and cover ``0..n-1``."""
    covered = 0
    for nb in neighbourhoods:
        if covered & nb:
            return False
        covered |= nb
    return covered == (1 << n) - 1


def _graph_partitions(graph: SumGraph, code, closed: bool) -> bool:
    _require_type(graph, SumGraph)
    _require_iterable(code, "code")
    vertices = [_index(c, "code member", 0, graph.n - 1) for c in code]
    return _partitions(graph.n, (graph.rows[v] | (1 << v) if closed else graph.rows[v] for v in vertices))


def is_perfect_code(graph: SumGraph, code) -> bool:
    """Whether the closed neighbourhoods of ``code`` partition the vertices."""
    return _graph_partitions(graph, code, closed=True)


def is_total_perfect_code(graph: SumGraph, code) -> bool:
    """Whether the open neighbourhoods of ``code`` partition the vertices."""
    return _graph_partitions(graph, code, closed=False)


def _table_partitions(G: Group, H: Subgroup, code, extended: bool, closed: bool) -> bool:
    """The graph checkers' test read off the table: the neighbours of c are
    the c^-1 h other than c, for h in H (minus e in the plain graph)."""
    hs = H.members if extended else [h for h in H.members if h != G.identity]
    masks = []
    for c in code:
        row = G.rows[G.inverses[c]]
        nb = 0
        for h in hs:
            nb |= 1 << row[h]
        masks.append(nb | (1 << c) if closed else nb & ~(1 << c))
    return _partitions(G.order, masks)


def _cover_component(
    rows: tuple[int, ...], comp_mask: int, closed: bool, least: int, covered: int, chosen: int
) -> int | None:
    """Exact cover of one component by (closed or open) neighbourhoods.

    Extends the partial cover ``covered``, made by the code ``chosen``,
    branching on the dominators of the lowest uncovered vertex in ascending
    order, so each node tries the least candidate first.  ``least`` is the
    smallest neighbourhood size in the component: a neighbourhood that
    covers the lowest uncovered vertex must fit in what is left, so fewer
    uncovered vertices than ``least`` refute the node at once.
    A plain module function, not a closure, so a search leaves no reference
    cycle that would keep the graph alive until the cyclic collector runs.
    """
    rem = comp_mask & ~covered
    if not rem:
        return chosen
    if rem.bit_count() < least:
        return None
    v = (rem & -rem).bit_length() - 1
    candidates = rows[v] | (1 << v) if closed else rows[v]
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        nb = rows[low.bit_length() - 1]
        if closed:
            nb |= low
        if nb & covered:
            continue
        got = _cover_component(rows, comp_mask, closed, least, covered | nb, chosen | low)
        if got is not None:
            return got
    return None


def _find_code(rows: tuple[int, ...], parts, closed: bool, slack: int = 0) -> int | None:
    """A code of the graph of ``rows`` (closed: perfect, open: total) as a
    vertex bitmask, or ``None``.

    ``parts`` are ``(mask, least)`` pairs whose masks partition the
    vertices, each closed under ``rows``, with ``least - slack`` at most
    its smallest degree: the public searchers pass the components their
    walk of the graph finds, and :func:`cross_check` the components of
    the extended graph that its build hands out, to the plain search too,
    with slack 1 (a plain row is the extended one less one bit, so an
    extended component is a union of plain ones, covered exactly when
    each of them is).  Each part is covered on its
    own, with the size cut of :func:`_cover_component` at ``least -
    slack``, plus one for the closed neighbourhood.  A node the cut
    refutes is one where every candidate would meet the cover already
    made, so the same nodes are entered and the same code is found; what
    the cut saves is their scans of candidates: a refuted dense block of
    m vertices costs O(m) row reads instead of O(m^2).
    """
    chosen = 0
    for part, least in parts:
        got = _cover_component(rows, part, closed, least - slack + closed, 0, 0)
        if got is None:
            return None
        chosen |= got
    return chosen


def _bruteforce(graph: SumGraph, closed: bool) -> tuple[int, ...] | None:
    """The code :func:`_find_code` finds over the graph's own components, as a sorted tuple."""
    _require_type(graph, SumGraph)
    code = _find_code(graph.rows, graph._component_masks, closed)
    return None if code is None else tuple(_bits(code))


def find_perfect_code_bruteforce(graph: SumGraph) -> tuple[int, ...] | None:
    """Search for a perfect code by exact cover, component by component."""
    return _bruteforce(graph, closed=True)


def find_total_perfect_code_bruteforce(graph: SumGraph) -> tuple[int, ...] | None:
    """Search for a total perfect code by exact cover, component by component."""
    return _bruteforce(graph, closed=False)


# ---------------------------------------------------------------------------
# Deciders
# ---------------------------------------------------------------------------


def _decider(flavor: str, kind: str):
    """Make a rule body, ``rule(G, H) -> (rule, witness, certificate)``,
    the decider of the question named here once, by graph flavour and code
    kind.  Every decider requires H normal in G and re-checks a witness
    against that question's neighbourhoods, read off the table."""
    extended, closed = flavor == "extended", kind == "perfect"

    def wrap(rule):
        @functools.wraps(rule)
        def decide(G: Group, H: Subgroup) -> Verdict:
            require_normal(G, H)
            verdict = Verdict(flavor, kind, *rule(G, H))
            if verdict.exists and not _table_partitions(G, H, verdict.witness, extended, closed):
                raise InternalInconsistencyError(f"constructed witness fails validation: {verdict!r}")
            return verdict

        return decide

    return wrap


def _refuted(reason: str, **detail) -> _Ruling:
    """A negative ruling whose certificate repeats the rule that settled it."""
    return reason, None, {"reason": reason, **detail}


@_decider("plain", "perfect")
def decide_perfect_code(G: Group, H: Subgroup) -> _Ruling:
    """Does the sum graph of G over H admit a perfect code?

    Positive for the trivial subgroup (empty graph: take everything) and
    for order two (the graph is a partial matching: take the lesser end of
    every edge, x and x^-1 h, and every isolated vertex).  For larger H a
    code exists exactly when every coset Hx with x*x in H holds a
    self-inverse element; such an element dominates its whole block, while
    the paired blocks Hx with Hx^-1 are always handled by taking x and its
    inverse.  The cosets are read off H's coset record, the least member
    of each element's coset and the ascending heads
    (:attr:`~sumgraph.groups.Subgroup._cosets`): each coset Hx is visited
    at its head, its least member x.  When x*x is in H, Hx is closed under inverses and
    is a unit alone, which takes its least self-inverse member; otherwise
    Hx pairs with Hx^-1 = (Hx)^-1 (H is normal), whose representative is
    the least member of x^-1's coset, and the pair takes x and x^-1 at the
    lesser of its two representatives.
    """
    n, inv = G.order, G.inverses
    if H.order == 1:
        return "trivial-subgroup", tuple(range(n)), None
    if H.order == 2:
        h = next(m for m in H.members if m != G.identity)
        times_h = G.table[:, h].tolist()  # x -> x*h
        return "order-two-subgroup", tuple(x for x in range(n) if times_h[inv[x]] >= x), None
    least, heads = H._cosets
    pivot = {least[v]: v for v in reversed(range(n)) if inv[v] == v}  # least self-inverse v of each coset
    chosen: list[int] = []
    for x in heads:
        if G.rows[x][x] in H.member_set:  # the unit is Hx alone
            if x not in pivot:  # the least such x: the identity's coset always has a pivot
                return _refuted("square-coset-without-involution", coset_representative=x)
            chosen.append(pivot[x])
        elif least[inv[x]] > x:  # the unit is Hx with Hx^-1, met first at its lesser representative
            chosen.extend([x, inv[x]])
    return "square-cosets-have-involutions", tuple(sorted(chosen)), None


@_decider("plain", "total")
def decide_total_perfect_code(G: Group, H: Subgroup) -> _Ruling:
    """Does the sum graph of G over H admit a total perfect code?

    For |H| = 2 the graph is a partial matching, and a total code exists
    exactly when the matching is perfect, i.e. no element squares to the
    non-identity member of H; the code is then everything.  The only other
    possibility is |H| = 3 with G a product of Z2 factors and one Z3: every
    block is then a three-vertex star, covered by its centre plus one leaf,
    read off each coset Hx at the heads of H's coset record.
    """
    if H.order == 2:
        h = next(m for m in H.members if m != G.identity)
        if h in G.square_set:
            element = np.diagonal(G.table).tolist().index(h)
            return _refuted("square-element-not-involution", element=element)
        return "order-two-matching", tuple(range(G.order)), None
    if H.order == 3:
        orders = G.element_orders  # Z2^k x Z3: exponent divides 6, one subgroup of order 3
        if not (G.abelian and all(6 % o == 0 for o in orders) and sum(3 % o == 0 for o in orders) == 3):
            return _refuted("not-elementary-two-times-three", group_order=G.order)
        chosen = []
        for x in H._cosets.heads:
            c = [G.rows[h][x] for h in H.members]  # Hx
            centre = min(v for v in c if G.inverses[v] == v)
            chosen.extend([centre, min(v for v in c if v != centre)])
        return "elementary-two-times-three", tuple(sorted(chosen)), None
    return _refuted("subgroup-order-unsuitable", subgroup_order=H.order)


@_decider("extended", "perfect")
def decide_perfect_code_extended(G: Group, H: Subgroup) -> _Ruling:
    """Does the extended sum graph of G over H admit a perfect code?

    With the trivial subgroup the graph pairs each element with its inverse,
    so picking the lesser of each pair works.  Otherwise a code exists
    exactly when every square lies in H: all blocks are then complete on
    one coset each, and any transversal is a code; the witness is the
    least member of every coset, the heads of H's coset record.
    """
    n, inv = G.order, G.inverses
    if H.order == 1:
        return "trivial-subgroup", tuple(v for v in range(n) if inv[v] >= v), None
    outside = sorted(G.square_set - H.member_set)
    if not outside:
        return "squares-inside-subgroup", tuple(H._cosets.heads), None
    sq = outside[0]
    element = np.diagonal(G.table).tolist().index(sq)
    return _refuted("square-outside-subgroup", element=element, square=sq)


@_decider("extended", "total")
def decide_total_perfect_code_extended(G: Group, H: Subgroup) -> _Ruling:
    """Does the extended sum graph of G over H admit a total perfect code?

    Exactly when |H| = 2.  With H = {e, h}, h is central and the neighbours
    of x are x^-1 and x^-1 h, less x itself.  The component of x is then the
    edge {x, xh} when x*x is in H, and the four-cycle x, x^-1, xh, x^-1 h
    otherwise; both carry a total code made of their least vertex and its
    least neighbour (the whole edge), the lexicographically least one.
    No other subgroup order works, whatever the group.
    """
    if H.order != 2:
        return _refuted("subgroup-order-not-two", subgroup_order=H.order)
    h = next(m for m in H.members if m != G.identity)
    times_h = G.table[:, h].tolist()  # x -> x*h
    inv = G.inverses
    chosen = set()
    for x in range(G.order):
        y = inv[x]
        component = (x, times_h[x], y, times_h[y])
        if x == min(component):
            chosen |= {x, min(v for v in component[2:] if v != x)}
    return "order-two-subgroup", tuple(sorted(chosen)), None


def decide_code(G: Group, H: Subgroup, extended: bool = False, total: bool = False) -> Verdict:
    """Dispatch to the decider for the requested flavour and kind."""
    if extended:
        if total:
            return decide_total_perfect_code_extended(G, H)
        return decide_perfect_code_extended(G, H)
    if total:
        return decide_total_perfect_code(G, H)
    return decide_perfect_code(G, H)


def verdict_to_json(G: Group, H: Subgroup, verdict: Verdict) -> dict:
    for value, kind in ((G, Group), (H, Subgroup), (verdict, Verdict)):
        _require_type(value, kind)
    return {
        "group": {"tag": G.name, "order": G.order},
        "subgroup": list(H.members),
        "flavor": verdict.flavor,
        "kind": verdict.kind,
        "exists": verdict.exists,
        "rule": verdict.rule,
        "witness": list(verdict.witness) if verdict.witness is not None else None,
        "certificate": verdict.certificate,
    }


# ---------------------------------------------------------------------------
# Decider-versus-oracle sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossCheckEntry:
    """One decider's :class:`Verdict` on one subgroup beside whether the oracle found a code."""

    subgroup: tuple[int, ...]
    verdict: Verdict
    oracle: bool

    @property
    def agree(self) -> bool:
        return self.verdict.exists == self.oracle


@dataclass(frozen=True)
class CrossCheckReport:
    entries: tuple[CrossCheckEntry, ...]
    seconds: float

    @property
    def disagreements(self) -> tuple[CrossCheckEntry, ...]:
        return tuple(e for e in self.entries if not e.agree)

    @property
    def all_agree(self) -> bool:
        return not self.disagreements


def cross_check(G: Group, subgroups: list[Subgroup] | None = None) -> CrossCheckReport:
    """Run all four deciders against brute-force search over normal
    subgroups, G's whole lattice unless ``subgroups`` is given.  The graphs
    of each subgroup come from one build, with the components of the
    extended one, which serve all four searches: no graph is walked."""
    start = time.perf_counter()
    entries = []
    for plain, full, parts in _sum_graphs(G, normal_subgroups(G) if subgroups is None else subgroups):
        for graph in (plain, full):  # parts: unions of plain components, a plain degree at most one lower
            H = graph.subgroup
            for total in (False, True):
                verdict = decide_code(G, H, extended=graph.extended, total=total)
                found = _find_code(graph.rows, parts, not total, slack=not graph.extended) is not None
                entries.append(CrossCheckEntry(H.members, verdict, found))
    return CrossCheckReport(entries=tuple(entries), seconds=time.perf_counter() - start)
