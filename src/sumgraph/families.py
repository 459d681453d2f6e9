"""Closed-form code deciders for specific group families.

Each decider takes a group G and a subgroup H and answers "does the sum
graph admit a perfect (or total perfect) code?" without building the graph:
the family rules read their parameters off ``G.tag``, and abelian total
codes come from a scan of squares.  They deliberately duplicate ground
covered by the generic deciders in :mod:`sumgraph.codes` so the two can be
cross-checked, and so share none of their rules: the only import from
there is ``decide_perfect_code``, which re-checks each subgroup that
:func:`is_code_perfect` refutes.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .codes import decide_perfect_code
from .errors import BadParameterError, InternalInconsistencyError, NotAbelianError
from .exprs import CyclicExpr, DicyclicExpr, DihedralExpr, ElementaryAbelianExpr, ProductExpr
from .groups import (
    Group,
    Subgroup,
    _Closure,
    _mark_normal,
    _require_type,
    require_normal,
    require_subgroup,
)

__all__ = [
    "cyclic_perfect_code",
    "abelian_2group_perfect_code",
    "dihedral_perfect_code",
    "dicyclic_perfect_code",
    "abelian_total_perfect_code",
    "is_code_perfect",
]


def cyclic_perfect_code(G: Group, H: Subgroup) -> bool:
    """Does the sum graph of Z_n over H have a perfect code?

    n is read off ``G.tag``, and H = <a> with a = n/|H|.  True exactly when
    |H| is odd (as it is whenever n is), or |H| = 2, or |H| >= 4 is even
    with a odd.
    """
    require_normal(G, H)
    if not isinstance(G.tag, CyclicExpr):
        raise BadParameterError("expected a group built by the cyclic constructor")
    return H.order % 2 == 1 or H.order == 2 or (G.tag.n // H.order) % 2 == 1


# ---------------------------------------------------------------------------
# Abelian 2-groups
# ---------------------------------------------------------------------------


def abelian_2group_perfect_code(G: Group, K: Subgroup) -> bool:
    """Does the sum graph of a non-cyclic abelian 2-group over K have a perfect code?

    The cyclic factor orders are read off ``G.tag``: a product of cyclic
    2-power factors, or E2^t with t >= 2.  K is a subgroup of order at
    least 3.  A perfect code exists exactly when every element whose double
    lies in K is itself within K plus the socle {w : 2w = 0}: such elements
    head the cosets whose blocks are complete graphs, and the socle shift
    is what supplies each block's self-paired vertex.  (Coordinate-aligned
    subgroups are the easy special case; the condition here is basis-free
    and also settles the diagonal ones.)  Elements are handled as
    coordinate vectors (``np.unravel_index``, last factor fastest), never
    through the Cayley table.
    """
    require_subgroup(G, K)
    tag = G.tag
    orders = (2,) * tag.t if isinstance(tag, ElementaryAbelianExpr) else ()
    if isinstance(tag, ProductExpr) and all(isinstance(p, CyclicExpr) for p in tag.parts):
        orders = tuple(p.n for p in tag.parts)
    if len(orders) < 2 or any(f < 2 or f & (f - 1) for f in orders):
        raise BadParameterError("expected a product of at least two cyclic 2-groups")
    if K.order < 3:
        raise BadParameterError("the decider applies to subgroups of order at least 3")

    def index(coords) -> np.ndarray:
        return np.ravel_multi_index(coords, orders, mode="wrap")  # "wrap" reduces mod each order

    coords = np.unravel_index(np.arange(G.order), orders)
    doubles = index(tuple(2 * c for c in coords))
    ks, socle = np.array(K.members), np.flatnonzero(doubles == 0)
    in_k = np.zeros(G.order, dtype=bool)
    in_k[ks] = True
    reach = np.zeros(G.order, dtype=bool)  # K + socle
    reach[index(tuple(c[ks][:, None] + c[socle][None, :] for c in coords))] = True
    return bool(np.all(reach | ~in_k[doubles]))


# ---------------------------------------------------------------------------
# Dihedral and dicyclic groups
# ---------------------------------------------------------------------------


def dihedral_perfect_code(G: Group, H: Subgroup) -> bool:
    """Does the sum graph of a dihedral group over normal H have a perfect code?

    True for H = G, for the two index-2 mixed subgroups that exist when the
    rotation order n is even, and for rotation subgroups <a^t> exactly when
    n/t is odd, equals 2, or is even >= 4 with t odd.
    """
    require_normal(G, H)
    if not isinstance(G.tag, DihedralExpr):
        raise BadParameterError("expected a group built by the dihedral constructor")
    n = G.tag.order // 2
    if H.order == 2 * n:
        return True
    if all(m < n for m in H.members):  # H = <a^t> with t = n / |H|
        return H.order % 2 == 1 or H.order == 2 or (n // H.order) % 2 == 1
    even_rotations = set(range(0, n, 2))
    half_b = even_rotations | {n + i for i in range(0, n, 2)}
    half_ab = even_rotations | {n + i for i in range(1, n, 2)}
    if set(H.members) in (half_b, half_ab):
        return True
    raise InternalInconsistencyError(
        "a normal mixed proper subgroup escaped the dihedral catalogue"
    )


def dicyclic_perfect_code(G: Group, H: Subgroup) -> bool:
    """Does the sum graph of a dicyclic group over normal H have a perfect code?

    True exactly for H = G and for subgroups of <a> of odd order or order 2.
    """
    require_normal(G, H)
    if not isinstance(G.tag, DicyclicExpr):
        raise BadParameterError("expected a group built by the dicyclic constructor")
    n = G.tag.n
    if H.order == 4 * n:
        return True
    if all(m < 2 * n for m in H.members):
        return H.order % 2 == 1 or H.order == 2
    return False


# ---------------------------------------------------------------------------
# Total perfect codes in abelian groups
# ---------------------------------------------------------------------------


def abelian_total_perfect_code(A: Group, H: Subgroup) -> bool:
    """Does the sum graph of abelian A over H admit a total perfect code?

    True when |H| = 2 and no element outside H squares into H without being
    an involution (the matching is then perfect), or when |H| = 3 and every
    element outside H squares into H, which means A is a product of Z2
    factors with one Z3.  Every block is then a 3-star, never a triangle:
    with h of order 3, the coset Hx holds x and x*h, and since
    (x*h)^2 = x^2 h^2, both are involutions only if h^2 = e.
    """
    require_subgroup(A, H)
    if not A.abelian:
        raise NotAbelianError("this decider applies to abelian groups only")
    if H.order == 2:
        for x in range(A.order):
            if x in H:
                continue
            sq = A.rows[x][x]
            if sq in H and sq != A.identity:
                return False
        return True
    if H.order == 3:
        # no coset test: of x and x*h in Hx, at most one is an involution
        return all(x in H or A.rows[x][x] in H for x in range(A.order))
    return False


def _family_checks(G: Group, H: Subgroup) -> Iterator[tuple[str, bool, str]]:
    """Yield (decider name, verdict, oracle kind) triples for one subgroup of
    a sweep group, whose family is read from its tag."""
    tag = G.tag
    if isinstance(tag, CyclicExpr):
        yield "family_cyclic", cyclic_perfect_code(G, H), "perfect"
        yield "family_abelian_total", abelian_total_perfect_code(G, H), "total"
    elif isinstance(tag, DihedralExpr):
        yield "family_dihedral", dihedral_perfect_code(G, H), "perfect"
    elif isinstance(tag, DicyclicExpr):
        yield "family_dicyclic", dicyclic_perfect_code(G, H), "perfect"
    elif isinstance(tag, ProductExpr):  # an abelian type: a 2-group when its order is a power of two
        if len(H) >= 3 and G.order & (G.order - 1) == 0:
            yield "family_abelian_2group", abelian_2group_perfect_code(G, H), "perfect"
        yield "family_abelian_total", abelian_total_perfect_code(G, H), "total"


# ---------------------------------------------------------------------------
# Code-perfect groups
# ---------------------------------------------------------------------------


def is_code_perfect(G: Group) -> bool:
    """Does every normal subgroup of G yield a perfect code in its sum graph?

    No lattice is listed.  A normal H with |H| >= 3 fails exactly when,
    for some x, x*x lies in H and H avoids S_x = {i x^-1 : i*i = e}, so
    that Hx holds no element of order at most 2; both hold for x exactly
    when they hold for its conjugates, so one x per class is tried, and
    only when 4 divides its order: of odd order, x^-1 lies in <x*x>; of
    order 2m with m odd, so does x^(m-1) = x^m x^-1, and x^m is an
    involution.  Each such H holds N, the normal closure of x*x, and when
    |N| = 2 also N joined with the closure of some class outside N: G
    fails exactly when one of these closures, of order at least 3, avoids
    S_x.  A "no" is re-checked by ``decide_perfect_code`` on that closure.
    """
    _require_type(G, Group)
    rows, e, classes, orders = G.rows, G.identity, G._classes, G.element_orders
    class_of = {g: cls for cls in classes for g in cls}
    for x in (cls[0] for cls in classes if orders[cls[0]] % 4 == 0):
        N = _Closure(G.table, e, class_of[rows[x][x]])
        avoid = [rows[i][G.inverses[x]] for i in (e, *G.involution_set)]  # S_x
        for K in [N] if len(N.members) >= 3 else (N.joined(cls) for cls in classes):
            if len(K.members) >= 3 and not any(K.reached[s] for s in avoid):
                H = _mark_normal(Subgroup._of_closure(G, K))
                if decide_perfect_code(G, H).exists:
                    raise InternalInconsistencyError(f"refuted normal subgroup {H.members} has a perfect code")
                return False
    return True
