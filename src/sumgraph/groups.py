"""Finite groups as validated Cayley tables.

Elements are dense indices ``0..n-1`` into an ``n x n`` multiplication
table.  The family constructors (cyclic, dihedral, dicyclic, abelian
products, the quaternion group) fix canonical element orders and labels so
that subgroups can be named stably in tests and on the command line:

* ``cyclic(n)``      -- elements ``0..n-1``, labels ``"0".."n-1"``.
* ``dihedral(n)``    -- ``a^0..a^{n-1}`` then ``a^0 b..a^{n-1} b``; labels
  ``e, a, a^2, ..., b, ab, a^2b, ...``.
* ``dicyclic(n)``    -- ``a^0..a^{2n-1}`` then ``a^1 b..a^{2n} b`` (so the
  final index carries ``b`` itself); same label style.
* ``direct_product`` -- tuples in lexicographic order, labels ``"(x,y)"``.

Each constructor tags its group with the expression that rebuilds it
(:mod:`sumgraph.exprs`), so ``str(G.tag)`` is the group's canonical name;
a group built from a bare table has no tag and is named ``generic``.  It
composes the whole table from its factors' tables and validates only that
one table: a product is a group exactly when every factor is one.

Groups and subgroups are immutable once constructed, so they may be shared
freely between threads.
"""

from __future__ import annotations

import itertools
import math
import os
from array import array
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    BadParameterError,
    InternalInconsistencyError,
    NoIdentityError,
    NoInverseError,
    NotASubgroupError,
    NotAssociativeError,
    NotNormalError,
    NotLatinSquareError,
    _index,
    _quoted,
    _shown,
)
from .exprs import (
    CyclicExpr,
    DicyclicExpr,
    DihedralExpr,
    ElementaryAbelianExpr,
    GroupExpr,
    ProductExpr,
    QuaternionExpr,
    _field,
    _parts,
    build_group,
)

__all__ = [
    "DEFAULT_MAX_ORDER",
    "MAX_ORDER_ENV",
    "SUBGROUP_BUDGET",
    "max_supported_order",
    "Group",
    "Subgroup",
    "group_from_cayley_table",
    "cyclic",
    "dihedral",
    "dicyclic",
    "quaternion",
    "abelian",
    "elementary_abelian_2",
    "direct_product",
    "conjugacy_classes",
    "subgroup_generated",
    "require_subgroup",
    "require_normal",
    "normal_subgroups",
    "right_cosets",
    "abelian_isomorphism_types",
    "SWEEP_FAMILIES",
    "sweep_groups",
]

DEFAULT_MAX_ORDER = 512
MAX_ORDER_ENV = "SUMGRAPH_MAX_ORDER"
SUBGROUP_BUDGET = 40_000  # normal subgroups listed at most: E2^7 has 29,212, E2^8 417,199
_TABLE_DTYPE = np.int16  # of every table: the cap keeps each index below 2^15


def max_supported_order() -> int:
    """Soft cap on group order; override with the SUMGRAPH_MAX_ORDER
    variable, up to 32,767, the largest order whose indices all fit
    :data:`_TABLE_DTYPE`."""
    raw = os.environ.get(MAX_ORDER_ENV)
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        value = int(raw)
    except ValueError:
        raise BadParameterError(f"{MAX_ORDER_ENV} must be an integer, got {_quoted(raw)}") from None
    return _index(value, MAX_ORDER_ENV, low=1, high=int(np.iinfo(_TABLE_DTYPE).max))


class Group:
    """A finite group on elements ``0..order-1`` with a validated table.

    ``table`` is the table the validation read, C-ordered, read-only and
    int16 (:data:`_TABLE_DTYPE`): the one copy made of a caller's table,
    or the table a constructor built, kept as it is.
    Do not call directly; use :func:`group_from_cayley_table` or one of the
    family constructors, which perform the full validation.
    """

    def __init__(
        self,
        table: np.ndarray,
        labels: tuple[str, ...],
        tag: GroupExpr | None,
        identity: int,
        inverses: tuple[int, ...],
        generators: tuple[int, ...],
    ):
        self.order = int(table.shape[0])
        table = np.ascontiguousarray(table)  # a copy only of a strided view, such as a cyclic table's
        table.flags.writeable = False
        self.table = table
        self.labels = labels
        self.tag = tag
        self.identity = identity
        self.inverses = inverses
        self._generators = generators  # the elements Light's test checked: they generate G

    # -- scalar access helpers -------------------------------------------

    @cached_property
    def rows(self) -> tuple[memoryview, ...]:
        """The table's rows as zero-copy views: ``rows[a][b]`` is the
        product a*b as a Python int, read without numpy's per-call cost."""
        return tuple(map(memoryview, self.table))

    @cached_property
    def _inverse_bits(self) -> tuple[int, ...]:
        """Bit x^-1 of each x, or 0 when x is its own inverse.  An extended
        sum-graph row x always has that bit, since x * x^-1 = e lies in
        every subgroup, so XOR-ing it out leaves the plain row."""
        return tuple(0 if y == x else 1 << y for x, y in enumerate(self.inverses))

    @cached_property
    def label_index(self) -> dict[str, int]:
        return {lbl: i for i, lbl in enumerate(self.labels)}

    # -- cached whole-group statistics -----------------------------------

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        """The order of every element: the powers of g are walked only when
        g has no order yet, and each power g^i gets k / gcd(i, k), k = ord(g)."""
        rows, e = self.rows, self.identity
        orders = [0] * self.order
        for g in range(self.order):
            if orders[g]:
                continue
            powers, x = [e], g
            while x != e:
                powers.append(x)
                x = rows[x][g]
            k = len(powers)
            for i, p in enumerate(powers):
                orders[p] = k // math.gcd(i, k)
        return tuple(orders)

    @cached_property
    def involution_set(self) -> frozenset[int]:
        return frozenset(g for g, o in enumerate(self.element_orders) if o == 2)

    @cached_property
    def square_set(self) -> frozenset[int]:
        return frozenset(np.diagonal(self.table).tolist())

    @cached_property
    def abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    # -- lattices, computed on first use by the module functions ---------

    @cached_property
    def _classes(self) -> tuple[tuple[int, ...], ...]:
        """The conjugacy classes from one n x n gather: column g of
        ``conj`` is the class of g, so its minimum names the class, and one
        sort by (least member, element) lists every class sorted, in order
        of least member."""
        idx = np.arange(self.order)
        conj = self.table[self.table[self.inverses, :], idx[:, None]]  # conj[x, g] = inv(x) * g * x
        least = conj.min(axis=0)
        order = np.lexsort((idx, least))
        bounds = (np.flatnonzero(np.diff(least[order])) + 1).tolist()
        members = order.tolist()
        return tuple(tuple(members[a:b]) for a, b in zip([0, *bounds], [*bounds, self.order]))

    @cached_property
    def _normal_subgroups(self) -> tuple["Subgroup", ...]:
        return tuple(map(_mark_normal, _lattice(self)))

    @cached_property
    def name(self) -> str:
        """The canonical expression of the tag, or ``generic`` for a bare table."""
        return "generic" if self.tag is None else str(self.tag)

    def __repr__(self) -> str:
        return f"<Group order={self.order} {self.name}>"


class Subgroup:
    """A validated subgroup of a :class:`Group`, stored as sorted indices,
    with the generators ``_generators`` that proved it a subgroup and, once
    read, its right cosets' record ``_cosets``."""

    def __init__(self, parent: Group, members: Iterable[int]):
        """Check the input, then prove it a subgroup by generators: the
        members, added in ascending order to a :class:`_Closure`, lie in
        the subgroup its generators T generate, which :meth:`_take` checks
        they are."""
        _require_type(parent, Group)
        _require_iterable(members, "members")
        ms = sorted({_index(m, "member") for m in members})
        if not ms:
            raise NotASubgroupError("a subgroup cannot be empty")
        if ms[0] < 0 or ms[-1] >= parent.order:
            bad = ms[0] if ms[0] < 0 else ms[-1]
            raise NotASubgroupError(f"member {_shown(bad)} out of range 0..{parent.order - 1}")
        if parent.identity not in ms:
            raise NotASubgroupError("member set does not contain the identity")
        outside = self._take(parent, ms, _Closure(parent.table, parent.identity, ms))
        if outside is not None:
            a, t, p = outside
            raise NotASubgroupError(f"not closed under products: {a} * {t} = {p} is outside")

    @classmethod
    def _of_closure(cls, parent: Group, closure: "_Closure") -> "Subgroup":
        """The subgroup a :class:`_Closure` over ``parent``'s table reached,
        checked by its generators as in ``__init__``; a failure is a fault
        of the closure, not of the caller's input."""
        sub = object.__new__(cls)
        outside = sub._take(parent, sorted(closure.members), closure)
        if outside is not None:
            raise InternalInconsistencyError(f"a closure is not closed under its generator {outside[1]}")
        return sub

    def _take(self, parent: Group, members: list[int], closure: "_Closure") -> tuple[int, int, int] | None:
        """Set the fields to the sorted ``members`` and the closure's
        generators T, and return some (a, t, a*t) with a*t outside the
        members, or None when members * t stays inside for every t in T:
        then the members, which hold the identity, are closed under right
        multiplication by T and so are the subgroup T generates (inverses
        are powers in a finite group).  O(|H| * |T|) reads."""
        self.parent = parent
        self.members = tuple(members)
        self.member_set = member_set = frozenset(members)
        self._generators = tuple(closure.gens)
        for t, column in zip(closure.gens, closure.columns):
            if not member_set.issuperset(map(column.__getitem__, members)):
                a = next(a for a in members if column[a] not in member_set)
                return a, t, column[a]
        return None

    @property
    def order(self) -> int:
        return len(self.members)

    @cached_property
    def _cosets(self) -> "_Cosets":
        """The right cosets' record, gathered once, on first use: entry x
        of ``least`` is min(Hx), the column minimum of H's table rows, so
        the heads are the x equal to their entry.  The minima are taken
        over gathers of at most ``_LIGHT_BLOCK_CELLS`` cells, one block of
        members to order 256, so a large H gathers no |H| x n array."""
        table, members = self.parent.table, self.members
        step = max(1, _LIGHT_BLOCK_CELLS // len(table))
        least = table.take(members[:step], axis=0).min(axis=0)
        for start in range(step, len(members), step):
            np.minimum(least, table.take(members[start : start + step], axis=0).min(axis=0), out=least)
        heads = (least == np.arange(len(least), dtype=least.dtype)).nonzero()[0].astype(least.dtype)
        return _Cosets(array(least.dtype.char, least.tobytes()), array(least.dtype.char, heads.tobytes()))

    @cached_property
    def is_normal(self) -> bool:
        """Whether s^-1 t s lies in H for every generator s of G and t of H:
        then s^-1 H s = H for each s, so every conjugate of H is H.  That is
        one |S| x |T| gather, with S the at most log2(n) elements Light's
        test checked."""
        G = self.parent
        s = np.array(G._generators, dtype=np.intp)
        inv_s = [G.inverses[g] for g in G._generators]
        conj = G.table[G.table[np.ix_(inv_s, self._generators)], s[:, None]]  # conj[i, j] = s_i^-1 t_j s_i
        return self.member_set.issuperset(conj.ravel().tolist())

    def __contains__(self, g: int) -> bool:
        return g in self.member_set

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"<Subgroup order={self.order} of {self.parent!r}>"


def _require_type(value, kind: type) -> None:
    """The one type check of the entry points: a value that is not a
    ``kind`` is a BadParameterError that names its type, not an
    AttributeError further in."""
    if not isinstance(value, kind):
        raise BadParameterError(f"expected a {kind.__name__}, got {type(value).__name__}")


def _require_iterable(value, what: str) -> None:
    """A value that cannot be iterated is a BadParameterError that names
    its type, not a TypeError further in."""
    if not isinstance(value, Iterable):
        raise BadParameterError(f"{what} must be a sequence, got {type(value).__name__}")


def require_subgroup(G: Group, H: Subgroup) -> None:
    """Raise unless H is a subgroup of G itself, not of another group; a G
    or an H of the wrong type is a BadParameterError that names the type."""
    _require_type(G, Group)
    _require_type(H, Subgroup)
    if H.parent is not G:
        raise NotASubgroupError("subgroup belongs to a different group")


def require_normal(G: Group, H: Subgroup) -> None:
    """Raise unless H is a normal subgroup of G, the only kind the sum
    graphs are defined over."""
    require_subgroup(G, H)
    if not H.is_normal:
        raise NotNormalError("subgroup is not normal, so the sum graph is not defined over it")


# ---------------------------------------------------------------------------
# Table validation
# ---------------------------------------------------------------------------


def _check_order(n: int) -> None:
    """Reject an order above :func:`max_supported_order` before any table exists."""
    cap = max_supported_order()
    if n > cap:
        raise BadParameterError(f"order {_shown(n)} exceeds the supported cap {cap}")


class _Closure:
    """A subgroup grown from generators by breadth-first search over the
    Cayley graph.

    ``_Closure(table, identity, gens)`` closes over ``gens`` in their
    order, and ``closure.joined(gens)`` is a copy grown by more; the
    columns of those, when the caller has them (a lattice join reuses its
    atom's), are passed as ``columns`` and read from the table otherwise.
    ``members`` (marked in ``reached``) is closed under right multiplication
    by every generator added so far.  :meth:`add` skips a generator that is
    already reached, so ``gens`` keeps only the ones the generators before
    did not reach; otherwise it multiplies every member by the new
    generator and every new element by all generators.  A generator's
    column ``x -> x*g`` is read once as a plain list, so the cost is
    O(n*|gens| + |H|*|gens|).  In a finite group the closure under right
    multiplication is the generated subgroup, since inverses are powers.
    """

    __slots__ = ("table", "reached", "members", "gens", "columns")

    def __init__(self, table: np.ndarray, identity: int, gens: Iterable[int] = ()):
        self.table = table
        self.reached = bytearray(table.shape[0])
        self.reached[identity] = 1
        self.members = [identity]
        self.gens: list[int] = []
        self.columns: list[list[int]] = []  # columns[k][x] = x * gens[k]
        for g in gens:
            self.add(g)

    def joined(self, gens: Iterable[int], columns: Iterable[list[int]] | None = None) -> "_Closure":
        """A copy closed under ``gens`` as well, with their ``columns`` when given."""
        other = object.__new__(_Closure)
        other.table = self.table
        other.reached = self.reached[:]
        other.members = self.members[:]
        other.gens = self.gens[:]
        other.columns = self.columns[:]
        for g, column in zip(gens, itertools.repeat(None) if columns is None else columns):
            other.add(g, column)
        return other

    def add(self, g: int, column: list[int] | None = None) -> None:
        """Close under one more generator ``g``, whose column may be given."""
        reached = self.reached
        if reached[g]:
            return
        if column is None:
            column = self.table[:, g].tolist()
        self.gens.append(g)
        self.columns.append(column)
        columns = self.columns
        fresh = []
        for r in self.members:
            p = column[r]
            if not reached[p]:
                reached[p] = 1
                fresh.append(p)
        for r in fresh:  # grows while iterated: new elements times every generator
            for col in columns:
                p = col[r]
                if not reached[p]:
                    reached[p] = 1
                    fresh.append(p)
        self.members.extend(fresh)


_LIGHT_BLOCK_CELLS = 1 << 16  # cells per block of a table gather: Light's test, inverses, coset minima


def _check_associative(table: np.ndarray, identity: int) -> tuple[int, ...]:
    """Light's associativity test, O(n^2 log n) on a group table; returns
    the elements it checked, which generate the group.

    An element ``a`` passes when ``(x*a)*y == x*(a*y)`` for all x and y.
    Products of passing elements pass too, on any table, so only a
    generating set needs checking: pick the least element not yet reached,
    check it with two table gathers, then close the reached set under right
    multiplication by the checked elements.  The identity passes because it
    is a two-sided identity.  Each passing round at least doubles the
    reached set, on any table with a two-sided identity and two-sided
    inverses: the reached set is associative, since its members pass, and
    x*u = x*v gives u = (x^-1*x)*u = x^-1*(x*u) = v, so it is a finite
    cancellative monoid, a group, and a subgroup of the next round's
    (Lagrange).  So at most log2(n) rounds pass, and a table that is not a
    group fails by round log2(n) + 1, whether or not it is a Latin square.
    The reached set is grown by :class:`_Closure` in plain Python: array
    BFS rounds cost more than the whole check at the small orders most
    tables have.

    The table comes in the int16 :func:`_validated_group` narrows it
    to, and each round gathers and compares it in blocks of rows
    x of at most ``_LIGHT_BLOCK_CELLS`` cells, ascending, into two
    C-ordered buffers that every block reuses: on D512 that is 128 rows,
    two operands of 128 KB that stay in cache, and a round takes about
    0.29 ms against 0.50 ms for two whole n x n operands of 0.5 MB each
    (timeit, shared 2-core Xeon).  ``take`` fills both buffers, since a
    fancy index such as ``table[:, table[a]]`` returns an F-ordered array,
    and comparing arrays of two layouts walks one of them out of step.
    The first failing block names the first failing (x, y) in row-major
    order, as one whole n x n compare would.
    """
    n = table.shape[0]
    rows = max(1, _LIGHT_BLOCK_CELLS // n)
    lhs = np.empty((min(rows, n), n), table.dtype)
    rhs = np.empty_like(lhs)
    closure = _Closure(table, identity)
    a = 0
    while len(closure.members) < n:
        while closure.reached[a]:
            a += 1
        times_a, a_times = table[:, a], table[a]
        for top in range(0, n, rows):
            block = table[top : top + rows]
            left, right = lhs[: len(block)], rhs[: len(block)]
            table.take(times_a[top : top + rows], axis=0, out=left, mode="clip")  # (x*a)*y
            block.take(a_times, axis=1, out=right, mode="clip")  # x*(a*y); entries are in range
            if not (left == right).all():
                x, y = (int(v) for v in np.argwhere(left != right)[0])
                x += top
                raise NotAssociativeError(
                    f"associativity fails at ({x}, {a}, {y}): "
                    f"({x}*{a})*{y} != {x}*({a}*{y})"
                )
        closure.add(a)
    return tuple(closure.gens)


def _check_latin(table: np.ndarray) -> None:
    """Raise :class:`NotLatinSquareError` naming the first row, else the
    first column, that is not a permutation; two sorts of the table."""
    expect = np.arange(table.shape[0], dtype=table.dtype)
    row_ok = (np.sort(table, axis=1) == expect).all(axis=1)
    if not row_ok.all():
        raise NotLatinSquareError(f"row {int(np.argmin(row_ok))} is not a permutation")
    col_ok = (np.sort(table, axis=0) == expect[:, None]).all(axis=0)
    if not col_ok.all():
        raise NotLatinSquareError(f"column {int(np.argmin(col_ok))} is not a permutation")


def group_from_cayley_table(
    table: Sequence[Sequence[int]] | np.ndarray,
    labels: Sequence[str] | None = None,
) -> Group:
    """Validate a multiplication table and wrap it in an untagged
    :class:`Group`, named ``generic``.

    Checks, in order of precedence: integer entries (a float, bool or
    string entry is refused, not cast), shape, order cap and entry range,
    the Latin-square property (rows, then columns), a two-sided identity,
    two-sided inverses, and associativity (Light's test, O(n^2 log n)).
    Each failure names the offending indices.  The range check reads the
    table as given; the later ones (:func:`_validated_group`) read a
    C-ordered copy narrowed to int16 (:data:`_TABLE_DTYPE`), a cast the
    range check and the order cap make exact, which becomes
    ``Group.table``, so the caller's table stays the caller's.
    The labels, when given, must be a sequence of n distinct strings, not
    one string; a repeated one is named.
    """
    try:
        table = np.asarray(table)
    except ValueError as exc:  # a ragged table
        raise BadParameterError(f"table must be a square array of integers: {exc}") from None
    if table.size and table.dtype.kind not in "iu":  # a cast would read 1.9 as 1 and True as 1
        raise BadParameterError(f"table must be a square array of integers, not of {table.dtype}")
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise BadParameterError(f"table must be square, got shape {table.shape}")
    n = table.shape[0]
    if n == 0:
        raise BadParameterError("a group has at least one element")
    _check_order(n)
    if table.min() < 0 or table.max() >= n:
        raise BadParameterError(f"table entries must lie in 0..{n - 1}")
    return _validated_group(table.astype(_TABLE_DTYPE, order="C"), labels, None)


def _validated_group(table: np.ndarray, labels: Sequence[str] | None, tag: GroupExpr | None) -> Group:
    """The group on ``table``, tagged ``tag``, once its group axioms and
    labels are checked: the one validation of every group.  A tag is
    trusted as the group's name, so only the constructors pass one.

    ``table`` is square, within the order cap and has its entries in
    0..n-1: :func:`group_from_cayley_table` checks that of a caller's
    table, and :func:`~sumgraph.exprs.build_group` and
    :func:`direct_product` build theirs so.  Narrowed to int16
    (:data:`_TABLE_DTYPE`) if it is not in it already, it becomes
    ``Group.table`` without a copy: a copy of D512's would be 0.5 MB more,
    and freeing it with the group makes the allocator give the heap's top
    back to the system (a pass of the benchmark's 20 ``queries`` requests
    took 225 minor page faults, against 5 without the copy).  A two-sided
    identity, two-sided inverses and associativity make a group, whose
    rows and columns are permutations, so those checks run first, and the
    two sorts of the Latin-square check run only when one fails, to name
    the fault: a table that is not a Latin square still raises
    :class:`NotLatinSquareError`, after at most log2(n) + 1 rounds of
    Light's test (:func:`_check_associative`).  The identity is looked for
    only among the rows with a 0 in column 0, since e*0 = 0 (see
    :func:`_identity_and_inverses`).
    """
    n = table.shape[0]
    arr = table.astype(_TABLE_DTYPE, copy=False)
    try:
        e, inv = _identity_and_inverses(arr)
        generators = _check_associative(arr, e)
    except (NoIdentityError, NoInverseError, NotAssociativeError):
        _check_latin(arr)
        raise

    if labels is None:
        labels = tuple(map(str, range(n)))
    else:
        if isinstance(labels, (str, bytes)):  # would split into one label per character
            kind = type(labels).__name__
            raise BadParameterError(f"labels must be a sequence of strings, not a {kind}")
        try:
            labels = tuple(map(str, labels))
        except TypeError:
            kind = type(labels).__name__
            raise BadParameterError(f"labels must be a sequence, got {kind}") from None
        if len(labels) != n:
            raise BadParameterError(f"expected {n} labels, got {len(labels)}")
        if len(set(labels)) != n:  # a label names one element, or gen:<label> could not reach the other
            seen: set[str] = set()
            for lbl in labels:
                if lbl in seen:
                    raise BadParameterError(f"label {_quoted(lbl)} is repeated")
                seen.add(lbl)
    return Group(arr, labels, tag, e, inv, generators)


def _identity_and_inverses(arr: np.ndarray) -> tuple[int, tuple[int, ...]]:
    """The two-sided identity e and, for each x, the first y in row
    x with x*y = e, which must also satisfy y*x = e.

    A two-sided identity e has e*0 = 0, so only the rows and columns of the
    elements with a 0 in column 0 are compared with ``0..n-1``: one row and
    one column on a Latin square, at most n of each on any table.  The
    inverses are found in row blocks of ``_LIGHT_BLOCK_CELLS`` cells (one
    block to order 256), so no n x n mask is made."""
    n = arr.shape[0]
    expect = np.arange(n, dtype=arr.dtype)
    for e in (arr[:, 0] == 0).nonzero()[0].tolist():
        if (arr[e] == expect).all() and (arr[:, e] == expect).all():
            break
    else:
        raise NoIdentityError("no two-sided identity element")
    inv = np.empty(n, np.intp)
    step = max(1, _LIGHT_BLOCK_CELLS // n)
    for start in range(0, n, step):
        np.argmax(arr[start : start + step] == e, axis=1, out=inv[start : start + step])
    two_sided = (arr[inv, expect] == e) & (arr[expect, inv] == e)
    if not two_sided.all():
        raise NoInverseError(f"element {int(np.argmin(two_sided))} has no two-sided inverse")
    return e, tuple(inv.tolist())


# ---------------------------------------------------------------------------
# Family constructors
# ---------------------------------------------------------------------------


def cyclic(n: int) -> Group:
    """The cyclic group Z_n on ``0..n-1`` under addition mod n."""
    return build_group(CyclicExpr(_index(n, "cyclic order", low=1)))


def dihedral(n: int) -> Group:
    """The dihedral group of order 2n (n >= 3): rotations first, then flips."""
    return build_group(DihedralExpr(2 * _index(n, "dihedral parameter", low=3)))


def dicyclic(n: int) -> Group:
    """The dicyclic group of order 4n (n >= 2).

    Generators a, b with a of order 2n, b^2 = a^n and b a b^-1 = a^-1.
    Indices ``0..2n-1`` are ``a^i``; index ``2n + i`` is ``a^{i+1} b``.
    """
    return build_group(DicyclicExpr(_index(n, "dicyclic parameter", low=2)))


def quaternion() -> Group:
    """The quaternion group {1, -1, i, -i, j, -j, k, -k}: ``dicyclic(2)``
    relabelled with a = i and b = j, whose table is validated only as Q8's."""
    return build_group(QuaternionExpr())


def direct_product(*factors: Group) -> Group:
    """Direct product; element tuples ordered lexicographically."""
    if not factors:
        raise BadParameterError("direct_product needs at least one factor")
    for g in factors:
        if not isinstance(g, Group):
            raise BadParameterError(f"direct_product factors must be groups, got {type(g).__name__}")
    if len(factors) == 1:
        return factors[0]
    tags = tuple(g.tag for g in factors)
    tag = None if None in tags else ProductExpr(tags)  # a bare table has no expression
    return _validated_group(*_product_table([(g.table, g.labels) for g in factors]), tag)


def abelian(factor_orders: Sequence[int]) -> Group:
    """Direct product of cyclic groups of the given orders; equal to
    ``direct_product`` of the cyclic factors, but, like every constructor,
    validated only once."""
    _require_iterable(factor_orders, "factor orders")
    factor_orders = [_index(f, "cyclic factor order", low=1) for f in factor_orders]
    if len(factor_orders) < 2:
        return cyclic(math.prod(factor_orders))
    _check_order(math.prod(factor_orders))  # the whole order, before any factor is built
    return build_group(ProductExpr(tuple(map(CyclicExpr, factor_orders))))


def elementary_abelian_2(t: int) -> Group:
    """The group Z_2^t (the trivial group when t == 0)."""
    return build_group(ElementaryAbelianExpr(_index(t, "exponent", low=0)))


def _expr_table(expr: GroupExpr) -> tuple[np.ndarray, Sequence[str] | None]:
    """The Cayley table and labels (None for "0".."n-1") of the group
    ``expr`` names, not validated: :func:`exprs.build_group` validates it,
    and nothing else is returned.  A product's table is composed from its
    parts' tables, each part checked against the order cap with the parts
    before it, before the next one is built."""
    if isinstance(expr, CyclicExpr):
        n = _field(expr)
        _check_order(n)
        return _cyclic_table(n), None
    if isinstance(expr, DihedralExpr):
        n = _field(expr) // 2  # a^0..a^(n-1), then a^0 b..a^(n-1) b
        return _two_coset_table(n, 0), _power_labels(n, "") + _power_labels(n, "b")
    if isinstance(expr, DicyclicExpr):
        # a^0..a^(m-1), then a^1 b..a^m b: b' = ab also inverts a and squares
        # to a^n, so index m + k, a^k b', is labelled a^(k+1) b
        m = 2 * _field(expr)
        table, b = _two_coset_table(m, m // 2), _power_labels(m, "b")  # the table checks the cap first
        return table, _power_labels(m, "") + b[1:] + b[:1]
    if isinstance(expr, QuaternionExpr):
        return _quaternion_table()
    if isinstance(expr, ElementaryAbelianExpr):
        t = _field(expr)
        cap = max_supported_order()
        if t >= cap.bit_length():  # 2^t > cap, decided before 2^t or t factors exist
            raise BadParameterError(f"order 2^{_shown(t)} exceeds the supported cap {cap}")
        if t < 2:
            return _cyclic_table(2**t), None
        return _product_table([(_cyclic_table(2), None)] * t)
    parts, order = [], 1
    for part in _parts(expr):
        parts.append(_expr_table(part))
        order *= len(parts[-1][0])
        _check_order(order)
    return _product_table(parts)


def _cyclic_table(n: int, sign: int = 1) -> np.ndarray:
    """``(i + sign*j) mod n`` for i, j in ``0..n-1``, in int16.  Row i is
    the window of n residues starting at i (or at n-1-i when ``sign`` is
    -1) in one row of 2n - 1 residues, so no n x n array is allocated:
    the result is a read-only view onto that row."""
    k = np.arange(2 * n - 1)
    ramp = (k % n if sign > 0 else (n - 1 - k) % n).astype(_TABLE_DTYPE)
    step = ramp.itemsize
    offset, down = (0, step) if sign > 0 else ((n - 1) * step, -step)
    table = np.ndarray((n, n), _TABLE_DTYPE, ramp, offset, (down, step))
    table.flags.writeable = False
    return table


def _power_labels(m: int, suffix: str) -> list[str]:
    """The labels of a^0..a^(m-1) (m >= 2) followed by ``suffix``, with
    a^0 written as the bare suffix, or ``e`` when there is none."""
    return [suffix or "e", "a" + suffix, *[f"a^{i}{suffix}" for i in range(2, m)]]


def _two_coset_table(m: int, shift: int) -> np.ndarray:
    """The table of order 2m with a^0..a^(m-1) first and a^k b at index
    m + k, where a has order m, b a b^-1 = a^-1 and b^2 = a^shift: the
    dihedral group for shift 0, the dicyclic one for m = 2n and shift n.
    Its four blocks are written into one array."""
    size = 2 * m
    _check_order(size)
    # a^i a^j b = a^(i+j) b and a^i b a^j = a^(i-j) b: a flip on the left
    # negates j; a^i b a^j b = a^(i-j) b^2 = a^(i-j+shift)
    P, M = (_cyclic_table(m, sign) for sign in (1, -1))
    table = np.empty((size, size), P.dtype)
    table[:m, :m] = P
    np.add(P, m, out=table[:m, m:])
    np.add(M, m, out=table[m:, :m])
    table[m : size - shift, m:] = M[shift:]  # (i - j + shift) mod m is row i + shift of M, read cyclically
    table[size - shift :, m:] = M[:shift]
    return table


_Q8_LABELS = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")


def _quaternion_table() -> tuple[np.ndarray, tuple[str, ...]]:
    """Q8: the table of ``dicyclic(2)``, unvalidated, relabelled with a = i and b = j."""
    dic = np.array((0, 2, 1, 3, 7, 5, 4, 6))  # index in dicyclic(2) of each Q8 element
    rank = np.argsort(dic)
    return rank[_two_coset_table(4, 2)[np.ix_(dic, dic)]], _Q8_LABELS


def _product_table(
    parts: Sequence[tuple[np.ndarray, Sequence[str] | None]],
) -> tuple[np.ndarray, list[str]]:
    """The direct product of the parts' (table, labels) pairs, appending
    one mixed-radix digit per part (x -> x*f + d); labels are the
    "(x,y,...)" tuples in the same lexicographic order, a part's labels
    None standing for "0".."f-1"."""
    _check_order(math.prod(len(t) for t, _ in parts))
    table = np.zeros((1, 1), dtype=_TABLE_DTYPE)
    for t, _ in parts:
        f, m = len(t), len(table)
        t = t.astype(_TABLE_DTYPE, copy=False)
        table = (table[:, None, :, None] * f + t[None, :, None, :]).reshape(m * f, m * f)
    labels = (map(str, range(len(t))) if lbls is None else lbls for t, lbls in parts)
    return table, ["(" + ",".join(p) + ")" for p in itertools.product(*labels)]


# ---------------------------------------------------------------------------
# Element and subgroup queries
# ---------------------------------------------------------------------------


def conjugacy_classes(G: Group) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes, each sorted, ordered by minimal member."""
    _require_type(G, Group)
    return G._classes


def subgroup_generated(G: Group, generators: Iterable[int]) -> Subgroup:
    """The subgroup generated by the given elements (indices into G)."""
    _require_type(G, Group)
    _require_iterable(generators, "generators")
    gens = (_index(g, "generator", 0, G.order - 1) for g in generators)
    return Subgroup._of_closure(G, _Closure(G.table, G.identity, gens))


def _mark_normal(sub: Subgroup) -> Subgroup:
    sub.__dict__["is_normal"] = True
    return sub


def _gaussian(a: int, b: int, p: int) -> int:
    """The Gaussian binomial [a choose b]_p: the b-dimensional subspaces of F_p^a."""
    num = den = 1
    for i in range(b):
        num *= p**a - p**i
        den *= p**b - p**i
    return num // den


def _p_subgroup_count(conjugate: Sequence[int], p: int) -> int:
    """The subgroups of the abelian p-group whose type has the conjugate
    partition ``conjugate``: Birkhoff's count of the subgroups of type mu,
    prod_i p^(mu'_(i+1) (lambda'_i - mu'_i)) [lambda'_i - mu'_(i+1) choose
    mu'_i - mu'_(i+1)]_p, summed over every partition mu' below lambda'."""
    total = 0
    for mu in itertools.product(*(range(c + 1) for c in conjugate)):
        if any(a < b for a, b in zip(mu, mu[1:])):
            continue
        count = 1
        for lam, m, after in zip(conjugate, mu, (*mu[1:], 0)):
            count *= p ** (after * (lam - m)) * _gaussian(lam - after, m - after, p)
        total += count
    return total


def _abelian_subgroup_count(factor_orders: Sequence[int]) -> int:
    """The number of subgroups of Z_f1 x ... x Z_fk, the product over the
    primes p of :func:`_p_subgroup_count` of its p-part, whose conjugate
    partition counts at i the factor orders that p^i divides."""
    count = 1
    for p in _prime_factors(math.prod(factor_orders)):
        conjugate: list[int] = []
        while layer := sum(f % p ** (len(conjugate) + 1) == 0 for f in factor_orders):
            conjugate.append(layer)
        count *= _p_subgroup_count(conjugate, p)
    return count


def _normal_subgroup_bound(G: Group) -> int:
    """A lower bound on the number of normal subgroups of G.

    Every subgroup of the abelian quotient A = G/G' lifts to a normal
    subgroup of G, so the bound is the number of subgroups of A, the
    product over the primes p of :func:`_p_subgroup_count` of A's p-part.
    That part's type is read off its torsion layers: |A[p^k]|, the number
    of cosets xG' with x^(p^k) in G', is p^(lambda'_1 + ... + lambda'_k).
    For an abelian G, G' is trivial and the bound is exact.  G' is the
    closure of the commutators [x, s] = x^-1 s^-1 x s of every x with the
    generators s of G Light's test checked: that closure is normal, as
    [x, s]^y = [xy, s] [y, s]^-1, and every s is central modulo it.  In an
    abelian G every commutator is e, which the closure already holds.
    """
    n, table = G.order, G.table
    inv = np.fromiter(G.inverses, dtype=np.int64)
    commutators = np.zeros(n, dtype=bool)
    for s in G._generators:
        commutators[table[table[inv, inv[s]], table[:, s]]] = True
    derived = _Closure(table, G.identity, np.flatnonzero(commutators).tolist())
    in_derived = np.frombuffer(derived.reached, dtype=bool)
    d = len(derived.members)
    bound = 1
    for p in _prime_factors(n // d):
        conjugate: list[int] = []
        power, torsion = np.arange(n), 1
        while True:
            power = _powers(table, power, p)  # x^(p^(k-1)) -> x^(p^k)
            layer = int(in_derived[power].sum()) // d  # |A[p^k]|
            if layer == torsion:
                break
            step, r = layer // torsion, 0
            while step > 1:
                step //= p
                r += 1
            conjugate.append(r)
            torsion = layer
        bound *= _p_subgroup_count(conjugate, p)
    return bound


def _powers(table: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """x^k for every entry of ``x`` (k >= 1), squaring and multiplying by x
    down the bits of k: at most 2 log2(k) gathers, never more than k - 1."""
    power = x
    for bit in bin(k)[3:]:
        power = table[power, power]
        if bit == "1":
            power = table[power, x]
    return power


def _lattice(G: Group) -> list[Subgroup]:
    """Every normal subgroup of G, ordered by (order, members), each built
    from its join's closure by :meth:`Subgroup._of_closure`, with the
    coset record (:attr:`Subgroup._cosets`) the walk read.

    The atoms are the subgroups generated by the conjugacy classes; a class
    is closed under conjugation, so the atom of g is the normal closure of
    g.  Classes come in order of least member g, and g^j for j prime to
    ord(g) generates the same cyclic subgroup as g, so the class of g^j has
    the same normal closure: after closing the atom of g, its coprime
    powers are marked with it, and a later class holding a marked element
    takes that atom without a closure (its rational class, as in Holt,
    Eick and O'Brien, *Handbook of Computational Group Theory*): Z_n closes
    d(n) atoms, not n.  Distinct rational classes can still share a normal
    closure ((12) and (1234) in S4), so the closed atoms are deduplicated
    by their reached set as well.  Starting from {e}, the atom of the
    identity's class, every subgroup B found is joined with atoms; every
    normal subgroup is the join of the atoms of the classes it contains,
    so the fixed point is the whole normal lattice.

    Two guards keep the joins few, as in Neubüser's cyclic extension
    method.  The join of B with the atom of g depends only on the coset Bg,
    since B is normal: the walk joins only at each head of a coset of B
    outside B, read off B's coset record (:attr:`Subgroup._cosets`), so no
    atom inside B is joined.  Elements of one class lie in many cosets, so
    each atom is joined at most once per base as well.  A join is keyed
    before it is closed: B and the atom A are both normal, so BA, their
    join, is the union of the cosets Ba for a in A, the OR of the masks of
    the cosets headed by least[a] (:func:`_product_mask`), made by
    :func:`_coset_masks` from B's record once per base.  Only a key not
    yet found is closed, by a BFS from B's generators plus A's, which must
    reach exactly the key's members; so each subgroup is closed once, by
    the first join that finds it, with the generators it has always had.  The cost is at most
    #found x min(#cosets, #atoms) keys of O(|A|) each, one
    O(|join| * |gens|) closure per subgroup, and one column minimum of B's
    table rows and one pass over its cosets per base.  A base becomes its
    subgroup, which gathers its record, when it is popped, and its closure
    is dropped once its walk ends: only the queued closures are held, not
    one per subgroup.

    The lattice can be far too large to list (E2^8 has 417,199 normal
    subgroups), so a lower bound on its size (:func:`_normal_subgroup_bound`)
    is checked against :data:`SUBGROUP_BUDGET` before any join, and the
    count of subgroups found is checked as they are found; over the budget
    is a :class:`BadParameterError` that names the count.
    """
    bound = _normal_subgroup_bound(G)
    if bound > SUBGROUP_BUDGET:
        raise BadParameterError(
            f"{G.name} has at least {bound} normal subgroups, over the budget of {SUBGROUP_BUDGET}"
        )
    e = G.identity
    atoms: list[_Closure] = []
    atom_of = [-1] * G.order  # atom_of[g]: index in atoms of the normal closure of g, -1 until known
    index: dict[bytes, int] = {}
    for cls in conjugacy_classes(G):
        k = max(map(atom_of.__getitem__, cls))  # a marked member's atom, or -1
        if k < 0:
            atom = _Closure(G.table, e, cls)
            k = index.setdefault(bytes(atom.reached), len(atoms))
            if k == len(atoms):
                atoms.append(atom)
            times_g, powers = G.table[:, cls[0]].tolist(), [e]
            while (x := times_g[powers[-1]]) != e:  # powers[j] = g^j for j < ord(g)
                powers.append(x)
            for j, x in enumerate(powers):
                if math.gcd(j, len(powers)) == 1:
                    atom_of[x] = k
        for x in cls:
            atom_of[x] = k
    found = {1 << e}
    queue = [atoms[atom_of[e]]]  # the trivial subgroup, the atom of the identity's class
    subgroups = []
    while queue:
        base = queue.pop()
        sub = Subgroup._of_closure(G, base)
        least, heads = sub._cosets
        masks = _coset_masks(least)
        atom_tried = bytearray(len(atoms))
        for g in heads:
            k = atom_of[g]
            if base.reached[g] or atom_tried[k]:  # g heads B itself, or its atom was keyed
                continue
            atom_tried[k] = 1
            key = _product_mask(masks, least, atoms[k].members)
            if key in found:
                continue
            if len(found) == SUBGROUP_BUDGET:
                raise BadParameterError(
                    f"{G.name} has more than the budget of {SUBGROUP_BUDGET} normal subgroups"
                )
            join = base.joined(atoms[k].gens, atoms[k].columns)
            reached = np.packbits(np.frombuffer(join.reached, np.uint8), bitorder="little")
            if int.from_bytes(reached.tobytes(), "little") != key:
                raise InternalInconsistencyError("a lattice join is not the product of its cosets")
            found.add(key)
            queue.append(join)
        subgroups.append(sub)
    return sorted(subgroups, key=lambda H: (H.order, H.members))


def _coset_masks(least: Sequence[int]) -> list[int]:
    """``masks[r]``: the right coset of H headed by r as a bitmask, given
    ``least[x]`` = min(Hx); 0 at an r that heads no coset."""
    masks = [0] * len(least)
    for x, r in enumerate(least):
        masks[r] |= 1 << x
    return masks


def _product_mask(masks: list[int], least: Sequence[int], members: Iterable[int]) -> int:
    """The members of BA as a bitmask, for normal subgroups B and A: the
    union of the cosets Ba, a in A, ``masks[r]`` being the coset of B
    headed by r and ``least[a]`` the head of Ba."""
    key = 0
    for r in set(map(least.__getitem__, members)):
        key |= masks[r]
    return key


def normal_subgroups(G: Group) -> list[Subgroup]:
    """All normal subgroups, sorted by (order, member tuple).

    They are the joins of the normal closures of the conjugacy classes,
    one closure per rational class at most, found by keying the join of
    each subgroup found with one atom per coset and per atom by its cosets
    and closing only the new ones (see :func:`_lattice`).  In an abelian
    group those closures are the cyclic subgroups: Z48 closes its 10, not
    48 classes, and makes 9 joins, one per subgroup past the trivial one.

    The result is computed once per group and returned as a fresh list.
    Each subgroup in it keeps the coset record the walk read
    (:attr:`Subgroup._cosets`), which the graph build and the deciders
    read instead of gathering table rows again.
    Its size is a hard limit that no algorithm avoids: in an abelian group
    every subgroup is normal, and E2^6 has 2825 subgroups, E2^7 29,212 and
    E2^8 417,199.  A group with more than
    :data:`SUBGROUP_BUDGET` normal subgroups raises
    :class:`BadParameterError` instead, before any join when a lower bound
    read off G/G' already exceeds it.
    """
    _require_type(G, Group)
    return list(G._normal_subgroups)


# ---------------------------------------------------------------------------
# Cosets
# ---------------------------------------------------------------------------


def right_cosets(G: Group, H: Subgroup) -> list[tuple[int, ...]]:
    """The partition of G into right cosets Hx, each a sorted tuple of its
    members, so its first entry, the least member, is its representative;
    the identity's coset first, the rest ordered by representative.  Read
    off H's coset record (:attr:`Subgroup._cosets`)."""
    require_subgroup(G, H)
    members: dict[int, list[int]] = {H.members[0]: []}  # He = H, so min(H) names it
    for x, rep in enumerate(H._cosets.least):  # x ascends: reps met in order, members sorted
        members.setdefault(rep, []).append(x)
    return [tuple(ms) for ms in members.values()]


class _Cosets(NamedTuple):
    """The right cosets of a subgroup H of G: ``least[x]`` = min(Hx), and
    ``heads``, the x with ``least[x] == x`` ascending, the least member of
    each coset.  Both are int16 ``array``s, 2 bytes an entry, not lists,
    since a group keeps its whole lattice and so a record per subgroup."""

    least: array
    heads: array


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _partitions(k: int) -> list[tuple[int, ...]]:
    out = []

    def rec(rest: int, largest: int, acc: list[int]) -> None:
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rest, largest), 0, -1):
            rec(rest - part, part, acc + [part])

    rec(k, k, [])
    return out


def abelian_isomorphism_types(max_order: int) -> list[tuple[int, ...]]:
    """Every abelian group of order <= max_order (from 1 to the order cap),
    one tuple of prime-power cyclic factor orders (ascending) per type."""
    max_order = _index(max_order, "max_order", low=1)
    _check_order(max_order)
    types: list[tuple[int, ...]] = []
    for n in range(1, max_order + 1):
        per_prime: list[list[tuple[int, ...]]] = []
        for p in _prime_factors(n):
            k, m = 0, n
            while m % p == 0:
                m //= p
                k += 1
            per_prime.append([tuple(p**e for e in part) for part in _partitions(k)])
        for combo in itertools.product(*per_prime):
            types.append(tuple(sorted(itertools.chain.from_iterable(combo))))
    return types


# family name -> its groups of order <= max_order, in sweep order
_FAMILIES: dict[str, Callable[[int], Iterable[Group]]] = {
    "cyclic": lambda m: (cyclic(n) for n in range(1, m + 1)),
    "dihedral": lambda m: (dihedral(n) for n in range(3, m // 2 + 1)),
    "dicyclic": lambda m: (dicyclic(n) for n in range(2, m // 4 + 1)),
    "abelian": lambda m: (abelian(f) for f in abelian_isomorphism_types(m) if len(f) > 1),
    "quaternion": lambda m: [quaternion()] if m >= 8 else [],
}
SWEEP_FAMILIES = ("cyclic", "dihedral", "dicyclic", "abelian")  # the default: Q8 is Dic2 relabelled, so opt-in


def sweep_groups(max_order: int, families: Sequence[str] = SWEEP_FAMILIES) -> Iterator[Group]:
    """The built-in groups of order <= max_order, family by family, built lazily.

    Cyclic groups by order, dihedral and dicyclic groups by parameter, one
    group per abelian isomorphism type with at least two factors (the
    others are cyclic), and, when ``"quaternion"`` is named, Q8.  The
    default is :data:`SWEEP_FAMILIES`, every family but the quaternion
    one, since Q8 is the dicyclic Dic2 under other labels.  Families
    other than a list or tuple of names (a lone name given as a string, a
    set, an iterator), an empty family list, an unknown or repeated family
    and a ``max_order`` below 1 or above the cap raise
    :class:`BadParameterError` here, before any group is built.
    """
    max_order = _index(max_order, "max_order", low=1)
    _check_order(max_order)
    choices = ", ".join(_FAMILIES)
    if not isinstance(families, (list, tuple)):  # a string would be read letter by letter, a set unordered
        given = f"the string {_quoted(families)}" if isinstance(families, str) else type(families).__name__
        raise BadParameterError(f"families must be a sequence of names, not {given}")
    if not families:
        raise BadParameterError(f"no family to sweep: choose from {choices}")
    for k, family in enumerate(families):
        if not isinstance(family, str) or family not in _FAMILIES:  # a list entry is unhashable
            raise BadParameterError(f"unknown family {_quoted(str(family))}: choose from {choices}")
        if family in families[:k]:
            raise BadParameterError(f"family {_quoted(family)} is listed twice")
    return (G for family in families for G in _FAMILIES[family](max_order))
