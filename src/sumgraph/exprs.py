"""Group expressions: a tiny grammar for naming groups on the command line.

    expr := atom { "x" atom }
    atom := "Z" n | "D" n | "Dic" n | "Q8" | "E2^" n | "(" expr ")"

Keywords are case-insensitive and whitespace between tokens is ignored.
``D`` takes the *order* of the dihedral group (even, at least 6), so D12 is
the symmetry group of the hexagon; ``Dic`` takes the index n of Dic_n
(order 4n); ``E2^t`` is the product of t copies of Z2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import BadParameterError, ParseError, _index, _quoted, _shown

if TYPE_CHECKING:
    from .groups import Group

__all__ = [
    "GroupExpr",
    "CyclicExpr",
    "DihedralExpr",
    "DicyclicExpr",
    "QuaternionExpr",
    "ElementaryAbelianExpr",
    "ProductExpr",
    "parse_group_expr",
    "format_group_expr",
    "build_group",
]


class _Expr:
    """Prints as its canonical text, :func:`format_group_expr`."""

    def __str__(self) -> str:
        return format_group_expr(self)


@dataclass(frozen=True)
class CyclicExpr(_Expr):
    n: int


@dataclass(frozen=True)
class DihedralExpr(_Expr):
    order: int  # group order 2n, even and >= 6


@dataclass(frozen=True)
class DicyclicExpr(_Expr):
    n: int  # group order is 4n


@dataclass(frozen=True)
class QuaternionExpr(_Expr):
    pass


@dataclass(frozen=True)
class ElementaryAbelianExpr(_Expr):
    t: int


@dataclass(frozen=True)
class ProductExpr(_Expr):
    parts: tuple["GroupExpr", ...]


GroupExpr = (
    CyclicExpr | DihedralExpr | DicyclicExpr | QuaternionExpr | ElementaryAbelianExpr | ProductExpr
)


_TOKEN_RE = re.compile(
    r"""\s*(?:
      (?P<dic>dic)
    | (?P<e2>e2\^)
    | (?P<q8>q8)
    | (?P<z>z)
    | (?P<d>d)
    | (?P<x>x)
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<int>\d+)
    )""",
    re.IGNORECASE | re.VERBOSE,
)

_ATOM_TOKENS = ("Z", "D", "Dic", "Q8", "E2^", "(")
_MAX_NESTING = 100  # parenthesis depth; bounds the parser's recursion


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            at = len(text) - len(rest)
            raise ParseError(f"unrecognized input {rest[:8]!r}", at, _ATOM_TOKENS)
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str, int] | None:
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    @property
    def offset(self) -> int:
        tok = self.peek()
        return tok[2] if tok is not None else len(self.text)

    def integer(self, what: str) -> tuple[int, int]:
        tok = self.peek()
        if tok is None or tok[0] != "int":
            raise ParseError(f"expected {what}", self.offset, ("integer",))
        self.take()
        try:
            return int(tok[1]), tok[2]
        except ValueError:  # more digits than int() converts
            raise ParseError(f"{what} has too many digits", tok[2]) from None

    def atom(self) -> GroupExpr:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a group atom", self.offset, _ATOM_TOKENS)
        kind, _, at = tok
        if kind == "z":
            self.take()
            n, n_at = self.integer("cyclic group order")
            if n < 1:
                raise ParseError("cyclic order must be at least 1", n_at, ("integer >= 1",))
            return CyclicExpr(n)
        if kind == "d":
            self.take()
            order, n_at = self.integer("dihedral group order")
            if order < 6 or order % 2:
                raise ParseError(
                    "dihedral order must be even and at least 6", n_at, ("even integer >= 6",)
                )
            return DihedralExpr(order)
        if kind == "dic":
            self.take()
            n, n_at = self.integer("dicyclic index")
            if n < 2:
                raise ParseError("dicyclic index must be at least 2", n_at, ("integer >= 2",))
            return DicyclicExpr(n)
        if kind == "q8":
            self.take()
            return QuaternionExpr()
        if kind == "e2":
            self.take()
            return ElementaryAbelianExpr(self.integer("exponent")[0])
        if kind == "lparen":
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", at)
            self.take()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            tok = self.peek()
            if tok is None or tok[0] != "rparen":
                raise ParseError("unclosed parenthesis", self.offset, (")",))
            self.take()
            return inner
        raise ParseError(f"expected a group atom, found {_quoted(tok[1])}", at, _ATOM_TOKENS)

    def expr(self) -> GroupExpr:
        parts = [self.atom()]
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "x":
                break
            self.take()
            parts.append(self.atom())
        return parts[0] if len(parts) == 1 else ProductExpr(tuple(parts))


def parse_group_expr(text: str) -> GroupExpr:
    """Parse an expression like ``"Z4 x Z3"`` or ``"D12"``; see module docs."""
    if not isinstance(text, str):
        raise BadParameterError(f"expected a string, got {type(text).__name__}")
    parser = _Parser(text)
    expr = parser.expr()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"unexpected trailing input {_quoted(tok[1])}", tok[2], ("x", "end of input"))
    return expr


def format_group_expr(expr: GroupExpr) -> str:
    """Canonical text for an expression; round-trips through the parser.

    A value :func:`build_group` refuses for its form, not for its order,
    is refused here too, by the same :func:`_field` and :func:`_parts`
    checks, so no text is printed that the parser would read as another
    expression or not at all."""
    if isinstance(expr, CyclicExpr):
        return f"Z{_field(expr)}"
    if isinstance(expr, DihedralExpr):
        return f"D{_field(expr)}"
    if isinstance(expr, DicyclicExpr):
        return f"Dic{_field(expr)}"
    if isinstance(expr, QuaternionExpr):
        return "Q8"
    if isinstance(expr, ElementaryAbelianExpr):
        return f"E2^{_field(expr)}"
    bits = []
    for p in _parts(expr):
        text = format_group_expr(p)
        bits.append(f"({text})" if isinstance(p, ProductExpr) else text)
    return " x ".join(bits)


# atom class -> (its field, what the field is called, the least value the parser makes)
_FIELDS = {
    CyclicExpr: ("n", "cyclic order", 1),
    DihedralExpr: ("order", "dihedral order", 6),
    DicyclicExpr: ("n", "dicyclic parameter", 2),
    ElementaryAbelianExpr: ("t", "exponent", 0),
}


def _field(expr: GroupExpr) -> int:
    """The integer field of an atom with one, as the parser would make it:
    an int at least the atom's least value, and an even dihedral order.  A
    bool, which ``operator.index`` reads as 0 or 1, is refused with every
    other value that is not an integer."""
    name, what, low = next(spec for kind, spec in _FIELDS.items() if isinstance(expr, kind))
    value = getattr(expr, name)
    if isinstance(value, bool):
        raise BadParameterError(f"{what} {value!r} is not an integer")
    value = _index(value, what, low=low)
    # D7 would build D6 and tag it D7, which the dihedral decider trusts
    if isinstance(expr, DihedralExpr) and value % 2:
        raise BadParameterError(f"dihedral order {_shown(value)} is odd")
    return value


def _parts(expr: GroupExpr) -> tuple[GroupExpr, ...]:
    """The parts of a product expression, the one kind left once the atoms
    are ruled out: any other value is a BadParameterError naming its type,
    and so are parts that are not a tuple or list of at least two (each
    part is checked where it is read)."""
    if not isinstance(expr, ProductExpr):
        raise BadParameterError(f"expected a group expression, got {type(expr).__name__}")
    if not isinstance(expr.parts, (tuple, list)):
        raise BadParameterError(f"product parts must be a tuple or list, got {type(expr.parts).__name__}")
    if len(expr.parts) < 2:  # the parser never makes one; its text would name the part alone
        raise BadParameterError("a product expression needs at least two parts")
    return expr.parts


def build_group(expr: GroupExpr) -> Group:
    """Evaluate an expression to a concrete group; its ``tag`` is ``expr``.

    The whole table is composed from the tables of the expression's parts,
    and only that table is validated.  A product is a group exactly when
    every factor is one, since its identity, inverses and associativity
    restrict to each coordinate, so that one validation proves the parts
    too.
    """
    # groups imports the expression types to tag what it builds, so its
    # table builders can only be reached once both modules are loaded.
    from .groups import _expr_table, group_from_cayley_table

    return group_from_cayley_table(*_expr_table(expr), expr, copy=False)
