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


# atom text -> (its class, its field, what the field is called, the least
# value the parser makes); Q8 has no field
_ATOMS = {
    "Z": (CyclicExpr, "n", "cyclic order", 1),
    "D": (DihedralExpr, "order", "dihedral order", 6),
    "Dic": (DicyclicExpr, "n", "dicyclic parameter", 2),
    "Q8": (QuaternionExpr, None, None, None),
    "E2^": (ElementaryAbelianExpr, "t", "exponent", 0),
}
_ATOM_KEYS = {text.lower(): spec for text, spec in _ATOMS.items()}  # keywords are case-insensitive
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<atom>" + "|".join(map(re.escape, sorted(_ATOMS, key=len, reverse=True)))  # Dic before D
    + r")|(?P<x>x)|(?P<lparen>\()|(?P<rparen>\))|(?P<int>\d+))",
    re.IGNORECASE,
)
_ATOM_TOKENS = (*_ATOMS, "(")
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
        kind, text, at = tok
        if kind == "atom":
            self.take()
            cls, name, what, low = _ATOM_KEYS[text.lower()]
            if name is None:
                return cls()
            value, value_at = self.integer(what)
            expr = cls(value)
            try:
                _field(expr)
            except BadParameterError as exc:
                even = "even " if cls is DihedralExpr else ""
                raise ParseError(str(exc), value_at, (f"{even}integer >= {low}",)) from None
            return expr
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
        raise ParseError(f"expected a group atom, found {_quoted(text)}", at, _ATOM_TOKENS)

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
    expression or not at all; so is a field too long for ``str``."""
    for prefix, (kind, name, what, _) in _ATOMS.items():
        if isinstance(expr, kind):
            if name is None:
                return prefix
            value = _field(expr)
            try:
                return prefix + str(value)
            except ValueError:  # past int's string-conversion digit limit
                raise BadParameterError(f"{what} {_shown(value)} has too many digits to print") from None
    bits = []
    for p in _parts(expr):
        text = format_group_expr(p)
        bits.append(f"({text})" if isinstance(p, ProductExpr) else text)
    return " x ".join(bits)


def _field(expr: GroupExpr) -> int:
    """The integer field of an atom with one, as the parser makes it: an
    int (not a bool) at least the atom's least value, and an even dihedral
    order.  The parser checks each field it reads here too."""
    _, name, what, low = next(spec for spec in _ATOMS.values() if isinstance(expr, spec[0]))
    value = _index(getattr(expr, name), what, low=low)
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
    from .groups import _expr_table, _validated_group

    return _validated_group(*_expr_table(expr), expr)
