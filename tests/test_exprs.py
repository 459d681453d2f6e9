"""Group expression parsing, formatting, and construction."""

import math
import random

import pytest

from sumgraph import (
    BadParameterError,
    CyclicExpr,
    DicyclicExpr,
    DihedralExpr,
    ElementaryAbelianExpr,
    ParseError,
    ProductExpr,
    QuaternionExpr,
    build_group,
    format_group_expr,
    max_supported_order,
    parse_group_expr,
)


def test_parse_atoms():
    assert parse_group_expr("Z6") == CyclicExpr(6)
    assert parse_group_expr("z1") == CyclicExpr(1)
    assert parse_group_expr("D8") == DihedralExpr(8)
    assert parse_group_expr("Dic3") == DicyclicExpr(3)
    assert parse_group_expr("Q8") == QuaternionExpr()
    assert parse_group_expr("q8") == QuaternionExpr()
    assert parse_group_expr("E2^3") == ElementaryAbelianExpr(3)
    assert parse_group_expr("E2^0") == ElementaryAbelianExpr(0)


def test_parse_products_and_parens():
    assert parse_group_expr("Z2 x Z3") == ProductExpr((CyclicExpr(2), CyclicExpr(3)))
    assert parse_group_expr("Z2xZ2xZ3") == ProductExpr(
        (CyclicExpr(2), CyclicExpr(2), CyclicExpr(3))
    )
    assert parse_group_expr("(Z4)") == CyclicExpr(4)
    # parenthesized products stay nested
    nested = parse_group_expr("(Z2 x Z2) x Z3")
    assert nested == ProductExpr(
        (ProductExpr((CyclicExpr(2), CyclicExpr(2))), CyclicExpr(3))
    )
    assert parse_group_expr("Z3 x Q8 x D10") == ProductExpr(
        (CyclicExpr(3), QuaternionExpr(), DihedralExpr(10))
    )
    # whitespace and case are both free
    assert parse_group_expr("  dIc4 X e2^2 ") == ProductExpr(
        (DicyclicExpr(4), ElementaryAbelianExpr(2))
    )


def test_parse_errors_carry_offset_and_expectations():
    with pytest.raises(ParseError) as exc:
        parse_group_expr("")
    assert exc.value.offset == 0

    with pytest.raises(ParseError) as exc:
        parse_group_expr("Z")
    assert exc.value.offset == 1
    assert "integer" in exc.value.expected

    with pytest.raises(ParseError) as exc:
        parse_group_expr("Z4 x")
    assert exc.value.offset == 4

    with pytest.raises(ParseError) as exc:
        parse_group_expr("Z4 Z5")
    assert exc.value.offset == 3
    assert set(exc.value.expected) == {"x", "end of input"}

    with pytest.raises(ParseError) as exc:
        parse_group_expr("(Z4")
    assert exc.value.offset == 3
    assert ")" in exc.value.expected

    with pytest.raises(ParseError) as exc:
        parse_group_expr("W5")
    assert exc.value.offset == 0

    # offsets point at the offending token in error messages
    with pytest.raises(ParseError) as exc:
        parse_group_expr("Z4 x !")
    assert exc.value.offset == 5
    assert "at offset 5" in str(exc.value)

    # nesting is capped at 100 levels, a parse error rather than a RecursionError
    assert str(parse_group_expr("(" * 99 + "Z2 x (Z3)" + ")" * 99)) == "Z2 x Z3"
    for depth in (101, 600, 5000):
        with pytest.raises(ParseError) as exc:
            parse_group_expr("(" * depth + "Z2" + ")" * depth)
        assert exc.value.offset == 100


def test_parse_rejects_bad_parameters():
    for bad in ("Z0", "D5", "D4", "D2", "Dic1", "Dic0", "Q16", "Q4"):
        with pytest.raises(ParseError):
            parse_group_expr(bad)
    # the offset of a semantic failure is the integer token
    with pytest.raises(ParseError) as exc:
        parse_group_expr("Z2 x D7")
    assert exc.value.offset == 6


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build_group("Z4"), "expected a group expression, got str"),
        (lambda: build_group(5), "expected a group expression, got int"),
        (lambda: build_group(ProductExpr((5, 6))), "expected a group expression, got int"),
        (lambda: build_group(ProductExpr((CyclicExpr(2), "Z3"))), "expected a group expression, got str"),
        (lambda: format_group_expr(5), "expected a group expression, got int"),
        (lambda: format_group_expr(ProductExpr((CyclicExpr(2), "Z3"))), "expected a group expression, got str"),
        (lambda: build_group(ProductExpr(5)), "product parts must be a tuple or list, got int"),
        (lambda: format_group_expr(ProductExpr(5)), "product parts must be a tuple or list, got int"),
        (lambda: parse_group_expr(5), "expected a string, got int"),
        (lambda: parse_group_expr(b"Z4"), "expected a string, got bytes"),
    ],
    ids=[
        "build-str", "build-int", "build-product-of-ints", "build-product-part", "format-int",
        "format-product-part", "build-product-of-int", "format-product-of-int", "parse-int", "parse-bytes",
    ],
)
def test_a_value_that_is_not_an_expression_is_a_bad_parameter(call, message):
    """A value of no expression class, a product's part included, is named
    by its type, not met by an AttributeError further in; so is a parse of
    anything but a string."""
    with pytest.raises(BadParameterError, match=f"^{message}$"):
        call()


ROUND_TRIP_CASES = [
    "Z1",
    "Z12",
    "D8",
    "Dic2",
    "Q8",
    "E2^4",
    "Z2 x Z3",
    "Z2 x Z2 x Z3",
    "(Z2 x Z2) x Z3",
    "Z3 x (Z4 x Q8) x D10",
]


def test_format_round_trip_fixed_cases():
    for text in ROUND_TRIP_CASES:
        expr = parse_group_expr(text)
        printed = format_group_expr(expr)
        assert parse_group_expr(printed) == expr, text
    assert format_group_expr(parse_group_expr("z2XZ3")) == "Z2 x Z3"
    assert format_group_expr(parse_group_expr("(Z2 x Z2) x Z3")) == "(Z2 x Z2) x Z3"


def _random_expr(rng, depth):
    kind = rng.randrange(6 if depth < 3 else 5)
    if kind == 0:
        return CyclicExpr(rng.randint(1, 30))
    if kind == 1:
        return DihedralExpr(2 * rng.randint(3, 12))
    if kind == 2:
        return DicyclicExpr(rng.randint(2, 8))
    if kind == 3:
        return QuaternionExpr()
    if kind == 4:
        return ElementaryAbelianExpr(rng.randint(0, 5))
    parts = tuple(_random_expr(rng, depth + 1) for _ in range(rng.randint(2, 4)))
    return ProductExpr(parts)


def test_format_round_trip_random_expressions():
    rng = random.Random(20240817)
    for _ in range(300):
        expr = _random_expr(rng, 0)
        assert parse_group_expr(format_group_expr(expr)) == expr


def _order(expr):
    if isinstance(expr, CyclicExpr):
        return expr.n
    if isinstance(expr, DihedralExpr):
        return expr.order
    if isinstance(expr, DicyclicExpr):
        return 4 * expr.n
    if isinstance(expr, QuaternionExpr):
        return 8
    if isinstance(expr, ElementaryAbelianExpr):
        return 2**expr.t
    return math.prod(_order(p) for p in expr.parts)


def _assert_tagged(expr):
    G = build_group(expr)
    assert G.tag == expr, format_group_expr(expr)
    assert str(G.tag) == G.name == format_group_expr(expr)
    assert parse_group_expr(format_group_expr(expr)) == expr
    assert G.order == _order(expr)


def test_build_group_tags_the_expression_fixed_cases():
    exprs = [parse_group_expr(t) for t in ROUND_TRIP_CASES + ["E2^0", "E2^1 x Z3", "Dic3 x (D8 x E2^2)"]]
    within_cap = [e for e in exprs if _order(e) <= max_supported_order()]
    assert len(within_cap) == len(exprs) - 1  # Z3 x (Z4 x Q8) x D10 has order 960
    for expr in within_cap:
        _assert_tagged(expr)


def test_build_group_tags_the_expression_random():
    rng = random.Random(20261018)
    built = 0
    while built < 60:
        expr = _random_expr(rng, 0)
        if _order(expr) <= max_supported_order():
            _assert_tagged(expr)
            built += 1


def test_build_group_refuses_expressions_the_parser_never_makes():
    """A tag is trusted by the family deciders, so an expression whose text
    would name another group is refused, not built under that tag; its
    text is refused too, with the same message, so every text printed
    parses back to the expression.  A bool field is not read as 0 or 1."""
    exprs = (
        DihedralExpr(7), ProductExpr((CyclicExpr(3),)), ProductExpr(()), ProductExpr((CyclicExpr(2),)),
        CyclicExpr(None), CyclicExpr(True), CyclicExpr(0), DihedralExpr(False), DicyclicExpr(True),
        DicyclicExpr(1), ElementaryAbelianExpr(True), ElementaryAbelianExpr(-1), ElementaryAbelianExpr(2.0),
        ProductExpr((CyclicExpr(2), CyclicExpr(True))),
    )
    for expr in exprs:
        with pytest.raises(BadParameterError) as built:
            build_group(expr)
        with pytest.raises(BadParameterError) as formatted:
            format_group_expr(expr)
        assert str(formatted.value) == str(built.value), expr


def test_build_group_shapes():
    G = build_group(parse_group_expr("Z6"))
    assert G.order == 6 and str(G.tag) == "Z6"

    G = build_group(parse_group_expr("D8"))
    assert G.order == 8 and str(G.tag) == "D8"

    G = build_group(parse_group_expr("Dic2"))
    assert G.order == 8 and str(G.tag) == "Dic2"

    G = build_group(parse_group_expr("Q8"))
    assert G.order == 8

    G = build_group(parse_group_expr("E2^3"))
    assert G.order == 8
    assert all(G.rows[g][g] == G.identity for g in range(8))

    G = build_group(parse_group_expr("Z2 x Z3"))
    assert G.order == 6 and str(G.tag) == "Z2 x Z3"

    # nested products multiply out to the same order
    G = build_group(parse_group_expr("(Z2 x Z2) x Z3"))
    assert G.order == 12
    assert all(G.rows[x][y] == G.rows[y][x] for x in range(12) for y in range(12))
