"""Exception types shared across the package."""

from __future__ import annotations

import math
import operator

__all__ = [
    "SumGraphError",
    "BadParameterError",
    "NotLatinSquareError",
    "NoIdentityError",
    "NoInverseError",
    "NotAssociativeError",
    "NotASubgroupError",
    "NotNormalError",
    "NotAbelianError",
    "InternalInconsistencyError",
    "ParseError",
]


class SumGraphError(Exception):
    """Base class for every error raised by this package."""


class BadParameterError(SumGraphError, ValueError):
    """An argument is outside the documented range or of the wrong shape."""


class NotLatinSquareError(SumGraphError, ValueError):
    """A Cayley table has a row or column that is not a permutation."""


class NoIdentityError(SumGraphError, ValueError):
    """A Cayley table has no two-sided identity element."""


class NoInverseError(SumGraphError, ValueError):
    """Some element of a Cayley table has no two-sided inverse."""


class NotAssociativeError(SumGraphError, ValueError):
    """A Cayley table violates associativity; the message names a triple."""


class NotASubgroupError(SumGraphError, ValueError):
    """A member set is not closed under products and inverses."""


class NotNormalError(SumGraphError, ValueError):
    """A subgroup is not normal where normality is required."""


class NotAbelianError(SumGraphError, ValueError):
    """A group is not abelian where commutativity is required."""


class InternalInconsistencyError(SumGraphError, RuntimeError):
    """A constructed object failed its own validity check; this is a bug."""


class ParseError(SumGraphError, ValueError):
    """A group expression failed to parse: ``offset`` is the byte offset of
    the failure, and ``expected`` the tokens that would be accepted there."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f"{message} at offset {offset}"
        if expected:
            detail += f" (expected: {', '.join(expected)})"
        super().__init__(detail)


def _shown(n: int) -> str:
    """``n`` in full, or its digit count once it is too long to read (or
    past ``int``'s 4300-digit string limit)."""
    if n < 0:
        return "-" + _shown(-n)
    if n < 10**20:
        return str(n)
    digits = math.floor((n.bit_length() - 1) * math.log10(2)) + 1  # or one more
    return f"<{digits + (n >= 10**digits)}-digit number>"


def _quoted(text: str) -> str:
    """``text`` quoted in full, or its length once it is too long to read:
    the one way a message echoes text from outside."""
    return repr(text) if len(text) <= 40 else f"<{len(text)}-character text>"


def _index(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as a Python int: an element index or a constructor
    parameter, at least ``low`` and at most ``high`` when given (``high``
    only with ``low``).  A float, a string or a bool is a
    BadParameterError, not truncated or read as 0 or 1; so is a value out
    of range, named by :func:`_shown`."""
    try:
        if isinstance(value, bool):  # operator.index would read it as 0 or 1
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise BadParameterError(f"{what} {value!r} is not an integer") from None
    if low is not None and value < low or high is not None and value > high:
        want = f">= {low}" if high is None else f"in {low}..{high}"
        raise BadParameterError(f"{what} {_shown(value)} out of range: must be {want}")
    return value
