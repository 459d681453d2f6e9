"""Perfect codes in subgroup sum graphs of finite groups.

Given a finite group G and a normal subgroup H, the subgroup sum graph
joins distinct x, y whenever x·y lands in H minus the identity (the
extended variant allows x·y = e as well).  This package builds those
graphs, decides when they admit perfect and total perfect codes, verifies
every decision against brute-force search, and classifies the groups whose
every normal subgroup yields a perfect code.

Each module's ``__all__`` is its public API, and every name in it is
importable from the package itself.
"""

from . import codes, errors, exprs, families, graphs, groups
from .codes import *
from .errors import *
from .exprs import *
from .families import *
from .graphs import *
from .groups import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *codes.__all__, *errors.__all__, *exprs.__all__,
    *families.__all__, *graphs.__all__, *groups.__all__,
]
