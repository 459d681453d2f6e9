"""Perfect codes in subgroup sum graphs of finite groups (the graphs are
defined in :mod:`sumgraph.graphs`, the codes in :mod:`sumgraph.codes`).

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
