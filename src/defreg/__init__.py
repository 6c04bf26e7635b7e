"""Regularity bounds for deficiency modules via posets of component sums.

The package turns a squarefree monomial ideal, a graph (through its
binomial edge ideal), or a user-described abstract poset into the finite
poset of iterated sums of primary components, computes reduced homology of
the open intervals below the virtual top over an exact field, and reads
off degreewise upper bounds for the regularity of the deficiency modules
of the quotient, together with filtration layers, hypothesis checks, and
nonvanishing witnesses.
"""

from .binomial_edge import (
    CliquePrime,
    Graph,
    build_Q_poset,
    minimal_primes_graph,
    ring_for,
)
from .bounds import (
    ASSUMPTION_TEXT,
    NEG_INF,
    BoundEntry,
    BoundReport,
    ConditionReport,
    analyze,
    check_conditions,
    multiplicities,
    murai_terai_level,
)
from .complexes import DEFAULT_MAX_FACES, FaceBudgetExceeded
from .exactfield import FieldSpec
from .monomial import (
    FacePrime,
    SquarefreeIdeal,
    ZeroIdeal,
    build_monomial_poset,
    minimal_primes,
)
from .posets import (
    DEFAULT_MAX_ELEMENTS,
    AnalysisPoset,
    ClosureBudgetExceeded,
    IdealNode,
    OrderCycle,
    RingContext,
    UnknownElement,
    join_closure,
)

__version__ = "0.1.0"

__all__ = [
    "ASSUMPTION_TEXT",
    "AnalysisPoset",
    "BoundEntry",
    "BoundReport",
    "CliquePrime",
    "ClosureBudgetExceeded",
    "ConditionReport",
    "DEFAULT_MAX_ELEMENTS",
    "DEFAULT_MAX_FACES",
    "FaceBudgetExceeded",
    "FacePrime",
    "FieldSpec",
    "Graph",
    "IdealNode",
    "NEG_INF",
    "OrderCycle",
    "RingContext",
    "SquarefreeIdeal",
    "UnknownElement",
    "ZeroIdeal",
    "analyze",
    "build_Q_poset",
    "build_monomial_poset",
    "check_conditions",
    "join_closure",
    "minimal_primes",
    "minimal_primes_graph",
    "multiplicities",
    "murai_terai_level",
    "ring_for",
    "__version__",
]
