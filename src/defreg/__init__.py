"""Regularity bounds for deficiency modules via posets of component sums.

The package turns a squarefree monomial ideal, a graph (through its
binomial edge ideal), or a user-described abstract poset into the finite
poset of iterated sums of primary components, computes reduced homology of
the open intervals below the virtual top over an exact field, and reads
off degreewise upper bounds for the regularity of the deficiency modules
of the quotient, together with filtration layers, hypothesis checks, and
nonvanishing witnesses.

Importing the package loads none of its submodules: each public name is
looked up in its home module on first use (PEP 562), so a program that
uses only the poset layer never compiles the monomial or graph builders.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    "ASSUMPTION_TEXT": "bounds",
    "AnalysisPoset": "posets",
    "BoundEntry": "bounds",
    "BoundReport": "bounds",
    "ClosureBudgetExceeded": "posets",
    "ConditionReport": "bounds",
    "DEFAULT_MAX_ELEMENTS": "posets",
    "DEFAULT_MAX_FACES": "posets",
    "FaceBudgetExceeded": "posets",
    "FieldSpec": "bounds",
    "Graph": "binomial_edge",
    "IdealNode": "posets",
    "NEG_INF": "bounds",
    "OrderCycle": "posets",
    "RingContext": "posets",
    "SquarefreeIdeal": "monomial",
    "ZeroIdeal": "monomial",
    "analyze": "bounds",
    "build_Q_poset": "binomial_edge",
    "build_monomial_poset": "monomial",
    "check_conditions": "bounds",
    "join_closure": "posets",
    "minimal_primes": "monomial",
    "minimal_primes_graph": "binomial_edge",
    "multiplicities": "bounds",
    "murai_terai_level": "bounds",
    "ring_for": "binomial_edge",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
