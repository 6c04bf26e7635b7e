"""Extended integers: Z with -inf adjoined.

A regularity-like invariant of a graded module takes values in Z together
with -inf, the value of the zero module.  On a filtered module it is
bounded by the maximum of its values on the successive quotients.  The
bound engine orders the layers of K^j by falling dimension, so the bound
is read off the first nonempty layer, and is NEG_INF when every layer is
empty.
"""

from __future__ import annotations

import functools
from typing import Union


@functools.total_ordering
class NegativeInfinity:
    """Bottom element of Z with -inf adjoined; compares below every integer."""

    _instance = None

    def __new__(cls) -> "NegativeInfinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __eq__(self, other: object) -> bool:
        return other is self

    def __lt__(self, other: object) -> bool:
        return other is not self

    def __hash__(self) -> int:
        return hash("NegativeInfinity")

    def __repr__(self) -> str:
        return "-inf"


NEG_INF = NegativeInfinity()

ExtendedInt = Union[int, NegativeInfinity]
