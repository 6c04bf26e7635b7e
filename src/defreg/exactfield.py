"""Exact sparse column reduction over the rationals and over prime fields GF(p).

Reduced homology dimensions are alternating differences of boundary ranks,
and clearing needs to know which rows carry the pivots, so the one
operation here is a column reduction that reports its pivot rows.  A
column is a dict {row: coefficient}; boundaries of order complexes run to
a hundred thousand faces but have only dim + 1 entries per column, so
columns stay sparse and only the entries that exist are touched.
Homology uses this for Q and odd p; over GF(2) a column is just its set
of rows, so complexes reduces it by symmetric difference instead.

Entries are ints, reduced mod p over GF(p) and kept fraction-free over Q,
where every combined column is divided by the gcd of its entries to keep
them small.  No floating point is used anywhere.

Q is computed through GF(2) only where that is provably exact.  For a
chain complex of free abelian groups, such as the augmented simplicial
chain complex, the universal coefficient theorem (Hatcher, Algebraic
Topology, 2002, Thm 3A.3) gives H_i(GF(2)) = H_i(Z) (x) GF(2) plus
Tor(H_{i-1}(Z), GF(2)), so dim_Q H_i <= dim_GF(2) H_i in every degree,
and both alternating sums equal the Euler characteristic of the chain
groups.  When the GF(2) homology is nonzero in at most one degree, these
two facts force the rational dims to equal it; otherwise torsion may make
them differ, and Q is reduced on its own (complexes.homology_of_faces).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from math import gcd

from ._record import Record

Column = Mapping[int, int]


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below MAX_CHARACTERISTIC, the least strong pseudoprime to all of them
# (Sorenson and Webster, Strong pseudoprimes to twelve prime bases, 2017).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_CHARACTERISTIC = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < MAX_CHARACTERISTIC."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec(Record):
    """Coefficient field for homology: characteristic 0 is Q, p is GF(p)."""

    __slots__ = ("characteristic",)

    def __init__(self, characteristic: int = 0) -> None:
        c = characteristic
        if type(c) is not int:
            raise ValueError(f"characteristic {c!r} is not an int")
        if c >= MAX_CHARACTERISTIC:
            raise ValueError(
                f"characteristic {c} is too large: primality is decided"
                f" exactly only below {MAX_CHARACTERISTIC}"
            )
        if c != 0 and not _is_prime(c):
            raise ValueError(f"{c} is not prime")
        object.__setattr__(self, "characteristic", c)

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(0)

    @classmethod
    def prime_field(cls, p: int) -> "FieldSpec":
        if p == 0:
            raise ValueError("0 is not prime")
        return cls(p)

    @property
    def is_rationals(self) -> bool:
        return self.characteristic == 0

    def label(self) -> str:
        return "rational" if self.is_rationals else f"gf({self.characteristic})"


def pivot_rows(columns: Iterable[Column], field: FieldSpec) -> list[int]:
    """Pivot (largest nonzero) row of every column that survives reduction.

    Columns are reduced left to right: while a column's pivot row is the
    pivot of an earlier reduced column, that column is subtracted to cancel
    it.  A column that vanishes was a combination of earlier ones; the
    pivots of the rest are distinct, and their number is the rank.
    """
    p = field.characteristic
    reduced: dict[int, dict[int, int]] = {}
    for column in columns:
        col = _integral(column, p)
        while col:
            low = max(col)
            other = reduced.get(low)
            if other is None:
                if p and col[low] != 1:
                    inv = pow(col[low], -1, p)
                    col = {r: v * inv % p for r, v in col.items()}
                reduced[low] = col
                break
            col = _eliminate(col, other, low, p)
    return list(reduced)


def _integral(column: Column, p: int) -> dict[int, int]:
    """The nonzero entries of the column, reduced mod p when p is nonzero."""
    if p:
        return {r: x for r, v in column.items() if (x := v % p)}
    return {r: v for r, v in column.items() if v}


def _eliminate(
    col: dict[int, int], other: dict[int, int], low: int, p: int
) -> dict[int, int]:
    """a * col - b * other, with a = other[low] and b = col[low], so row low cancels.

    When a divides b, as it always does over GF(p) where stored pivots are
    1, col - (b / a) * other cancels it without scaling col.  Over Q the
    result is divided by the gcd of its entries.
    """
    a, b = other[low], col[low]
    if b % a == 0:
        b //= a
        out = dict(col)
    else:
        out = {r: a * v for r, v in col.items()}
    for r, v in other.items():
        x = out.get(r, 0) - b * v
        if p:
            x %= p
        if x:
            out[r] = x
        else:
            del out[r]
    if not p and out:
        g = gcd(*out.values())
        if g != 1:
            out = {r: v // g for r, v in out.items()}
    return out
