"""Reduced homology of finite simplicial complexes, by exact column reduction.

The augmented chain complex is used throughout, so the empty face is a
genuine face of dimension -1.  Homology works on faces as int masks of
vertex positions: a boundary entry drops one bit, with the sign given by
the parity of the bits below it.  It comes from one exact column
reduction with clearing (Chen and Kerber, "Persistent homology
computation with a twist", 2011; Bauer, Kerber and Reininghaus, "Clear and
compress", 2014): the maps are reduced from the top degree down, and a
face that was a pivot row of the map one degree up is skipped as a
column, because its column is a combination of earlier ones.  Order
complexes of the poset intervals reach over a hundred thousand faces, and
below the top degree only the columns that the degree above left
unexplained are reduced.

The reduction reports the pivot rows of the columns that survive it, which
is what clearing needs.  A column is a sparse dict {row: coefficient}
with only dim + 1 entries; entries are ints, reduced mod p over GF(p)
and kept fraction-free over Q, where every combined column is divided by
the gcd of its entries to keep them small.  No floating point is used
anywhere.

Over Q, GF(2) dims computed some other way, as by the poset's minimal
resolution, bound the rational ones.  For a chain complex of free
abelian groups, such as the augmented simplicial chain complex, the
universal coefficient theorem (Hatcher, Algebraic Topology, 2002, Thm
3A.3) gives H_i(GF(2)) = H_i(Z) (x) GF(2) plus Tor(H_{i-1}(Z), GF(2)), so
dim_Q H_i <= dim_GF(2) H_i in every degree, and both alternating sums
equal the Euler characteristic of the face counts.  When the GF(2)
homology is nonzero in at most one degree, these two facts force the
rational dims to equal it.  Otherwise torsion may make them differ, so
rational_homology reduces the faces over Q and asserts those two facts
against the GF(2) dims.

The complex must be nonvoid: faces[0] == [0], the empty face.  The
complex of the empty face alone, [[0]], is the order complex of an empty
interval, and its only reduced homology is a single class in degree -1.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
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


_QQ = FieldSpec.rationals()


def homology_of_faces(
    faces: Sequence[Sequence[int]], field: FieldSpec
) -> dict[int, int]:
    """Nonzero reduced Betti numbers of a nonvoid complex, by ascending degree.

    A face is the int mask of its vertex positions, and faces[k] lists the
    faces with k bits, so faces[0] is [0]; clearing any bit of a face
    must give a face listed one size down.  Rows and columns follow the
    listed order.  Any order is correct, clearing included, but the order
    decides how much fill-in the reduction meets.
    """
    dims: dict[int, int] = {}
    cleared: set[int] = set()
    for k in range(len(faces) - 1, 0, -1):
        rows = {f: r for r, f in enumerate(faces[k - 1])}
        kept = (f for c, f in enumerate(faces[k]) if c not in cleared)
        pivots = pivot_rows((_signed_column(f, rows) for f in kept), field)
        dims[k - 1] = len(faces[k]) - len(cleared) - len(pivots)
        assert dims[k - 1] >= 0
        cleared = set(pivots)
    dims[-1] = len(faces[0]) - len(cleared)
    return {d: v for d, v in sorted(dims.items()) if v}


def rational_homology(
    faces: Sequence[Sequence[int]], two: Mapping[int, int]
) -> dict[int, int]:
    """Rational dims of a nonvoid complex whose GF(2) dims are two.

    For a complex whose GF(2) homology lies in more than one degree, so
    that it certifies nothing: the faces are reduced over Q, and the
    result is checked against two by the universal coefficient theorem.
    """
    dims = homology_of_faces(faces, _QQ)
    assert all(v <= two.get(d, 0) for d, v in dims.items())
    assert _euler(dims) == _euler(two)
    return dims


def _euler(dims: Mapping[int, int]) -> int:
    return sum(-v if d & 1 else v for d, v in dims.items())


def _signed_column(face: int, rows: Mapping[int, int]) -> dict[int, int]:
    """Boundary column of face: dropping a bit with an odd number below it gives -1."""
    out = {}
    rest = face
    while rest:
        low = rest & -rest
        out[rows[face ^ low]] = -1 if (face & (low - 1)).bit_count() & 1 else 1
        rest ^= low
    return out


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
