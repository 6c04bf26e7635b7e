"""Reduced homology of finite simplicial complexes, given by their faces.

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

Over Q the faces are reduced over GF(2) first, where a column is a set of
rows.  If that homology is nonzero in at most one degree it is the
rational homology too, by the universal coefficient theorem: dim_Q <=
dim_GF(2) in every degree, and both have the Euler characteristic of the
face counts (see exactfield).  Otherwise the same faces are reduced
fraction-free over Q, and those two invariants are asserted.  GF(p) for
odd p is reduced directly.

The complex must be nonvoid: faces[0] == [0], the empty face.  The
complex of the empty face alone, [[0]], is the order complex of an empty
interval, and its only reduced homology is a single class in degree -1.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence

from .exactfield import FieldSpec, pivot_rows

DEFAULT_MAX_FACES = 200_000
_GF2 = FieldSpec.prime_field(2)


class FaceBudgetExceeded(RuntimeError):
    """Raised when a complex would exceed the configured face budget."""


def homology_of_faces(
    faces: Sequence[Sequence[int]], field: FieldSpec
) -> Dict[int, int]:
    """Nonzero reduced Betti numbers of a nonvoid complex, by ascending degree.

    A face is the int mask of its vertex positions, and faces[k] lists the
    faces with k bits, so faces[0] is [0]; clearing any bit of a face
    must give a face listed one size down.  Rows and columns follow the
    listed order.  Any order is correct, clearing included, but the order
    decides how much fill-in the reduction meets.  Over Q the GF(2) dims
    are returned when they certify the rational ones (see the module
    docstring).
    """
    if not field.is_rationals:
        return _dims(faces, field)
    two = _dims(faces, _GF2)
    if len(two) <= 1:
        return two
    dims = _dims(faces, field)
    assert all(v <= two.get(d, 0) for d, v in dims.items())
    assert _euler(dims) == _euler(two)
    return dims


def _euler(dims: Mapping[int, int]) -> int:
    return sum(-v if d & 1 else v for d, v in dims.items())


def _dims(faces: Sequence[Sequence[int]], field: FieldSpec) -> Dict[int, int]:
    """Nonzero reduced homology dims by ascending degree, with clearing."""
    dims: Dict[int, int] = {}
    cleared: set[int] = set()
    for k in range(len(faces) - 1, 0, -1):
        rows = {f: r for r, f in enumerate(faces[k - 1])}
        kept = (f for c, f in enumerate(faces[k]) if c not in cleared)
        if field.characteristic == 2:
            pivots = _gf2_pivot_rows(kept, rows)
        else:
            pivots = pivot_rows((_signed_column(f, rows) for f in kept), field)
        dims[k - 1] = len(faces[k]) - len(cleared) - len(pivots)
        assert dims[k - 1] >= 0
        cleared = set(pivots)
    dims[-1] = len(faces[0]) - len(cleared)
    return {d: v for d, v in sorted(dims.items()) if v}


def _gf2_pivot_rows(faces: Iterable[int], rows: Mapping[int, int]) -> list[int]:
    """pivot_rows over GF(2) of the boundary columns of these faces.

    A column is the set of rows of the faces that drop one bit of its
    face, and reducing it is a symmetric difference with the stored
    column of its pivot.  Stored columns are tuples, which take less
    memory than sets, or than int bitsets that grow with the pivot row.
    """
    reduced: dict[int, tuple[int, ...]] = {}
    for face in faces:
        col = set()
        rest = face
        while rest:
            low = rest & -rest
            col.add(rows[face ^ low])
            rest ^= low
        while col:
            top = max(col)
            other = reduced.get(top)
            if other is None:
                reduced[top] = tuple(col)
                break
            col.symmetric_difference_update(other)
    return list(reduced)


def _signed_column(face: int, rows: Mapping[int, int]) -> dict[int, int]:
    """Boundary column of face: dropping a bit with an odd number below it gives -1."""
    out = {}
    rest = face
    while rest:
        low = rest & -rest
        out[rows[face ^ low]] = -1 if (face & (low - 1)).bit_count() & 1 else 1
        rest ^= low
    return out
