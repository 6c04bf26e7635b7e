import itertools
import random
import re

import pytest

from defreg.complexes import (
    MAX_CHARACTERISTIC,
    FieldSpec,
    _is_prime,
    homology_of_faces,
    pivot_rows,
)
from oracle import closure, components, faces_by_size, rank_oracle

QQ = FieldSpec.rationals()
GF2 = FieldSpec.prime_field(2)
GF3 = FieldSpec.prime_field(3)

# a 6-vertex triangulation of the real projective plane, the standard
# example where homology depends on the field
RP2_FACETS = [
    (1, 2, 6), (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]


def homology(facets, field):
    """homology_of_faces of the complex with these facets, checked by the oracle."""
    dims = homology_of_faces(faces_by_size(facets), field)
    assert dims == rank_oracle(closure(facets), field), (facets, field)
    assert list(dims) == sorted(dims) and all(dims.values())
    return dims


def test_point_is_acyclic():
    assert homology([(1,)], QQ) == {}


def test_two_points():
    assert homology([(1,), (2,)], QQ) == {0: 1}


def test_circle():
    assert homology([(1, 2), (2, 3), (1, 3)], QQ) == {1: 1}


def test_two_sphere():
    facets = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    assert homology(facets, QQ) == {2: 1}


def test_projective_plane_depends_on_field():
    assert homology(RP2_FACETS, QQ) == {}
    assert homology(RP2_FACETS, GF2) == {1: 1, 2: 1}
    assert homology(RP2_FACETS, GF3) == {}


def test_point_and_circle_over_every_field():
    # torsion-free homology in two degrees: Q is not read off GF(2) here
    for field in (QQ, GF2, GF3):
        facets = [(0,), (1, 2), (2, 3), (1, 3)]
        assert homology(facets, field) == {0: 1, 1: 1}


def test_random_complexes_homology_identities():
    rng = random.Random(1105)
    for _ in range(80):
        nverts = rng.randint(1, 9)
        nfacets = rng.randint(1, 6)
        facets = []
        for _ in range(nfacets):
            size = rng.randint(1, min(4, nverts))
            facets.append(tuple(rng.sample(range(1, nverts + 1), size)))
        faces = faces_by_size(facets)
        hq = homology(facets, QQ)
        h2 = homology(facets, GF2)
        homology(facets, GF3)
        # vertices are the one-bit faces, edges the two-bit ones
        edges = [(e & -e, e & e - 1) for e in (faces[2] if len(faces) > 2 else ())]
        assert hq.get(0, 0) == len(components(faces[1], edges)) - 1
        # a face with k vertices has dimension k - 1
        euler_faces = sum((-1) ** (k - 1) * len(level) for k, level in enumerate(faces))
        for h in (hq, h2):
            euler_hom = sum((-1) ** i * v for i, v in h.items())
            assert euler_hom == euler_faces
        assert all(v <= h2.get(i, 0) for i, v in hq.items())


def rank(columns, field):
    """The rank is the number of columns that keep a pivot."""
    return len(pivot_rows(columns, field))


def columns(rows, ncols=None):
    """Sparse columns {row: entry} of a dense matrix given by its rows."""
    width = len(rows[0]) if rows else ncols
    return [
        {r: row[c] for r, row in enumerate(rows) if row[c] != 0}
        for c in range(width)
    ]


def minor_rank(data):
    """Oracle: the largest k with a nonzero k x k minor."""

    def det(rows, cols):
        if not rows:
            return 0
        if len(rows) == 1:
            return data[rows[0]][cols[0]]
        total = 0
        for k, c in enumerate(cols):
            sign = 1 if k % 2 == 0 else -1
            total += sign * data[rows[0]][c] * det(rows[1:], cols[:k] + cols[k + 1:])
        return total

    m, n = len(data), len(data[0]) if data else 0
    for k in range(min(m, n), 0, -1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                if det(rows, cols) != 0:
                    return k
    return 0


def test_primality_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    for n in range(-3, 20000):
        assert _is_prime(n) == trial(n), n
    # Carmichael numbers and strong pseudoprimes to small bases
    for n in (561, 41041, 3215031751, 3825123056546413051,
              318665857834031151167461):
        assert not _is_prime(n)
    assert _is_prime(2**61 - 1)
    assert _is_prime(1000000000000000003)


def test_field_spec_validation():
    assert QQ.is_rationals
    assert QQ.label() == "rational"
    assert GF3.label() == "gf(3)"
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(1)
    with pytest.raises(ValueError):
        FieldSpec.prime_field(6)
    with pytest.raises(ValueError):
        FieldSpec.prime_field(0)
    with pytest.raises(ValueError):
        FieldSpec(MAX_CHARACTERISTIC)
    for c in (2.0, 2.5, "3", True, False, None):
        message = re.escape(f"characteristic {c!r} is not an int")
        with pytest.raises(ValueError, match=message):
            FieldSpec(c)
    assert FieldSpec.prime_field(97).characteristic == 97


def test_known_ranks():
    ident = columns([[1, 0], [0, 1]])
    assert rank(ident, QQ) == 2
    singular = columns([[1, 2], [2, 4]])
    assert rank(singular, QQ) == 1
    zeros = columns([[0, 0], [0, 0]])
    assert rank(zeros, QQ) == 0
    wide = columns([[1, 1, 1], [1, 1, 2]])
    assert rank(wide, QQ) == 2
    # a 0 x 5 matrix: five empty columns
    assert rank(columns([], 5), QQ) == 0
    assert rank([], GF2) == 0


def test_pivot_rows_are_distinct_lowest_rows():
    # columns e0, e0 + e1, e1: the third reduces to zero, and each pivot
    # is the largest row left in its reduced column
    assert pivot_rows(columns([[1, 1, 0], [0, 1, 1]]), QQ) == [0, 1]
    assert pivot_rows(columns([[1, 1, 0], [0, 1, 1]]), GF2) == [0, 1]
    assert pivot_rows([{3: 2, 5: 4}, {5: 1}], QQ) == [5, 3]
    assert pivot_rows([{3: 2, 5: 4}, {5: 1}], GF2) == [5]


def test_rank_depends_on_characteristic():
    two = columns([[2]])
    assert rank(two, QQ) == 1
    assert rank(two, GF2) == 0
    assert rank(two, GF3) == 1
    # determinant 3, so the matrix drops rank exactly at p = 3
    m = columns([[1, 2], [2, 1]])
    assert rank(m, QQ) == 2
    assert rank(m, GF3) == 1
    assert rank(m, GF2) == 2


def test_random_ranks_match_minor_oracle():
    rng = random.Random(20240901)
    for _ in range(120):
        m = rng.randint(0, 4)
        n = rng.randint(0, 4)
        data = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        mat = columns(data, n)
        got = rank(mat, QQ)
        assert got == minor_rank(data)
        # rank never exceeds either dimension, and mod p never exceeds rank over Q
        assert got <= min(m, n)
        assert rank(mat, GF2) <= got
        assert rank(mat, GF3) <= got


def test_transpose_has_equal_rank():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        data = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        mat = columns(data)
        tr = columns(list(map(list, zip(*data))), m)
        assert rank(mat, QQ) == rank(tr, QQ)
        assert rank(mat, GF3) == rank(tr, GF3)
