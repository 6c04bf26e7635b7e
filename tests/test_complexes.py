import itertools
import random
import re

import pytest

from defreg.bounds import MAX_CHARACTERISTIC, FieldSpec, _is_prime, multiplicities
from oracle import closure, components, matrix_rank, rank_oracle
from test_bounds import with_bottom

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
    """The homology of the complex with these facets, checked by the oracle.

    It is read through multiplicities, at a bottom element added below
    the complex's face poset, where each face lies below its own faces:
    the interval above the bottom is the barycentric subdivision.
    """
    faces = closure(facets)
    name = {f: ",".join(map(str, f)) for f in sorted(faces) if f}
    poset = with_bottom(
        list(name.values()),
        [
            (name[f], name[g])
            for f in name
            for k in range(1, len(f))
            for g in itertools.combinations(f, k)
        ],
    )
    dims = multiplicities(poset, field)["bottom"]
    assert dims == rank_oracle(faces, field), (facets, field)
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
    # torsion-free homology in two degrees, the same over every field
    for field in (QQ, GF2, GF3):
        facets = [(0,), (1, 2), (2, 3), (1, 3)]
        assert homology(facets, field) == {0: 1, 1: 1}


def check_random_complex_identities(seed, count, max_verts, max_facets):
    """The homology identities on count seeded random complexes.

    Each complex has 1..max_verts vertices and 1..max_facets facets of at
    most four vertices, and its homology over Q, GF(2) and GF(3) is
    checked by the oracle.  H~_0 counts components less one, both
    alternating sums equal the Euler characteristic of the face counts,
    and dim_Q <= dim_GF(2) in each degree.
    """
    rng = random.Random(seed)
    for _ in range(count):
        nverts = rng.randint(1, max_verts)
        facets = []
        for _ in range(rng.randint(1, max_facets)):
            size = rng.randint(1, min(4, nverts))
            facets.append(tuple(rng.sample(range(1, nverts + 1), size)))
        faces = closure(facets)
        hq = homology(facets, QQ)
        h2 = homology(facets, GF2)
        homology(facets, GF3)
        vertices = [f[0] for f in faces if len(f) == 1]
        edges = [f for f in faces if len(f) == 2]
        assert hq.get(0, 0) == len(components(vertices, edges)) - 1
        # a face with k vertices has dimension k - 1
        euler_faces = sum(1 if len(f) & 1 else -1 for f in faces)
        for h in (hq, h2):
            euler_hom = sum((-1) ** i * v for i, v in h.items())
            assert euler_hom == euler_faces
        assert all(v <= h2.get(i, 0) for i, v in hq.items())


def test_random_complexes_homology_identities():
    check_random_complex_identities(1105, 80, 9, 6)


def rank(rows, field):
    return matrix_rank(rows, field.characteristic)


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
    assert rank([[1, 0], [0, 1]], QQ) == 2
    assert rank([[1, 2], [2, 4]], QQ) == 1
    assert rank([[0, 0], [0, 0]], QQ) == 0
    assert rank([[1, 1, 1], [1, 1, 2]], QQ) == 2
    # 0 x 5 and 5 x 0 matrices
    assert rank([], QQ) == 0
    assert rank([[]] * 5, GF2) == 0


def test_rank_depends_on_characteristic():
    assert rank([[2]], QQ) == 1
    assert rank([[2]], GF2) == 0
    assert rank([[2]], GF3) == 1
    # determinant 3, so the matrix drops rank exactly at p = 3
    m = [[1, 2], [2, 1]]
    assert rank(m, QQ) == 2
    assert rank(m, GF3) == 1
    assert rank(m, GF2) == 2


def test_random_ranks_match_minor_oracle():
    rng = random.Random(20240901)
    for _ in range(120):
        m = rng.randint(0, 4)
        n = rng.randint(0, 4)
        data = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        got = rank(data, QQ)
        assert got == minor_rank(data)
        # rank never exceeds either dimension, and mod p never exceeds rank over Q
        assert got <= min(m, n)
        assert rank(data, GF2) <= got
        assert rank(data, GF3) <= got


def test_transpose_has_equal_rank():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        data = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        tr = [list(col) for col in zip(*data)]
        assert rank(data, QQ) == rank(tr, QQ)
        assert rank(data, GF3) == rank(tr, GF3)
