import random

from defreg.complexes import FieldSpec, homology_of_faces
from oracle import closure, faces_by_size, rank_oracle

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


def _component_count(faces):
    # union-find over the 1-skeleton of faces grouped by size
    parent = {v: v for v in faces[1]}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in faces[2] if len(faces) > 2 else ():
        low = e & -e
        a, b = find(low), find(e ^ low)
        if a != b:
            parent[a] = b
    return len({find(v) for v in parent})


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
        assert hq.get(0, 0) == _component_count(faces) - 1
        # a face with k vertices has dimension k - 1
        euler_faces = sum((-1) ** (k - 1) * len(level) for k, level in enumerate(faces))
        for h in (hq, h2):
            euler_hom = sum((-1) ** i * v for i, v in h.items())
            assert euler_hom == euler_faces
        assert all(v <= h2.get(i, 0) for i, v in hq.items())
