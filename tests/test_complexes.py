import random

import pytest

from defreg.complexes import (
    FaceBudgetExceeded,
    SimplicialComplex,
    boundary_matrix,
    reduced_homology,
)
from defreg.exactfield import FieldSpec, rank

QQ = FieldSpec.rationals()
GF2 = FieldSpec.prime_field(2)

# a 6-vertex triangulation of the real projective plane, the standard
# example where homology depends on the field
RP2_FACETS = [
    (1, 2, 6), (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]


def test_closure_is_enforced():
    with pytest.raises(ValueError):
        SimplicialComplex([(1, 2)])
    ok = SimplicialComplex([(), (1,), (2,), (1, 2)])
    assert len(ok) == 4


def test_void_and_empty_are_distinct():
    void = SimplicialComplex()
    assert void.is_void
    assert void.dimension is None
    assert reduced_homology(void, QQ).dims == {}

    empty = SimplicialComplex([()])
    assert not empty.is_void
    assert empty.dimension == -1
    assert reduced_homology(empty, QQ).nonzero() == {-1: 1}


def test_from_faces_closes_downward():
    cx = SimplicialComplex.from_faces([(1, 2, 3)])
    assert len(cx) == 8
    assert cx.dimension == 2
    assert cx.n_faces(-1) == 1
    assert cx.n_faces(0) == 3
    assert cx.n_faces(1) == 3
    assert cx.vertices == (1, 2, 3)


def test_face_budget():
    with pytest.raises(FaceBudgetExceeded):
        SimplicialComplex.from_faces([tuple(range(10))], max_faces=100)


def test_boundary_matrix_shapes_and_composition():
    cx = SimplicialComplex.from_faces(RP2_FACETS)
    for i in range(1, 3):
        d_i = boundary_matrix(cx, i)
        d_prev = boundary_matrix(cx, i - 1)
        assert len(d_i) == cx.n_faces(i)
        assert all(0 <= r < cx.n_faces(i - 1) for col in d_i for r in col)
        assert all(len(col) == i + 1 for col in d_i)
        # boundary of boundary vanishes
        for col in d_i:
            image = {}
            for k, coeff in col.items():
                for r, v in d_prev[k].items():
                    image[r] = image.get(r, 0) + v * coeff
            assert all(x == 0 for x in image.values())
    with pytest.raises(ValueError):
        boundary_matrix(cx, -1)


def test_zeroth_boundary_targets_empty_face():
    cx = SimplicialComplex.from_faces([(1,), (2,)])
    d0 = boundary_matrix(cx, 0)
    assert d0 == [{0: 1}, {0: 1}]
    assert rank(d0, QQ) == 1


def test_point_is_acyclic():
    cx = SimplicialComplex.from_faces([(1,)])
    assert reduced_homology(cx, QQ).nonzero() == {}


def test_two_points():
    cx = SimplicialComplex.from_faces([(1,), (2,)])
    assert reduced_homology(cx, QQ).nonzero() == {0: 1}


def test_circle():
    cx = SimplicialComplex.from_faces([(1, 2), (2, 3), (1, 3)])
    assert reduced_homology(cx, QQ).nonzero() == {1: 1}


def test_two_sphere():
    cx = SimplicialComplex.from_faces(
        [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    )
    assert reduced_homology(cx, QQ).nonzero() == {2: 1}


def test_projective_plane_depends_on_field():
    cx = SimplicialComplex.from_faces(RP2_FACETS)
    assert reduced_homology(cx, QQ).nonzero() == {}
    assert reduced_homology(cx, GF2).nonzero() == {1: 1, 2: 1}
    assert reduced_homology(cx, FieldSpec.prime_field(3)).nonzero() == {}


def test_point_and_circle_over_every_field():
    # torsion-free homology in two degrees: Q is not read off GF(2) here
    cx = SimplicialComplex.from_faces([(0,), (1, 2), (2, 3), (1, 3)])
    for field in (QQ, GF2, FieldSpec.prime_field(3)):
        assert reduced_homology(cx, field).nonzero() == {0: 1, 1: 1}


def _component_count(cx):
    # union-find over the 1-skeleton
    parent = {v: v for v in cx.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in cx.faces_of_dim(1):
        a, b = find(e[0]), find(e[1])
        if a != b:
            parent[a] = b
    return len({find(v) for v in cx.vertices})


def test_random_complexes_homology_identities():
    rng = random.Random(1105)
    for _ in range(80):
        nverts = rng.randint(1, 9)
        nfacets = rng.randint(1, 6)
        facets = []
        for _ in range(nfacets):
            size = rng.randint(1, min(4, nverts))
            facets.append(tuple(rng.sample(range(1, nverts + 1), size)))
        cx = SimplicialComplex.from_faces(facets)
        hq = reduced_homology(cx, QQ)
        h2 = reduced_homology(cx, GF2)
        assert hq.dim(0) == _component_count(cx) - 1
        top = cx.dimension
        euler_faces = sum(
            (-1) ** i * cx.n_faces(i) for i in range(-1, top + 1)
        )
        for h in (hq, h2):
            euler_hom = sum((-1) ** i * v for i, v in h.dims.items())
            assert euler_hom == euler_faces
        for i in range(-1, top + 1):
            assert hq.dim(i) <= h2.dim(i)
