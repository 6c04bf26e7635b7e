import itertools
import random

import pytest

from defreg.monomial import (
    SquarefreeIdeal,
    ZeroIdeal,
    build_monomial_poset,
    minimal_primes,
)
from defreg.posets import RingContext
from oracle import cover_primes, leq
from primes import face, face_primes

RING4 = RingContext(("x", "y", "z", "w"))


def sorted_names(variables):
    """A variable set as its sorted names: the label order's key."""
    return tuple(sorted(variables))


def random_ideal(rng, ring):
    ngens = rng.randint(1, 5)
    gens = []
    for _ in range(ngens):
        size = rng.randint(1, min(3, ring.nvars))
        gens.append(rng.sample(ring.var_names, size))
    return SquarefreeIdeal.create(ring, gens)


def test_create_validates_input():
    with pytest.raises(ZeroIdeal):
        SquarefreeIdeal.create(RING4, [])
    with pytest.raises(ValueError):
        SquarefreeIdeal.create(RING4, [[]])
    with pytest.raises(ValueError):
        SquarefreeIdeal.create(RING4, [["x", "q"]])
    # create never builds it, but a direct construction can
    with pytest.raises(ZeroIdeal, match="no minimal primes"):
        minimal_primes(SquarefreeIdeal(RING4, ()))


def test_create_minimalizes_generators():
    ideal = SquarefreeIdeal.create(RING4, [["x", "y"], ["x"], ["x", "y"]])
    assert ideal.generators == (0b0001,)
    # masks in the label order: (height, names sorted as strings)
    ideal = SquarefreeIdeal.create(RING4, [["w", "x"], ["z"], ["y", "x"], ["w", "z"]])
    assert ideal.generators == (0b0100, 0b1001, 0b0011)


def test_minimal_primes_of_known_ideal():
    ideal = SquarefreeIdeal.create(RING4, [["x", "y"], ["x", "z"]])
    assert minimal_primes(ideal) == [0b0001, 0b0110]
    assert [sorted_names(p) for p in face_primes(RING4, minimal_primes(ideal))] == [
        ("x",), ("y", "z")
    ]


def test_minimal_primes_of_principal_ideal():
    ideal = SquarefreeIdeal.create(RING4, [["x", "y", "z"]])
    assert [sorted_names(p) for p in face_primes(RING4, minimal_primes(ideal))] == [
        ("x",), ("y",), ("z",)
    ]
    # names x1..x12 come in string order, so "x10" before "x2"
    ring = RingContext(tuple(f"x{i}" for i in range(1, 13)))
    ideal = SquarefreeIdeal.create(ring, [ring.var_names])
    order = ["x1", "x10", "x11", "x12"] + [f"x{i}" for i in range(2, 10)]
    assert [sorted_names(p) for p in face_primes(ring, minimal_primes(ideal))] == [
        (v,) for v in order
    ]
    assert minimal_primes(ideal) == [1 << ring.var_names.index(v) for v in order]


def test_minimal_primes_match_brute_force():
    rng = random.Random(424242)
    for _ in range(60):
        nvars = rng.randint(2, 6)
        ring = RingContext(tuple(f"v{i}" for i in range(nvars)))
        ideal = random_ideal(rng, ring)
        got = face_primes(ring, minimal_primes(ideal))
        assert got == cover_primes(ring, face_primes(ring, ideal.generators))


def test_poset_of_two_skew_lines():
    ideal = SquarefreeIdeal.create(
        RING4, [["x", "z"], ["x", "w"], ["y", "z"], ["y", "w"]]
    )
    poset = build_monomial_poset(ideal)
    assert poset.provenance == "monomial"
    assert poset.ring is RING4
    assert len(poset) == 3
    prime = {nd.id: sorted_names(face(RING4, nd.ideal)) for nd in poset.nodes}
    assert {prime["p_1"], prime["p_2"]} == {("x", "y"), ("w", "z")}
    assert prime["p_3"] == ("w", "x", "y", "z")
    assert [nd.dim for nd in poset.nodes] == [2, 2, 0]
    assert [nd.height for nd in poset.nodes] == [2, 2, 4]
    assert [poset.is_maximal(k) for k in range(len(poset))] == [True, True, False]
    assert leq(poset, "p_3", "p_1")
    assert leq(poset, "p_3", "p_2")


def test_poset_nodes_are_exactly_the_sums():
    rng = random.Random(9090)
    for _ in range(30):
        nvars = rng.randint(2, 6)
        ring = RingContext(tuple(f"v{i}" for i in range(nvars)))
        ideal = random_ideal(rng, ring)
        poset = build_monomial_poset(ideal)
        primes = face_primes(ring, minimal_primes(ideal))
        expected = set()
        for r in range(1, len(primes) + 1):
            for combo in itertools.combinations(primes, r):
                expected.add(frozenset().union(*combo))
        variables = {nd.id: face(ring, nd.ideal) for nd in poset.nodes}
        assert set(variables.values()) == expected
        # order agrees with reverse inclusion of the variable sets
        for a in poset.ids():
            for b in poset.ids():
                assert leq(poset, a, b) == (variables[a] >= variables[b])


def test_nodes_convert_to_their_face_primes():
    # a node keeps its variable mask, whose variables give the node's dim
    # and height, and the maximal nodes are exactly the minimal primes, in
    # order
    ideals = [
        SquarefreeIdeal.create(RING4, gens)
        for gens in (
            [["x", "z"], ["x", "w"], ["y", "z"], ["y", "w"]],
            [["x", "y"], ["x", "z"]],
            [["x", "y", "z"]],
        )
    ]
    rng = random.Random(9090)
    for _ in range(30):
        ring = RingContext(tuple(f"v{i}" for i in range(rng.randint(2, 6))))
        ideals.append(random_ideal(rng, ring))
    for ideal in ideals:
        ring = ideal.ring
        poset = build_monomial_poset(ideal)
        primes = face_primes(ring, [nd.ideal for nd in poset.nodes])
        for nd, p in zip(poset.nodes, primes):
            assert (nd.dim, nd.height) == (ring.nvars - len(p), len(p))
        generators = [
            nd.ideal for k, nd in enumerate(poset.nodes) if poset.is_maximal(k)
        ]
        assert generators == minimal_primes(ideal)

