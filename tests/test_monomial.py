import itertools
import random

import pytest

from defreg.monomial import (
    FacePrime,
    SquarefreeIdeal,
    ZeroIdeal,
    build_monomial_poset,
    minimal_primes,
)
from defreg.posets import RingContext
from oracle import leq

RING4 = RingContext(("x", "y", "z", "w"))


def face_primes(ring, masks):
    """The records of variable masks, as FacePrime.from_mask reads them."""
    return [FacePrime.from_mask(ring, m) for m in masks]


def brute_force_primes(ideal):
    """Oracle: inclusion-minimal variable sets meeting every generator."""
    names = ideal.ring.var_names
    gens = [p.variables for p in face_primes(ideal.ring, ideal.generators)]
    hitting = []
    for r in range(len(names) + 1):
        for combo in itertools.combinations(names, r):
            s = frozenset(combo)
            if all(s & g for g in gens):
                hitting.append(s)
    minimal = [
        s for s in hitting if not any(t < s for t in hitting)
    ]
    return sorted(minimal, key=lambda s: (len(s), tuple(sorted(s))))


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


def test_create_minimalizes_generators():
    ideal = SquarefreeIdeal.create(RING4, [["x", "y"], ["x"], ["x", "y"]])
    assert ideal.generators == (0b0001,)
    # masks in the label order: (height, names sorted as strings)
    ideal = SquarefreeIdeal.create(RING4, [["w", "x"], ["z"], ["y", "x"], ["w", "z"]])
    assert ideal.generators == (0b0100, 0b1001, 0b0011)


def test_face_prime_data():
    fp = FacePrime(frozenset({"x", "z"}))
    assert fp.key() == ("x", "z")
    assert fp.height == 2
    assert fp.dim_in(RING4) == 2


def test_minimal_primes_of_known_ideal():
    ideal = SquarefreeIdeal.create(RING4, [["x", "y"], ["x", "z"]])
    assert minimal_primes(ideal) == [0b0001, 0b0110]
    assert [p.key() for p in face_primes(RING4, minimal_primes(ideal))] == [
        ("x",), ("y", "z")
    ]


def test_minimal_primes_of_principal_ideal():
    ideal = SquarefreeIdeal.create(RING4, [["x", "y", "z"]])
    assert [p.key() for p in face_primes(RING4, minimal_primes(ideal))] == [
        ("x",), ("y",), ("z",)
    ]
    # names x1..x12 come in string order, so "x10" before "x2"
    ring = RingContext(tuple(f"x{i}" for i in range(1, 13)))
    ideal = SquarefreeIdeal.create(ring, [ring.var_names])
    names = ["x1", "x10", "x11", "x12"] + [f"x{i}" for i in range(2, 10)]
    assert [p.key() for p in face_primes(ring, minimal_primes(ideal))] == [
        (v,) for v in names
    ]
    assert minimal_primes(ideal) == [1 << ring.var_names.index(v) for v in names]


def test_minimal_primes_match_brute_force():
    rng = random.Random(424242)
    for _ in range(60):
        nvars = rng.randint(2, 6)
        ring = RingContext(tuple(f"v{i}" for i in range(nvars)))
        ideal = random_ideal(rng, ring)
        got = [p.variables for p in face_primes(ring, minimal_primes(ideal))]
        assert got == brute_force_primes(ideal)


def test_poset_of_two_skew_lines():
    ideal = SquarefreeIdeal.create(
        RING4, [["x", "z"], ["x", "w"], ["y", "z"], ["y", "w"]]
    )
    poset = build_monomial_poset(ideal)
    assert poset.provenance == "monomial"
    assert poset.ring is RING4
    assert len(poset) == 3
    prime = {nd.id: FacePrime.from_mask(RING4, nd.ideal) for nd in poset.nodes}
    assert {prime["p_1"].key(), prime["p_2"].key()} == {
        ("x", "y"), ("w", "z")
    }
    assert prime["p_3"].key() == ("w", "x", "y", "z")
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
        primes = [p.variables for p in face_primes(ring, minimal_primes(ideal))]
        expected = set()
        for r in range(1, len(primes) + 1):
            for combo in itertools.combinations(primes, r):
                expected.add(frozenset().union(*combo))
        variables = {
            nd.id: FacePrime.from_mask(ring, nd.ideal).variables
            for nd in poset.nodes
        }
        assert set(variables.values()) == expected
        # order agrees with reverse inclusion of the variable sets
        for a in poset.ids():
            for b in poset.ids():
                assert leq(poset, a, b) == (variables[a] >= variables[b])


def test_nodes_convert_to_their_face_primes():
    # a node keeps its variable mask; from_mask gives the record, with the
    # node's dim and height, and the maximal nodes are exactly the minimal
    # primes, in order
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
            assert (nd.dim, nd.height) == (p.dim_in(ring), p.height)
        generators = [
            nd.ideal for k, nd in enumerate(poset.nodes) if poset.is_maximal(k)
        ]
        assert generators == minimal_primes(ideal)


def test_from_mask_reads_bits_in_ring_order():
    assert FacePrime.from_mask(RING4, 0b1010) == FacePrime(frozenset({"y", "w"}))
    assert FacePrime.from_mask(RING4, 0) == FacePrime(frozenset())
    for mask in (-1, 1 << 4):
        with pytest.raises(ValueError, match="outside the ring"):
            FacePrime.from_mask(RING4, mask)
