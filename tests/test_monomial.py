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


def brute_force_primes(ideal):
    """Oracle: inclusion-minimal variable sets meeting every generator."""
    names = ideal.ring.var_names
    hitting = []
    for r in range(len(names) + 1):
        for combo in itertools.combinations(names, r):
            s = frozenset(combo)
            if all(s & g for g in ideal.generators):
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
    assert ideal.generators == (frozenset({"x"}),)


def test_face_prime_data():
    fp = FacePrime(frozenset({"x", "z"}))
    assert fp.key() == ("x", "z")
    assert fp.height == 2
    assert fp.dim_in(RING4) == 2


def test_minimal_primes_of_known_ideal():
    ideal = SquarefreeIdeal.create(RING4, [["x", "y"], ["x", "z"]])
    assert [p.key() for p in minimal_primes(ideal)] == [("x",), ("y", "z")]


def test_minimal_primes_of_principal_ideal():
    ideal = SquarefreeIdeal.create(RING4, [["x", "y", "z"]])
    assert [p.key() for p in minimal_primes(ideal)] == [
        ("x",), ("y",), ("z",)
    ]


def test_minimal_primes_match_brute_force():
    rng = random.Random(424242)
    for _ in range(60):
        nvars = rng.randint(2, 6)
        ring = RingContext(tuple(f"v{i}" for i in range(nvars)))
        ideal = random_ideal(rng, ring)
        got = [p.variables for p in minimal_primes(ideal)]
        assert got == brute_force_primes(ideal)


def test_poset_of_two_skew_lines():
    ideal = SquarefreeIdeal.create(
        RING4, [["x", "z"], ["x", "w"], ["y", "z"], ["y", "w"]]
    )
    poset = build_monomial_poset(ideal)
    assert poset.provenance == "monomial"
    assert poset.ring is RING4
    assert len(poset) == 3
    by_id = {nd.id: nd for nd in poset.nodes}
    assert {by_id["p_1"].ideal.key(), by_id["p_2"].ideal.key()} == {
        ("x", "y"), ("w", "z")
    }
    assert by_id["p_3"].ideal.key() == ("w", "x", "y", "z")
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
        primes = [frozenset(p.variables) for p in minimal_primes(ideal)]
        expected = set()
        for r in range(1, len(primes) + 1):
            for combo in itertools.combinations(primes, r):
                expected.add(frozenset().union(*combo))
        got = {nd.ideal.variables for nd in poset.nodes}
        assert got == expected
        # order agrees with reverse inclusion of the variable sets
        for a in poset.nodes:
            for b in poset.nodes:
                assert leq(poset, a.id, b.id) == (
                    a.ideal.variables >= b.ideal.variables
                )
