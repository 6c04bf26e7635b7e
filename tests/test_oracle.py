"""The two graph-prime references of oracle.py agree with each other.

cut_set_primes reads the primes off the cut sets and
graph_primes_by_enumeration keeps the minimal prime over every kill set,
so each checks the other, disconnected graphs and base kill sets
included.
"""

import itertools
import random

from oracle import cut_set_primes, graph_primes_by_enumeration


def assert_references_agree(n, edges, killed=frozenset()):
    rest = frozenset(range(1, n + 1)) - killed
    assert cut_set_primes(killed, rest, edges) == graph_primes_by_enumeration(
        n, edges, killed
    )


def test_references_agree_on_every_graph_on_at_most_five_vertices():
    cases = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for picks in itertools.product((False, True), repeat=len(pairs)):
            assert_references_agree(n, [e for e, take in zip(pairs, picks) if take])
            cases += 1
    assert cases == 1099


def test_references_agree_under_random_base_kill_sets():
    rng = random.Random(2525)
    for _ in range(40):
        n = rng.randint(6, 7)
        pairs = itertools.combinations(range(1, n + 1), 2)
        edges = [e for e in pairs if rng.random() < 0.4]
        killed = frozenset(v for v in range(1, n + 1) if rng.random() < 0.25)
        assert_references_agree(n, edges, killed)
