"""The mask-native sum closure against an object-level reference.

The reference below is the all-pairs closure written on frozensets: sums
are built as clique overlays, tested for primality, converted or
decomposed through the set references of oracle.py, and the order is a
separate containment test over all pairs.  It shares no code with the
package beyond the inputs, and the closure under test must reproduce
its labels, node order, ideals and order relation exactly.
"""

import itertools
import random
from collections import deque

import pytest

from defreg.binomial_edge import Graph, build_Q_poset
from defreg.monomial import (
    SquarefreeIdeal,
    build_monomial_poset,
    minimal_primes,
)
from defreg.posets import ClosureBudgetExceeded, RingContext
from oracle import components, contains, cut_set_primes, cycle_edges, prime_key
from primes import clique, face, label_key


def reference_closure(
    generators,
    *,
    sum_op,
    contains_op,
    canonical_key,
    generator_key,
    is_prime_op=None,
    to_prime_op=None,
    decompose_op=None,
):
    """Reps in label order and the set of (i, j) with rep i <= rep j."""
    reps, index, pending, seen_sums = [], {}, deque(), set()

    def insert(rep):
        key = canonical_key(rep)
        if key in index:
            return
        index[key] = len(reps)
        reps.append(rep)
        pending.extend((other, len(reps) - 1) for other in range(len(reps) - 1))

    for g in sorted(generators, key=generator_key):
        insert(g)
        while pending:
            i, j = pending.popleft()
            s = sum_op(reps[i], reps[j])
            if s in seen_sums:
                continue
            seen_sums.add(s)
            if is_prime_op is None or is_prime_op(s):
                insert(to_prime_op(s) if to_prime_op else s)
            else:
                for piece in decompose_op(s):
                    insert(piece)
    n = len(reps)
    leq = {(i, j) for i in range(n) for j in range(n) if contains_op(reps[i], reps[j])}
    return reps, leq


# --- binomial edge primes as (killed, blocks) over frozensets -------------


def _canonical(blocks):
    return tuple(sorted(set(blocks), key=lambda b: tuple(sorted(b))))


def _overlay_edges(cliques):
    return {(u, v) for c in cliques for u in c for v in c if u < v}


def _sum(a, b):
    ka, ba = a
    kb, bb = b
    killed = ka | kb
    cliques = {c - killed for c in ba + bb} - {frozenset()}
    maximal = [c for c in cliques if not any(c < d for d in cliques)]
    return killed, _canonical(maximal)


def reference_graph_closure(graph):
    every = frozenset(range(1, graph.n + 1))

    def is_prime(s):
        killed, cliques = s
        edges = _overlay_edges(cliques)
        return all(
            (u, v) in edges
            for comp in components(every - killed, edges)
            for u in comp
            for v in comp
            if u < v
        )

    def as_prime(s):
        killed, cliques = s
        return killed, components(every - killed, _overlay_edges(cliques))

    def decompose(s):
        killed, cliques = s
        return cut_set_primes(killed, every - killed, _overlay_edges(cliques))

    return reference_closure(
        cut_set_primes(frozenset(), every, graph.edges),
        sum_op=_sum,
        contains_op=contains,
        canonical_key=prime_key,
        generator_key=prime_key,
        is_prime_op=is_prime,
        to_prime_op=as_prime,
        decompose_op=decompose,
    )


def assert_same_poset(poset, reps, leq, key_of):
    ids = tuple(f"p_{k + 1}" for k in range(len(reps)))
    assert poset.ids() == ids
    assert [key_of(nd.ideal) for nd in poset.nodes] == list(reps)
    got = {
        (i, j) for i, up in enumerate(poset.up) for j in range(len(ids)) if up >> j & 1
    }
    assert got == leq


def _check_graph(graph):
    reps, leq = reference_graph_closure(graph)
    poset = build_Q_poset(graph)
    n = graph.n
    keys = [prime_key(p) for p in reps]
    assert_same_poset(
        poset, [key[1:] for key in keys], leq,
        lambda rep: label_key(*clique(n, rep)),
    )
    for nd, key in zip(poset.nodes, keys):
        assert nd.height == key[0]


def test_every_graph_on_at_most_four_vertices():
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for r in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, r):
                _check_graph(Graph.from_edges(n, edges))


def test_random_graphs_on_five_to_seven_vertices():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randint(5, 7)
        pairs = itertools.combinations(range(1, n + 1), 2)
        _check_graph(Graph.from_edges(n, [e for e in pairs if rng.random() < 0.4]))


def reference_monomial_closure(ideal):
    return reference_closure(
        [face(ideal.ring, m) for m in minimal_primes(ideal)],
        sum_op=frozenset.union,
        contains_op=frozenset.__ge__,
        canonical_key=lambda s: tuple(sorted(s)),
        generator_key=lambda s: (len(s), tuple(sorted(s))),
    )


def random_ideal(rng, ring):
    gens = [
        rng.sample(ring.var_names, rng.randint(2, 3))
        for _ in range(rng.randint(3, 6))
    ]
    return SquarefreeIdeal.create(ring, gens)


def disjoint_edges(k):
    """x0*x1, ..., x(2k-2)*x(2k-1): 2^k minimal primes, 3^k sums."""
    ring = RingContext(tuple(f"x{i}" for i in range(2 * k)))
    return SquarefreeIdeal.create(
        ring, [[f"x{2 * i}", f"x{2 * i + 1}"] for i in range(k)]
    )


def two_blocks(rng, nvars):
    """Seeded quadrics on two disjoint, interleaved sets of x1..x{nvars}.

    Each set has at least three of the nvars >= 6 variables and carries
    two to five generators.
    """
    names = [f"x{i}" for i in range(1, nvars + 1)]
    rng.shuffle(names)
    split = rng.randint(3, nvars - 3)
    return [
        [rng.sample(block, 2) for _ in range(rng.randint(2, 5))]
        for block in (names[:split], names[split:])
    ]


def _check_monomial(ideal):
    ring = ideal.ring
    reps, leq = reference_monomial_closure(ideal)
    poset = build_monomial_poset(ideal)
    assert_same_poset(poset, reps, leq, lambda mask: face(ring, mask))
    for nd in poset.nodes:
        assert nd.height == len(face(ring, nd.ideal))
        assert nd.dim == ring.nvars - nd.height


def test_random_monomial_ideals_over_twelve_variables():
    # names x1..x12: string order ("x10" < "x2") differs from index order
    ring = RingContext(tuple(f"x{i}" for i in range(1, 13)))
    rng = random.Random(77)
    for _ in range(25):
        _check_monomial(random_ideal(rng, ring))


# the closure hands over sums on a minimal prime's turn only; on these
# inputs most turns are of other elements


def test_disjoint_edges():
    for k in (4, 5):
        _check_monomial(disjoint_edges(k))


def test_two_block_ideals():
    rng = random.Random(12)
    for _ in range(30):
        nvars = rng.randint(6, 10)
        ring = RingContext(tuple(f"x{i}" for i in range(1, nvars + 1)))
        a, b = two_blocks(rng, nvars)
        _check_monomial(SquarefreeIdeal.create(ring, a + b))


def test_ideals_with_twenty_or_more_minimal_primes():
    ring = RingContext(tuple(f"x{i}" for i in range(1, 11)))
    rng = random.Random(20)
    checked = 0
    while checked < 8:
        gens = [rng.sample(ring.var_names, rng.randint(2, 3))
                for _ in range(rng.randint(6, 10))]
        ideal = SquarefreeIdeal.create(ring, gens)
        if len(minimal_primes(ideal)) >= 20:
            _check_monomial(ideal)
            checked += 1


def assert_budget_trips_past_reference(build, size):
    """build(max_elements=k) raises exactly when the closure has more than k."""
    for k in range(1, size + 1):
        if k < size:
            with pytest.raises(ClosureBudgetExceeded):
                build(max_elements=k)
        else:
            assert len(build(max_elements=k)) == size


def budget_graphs():
    graphs = {
        "path6": Graph.path(6),
        "cycle6": Graph.from_edges(6, cycle_edges(6)),
    }
    rng = random.Random(38)
    for k in range(4):
        n = rng.randint(5, 6)
        pairs = itertools.combinations(range(1, n + 1), 2)
        edges = [e for e in pairs if rng.random() < 0.5]
        graphs[f"seeded{k}"] = Graph.from_edges(n, edges)
    return graphs


BUDGET_GRAPHS = budget_graphs()


@pytest.mark.parametrize("name", BUDGET_GRAPHS)
def test_graph_budget_trips_past_the_reference_size(name):
    graph = BUDGET_GRAPHS[name]
    reps, _ = reference_graph_closure(graph)
    assert_budget_trips_past_reference(
        lambda **kw: build_Q_poset(graph, **kw), len(reps)
    )


def test_monomial_budget_trips_past_the_reference_size():
    ring = RingContext(tuple(f"x{i}" for i in range(1, 9)))
    rng = random.Random(32)
    # 4 disjoint edges: 81 elements from 16 minimal primes
    for ideal in [random_ideal(rng, ring) for _ in range(4)] + [disjoint_edges(4)]:
        reps, _ = reference_monomial_closure(ideal)
        assert_budget_trips_past_reference(
            lambda **kw: build_monomial_poset(ideal, **kw), len(reps)
        )
