"""The mask-native sum closure against an object-level reference.

The reference below is the all-pairs closure written on frozensets: sums
are built as clique overlays, tested for primality, converted or
decomposed, and the order is a separate containment test over all pairs.
It shares no code with the package beyond the inputs, and the closure
under test must reproduce its labels, node order, ideals and order
relation exactly.
"""

import itertools
import random
from collections import deque

from defreg.binomial_edge import CliquePrime, Graph, build_Q_poset
from defreg.monomial import (
    FacePrime,
    SquarefreeIdeal,
    build_monomial_poset,
    minimal_primes,
)
from defreg.posets import RingContext


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


# --- binomial edge primes as (n, killed, blocks) over frozensets ----------


def _canonical(blocks):
    return tuple(sorted(set(blocks), key=lambda b: tuple(sorted(b))))


def _key(p):
    _, killed, blocks = p
    return tuple(sorted(killed)), tuple(tuple(sorted(b)) for b in blocks)


def _height(p):
    _, killed, blocks = p
    return 2 * len(killed) + sum(len(b) - 1 for b in blocks)


def _components(vertices, edges):
    adj = {v: set() for v in vertices}
    for u, v in edges:
        if u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
    comps, seen = [], set()
    for start in sorted(adj):
        if start in seen:
            continue
        comp, queue = {start}, [start]
        while queue:
            for y in adj[queue.pop()]:
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def _cut_set_primes(n, base_killed, vertices, edges):
    """Primes of the cut sets T of (vertices, edges), sorted by (height, key)."""
    found = []
    for r in range(len(vertices) + 1):
        for t in itertools.combinations(sorted(vertices), r):
            rest = set(vertices) - set(t)
            base = len(_components(rest, edges))
            if all(len(_components(rest | {v}, edges)) < base for v in t):
                killed = frozenset(base_killed) | frozenset(t)
                found.append((n, killed, _canonical(_components(rest, edges))))
    return sorted(found, key=lambda p: (_height(p), _key(p)))


def _overlay_edges(cliques):
    return {(u, v) for c in cliques for u in c for v in c if u < v}


def _sum(a, b):
    n, ka, ba = a
    _, kb, bb = b
    killed = ka | kb
    cliques = {c - killed for c in ba + bb} - {frozenset()}
    maximal = [c for c in cliques if not any(c < d for d in cliques)]
    return n, killed, _canonical(maximal)


def _rest(s):
    n, killed, _ = s
    return set(range(1, n + 1)) - killed


def _is_prime(s):
    edges = _overlay_edges(s[2])
    return all(
        (u, v) in edges
        for comp in _components(_rest(s), edges)
        for u in comp
        for v in comp
        if u < v
    )


def _as_prime(s):
    n, killed, cliques = s
    return n, killed, _canonical(_components(_rest(s), _overlay_edges(cliques)))


def _decompose(s):
    n, killed, cliques = s
    return _cut_set_primes(n, killed, _rest(s), _overlay_edges(cliques))


def _contains(a, b):
    _, ka, ba = a
    _, kb, bb = b
    if not kb <= ka:
        return False
    return all(
        any(blk - ka <= c for c in ba) for blk in bb if len(blk - ka) > 1
    )


def reference_graph_closure(graph):
    gens = _cut_set_primes(graph.n, (), set(range(1, graph.n + 1)), graph.edges)
    return reference_closure(
        gens,
        sum_op=_sum,
        contains_op=_contains,
        canonical_key=_key,
        generator_key=lambda p: (_height(p), _key(p)),
        is_prime_op=_is_prime,
        to_prime_op=_as_prime,
        decompose_op=_decompose,
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
    assert_same_poset(
        poset, [_key(p) for p in reps], leq,
        lambda rep: CliquePrime.from_relation(n, rep).key(),
    )
    for nd, p in zip(poset.nodes, reps):
        assert CliquePrime.from_relation(n, nd.ideal).n == n
        assert nd.height == _height(p)


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


def test_random_monomial_ideals_over_twelve_variables():
    # names x1..x12: string order ("x10" < "x2") differs from index order
    ring = RingContext(tuple(f"x{i}" for i in range(1, 13)))
    rng = random.Random(77)
    for _ in range(25):
        gens = [
            rng.sample(ring.var_names, rng.randint(2, 3))
            for _ in range(rng.randint(3, 6))
        ]
        ideal = SquarefreeIdeal.create(ring, gens)
        reps, leq = reference_closure(
            [fp.variables for fp in minimal_primes(ideal)],
            sum_op=frozenset.union,
            contains_op=frozenset.__ge__,
            canonical_key=lambda s: tuple(sorted(s)),
            generator_key=lambda s: (len(s), tuple(sorted(s))),
        )
        poset = build_monomial_poset(ideal)
        assert_same_poset(
            poset, reps, leq, lambda mask: FacePrime.from_mask(ring, mask).variables
        )
        for nd in poset.nodes:
            assert nd.height == len(FacePrime.from_mask(ring, nd.ideal).variables)
            assert nd.dim == ring.nvars - nd.height
