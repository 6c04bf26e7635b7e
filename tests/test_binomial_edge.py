import hashlib
import itertools
import json
import random

import pytest

from defreg.binomial_edge import (
    CliquePrime,
    Graph,
    build_Q_poset,
    minimal_primes_graph,
    ring_for,
)


def oracle_components(n, edges, removed):
    """Plain set-based BFS, independent of the bitmask code under test."""
    adj = {v: set() for v in range(1, n + 1) if v not in removed}
    for u, v in edges:
        if u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
    comps = []
    seen = set()
    for start in sorted(adj):
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def oracle_contains(p, q):
    """Whether ideal(p) contains ideal(q).

    A variable lies in p exactly when its vertex is killed, and the minor
    on vertices i, j lies in p exactly when i or j is killed or both share
    a block of p.
    """
    if not q.killed <= p.killed:
        return False
    return all(
        any(b - p.killed <= c for c in p.blocks)
        for b in q.blocks
        if len(b - p.killed) > 1
    )


def oracle_minimal_primes(n, edges, killed=frozenset()):
    """Oracle: minimal primes of the killed variables plus the graph's ideal.

    These are the inclusion-minimal ideals among the vertex-set primes
    over every superset of killed.
    """
    rest = [v for v in range(1, n + 1) if v not in killed]
    every = []
    for r in range(len(rest) + 1):
        for t in itertools.combinations(rest, r):
            gone = killed | frozenset(t)
            every.append(CliquePrime(n, gone, oracle_components(n, edges, gone)))
    kept = [
        p
        for p in every
        if not any(q is not p and oracle_contains(p, q) for q in every)
    ]
    return sorted(kept, key=lambda p: (p.height, p.key()))


def oracle_sum_primes(a, b):
    """Minimal primes of a + b: the overlay of all blocks over the joint kills."""
    killed = a.killed | b.killed
    edges = {
        (u, v)
        for blk in a.blocks + b.blocks
        for u in blk - killed
        for v in blk - killed
        if u < v
    }
    return oracle_minimal_primes(a.n, edges, killed)


def random_graph(rng, n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = [e for e in pairs if rng.random() < 0.45]
    return Graph.from_edges(n, edges)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 4)}))
    with pytest.raises(ValueError):
        Graph(0, frozenset())
    g = Graph.from_edges(3, [(2, 1), (1, 2), (2, 3)])
    assert g.edges == frozenset({(1, 2), (2, 3)})


def test_named_graphs():
    assert Graph.path(4).edges == frozenset({(1, 2), (2, 3), (3, 4)})
    k22 = Graph.complete_bipartite(2, 2)
    assert k22.n == 4
    assert k22.edges == frozenset({(1, 3), (1, 4), (2, 3), (2, 4)})


def test_ring_for_doubles_the_vertices():
    ring = ring_for(Graph.path(3))
    assert ring.nvars == 6
    assert ring.var_names[:3] == ("x_1", "x_2", "x_3")
    assert ring.var_names[3:] == ("y_1", "y_2", "y_3")


def test_clique_prime_data():
    p = CliquePrime(5, frozenset({2}), (frozenset({1}), frozenset({3, 4, 5})))
    assert p.height == 2 * 1 + 0 + 2
    assert p.dim == 4 + 2
    assert p.height + p.dim == 10
    assert p.key() == ((2,), ((1,), (3, 4, 5)))
    with pytest.raises(ValueError):
        CliquePrime(3, frozenset(), (frozenset({1, 2}),))
    with pytest.raises(ValueError):
        CliquePrime(3, frozenset(), (frozenset({1, 2}), frozenset({2, 3})))


def test_minimal_primes_of_complete_graph():
    g = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    got = minimal_primes_graph(g)
    assert len(got) == 1
    assert got[0] == CliquePrime(3, frozenset(), (frozenset({1, 2, 3}),))


def test_minimal_primes_of_short_path():
    got = minimal_primes_graph(Graph.path(3))
    keys = [p.key() for p in got]
    assert keys == [
        ((), ((1, 2, 3),)),
        ((2,), ((1,), (3,))),
    ]
    assert all(p.height == 2 for p in got)


def test_minimal_primes_match_oracle():
    rng = random.Random(550)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6))
        assert minimal_primes_graph(g) == oracle_minimal_primes(g.n, g.edges)


def test_contains_rules():
    # the order of the closure is containment of the node ideals
    for g in (Graph.path(3), Graph.path(5), Graph.complete_bipartite(2, 3)):
        poset = build_Q_poset(g)
        for a in poset.nodes:
            for b in poset.nodes:
                assert poset.leq(a.id, b.id) == oracle_contains(a.ideal, b.ideal)
    poset = build_Q_poset(Graph.path(3))
    assert not poset.leq("p_1", "p_2")
    assert not poset.leq("p_2", "p_1")
    assert poset.leq("p_3", "p_1")
    assert poset.leq("p_3", "p_2")


def test_sum_and_primality_on_short_path():
    # P_empty + P_{2} kills 2 and overlays {1, 3}: a prime, added as is
    p_empty, p_cut = minimal_primes_graph(Graph.path(3))
    merged = CliquePrime(3, frozenset({2}), (frozenset({1, 3}),))
    assert oracle_sum_primes(p_empty, p_cut) == [merged]
    poset = build_Q_poset(Graph.path(3))
    assert [nd.ideal for nd in poset.nodes] == [p_empty, p_cut, merged]


def test_decomposition_of_a_nonprime_sum():
    # P_{2} + P_{4} on the 5-path overlays {1, 3} and {3, 5}, which is not
    # a union of disjoint cliques; its two minimal primes are exactly the
    # maximal elements below both summands
    poset = build_Q_poset(Graph.path(5))
    by_key = {nd.ideal.key(): nd.id for nd in poset.nodes}
    p2 = by_key[((2,), ((1,), (3, 4, 5)))]
    p4 = by_key[((4,), ((1, 2, 3), (5,)))]
    below = [x for x in poset.ids() if poset.leq(x, p2) and poset.leq(x, p4)]
    top = [x for x in below if not any(y != x and poset.leq(x, y) for y in below)]
    pieces = sorted(
        (poset.node(x).ideal for x in top), key=lambda p: (p.height, p.key())
    )
    assert [p.key() for p in pieces] == [
        ((2, 3, 4), ((1,), (5,))),
        ((2, 4), ((1, 3, 5),)),
    ]
    assert pieces == oracle_sum_primes(poset.node(p2).ideal, poset.node(p4).ideal)


def test_poset_of_short_path():
    poset = build_Q_poset(Graph.path(3))
    assert poset.provenance == "binomial-edge"
    assert poset.ring.nvars == 6
    assert len(poset) == 3
    assert [nd.dim for nd in poset.nodes] == [4, 4, 3]
    assert [nd.height for nd in poset.nodes] == [2, 2, 3]
    assert poset.maximal_ids() == ("p_1", "p_2")
    assert poset.hasse() == [("p_3", "p_1"), ("p_3", "p_2")]


def test_poset_heights_drop_strictly_upward():
    rng = random.Random(88)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 5))
        poset = build_Q_poset(g)
        for a in poset.ids():
            for b in poset.ids():
                if a != b and poset.leq(a, b):
                    assert poset.node(a).height > poset.node(b).height


def test_poset_is_closed_under_sums():
    rng = random.Random(1234)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 5))
        ideals = [nd.ideal for nd in build_Q_poset(g).nodes]
        for i, a in enumerate(ideals):
            for b in ideals[i + 1:]:
                for piece in oracle_sum_primes(a, b):
                    assert piece in ideals


def cycle_graph(n):
    return Graph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])


def poset_digest(poset):
    """sha256 of every (id, CliquePrime.key(), up-mask), in label order."""
    pos = {x: k for k, x in enumerate(poset.ids())}
    rows = []
    for k, nd in enumerate(poset.nodes):
        up = 1 << k
        for x in poset.strictly_above(nd.id):
            up |= 1 << pos[x]
        rows.append([nd.id, nd.ideal.key(), up])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("graph, size, digest", [
    (Graph.path(8), 239,
     "5dcd0d36415c90449600ff8237d05cfda6fefba7ae85f492b5c244c328001533"),
    (cycle_graph(7), 233,
     "ed02a399b0cf519f250fbedc38f23151ccea64ba9c2af85c60be74332469152b"),
    (Graph.complete_bipartite(4, 4), 6,
     "849c2fe0ba018af9b5107b60893ab1d642679f274cd64cdc36ac9a3f05b700ef"),
], ids=["path8", "cycle7", "K44"])
def test_pinned_labels_and_order(graph, size, digest):
    # pinned from the block-tuple closure; past the reach of the reference
    # closure in test_closure_reference.py
    poset = build_Q_poset(graph)
    assert len(poset) == size
    assert poset_digest(poset) == digest


def test_isolated_vertices_past_64_bits():
    # 65 isolated vertices stay singleton blocks of every prime: the
    # packed relations span 70 * 71 bits, and nothing else changes
    small = build_Q_poset(Graph.path(5))
    wide = build_Q_poset(Graph.from_edges(70, Graph.path(5).edges))
    assert wide.ids() == small.ids()
    pad = tuple((v,) for v in range(6, 71))
    for a, b in zip(small.nodes, wide.nodes):
        assert b.height == a.height
        assert b.ideal.key() == (a.ideal.key()[0], a.ideal.key()[1] + pad)
    for x in small.ids():
        for y in small.ids():
            assert wide.leq(x, y) == small.leq(x, y)
