"""A disjoint union of graphs gives the product of their posets.

The binomial edge ideal of G ⊔ H, H's vertices shifted past G's, is the
sum of the ideals of G and H in disjoint variables.  So its primes are
the sums a + b of a prime of each, a sum of two of them is (a + c) + (b
+ d), and the poset of G ⊔ H is P_G × P_H, ordered pair by pair: each of
its |P_G|·|P_H| elements restricts to an element of each side.  In a
product the interval above (a, b) is the join of the interval above a
with the one above b (Quillen, Homotopy properties of the poset of
nontrivial p-subgroups of a group, 1978, Prop. 1.9), so over a field

    mult((a, b), d) = Σ_{i + j = d - 1} mult_G(a, i) · mult_H(b, j),

where the empty interval above a maximal element counts as {-1: 1}, as
homology reports it.  The formula is checked over Q, GF(2) and GF(3).
"""

import itertools
import random
from collections import Counter

from defreg.binomial_edge import Graph, build_Q_poset
from golden import connected_graphs
from oracle import components, cycle_edges
from primes import clique

RAISED = 10**9

# every connected graph on 2-4 vertices, one per isomorphism class
SMALL = [Graph.from_edges(n, edges) for n, edges in connected_graphs(4) if n > 1]


def union(g, h):
    """G ⊔ H on g.n + h.n vertices, H's vertices shifted by g.n."""
    shifted = [(u + g.n, v + g.n) for u, v in h.edges]
    return Graph.from_edges(g.n + h.n, [*g.edges, *shifted])


def seeded_connected(rng, n):
    while True:
        pairs = itertools.combinations(range(1, n + 1), 2)
        edges = [e for e in pairs if rng.random() < 0.4]
        if len(components(range(1, n + 1), edges)) == 1:
            return Graph.from_edges(n, edges)


def join_dims(x, y):
    """Σ_{i + j = d - 1} x_i · y_j in each degree d, without the zeros."""
    out = Counter()
    for i, u in x.items():
        for j, v in y.items():
            out[i + j + 1] += u * v
    return {d: v for d, v in out.items() if v}


def restrict(prime, shift, n):
    """(kill, blocks sorted by mask) of a prime on the n vertices after shift."""
    kill, blocks = prime
    side = (1 << n) - 1
    return kill >> shift & side, tuple(sorted(
        b >> shift & side for b in blocks if b >> shift & side
    ))


def assert_union_is_the_product(g, h):
    pg, ph, pu = (build_Q_poset(x) for x in (g, h, union(g, h)))
    n = g.n + h.n
    assert len(pu) == len(pg) * len(ph)
    index_g = {clique(g.n, nd.ideal): a for a, nd in enumerate(pg.nodes)}
    index_h = {clique(h.n, nd.ideal): b for b, nd in enumerate(ph.nodes)}
    pairs = []
    for nd in pu.nodes:
        prime = clique(n, nd.ideal)
        # no block crosses the sides
        assert all(b >> g.n == 0 or b & (1 << g.n) - 1 == 0 for b in prime[1])
        a = index_g[restrict(prime, 0, g.n)]
        b = index_h[restrict(prime, g.n, h.n)]
        pairs.append((a, b))
        assert nd.dim == pg.nodes[a].dim + ph.nodes[b].dim
        assert nd.height == pg.nodes[a].height + ph.nodes[b].height
    position = {pair: k for k, pair in enumerate(pairs)}
    assert len(position) == len(pu)
    for k, (a, b) in enumerate(pairs):
        above = [(c, d) for c in range(len(pg)) for d in range(len(ph))
                 if pg.up[a] >> c & 1 and ph.up[b] >> d & 1]
        assert pu.up[k] == sum(1 << position[pair] for pair in above)
    dims = {}
    for p in (0, 2, 3):
        dg, dh, du = (x.homology(p, max_faces=RAISED) for x in (pg, ph, pu))
        for k, (a, b) in enumerate(pairs):
            assert du[k] == join_dims(dg[a], dh[b]), (p, k)
        dims[p] = du
    # over Q no degree exceeds GF(2) or GF(3), and the Euler
    # characteristics agree
    for p in (2, 3):
        for q, gf in zip(dims[0], dims[p]):
            assert all(v <= gf.get(d, 0) for d, v in q.items()), p
            assert sum((-1) ** d * v for d, v in q.items()) == sum(
                (-1) ** d * v for d, v in gf.items()
            ), p
    return len(pu)


def test_unions_of_small_connected_graphs():
    sizes = [
        assert_union_is_the_product(g, h)
        for g, h in itertools.combinations_with_replacement(SMALL, 2)
    ]
    assert len(sizes) == 45
    assert max(sizes) == 49


def test_unions_with_five_vertex_graphs():
    rng = random.Random(5)
    path5, cycle5 = Graph.path(5), Graph.from_edges(5, cycle_edges(5))
    five = [path5, cycle5] + [seeded_connected(rng, 5) for _ in range(4)]
    path4, cycle4 = SMALL[4], SMALL[6]
    pairs = [(Graph.path(2), path5), (path5, path5)]
    pairs += [(g, h) for g in five for h in (path4, cycle4)]
    pairs += itertools.combinations(five, 2)
    sizes = [assert_union_is_the_product(g, h) for g, h in pairs]
    assert max(sizes) == 17 * 27
