import hashlib
import inspect
import itertools
import json
import pathlib
import random

import pytest

from defreg.binomial_edge import (
    Graph,
    _admissible_primes,
    _check_partition,
    _clique_node,
    _clique_sums,
    _join,
    _label_key,
    _pack,
    _unpack,
    build_Q_poset,
    minimal_primes_graph,
    ring_for,
)
from defreg.cli import parse_graph_file
from defreg.posets import ClosureBudgetExceeded
from oracle import contains, cycle_edges, graph_primes_by_enumeration, leq
from primes import as_masks, as_sets, clique, clique_height

DATA = pathlib.Path(__file__).parent / "data"


# The oracles take and give a prime as plain sets, (killed, blocks); the
# engine's side is (kill, blocks) as masks, blocks sorted by mask, as
# primes.clique reads a packed relation.  primes.as_sets and as_masks
# convert between the two.


def node_primes(n, poset):
    """The node ideals of a graph poset on n vertices, as (kill, blocks)."""
    return [clique(n, nd.ideal) for nd in poset.nodes]


def graph_primes(graph):
    """The minimal primes of a graph, as (kill, blocks)."""
    n = graph.n
    return [clique(n, rep) for rep in minimal_primes_graph(graph)]


def oracle_sum_primes(n, a, b):
    """Minimal primes of a + b: the overlay of all blocks over the joint kills."""
    killed = a[0] | b[0]
    edges = {
        (u, v)
        for blk in a[1] + b[1]
        for u in blk - killed
        for v in blk - killed
        if u < v
    }
    return graph_primes_by_enumeration(n, edges, killed)


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
    # kill {2}, blocks {3, 4, 5} and {1}: bit v - 1 stands for vertex v
    prime = (0b00010, (0b00001, 0b11100))
    assert _label_key(*prime) == ((2,), ((1,), (3, 4, 5)))
    assert clique_height(prime) == 2 * 1 + 0 + 2
    # blocks order by vertex tuples in the label key, not by mask value,
    # and in whatever order they come
    assert _label_key(0, (0b00010, 0b01100, 0b10001)) == ((), ((1, 5), (2,), (3, 4)))
    assert _label_key(0, (0b10001, 0b00010, 0b01100)) == ((), ((1, 5), (2,), (3, 4)))
    bad = [
        (0, (0b011,), "partition"),  # vertex 3 in no block
        (0, (0b011, 0b110), "two blocks"),  # vertex 2 in two blocks
        (0, (0b011, 0, 0b100), "empty block"),
        (0b10000, (0b111,), "outside 1..3"),  # killed vertex 5 of 3
        (0, (0b1011, 0b100), "outside 1..3"),  # block vertex 4 of 3
        (0, (-1,), "outside 1..3"),  # a negative mask
        (0b010, (0b011, 0b100), "killed and in a block"),  # vertex 2
    ]
    for kill, blocks, message in bad:
        # a plain ValueError, so it holds under python -O as well
        with pytest.raises(ValueError, match=message):
            _check_partition(3, kill, blocks)


def test_minimal_primes_of_complete_graph():
    g = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    got = minimal_primes_graph(g)
    assert got == [_pack(3, (0b111,))]
    assert graph_primes(g) == [(0, (0b111,))]


def test_minimal_primes_of_short_path():
    got = graph_primes(Graph.path(3))
    keys = [_label_key(*p) for p in got]
    assert keys == [
        ((), ((1, 2, 3),)),
        ((2,), ((1,), (3,))),
    ]
    assert all(clique_height(p) == 2 for p in got)


def test_minimal_primes_match_oracle():
    rng = random.Random(550)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6))
        want = [as_masks(p) for p in graph_primes_by_enumeration(g.n, g.edges)]
        assert graph_primes(g) == want


def test_contains_rules():
    # the order of the closure is containment of the node ideals
    for g in (Graph.path(3), Graph.path(5), Graph.complete_bipartite(2, 3)):
        poset = build_Q_poset(g)
        prime = dict(zip(poset.ids(), node_primes(g.n, poset)))
        for a in poset.ids():
            for b in poset.ids():
                want = contains(as_sets(g.n, prime[a]), as_sets(g.n, prime[b]))
                assert leq(poset, a, b) == want
    poset = build_Q_poset(Graph.path(3))
    assert not leq(poset, "p_1", "p_2")
    assert not leq(poset, "p_2", "p_1")
    assert leq(poset, "p_3", "p_1")
    assert leq(poset, "p_3", "p_2")


def test_sum_and_primality_on_short_path():
    # P_empty + P_{2} kills 2 and overlays {1, 3}: a prime, added as is
    p_empty, p_cut = graph_primes(Graph.path(3))
    merged = (0b010, (0b101,))
    got = oracle_sum_primes(3, as_sets(3, p_empty), as_sets(3, p_cut))
    assert [as_masks(p) for p in got] == [merged]
    poset = build_Q_poset(Graph.path(3))
    assert node_primes(3, poset) == [p_empty, p_cut, merged]


def test_decomposition_of_a_nonprime_sum():
    # P_{2} + P_{4} on the 5-path overlays {1, 3} and {3, 5}, which is not
    # a union of disjoint cliques; its two minimal primes are exactly the
    # maximal elements below both summands
    poset = build_Q_poset(Graph.path(5))
    ideal = dict(zip(poset.ids(), node_primes(5, poset)))
    by_key = {_label_key(*p): x for x, p in ideal.items()}
    p2 = by_key[((2,), ((1,), (3, 4, 5)))]
    p4 = by_key[((4,), ((1, 2, 3), (5,)))]
    below = [x for x in poset.ids() if leq(poset, x, p2) and leq(poset, x, p4)]
    top = [x for x in below if not any(y != x and leq(poset, x, y) for y in below)]
    pieces = sorted(
        (ideal[x] for x in top), key=lambda p: (clique_height(p), _label_key(*p))
    )
    assert [_label_key(*p) for p in pieces] == [
        ((2, 3, 4), ((1,), (5,))),
        ((2, 4), ((1, 3, 5),)),
    ]
    want = oracle_sum_primes(5, as_sets(5, ideal[p2]), as_sets(5, ideal[p4]))
    assert pieces == [as_masks(p) for p in want]


def test_poset_of_short_path():
    poset = build_Q_poset(Graph.path(3))
    assert poset.provenance == "binomial-edge"
    assert poset.ring.nvars == 6
    assert len(poset) == 3
    assert [nd.dim for nd in poset.nodes] == [4, 4, 3]
    assert [nd.height for nd in poset.nodes] == [2, 2, 3]
    assert [poset.is_maximal(k) for k in range(len(poset))] == [True, True, False]
    assert poset.hasse() == [("p_3", "p_1"), ("p_3", "p_2")]


def test_poset_heights_drop_strictly_upward():
    rng = random.Random(88)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 5))
        poset = build_Q_poset(g)
        height = {nd.id: nd.height for nd in poset.nodes}
        for a in poset.ids():
            for b in poset.ids():
                if a != b and leq(poset, a, b):
                    assert height[a] > height[b]


def test_poset_is_closed_under_sums():
    rng = random.Random(1234)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 5))
        ideals = node_primes(g.n, build_Q_poset(g))
        for i, a in enumerate(ideals):
            for b in ideals[i + 1:]:
                for piece in oracle_sum_primes(g.n, as_sets(g.n, a), as_sets(g.n, b)):
                    assert as_masks(piece) in ideals


CONVERSION_GRAPHS = {
    "path6": Graph.path(6),
    "cycle5": Graph.from_edges(5, cycle_edges(5)),
    "k35": parse_graph_file((DATA / "k35.edges").read_text(encoding="utf-8")),
}


@pytest.mark.parametrize("name", sorted(CONVERSION_GRAPHS))
def test_nodes_convert_to_their_clique_primes(name):
    # a node keeps its packed relation, which clique() reads back exactly,
    # with the node's dim and height, and the maximal nodes are exactly
    # the minimal primes, in order
    graph = CONVERSION_GRAPHS[name]
    poset = build_Q_poset(graph)
    primes = node_primes(graph.n, poset)
    for nd, p in zip(poset.nodes, primes):
        height = clique_height(p)
        assert (nd.dim, nd.height) == (2 * graph.n - height, height)
    generators = [nd.ideal for k, nd in enumerate(poset.nodes) if poset.is_maximal(k)]
    assert generators == minimal_primes_graph(graph)


# rows of packed relations on 3 vertices, all unkilled (every diagonal
# bit set), that no clique prime has
CORRUPT_RELATIONS = {
    # {1, 2} is the block of vertex 1 and {2, 3} that of vertex 2
    "overlapping-blocks": ([0b011, 0b110, 0b110], "two blocks"),
    # vertex 3 is related to 1, so it starts no block, and 1's block is {1, 2}
    "vertex-in-no-block": ([0b011, 0b011, 0b101], "partition"),
}


@pytest.mark.parametrize(
    "rows, message", CORRUPT_RELATIONS.values(), ids=CORRUPT_RELATIONS
)
def test_corrupted_relations_raise(rows, message):
    rep = _join(3, rows)
    with pytest.raises(ValueError, match=message):
        _clique_node(3, rep, "p_1")
    with pytest.raises(ValueError, match=message):
        _check_partition(3, *_unpack(3, rep))


def poset_digest(n, poset):
    """sha256 of every (id, label key, up-mask), in label order."""
    primes = node_primes(n, poset)
    rows = [
        [nd.id, _label_key(*p), up] for nd, p, up in zip(poset.nodes, primes, poset.up)
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("graph, size, digest", [
    (Graph.path(8), 239,
     "5dcd0d36415c90449600ff8237d05cfda6fefba7ae85f492b5c244c328001533"),
    (Graph.from_edges(7, cycle_edges(7)), 233,
     "ed02a399b0cf519f250fbedc38f23151ccea64ba9c2af85c60be74332469152b"),
    (Graph.path(9), 577,
     "3125d1149f49bb2e3d8fd7c0cd9a8458cbc5aeb09974f04ed48b19aabd1dc91e"),
    (Graph.from_edges(8, cycle_edges(8)), 618,
     "32806cc176d547bd8432b7aa7f256d88b6a1efe1df3451beff4c1486095b7bdf"),
    (Graph.complete_bipartite(4, 4), 6,
     "849c2fe0ba018af9b5107b60893ab1d642679f274cd64cdc36ac9a3f05b700ef"),
], ids=["path8", "cycle7", "K44", "path9", "cycle8"])
def test_pinned_labels_and_order(graph, size, digest):
    # pinned from the block-tuple closure (path9 and cycle8 from the
    # pair-at-a-time closure); past the reach of the reference closure in
    # test_closure_reference.py
    poset = build_Q_poset(graph)
    assert len(poset) == size
    assert poset_digest(graph.n, poset) == digest


def test_isolated_vertices_past_64_bits():
    # 65 isolated vertices stay singleton blocks of every prime: the
    # packed relations span 70 * 71 bits, and nothing else changes
    small = build_Q_poset(Graph.path(5))
    wide = build_Q_poset(Graph.from_edges(70, Graph.path(5).edges))
    assert wide.ids() == small.ids()
    pad = tuple((v,) for v in range(6, 71))
    for a, b, pa, pb in zip(
        small.nodes, wide.nodes, node_primes(5, small), node_primes(70, wide)
    ):
        assert b.height == a.height
        kill, blocks = _label_key(*pa)
        assert _label_key(*pb) == (kill, blocks + pad)
    for x in small.ids():
        for y in small.ids():
            assert leq(wide, x, y) == leq(small, x, y)


def row_starts(n, mask):
    return sum(1 << v * (n + 1) for v in range(n) if mask >> v & 1)


def scalar_pack(n, rep):
    """(kill mask, packed relation) of a prime given as block masks."""
    kill, blocks = rep
    rel = 0
    for b in blocks:
        rel |= b * row_starts(n, b)
    return kill, rel


@pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 64, 65, 200])
def test_pack_round_trip(n):
    # the rows are joined and split eight at a time, n + 1 bytes per eight
    # rows; these n put the last row at and across byte boundaries
    rng = random.Random(n)
    for _ in range(20):
        kill = rng.getrandbits(n) if rng.random() < 0.7 else 0
        nblocks = rng.randint(1, n)
        blocks = [0] * nblocks
        for v in range(n):
            if not kill >> v & 1:
                blocks[rng.randrange(nblocks)] |= 1 << v
        blocks = [b for b in blocks if b]
        packed = _pack(n, blocks)
        assert len(packed) == (n * (n + 1) + 7) // 8
        assert (kill, int.from_bytes(packed, "little")) == scalar_pack(
            n, (kill, blocks)
        )
        # the blocks come by least vertex
        assert _unpack(n, packed) == (kill, sorted(blocks, key=lambda b: b & -b))


def scalar_sum(n):
    """The closure's pair sum before turns were summed at once.

    Returns sum_of and decompose: sum_of(a, b) gives the raw sum (kill
    mask, relation) of two primes in that form and whether it is prime,
    and decompose(raw) the minimal primes of a non-prime raw sum.
    """
    full = (1 << n) - 1
    ones = full * row_starts(n, full)
    guards = row_starts(n, full) << n

    def sum_of(a, b):
        ka, ra = a
        kb, rb = b
        k = ka | kb
        if ka != kb:
            rest = full & ~k
            keep = rest * row_starts(n, rest)
            ra &= keep
            rb &= keep
        prime = not ((ra & ~rb) + ones) & ((rb & ~ra) + ones) & guards
        return (k, ra | rb), prime

    def decompose(raw):
        k, rel = raw
        adj = [rel >> v * (n + 1) & full for v in range(n)]
        return tuple(
            scalar_pack(n, _unpack(n, rep))
            for rep in _admissible_primes(n, k, adj, full & ~k)
        )

    return sum_of, decompose


def assert_turns_match_pair_sums(graph):
    """Every turn of the packed kernel against the pair-at-a-time sums.

    A turn meets its own prime and every pair sum, and reports, pair by
    pair in order, the primes of each raw sum that no turn met before.
    """
    n = graph.n
    reps = [nd.ideal for nd in build_Q_poset(graph).nodes]
    scalar = [scalar_pack(n, _unpack(n, rep)) for rep in reps]
    sum_of, decompose = scalar_sum(n)
    sums_with = _clique_sums(n)
    met = set()
    for j, rep in enumerate(reps):
        pieces, below, above = sums_with(rep)
        met.add(scalar[j])
        want, want_below, want_above = [], 0, 0
        for i in range(j):
            raw, prime = sum_of(scalar[i], scalar[j])
            got = (raw,) if prime else decompose(raw)
            if got == (scalar[i],):
                want_below |= 1 << i
            elif got == (scalar[j],):
                want_above |= 1 << i
            if raw not in met:
                met.add(raw)
                want += got
        assert [scalar_pack(n, _unpack(n, p)) for p in pieces] == want
        assert (below, above) == (want_below, want_above)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_turns_match_pair_sums_on_every_small_graph(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        edges = [e for e, keep in zip(pairs, chosen) if keep]
        assert_turns_match_pair_sums(Graph.from_edges(n, edges))


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_turns_match_pair_sums_on_random_graphs(n):
    # n(n + 1) is a whole number of bytes at n = 7 and 8, so the guard
    # bit of the last row sits right under the flag byte
    rng = random.Random(600 + n)
    complete = itertools.combinations(range(1, n + 1), 2)
    graphs = [Graph.from_edges(n, []), Graph.from_edges(n, complete)]
    graphs += [random_graph(rng, n) for _ in range(3)]
    for g in graphs:
        assert_turns_match_pair_sums(g)


def test_cut_set_walk_stops_at_the_element_budget():
    # the 24-vertex path has 46,368 minimal primes; the walk stops at the
    # sixth with the closure's message
    with pytest.raises(ClosureBudgetExceeded, match="element budget of 5$"):
        minimal_primes_graph(Graph.path(24), max_elements=5)
    with pytest.raises(ClosureBudgetExceeded, match="element budget of 5$"):
        build_Q_poset(Graph.path(24), max_elements=5)
    # exactly at the budget is fine: the 5-path has 5 minimal primes
    assert len(minimal_primes_graph(Graph.path(5), max_elements=5)) == 5


def test_cut_set_walk_has_no_budget_unless_given():
    # only the closure hands the walk a budget; a library caller gets every
    # minimal prime, such as the 10,946 of the 21-vertex path, which pass
    # the closure's default of 10,000 (too slow to walk here)
    for walk in (minimal_primes_graph, _admissible_primes):
        assert inspect.signature(walk).parameters["max_elements"].default is None
    assert len(minimal_primes_graph(Graph.path(8))) == 21
    with pytest.raises(ClosureBudgetExceeded) as caught:
        minimal_primes_graph(Graph.path(8), max_elements=20)
    assert caught.value.max_elements == 20
