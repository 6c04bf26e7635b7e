import copy
import itertools
import pickle
import random
import tracemalloc

import pytest

from defreg import binomial_edge, monomial, posets
from defreg.binomial_edge import Graph, build_Q_poset
from defreg.bounds import FieldSpec, multiplicities
from defreg.monomial import SquarefreeIdeal, build_monomial_poset
from defreg.posets import (
    AnalysisPoset,
    ClosureBudgetExceeded,
    FaceBudgetExceeded,
    IdealNode,
    OrderCycle,
    RingContext,
    join_closure,
)
from oracle import (
    chains_by_sets,
    check_order,
    close_by_passes,
    graph_homology_by_sets,
    leq,
    rank_oracle,
)
from test_closure_reference import disjoint_edges


def node(pid, dim=0, height=None, is_cm=True):
    return IdealNode(id=pid, ideal=None, dim=dim, height=height, is_cm=is_cm)


def chain_poset():
    nodes = [node("a"), node("b"), node("c")]
    return AnalysisPoset.from_relations(
        nodes, [("a", "b"), ("a", "c"), ("b", "c")]
    )


def diamond_poset():
    nodes = [node("bot"), node("m1"), node("m2"), node("top")]
    pairs = [
        ("bot", "m1"),
        ("bot", "m2"),
        ("bot", "top"),
        ("m1", "top"),
        ("m2", "top"),
    ]
    return AnalysisPoset.from_relations(nodes, pairs)


def test_ring_context():
    ring = RingContext(("x", "y", "z"))
    assert ring.nvars == 3
    with pytest.raises(ValueError):
        RingContext(("x", "x"))


def test_node_validation():
    with pytest.raises(ValueError):
        IdealNode(id="p", ideal=None, dim=-1)
    with pytest.raises(ValueError):
        IdealNode(id="p", ideal=None, dim=0, height=-2)


def test_poset_rejects_bad_input():
    with pytest.raises(ValueError):
        AnalysisPoset.from_relations([node("a"), node("a")], [])
    with pytest.raises(ValueError):
        AnalysisPoset.from_relations([node("a")], [("a", "zzz")])
    with pytest.raises(OrderCycle):
        AnalysisPoset.from_relations(
            [node("a"), node("b")], [("a", "b"), ("b", "a")]
        )
    # duplicate ids are reported before a cycle, as the constructor does
    with pytest.raises(ValueError, match="^duplicate node ids$") as exc:
        AnalysisPoset.from_relations(
            [node("a"), node("b"), node("a")], [("a", "b"), ("b", "a")]
        )
    assert type(exc.value) is ValueError
    # relations are closed: the composite (a, c) is implied
    closed = AnalysisPoset.from_relations(
        [node("a"), node("b"), node("c")], [("a", "b"), ("b", "c")]
    )
    assert leq(closed, "a", "c")


def test_mask_constructor_checks_and_never_closes():
    nodes = [node("a"), node("b"), node("c")]
    p = AnalysisPoset(nodes, [0b110, 0b100, 0])
    assert p.hasse() == [("a", "b"), ("b", "c")]
    assert leq(p, "c", "c")
    with pytest.raises(ValueError, match="^2 up-masks for 3 nodes$"):
        AnalysisPoset(nodes, [0b110, 0b100])
    with pytest.raises(ValueError, match="outside 0..2"):
        AnalysisPoset(nodes, [0b1110, 0b100, 0])
    # missing the composite a <= c
    with pytest.raises(ValueError, match="not transitively closed"):
        AnalysisPoset(nodes, [0b010, 0b100, 0])
    with pytest.raises(OrderCycle, match="cycle through a and b") as exc:
        AnalysisPoset(nodes, [0b010, 0b001, 0])
    assert exc.value.ids == ("a", "b")
    # two cycles through a: the lower position of the partner is named
    with pytest.raises(OrderCycle) as exc:
        AnalysisPoset(nodes + [node("d")], [0b1100, 0, 0b0001, 0b0001])
    assert exc.value.ids == ("a", "c")
    # a <= b <= c without a <= c, and b <= a: the cycle is reported first
    with pytest.raises(OrderCycle) as exc:
        AnalysisPoset(nodes, [0b010, 0b101, 0])
    assert exc.value.ids == ("a", "b")


def random_masks(rng, n):
    """Up-masks of a closed order, the same with one bit flipped, or any masks."""
    kind = rng.randrange(3)
    if kind == 2:
        return [rng.getrandbits(n) for _ in range(n)]
    # a random relation along a random linear order, closed
    rank = rng.sample(range(n), n)
    density = rng.random()
    up = [
        sum(1 << j for j in range(n) if rank[i] < rank[j] and rng.random() < density)
        for i in range(n)
    ]
    up = close_by_passes(up)
    if kind == 1:
        up[rng.randrange(n)] ^= 1 << rng.randrange(n)
    return up


def test_order_check_matches_the_per_pair_reference(monkeypatch):
    # the constructor checks an order by picks, not by comparable pairs;
    # every outcome must be the per-pair check's, errors included.  On
    # an order, homology must take the graph method exactly when no
    # interval holds a chain of three, else one GF(2) resolution, keep
    # the face budget of every interval, and answer every interval as
    # the comparability graph does where it can, else as the chains do
    GF2 = FieldSpec(2)
    resolve = AnalysisPoset._resolution_homology
    resolved = []
    monkeypatch.setattr(
        AnalysisPoset, "_resolution_homology",
        lambda poset, p: resolved.append(p) or resolve(poset, p),
    )
    rng = random.Random(2828)
    outcomes = {"ok": 0, "cycle": 0, "not closed": 0}
    methods = {"over budget": 0, "graph": 0, "resolution": 0}
    for _ in range(10_000):
        n = rng.randint(1, 9)
        up = random_masks(rng, n)
        ids = [f"e{k}" for k in range(n)]
        want = check_order(ids, up)
        outcomes[want[0]] += 1
        try:
            poset = AnalysisPoset([node(pid) for pid in ids], up)
        except OrderCycle as exc:
            assert want[0] == "cycle", (up, want)
            assert exc.ids == want[1:]
            a, b = exc.ids
            assert str(exc) == f"order relation has a cycle through {a} and {b}"
            continue
        except ValueError as exc:
            assert type(exc) is ValueError
            assert want == ("not closed",), (up, want)
            assert str(exc) == "order relation is not transitively closed"
            continue
        assert want[0] == "ok", (up, want)
        above = want[1]
        assert poset.hasse() == [
            (ids[a], ids[b])
            for a in range(n)
            for b in sorted(above[a])
            if not any(b in above[c] for c in above[a])
        ]
        for k in range(n):
            assert poset.is_maximal(k) is not above[k]
        chains = [chains_by_sets(above, k) for k in range(n)]
        faces = max(map(len, chains))
        graph = [graph_homology_by_sets(above, k) for k in range(n)]
        # the graph method's answers where it applies, else the chains' own
        expect = [
            rank_oracle([tuple(sorted(c)) for c in chains[k]], GF2) if g is None else g
            for k, g in enumerate(graph)
        ]
        for budget in (3, 10, 10**6):
            resolved.clear()
            try:
                got = poset.homology(2, max_faces=budget)
            except FaceBudgetExceeded:
                assert faces > budget, (up, budget)
                assert resolved == []
                methods["over budget"] += 1
                continue
            assert faces <= budget, (up, budget)
            assert got == expect, up
            if None in graph:
                assert resolved == [2], up
                methods["resolution"] += 1
            else:
                assert resolved == [], up
                methods["graph"] += 1
    assert min(outcomes.values()) > 500, outcomes
    assert min(methods.values()) > 500, methods


@pytest.mark.parametrize(
    "error, field, message",
    [
        (ClosureBudgetExceeded(7), "max_elements",
         "sum closure passed the element budget of 7"),
        (FaceBudgetExceeded(5), "max_faces",
         "chain enumeration passed the face budget of 5"),
        (OrderCycle("a", "b"), "ids", "order relation has a cycle through a and b"),
    ],
    ids=["ClosureBudgetExceeded", "FaceBudgetExceeded", "OrderCycle"],
)
def test_errors_survive_pickle_and_copy(error, field, message):
    assert str(error) == message
    for back in (pickle.loads(pickle.dumps(error)), copy.copy(error)):
        assert type(back) is type(error)
        assert str(back) == message
        assert getattr(back, field) == getattr(error, field)


def test_poset_checks_height_against_ring():
    ring = RingContext(("x", "y"))
    with pytest.raises(ValueError):
        AnalysisPoset.from_relations([node("a", dim=1, height=2)], [], ring=ring)
    ok = AnalysisPoset.from_relations(
        [node("a", dim=1, height=1)], [], ring=ring
    )
    assert ok.ring is ring


def test_poset_rejects_dim_above_ring():
    ring = RingContext(("x", "y"))
    with pytest.raises(ValueError, match="^node a: dim 5 exceeds the ambient 2$"):
        AnalysisPoset.from_relations([node("a", dim=5)], [], ring=ring)
    ok = AnalysisPoset.from_relations([node("a", dim=2)], [], ring=ring)
    assert ok.nodes[0].dim == 2
    # without a ring there is nothing to compare against
    assert AnalysisPoset.from_relations([node("a", dim=5)], []).nodes[0].dim == 5


def test_order_navigation():
    p = chain_poset()
    assert p.up == (0b111, 0b110, 0b100)
    assert p.is_maximal(2)
    assert not p.is_maximal(1)


def test_relations_reproduce_built_posets():
    ring = RingContext(tuple(f"x{i}" for i in range(1, 9)))
    path_ideal = SquarefreeIdeal.create(
        ring, [[f"x{i}", f"x{i + 1}"] for i in range(1, 8)]
    )
    built = [
        build_Q_poset(Graph.path(6)),
        build_Q_poset(Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])),
        build_Q_poset(Graph.complete_bipartite(3, 5)),
        build_monomial_poset(path_ideal),
    ]
    for poset in built:
        ids = poset.ids()
        pairs = [(a, b) for a in ids for b in ids if leq(poset, a, b)]
        for relations in (pairs, poset.hasse()):
            again = AnalysisPoset.from_relations(
                poset.nodes, relations, ring=poset.ring, provenance=poset.provenance
            )
            for a in ids:
                assert [leq(again, a, b) for b in ids] == [
                    leq(poset, a, b) for b in ids
                ]
            assert again.hasse() == poset.hasse()


def random_relation(rng, n, cycle=False, loops=False):
    """Random pairs (a, b) along a hidden linear order of n ids.

    With cycle, the pairs also run around a cycle of 2 to 5 ids; with
    loops, some ids also get their self-pair.
    """
    ids = [f"e{k}" for k in range(n)]
    line = rng.sample(ids, n)
    density = rng.random()
    pairs = [
        (a, b) for i, a in enumerate(line) for b in line[i + 1:]
        if rng.random() < density
    ]
    if cycle:
        ring = rng.sample(ids, rng.randint(2, min(5, n)))
        pairs += zip(ring, ring[1:] + ring[:1])
    if loops:
        pairs += [(a, a) for a in rng.sample(ids, rng.randint(1, n))]
    rng.shuffle(pairs)
    return ids, pairs


def relation_masks(ids, pairs):
    index = {pid: k for k, pid in enumerate(ids)}
    up = [0] * len(ids)
    for a, b in pairs:
        up[index[a]] |= 1 << index[b]
    return up


def test_bits_match_a_plain_reference():
    # posets._bits steps off the lowest bit below 64 set bits and reads a
    # wider mask off its binary digits
    rng = random.Random(64)
    for width in (1, 63, 64, 65, 300, 5000):
        for density in (0.01, 0.5, 1.0):
            mask = sum(1 << k for k in range(width) if rng.random() < density)
            assert list(posets._bits(mask)) == _bits(mask)
    assert list(posets._bits(0)) == []


def test_bits_stop_where_the_reader_stops():
    # _check_faces stops reading a mask at its cap: the binary digits of
    # 10^5 bits take about 200 kB, a list of every bit megabytes
    mask = (1 << 10**5) - 1
    tracemalloc.start()
    try:
        first = list(itertools.islice(posets._bits(mask), 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == [0, 1, 2]
    assert peak < 10**6


def test_close_matches_fixpoint_passes():
    rng = random.Random(1972)
    for _ in range(60):
        n = rng.randint(2, 25)
        for cycle in (False, True):
            for loops in (False, True):
                ids, pairs = random_relation(rng, n, cycle, loops)
                up = relation_masks(ids, pairs)
                closed = close_by_passes(up)
                # on a cycle: some other position lies both above and below
                on_cycle = sum(
                    1 << a
                    for a, m in enumerate(closed)
                    if any(b != a and closed[b] >> a & 1 for b in range(n) if m >> b & 1)
                )
                assert posets._close(up) == (closed, on_cycle)
                assert bool(on_cycle) is cycle
                nodes = [node(pid) for pid in ids]
                if not cycle:
                    got = AnalysisPoset.from_relations(nodes, pairs)
                    assert got.up == AnalysisPoset(nodes, close_by_passes(up)).up
                    continue
                # the closure is unique, so a cycle names the same two ids
                with pytest.raises(OrderCycle) as want:
                    AnalysisPoset(nodes, close_by_passes(up))
                with pytest.raises(OrderCycle) as got:
                    AnalysisPoset.from_relations(nodes, pairs)
                assert got.value.ids == want.value.ids
                assert str(got.value) == str(want.value)


def test_chain_with_self_pairs_closes_in_the_topological_pass(monkeypatch):
    n = 400
    ids = [f"c{k}" for k in range(n)]
    pairs = [(a, a) for a in ids] + list(zip(ids, ids[1:]))
    handed = []
    close = posets._close
    monkeypatch.setattr(posets, "_close", lambda up: handed.append(up) or close(up))
    chain = AnalysisPoset.from_relations([node(pid) for pid in ids], pairs)
    want = tuple((1 << n) - (1 << k) for k in range(n))
    assert chain.up == want
    # a self-pair reaches the closure as a self-bit, a component of one
    # element: the bit stays where the constructor puts the reflexive bit
    # anyway, and names no cycle
    (up,) = handed
    assert all(m >> k & 1 for k, m in enumerate(up))
    assert close(up) == (list(want), 0)


def test_hasse_skips_transitive_edges():
    assert chain_poset().hasse() == [("a", "b"), ("b", "c")]
    covers = set(diamond_poset().hasse())
    assert covers == {
        ("bot", "m1"),
        ("bot", "m2"),
        ("m1", "top"),
        ("m2", "top"),
    }


def test_order_complex_of_chain_and_antichain():
    # above a: the chain b < c, a cone; above a bottom: three points
    anti = AnalysisPoset.from_relations(
        [node("bot"), node("a"), node("b"), node("c")],
        [("bot", "a"), ("bot", "b"), ("bot", "c")],
    )
    for p in (0, 2, 3):
        field = FieldSpec(p)
        assert multiplicities(chain_poset(), field)["a"] == {}
        assert multiplicities(anti, field)["bot"] == {0: 2}


def test_order_complex_of_empty_poset():
    # the interval above a maximal element is empty: its order complex has
    # only the empty face, a single class in degree -1
    for p in (0, 2, 3):
        field = FieldSpec(p)
        assert multiplicities(chain_poset(), field)["c"] == {-1: 1}


@pytest.mark.parametrize("p", [1, 4, -3])
def test_resolution_rejects_a_characteristic_that_is_no_field(p):
    # 1 once raised KeyError and 4 computed over Z/4; homology checks p
    # before it picks a method: the graph method for the 3-chain, the
    # resolution for the 4-chain
    message = f"^characteristic {p} is neither 0 nor a prime$"
    four = AnalysisPoset([node(pid) for pid in "abcd"], [0b1110, 0b1100, 0b1000, 0])
    for poset in (chain_poset(), four):
        with pytest.raises(ValueError, match=message):
            poset.homology(p)
    for q in (0, 2, 3):
        assert chain_poset().homology(q) == [{}, {}, {-1: 1}]
        assert chain_poset()._resolution_homology(q) == [{}, {}, {-1: 1}]


def rank_two_masks(rng, sizes, density, direct=0.0, ranked=False):
    """Closed up-masks of a poset on three levels, at shuffled positions.

    Each element lies below each element of the next level with chance
    density, and a level-0 element below each level-2 element with
    chance direct as well, so no chain has more than three elements.
    ranked puts each element of levels 1 and 2 above at least one of the
    level below.
    """
    n = sum(sizes)
    order = rng.sample(range(n), n)
    low, mid, high = (
        order[:sizes[0]], order[sizes[0]:n - sizes[2]], order[n - sizes[2]:]
    )
    below = {x: [] for x in order}
    for lower, upper in ((mid, high), (low, mid)):
        for y in upper:
            picked = [x for x in lower if rng.random() < density]
            if ranked and lower and not picked:
                picked = [rng.choice(lower)]
            below[y] = picked
    up = [0] * n
    for z in high:
        for y in below[z]:
            up[y] |= 1 << z
    for y in mid:
        for x in below[y]:
            up[x] |= 1 << y | up[y]
    for x in low:
        up[x] |= sum(1 << z for z in high if rng.random() < direct)
    return up


def test_both_homology_methods_agree_on_rank_two_posets():
    # no interval of a poset on three levels holds a chain of three, so
    # the graph method applies to it, and must answer every interval as
    # the GF(2) and the rational resolutions do
    rng = random.Random(2929)
    cases = [
        rank_two_masks(rng, sizes, density, ranked=True)
        for sizes, density in (
            ((10, 14, 9), 0.2), ((16, 12, 6), 0.3), ((6, 20, 15), 0.15),
            ((12, 12, 12), 0.1),
        )
    ]
    for _ in range(200):
        sizes = (rng.randint(1, 5), rng.randint(0, 5), rng.randint(0, 5))
        cases.append(rank_two_masks(rng, sizes, rng.random(), rng.random() / 2))
    for up in cases:
        poset = AnalysisPoset([node(f"e{k}") for k in range(len(up))], up)
        graph = poset._graph_sweep()
        two = poset._resolution_homology(2)
        rational = poset._resolution_homology(0)
        assert len(graph) == len(up)
        for k in range(len(up)):
            assert graph[k] == two[k] == rational[k], (up, k)


def _bits(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _mask_node(rep, pid):
    return IdealNode(id=pid, ideal=rep, dim=8 - rep.bit_count())


def per_turn(primes_of_sum):
    """The per-turn callback made of a pair function, one pair at a time."""
    earlier = []

    def sums_with(rep):
        pieces = []
        for a in earlier:
            pieces += primes_of_sum(a, rep)
        earlier.append(rep)
        return pieces

    return sums_with


def set_order(reps):
    """Up-masks of variable sets: a + b = a, read a | b == a, puts a below b."""
    return [sum(1 << i for i, b in enumerate(reps) if a | b == a) for a in reps]


def join(a, b):
    """The primes of a sum of variable sets: the one set a | b."""
    return (a | b,)


def set_poset(generators, sums_with, **kwargs):
    """A builder of variable sets: the closure's nodes under set_order."""
    nodes = join_closure(generators, sums_with, node_builder=_mask_node, **kwargs)
    return AnalysisPoset(nodes, set_order([nd.ideal for nd in nodes]))


def _set_closure(generators, **kwargs):
    """Closure of variable sets as int masks: every sum is prime, a | b."""
    return set_poset(generators, per_turn(join), **kwargs)


def test_join_closure_of_sets():
    p = _set_closure([0b001, 0b010, 0b100])
    # all nonempty unions of three singletons
    assert len(p) == 7
    assert p.ids() == tuple(f"p_{k}" for k in range(1, 8))
    singletons = [nd.id for nd in p.nodes if nd.ideal.bit_count() == 1]
    maximal = tuple(pid for k, pid in enumerate(p.ids()) if p.is_maximal(k))
    assert maximal == tuple(singletons)
    bottom = [nd for nd in p.nodes if nd.ideal == 0b111]
    assert len(bottom) == 1
    assert all(leq(p, bottom[0].id, other) for other in p.ids())
    # the order handed back is reverse inclusion of the masks
    for a in p.nodes:
        for b in p.nodes:
            assert leq(p, a.id, b.id) == (a.ideal | b.ideal == a.ideal)


def test_join_closure_label_order_follows_generator_sort():
    # the caller sorts the generators; labels follow the order handed in
    p = _set_closure([0b01, 0b10])
    assert [nd.ideal for nd in p.nodes] == [0b01, 0b10, 0b11]
    p = _set_closure([0b10, 0b01])
    assert [nd.ideal for nd in p.nodes] == [0b10, 0b01, 0b11]


def test_join_closure_budget():
    gens = [1 << i for i in range(5)]
    with pytest.raises(ClosureBudgetExceeded):
        _set_closure(gens, max_elements=10)


def test_join_closure_requires_generators():
    with pytest.raises(ValueError):
        _set_closure([])


def split_sum(a, b):
    """Sums of size > 2 are "not prime" and break into singletons."""
    s = a | b
    if s.bit_count() <= 2:
        return (s,)
    return tuple(1 << v for v in _bits(s))


def test_join_closure_with_decomposition():
    # the closure is all singletons and all pairs over {1, 2, 3, 4}
    p = set_poset([0b0011, 0b1100], per_turn(split_sum))
    sizes = sorted(nd.ideal.bit_count() for nd in p.nodes)
    assert sizes == [1, 1, 1, 1, 2, 2, 2, 2, 2, 2]
    assert len(p) == 10
    # pieces in the order given: the sum of the two generators comes first
    assert [nd.ideal for nd in p.nodes[:6]] == [
        0b0011, 0b1100, 0b0001, 0b0010, 0b0100, 0b1000
    ]
    for a in p.nodes:
        for b in p.nodes:
            assert leq(p, a.id, b.id) == (a.ideal | b.ideal == a.ideal)


def test_join_closure_takes_one_turn_per_element_in_label_order():
    # so the elements a callback was handed before are the earlier ones
    turns = []
    sums_with = per_turn(join)

    def recording(rep):
        turns.append(rep)
        return sums_with(rep)

    nodes = join_closure([0b001, 0b010, 0b100], recording, node_builder=_mask_node)
    assert turns == [nd.ideal for nd in nodes]


def test_join_closure_names_the_elements_after_the_last_turn():
    # node_builder gets each finished rep in label order with its id, the
    # nodes come back as it built them, and a closure past its budget
    # builds none
    events = []
    sums_with = per_turn(split_sum)

    def recording(rep):
        events.append(("turn", rep))
        return sums_with(rep)

    def naming(rep, pid):
        events.append(("node", rep, pid))
        return _mask_node(rep, pid)

    nodes = join_closure([0b0011, 0b1100], recording, node_builder=naming)
    reps = [nd.ideal for nd in nodes]
    ids = [f"p_{k}" for k in range(1, len(reps) + 1)]
    assert [nd.id for nd in nodes] == ids
    assert events == [("turn", rep) for rep in reps] + [
        ("node", rep, pid) for rep, pid in zip(reps, ids)
    ]
    events.clear()
    sums_with = per_turn(split_sum)
    with pytest.raises(ClosureBudgetExceeded):
        join_closure([0b0011, 0b1100], recording, node_builder=naming, max_elements=5)
    assert [kind for kind, *_ in events] == ["turn"] * len(events)


def test_join_closure_order_is_checked():
    # the builder hands its masks to the constructor, which checks them
    # and never repairs them
    nodes = join_closure([0b01, 0b10], per_turn(join), node_builder=_mask_node)
    swapped = [1 << (len(nodes) - 1 - k) | 1 << k for k in range(len(nodes))]
    for up, error in [(swapped, OrderCycle), ([0], ValueError)]:
        with pytest.raises(error):
            AnalysisPoset(nodes, up)


def leaving_out_reported(sums_with):
    """The callback sums_with, less every piece an earlier turn reported."""
    reported = set()

    def leaving_out(rep):
        pieces = sums_with(rep)
        fresh = [p for p in pieces if p not in reported]
        reported.update(pieces)
        return fresh

    return leaving_out


def closure_outcome(generators, sums_with, max_elements):
    """(ids, ideals, up-masks) of a closure, or None past the budget."""
    try:
        p = set_poset(generators, sums_with, max_elements=max_elements)
    except ClosureBudgetExceeded:
        return None
    return p.ids(), [nd.ideal for nd in p.nodes], p.up


@pytest.mark.parametrize("generators, primes_of_sum", [
    ([0b0001, 0b0010, 0b0100, 0b1000], join),
    ([0b0011, 0b1100], split_sum),
], ids=["sets", "decomposition"])
def test_leaving_out_reported_pieces_changes_nothing(generators, primes_of_sum):
    # the contract lets a turn leave out what an earlier turn reported:
    # those pieces are in the pool, so labels, order and budget stay
    unbounded = posets.DEFAULT_MAX_ELEMENTS
    size = len(closure_outcome(generators, per_turn(primes_of_sum), unbounded)[0])
    for k in range(1, size + 2):
        want = closure_outcome(generators, per_turn(primes_of_sum), k)
        got = closure_outcome(
            generators, leaving_out_reported(per_turn(primes_of_sum)), k
        )
        assert got == want
        assert (want is None) == (k < size)


def generator_turns_only(sums_with, generators):
    """The callback sums_with, with no pieces on a turn of a non-generator."""
    generators = set(generators)

    def generator_turns(rep):
        pieces = sums_with(rep)
        return pieces if rep in generators else ()

    return generator_turns


def test_only_generator_turns_need_to_report_joins():
    # when every sum is a | b, the pool is closed under | before each new
    # generator, so the turns of other elements meet only sums in the pool
    rng = random.Random(30)
    for _ in range(40):
        bits = rng.randint(1, 8)
        generators = list(dict.fromkeys(
            rng.getrandbits(bits) or 1 for _ in range(rng.randint(1, 6))
        ))
        unbounded = posets.DEFAULT_MAX_ELEMENTS
        size = len(closure_outcome(generators, per_turn(join), unbounded)[0])
        for k in range(1, size + 2):
            want = closure_outcome(generators, per_turn(join), k)
            got = closure_outcome(
                generators, generator_turns_only(per_turn(join), generators), k
            )
            assert got == want
            assert (want is None) == (k < size)


def test_only_generator_turns_is_wrong_for_decomposing_sums():
    # split_sum is no join: 0b0011 + 0b1100 splits into singletons, whose
    # sums with each other only their own turns report
    generators = [0b0011, 0b1100]
    unbounded = posets.DEFAULT_MAX_ELEMENTS
    want = closure_outcome(generators, per_turn(split_sum), unbounded)
    got = closure_outcome(
        generators, generator_turns_only(per_turn(split_sum), generators), unbounded
    )
    assert len(got[0]) < len(want[0]) == 10


def test_six_disjoint_edges_hand_the_closure_18970_pieces(monkeypatch):
    # every pair sum would be 265,356 pieces
    counted = []

    def counting(generators, sums_with, **kwargs):
        def turn(rep):
            pieces = list(sums_with(rep))
            counted.append(len(pieces))
            return pieces

        return join_closure(generators, turn, **kwargs)

    monkeypatch.setattr(monomial, "join_closure", counting)
    poset = build_monomial_poset(disjoint_edges(6))
    assert len(poset) == len(counted) == 729
    assert sum(counted) == 18_970


def test_path9_turns_report_each_sum_once(monkeypatch):
    # 166,176 pair sums over 577 turns; reporting every one hands the
    # closure 189,192 pieces, reporting each sum relation once 1,095
    n = 9
    reps = [nd.ideal for nd in build_Q_poset(Graph.path(n)).nodes]
    relations = []
    walk = binomial_edge._admissible_primes

    def counted(*args, **kwargs):
        relations.append(tuple(args[0]))
        return walk(*args, **kwargs)

    monkeypatch.setattr(binomial_edge, "_admissible_primes", counted)
    sums_with, _, _ = binomial_edge._clique_sums(n, ())
    reported = sum(len(sums_with(rep)) for rep in reps)
    assert reported < 2000
    # one cut-set walk per distinct non-prime sum relation, of which
    # path9 has 263
    assert len(relations) == len(set(relations)) == 263
