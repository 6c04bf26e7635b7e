import pytest

from defreg.binomial_edge import Graph, build_Q_poset
from defreg.complexes import homology_of_faces
from defreg.exactfield import FieldSpec
from defreg.monomial import SquarefreeIdeal, build_monomial_poset
from defreg.posets import (
    AnalysisPoset,
    ClosureBudgetExceeded,
    IdealNode,
    OrderCycle,
    RingContext,
    UnknownElement,
    join_closure,
)
from oracle import leq


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
    assert p.is_maximal("c")
    assert not p.is_maximal("b")
    with pytest.raises(UnknownElement):
        p.is_maximal("nope")
    with pytest.raises(UnknownElement):
        p.interval_chains("nope")


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
    # above a: the chain b < c, whose subsets are all chains
    assert chain_poset().interval_chains("a") == [[0], [0b010, 0b100], [0b110]]
    # above a bottom: the antichain of three points
    anti = AnalysisPoset.from_relations(
        [node("bot"), node("a"), node("b"), node("c")],
        [("bot", "a"), ("bot", "b"), ("bot", "c")],
    )
    assert anti.interval_chains("bot") == [[0], [0b0010, 0b0100, 0b1000]]


def test_order_complex_of_empty_poset():
    # the interval above a maximal element is empty: its order complex has
    # only the empty face, a single class in degree -1
    chains = chain_poset().interval_chains("c")
    assert chains == [[0]]
    for p in (0, 2, 3):
        field = FieldSpec(p)
        assert homology_of_faces(chains, field) == {-1: 1}


def _bits(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _mask_node(rep, pid):
    return IdealNode(id=pid, ideal=rep, dim=8 - rep.bit_count())


def per_turn(primes_of_sum):
    """The per-turn callback made of a pair function, one pair at a time.

    The order is read off each sum: a + rep = a puts a below rep.
    """
    earlier = []

    def sums_with(rep):
        pieces, below, above = [], 0, 0
        for i, a in enumerate(earlier):
            got = primes_of_sum(a, rep)
            if got == (a,):
                below |= 1 << i
            elif got == (rep,):
                above |= 1 << i
            pieces += got
        earlier.append(rep)
        return pieces, below, above

    return sums_with


def _set_closure(generators, **kwargs):
    """Closure of variable sets as int masks: every sum is prime, a | b."""
    return join_closure(
        generators,
        per_turn(lambda a, b: (a | b,)),
        node_builder=_mask_node,
        provenance="abstract",
        **kwargs,
    )


def test_join_closure_of_sets():
    p = _set_closure([0b001, 0b010, 0b100])
    # all nonempty unions of three singletons
    assert len(p) == 7
    assert p.ids() == tuple(f"p_{k}" for k in range(1, 8))
    singletons = [nd.id for nd in p.nodes if nd.ideal.bit_count() == 1]
    assert tuple(pid for pid in p.ids() if p.is_maximal(pid)) == tuple(singletons)
    bottom = [nd for nd in p.nodes if nd.ideal == 0b111]
    assert len(bottom) == 1
    assert all(leq(p, bottom[0].id, other) for other in p.ids())
    # the order read off the sums is reverse inclusion of the masks
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


def test_join_closure_with_decomposition():
    # sums of size > 2 are "not prime" and break into singletons, so the
    # closure is all singletons and all pairs over {1, 2, 3, 4}
    def primes_of_sum(a, b):
        s = a | b
        if s.bit_count() <= 2:
            return (s,)
        return tuple(1 << v for v in _bits(s))

    p = join_closure(
        [0b0011, 0b1100],
        per_turn(primes_of_sum),
        node_builder=_mask_node,
        provenance="abstract",
    )
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
    sums_with = per_turn(lambda a, b: (a | b,))

    def recording(rep):
        turns.append(rep)
        return sums_with(rep)

    p = join_closure(
        [0b001, 0b010, 0b100],
        recording,
        node_builder=_mask_node,
        provenance="abstract",
    )
    reps = [nd.ideal for nd in p.nodes]
    assert turns == reps
