"""Relabeling an input moves no number of the report.

Permuting a graph's vertices, or renaming a monomial ideal's variables
and reordering its generators, gives an isomorphic poset of sums, and
reordering a poset file's elements and relations gives an isomorphic
poset: the element ids and positions may move, but not the multiset of
(dim, height, multiplicities), nor any bound, |S_j| or the Murai-Terai
level.  On the same graphs and ideals, no degree of an interval's
homology over Q exceeds that over GF(2) or GF(3), and the Euler
characteristics agree.
"""

import json
import pathlib
import random
from collections import Counter

from defreg.binomial_edge import Graph, build_Q_poset
from defreg.bounds import FieldSpec, analyze
from defreg.cli import parse_poset_doc
from defreg.monomial import SquarefreeIdeal, build_monomial_poset
from defreg.posets import RingContext
from golden import _ranked_doc

DATA = pathlib.Path(__file__).parent / "data"

FIELDS = (FieldSpec.rationals(), FieldSpec.prime_field(2))


def invariants(poset, field):
    """What a relabeling must keep, read off the report over field."""
    report = analyze(poset, field)
    mults = report.multiplicities
    return (
        Counter(
            (nd.dim, nd.height, tuple(sorted(mults[nd.id].items())))
            for nd in poset.nodes
        ),
        [e.bound for e in report.entries],
        [len(e.members) for e in report.entries],
        (report.mt_level, report.mt_capped),
    )


def seeded_graphs():
    """60 seeded graphs (n, edges), each with two (perm, moved edges)."""
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(6, 7)
        density = rng.uniform(0.25, 0.6)
        edges = [
            (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
            if rng.random() < density
        ]
        images = []
        for _ in range(2):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            moved = [(perm[u - 1], perm[v - 1]) for u, v in edges]
            rng.shuffle(moved)
            images.append((perm, moved))
        yield n, edges, images


def seeded_ideals():
    """80 seeded ideals (names, gens), each with a (rename, order, moved gens)."""
    rng = random.Random(10)
    for _ in range(80):
        nvars = rng.randint(4, 10)
        names = [f"x{i}" for i in range(1, nvars + 1)]
        gens = [
            rng.sample(names, rng.randint(1, 3)) for _ in range(rng.randint(2, 8))
        ]
        # new names, whose string order differs from the old one, in a new
        # ring order, and the generators in a new order
        renamed = [f"y{i}" for i in rng.sample(range(1, nvars + 1), nvars)]
        rename = dict(zip(names, renamed))
        order = renamed[:]
        rng.shuffle(order)
        moved = [[rename[v] for v in g] for g in gens]
        rng.shuffle(moved)
        yield names, gens, (rename, order, moved)


def ideal_poset(names, gens):
    return build_monomial_poset(SquarefreeIdeal.create(RingContext(tuple(names)), gens))


def test_vertex_permutations_of_graphs():
    elements = 0
    for n, edges, images in seeded_graphs():
        poset = build_Q_poset(Graph.from_edges(n, edges))
        want = [invariants(poset, field) for field in FIELDS]
        for perm, moved in images:
            image = build_Q_poset(Graph.from_edges(n, moved))
            assert [invariants(image, field) for field in FIELDS] == want, (n, edges, perm)
        elements += len(poset)
    assert elements > 1000


def test_variable_renaming_and_generator_order_of_monomial_ideals():
    elements = 0
    for names, gens, (rename, order, moved) in seeded_ideals():
        poset = ideal_poset(names, gens)
        want = [invariants(poset, field) for field in FIELDS]
        image = ideal_poset(order, moved)
        assert [invariants(image, field) for field in FIELDS] == want, (gens, rename)
        elements += len(poset)
    assert elements > 800


def assert_q_below_each_prime_field(poset):
    """Above each element, Q's dims are at most GF(2)'s and GF(3)'s.

    By universal coefficients, torsion in the integral homology adds to
    the GF(p) dims in two adjacent degrees, so the Euler characteristics
    still agree.
    """
    over_q = poset.homology(0)
    for p in (2, 3):
        for k, (q, gf) in enumerate(zip(over_q, poset.homology(p))):
            assert all(v <= gf.get(d, 0) for d, v in q.items()), (p, k)
            assert sum((-1) ** d * v for d, v in q.items()) == sum(
                (-1) ** d * v for d, v in gf.items()
            ), (p, k)


def test_rationals_lie_below_each_prime_field():
    elements = 0
    for n, edges, _ in seeded_graphs():
        poset = build_Q_poset(Graph.from_edges(n, edges))
        assert_q_below_each_prime_field(poset)
        elements += len(poset)
    for names, gens, _ in seeded_ideals():
        poset = ideal_poset(names, gens)
        assert_q_below_each_prime_field(poset)
        elements += len(poset)
    assert elements > 1800


def test_element_and_relation_order_of_poset_files():
    rng = random.Random(12)
    texts = [(DATA / "abstract7.json").read_text(encoding="utf-8")]
    texts += [_ranked_doc(rng, (3, 4, 4), 5), _ranked_doc(rng, (2, 5, 6, 4), 6)]
    texts += [_ranked_doc(rng, (12, 18, 18), 6) for _ in range(3)]
    texts.append(_ranked_doc(rng, (2, 3, 3), 4, heights=False))
    moved = 0
    for text in texts:
        poset = parse_poset_doc(text)
        want = [invariants(poset, field) for field in FIELDS]
        for _ in range(3):
            doc = json.loads(text)
            rng.shuffle(doc["elements"])
            rng.shuffle(doc["relations"])
            image = parse_poset_doc(json.dumps(doc))
            assert [invariants(image, field) for field in FIELDS] == want, doc
            moved += [nd.id for nd in image.nodes] != [nd.id for nd in poset.nodes]
    assert moved > 15
