import itertools
import json
import pathlib
import random

import pytest

from defreg.binomial_edge import Graph, build_Q_poset
import defreg
from defreg.bounds import (
    NEG_INF,
    FieldSpec,
    analyze,
    check_conditions,
    multiplicities,
    murai_terai_level,
)
from defreg.cli import parse_graph_file, parse_poset_doc
from defreg.monomial import SquarefreeIdeal, build_monomial_poset
from defreg.posets import AnalysisPoset, FaceBudgetExceeded, IdealNode, RingContext
from oracle import chains_by_leq, covers_by_leq, cycle_edges, leq, rank_oracle

DATA = pathlib.Path(__file__).parent / "data"
RING4 = RingContext(("x", "y", "z", "w"))
QQ = FieldSpec.rationals()
GF2 = FieldSpec.prime_field(2)
GF3 = FieldSpec.prime_field(3)


def skew_lines_poset():
    ideal = SquarefreeIdeal.create(
        RING4, [["x", "z"], ["x", "w"], ["y", "z"], ["y", "w"]]
    )
    return build_monomial_poset(ideal)


def node(pid, dim, height=None, is_cm=True):
    return IdealNode(id=pid, ideal=None, dim=dim, height=height, is_cm=is_cm)


def test_multiplicities_of_skew_lines():
    poset = skew_lines_poset()
    mults = multiplicities(poset)
    assert analyze(poset).field.is_rationals
    assert tuple(mults) == poset.ids()
    assert mults["p_1"] == {-1: 1}
    assert mults["p_2"] == {-1: 1}
    # the open interval above the bottom is a two point antichain
    assert mults["p_3"] == {0: 1}


def test_s_sets_of_skew_lines():
    entries = analyze(skew_lines_poset()).entries
    assert entries[0].members == ()
    assert entries[1].members == ("p_3",)
    assert entries[2].members == ("p_1", "p_2")


def test_regularity_bound_folds_dims():
    entries = analyze(skew_lines_poset()).entries
    assert [e.j for e in entries] == [0, 1, 2]
    assert entries[2].bound == 2
    assert entries[1].bound == 0
    # S_0 is empty
    assert entries[0].bound == NEG_INF


def test_filtration_layers():
    # only the nonempty layers are stored
    entries = analyze(skew_lines_poset()).entries
    assert entries[2].layers == {0: (("p_1", 1), ("p_2", 1))}
    assert entries[1].layers == {1: (("p_3", 1),)}
    assert entries[0].layers == {}


def test_conditions_on_monomial_poset():
    report = check_conditions(skew_lines_poset())
    assert report.distributive_lattice == "verified-structural"
    assert report.cohen_macaulay
    assert report.strict_heights is True
    assert report.certified


def test_conditions_missing_heights():
    poset = AnalysisPoset.from_relations(
        [node("a", 1), node("b", 0)], [("b", "a")]
    )
    report = check_conditions(poset)
    assert report.distributive_lattice == "assumed"
    assert report.strict_heights is None
    assert not report.certified


def test_conditions_flag_non_strict_heights():
    poset = AnalysisPoset.from_relations(
        [node("a", 1, height=3), node("b", 0, height=3)], [("b", "a")]
    )
    report = check_conditions(poset)
    assert report.strict_heights is False
    assert not report.certified
    assert any("does not drop" in note for note in report.notes)


def test_conditions_note_names_first_strict_pair():
    # the cover b < c fails too, but a < c comes first in position order
    poset = AnalysisPoset.from_relations(
        [node("a", 0, height=5), node("b", 1, height=4), node("c", 2, height=5)],
        [("a", "b"), ("a", "c"), ("b", "c")],
    )
    report = check_conditions(poset)
    assert report.strict_heights is False
    assert report.notes == ("height does not drop strictly from a to c",)


def test_conditions_note_matches_the_definition():
    # the first a in position order with some b above it of no smaller
    # height, and the first such b
    rng = random.Random(7)
    for seed in range(6):
        # ranked heights, each raised by one with a chance of seed / 20
        ranked = ranked_poset(seed)
        poset = AnalysisPoset(
            [
                IdealNode(
                    id=nd.id,
                    ideal=nd.ideal,
                    dim=nd.dim,
                    height=nd.height + (rng.random() < seed / 20),
                    is_cm=nd.is_cm,
                )
                for nd in ranked.nodes
            ],
            ranked.up,
        )
        height = {nd.id: nd.height for nd in poset.nodes}
        pairs = [
            (a, b)
            for a in poset.ids()
            for b in poset.ids()
            if a != b and leq(poset, a, b) and height[a] <= height[b]
        ]
        report = check_conditions(poset)
        assert report.strict_heights is (not pairs)
        assert report.notes == tuple(
            f"height does not drop strictly from {a} to {b}" for a, b in pairs[:1]
        )


def test_conditions_flag_non_cm():
    poset = AnalysisPoset.from_relations(
        [node("a", 1, height=2, is_cm=False)], []
    )
    report = check_conditions(poset)
    assert not report.cohen_macaulay
    assert not report.certified


def test_witnesses():
    # the witnesses of K^j are the ids of layer 0: maximal, of dimension j
    entries = analyze(skew_lines_poset()).entries
    assert [pid for pid, _ in entries[2].layers[0]] == ["p_1", "p_2"]
    assert 0 not in entries[0].layers


def test_murai_terai_level():
    assert murai_terai_level({0: NEG_INF, 1: 0, 2: 2}, 2) == (1, False)
    assert murai_terai_level({0: 0, 1: 0, 2: 2}, 2) == (0, False)
    assert murai_terai_level({0: NEG_INF, 1: NEG_INF, 2: 2}, 2) == (2, True)
    assert murai_terai_level({}, 5) == (5, True)


def test_analyze_full_report():
    report = analyze(skew_lines_poset())
    assert [e.j for e in report.entries] == [0, 1, 2]
    assert [e.bound for e in report.entries] == [NEG_INF, 0, 2]
    assert report.conditions.certified
    assert (report.mt_level, report.mt_capped) == (1, False)
    assert report.assumptions == ()


def test_analyze_always_carries_layers_and_witnesses():
    report = analyze(skew_lines_poset())
    assert report.entries[2].layers[0] == (("p_1", 1), ("p_2", 1))
    assert [list(e.layers) for e in report.entries] == [[], [1], [0]]
    # the level only looks below the ambient dimension
    assert (report.mt_level, report.mt_capped) == (1, False)


def test_analyze_over_prime_field():
    report = analyze(skew_lines_poset(), FieldSpec.prime_field(2))
    assert report.field.label() == "gf(2)"
    assert [e.bound for e in report.entries] == [NEG_INF, 0, 2]


def test_analyze_rejects_empty_poset():
    with pytest.raises(ValueError):
        analyze(AnalysisPoset.from_relations([], []))


def test_analyze_abstract_assumption_text():
    poset = AnalysisPoset.from_relations([node("a", 1, height=2)], [])
    report = analyze(poset)
    assert len(report.assumptions) == 1
    assert "assumed" in report.assumptions[0]


def oracle_entries(report):
    """(j, S_j, bound, layers, witnesses) from the definitions alone.

    S_j = {p : dim p <= j, mult(p, j - dim p - 1) != 0} in node order, the
    bound is the largest dim over S_j, layer k holds the members of
    dimension j - k with their multiplicities as exponents, listed for
    k = 0..j with the empty layers then dropped, and the witnesses are the
    maximal elements of dimension j.
    """
    poset = report.poset
    dim = {nd.id: nd.dim for nd in poset.nodes}
    out = []
    for j in range(max(dim.values()) + 1):
        mult = {p: report.multiplicities[p].get for p in poset.ids()}
        members = tuple(
            p for p in poset.ids() if dim[p] <= j and mult[p](j - dim[p] - 1, 0)
        )
        dense = [
            tuple((p, mult[p](k - 1)) for p in members if dim[p] == j - k)
            for k in range(j + 1)
        ]
        layers = [(k, layer) for k, layer in enumerate(dense) if layer]
        witnesses = [
            p for k, p in enumerate(poset.ids())
            if dim[p] == j and poset.is_maximal(k)
        ]
        bound = max((dim[p] for p in members), default=NEG_INF)
        assert bound <= j
        out.append((j, members, bound, layers, witnesses))
    return out


def ranked_poset(seed, sizes=(12, 18, 18), nvars=6):
    """A shuffled ranked poset, each element below 2 or 3 of the level above."""
    rng = random.Random(seed)
    labels = [f"c_{k}" for k in range(1, sum(sizes) + 1)]
    rng.shuffle(labels)
    levels = [labels[sum(sizes[:i]):sum(sizes[:i + 1])] for i in range(len(sizes))]
    elements, relations = [], []
    for depth, level in enumerate(levels):
        dim = len(sizes) - 1 - depth
        elements += [{"id": p, "dim": dim, "height": nvars - dim} for p in level]
        if depth:
            for p in level:
                for q in rng.sample(levels[depth - 1], rng.choice((2, 3))):
                    relations.append([p, q])
    rng.shuffle(elements)
    doc = {"format": 1, "nvars": nvars, "elements": elements, "relations": relations}
    return parse_poset_doc(json.dumps(doc))


def oracle_posets():
    rng = random.Random(2016)
    for _ in range(40):
        nvars = rng.randint(2, 6)
        ring = RingContext(tuple(f"v{i}" for i in range(nvars)))
        gens = [
            rng.sample(ring.var_names, rng.randint(1, min(3, nvars)))
            for _ in range(rng.randint(1, 5))
        ]
        yield build_monomial_poset(SquarefreeIdeal.create(ring, gens))
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for r in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, r):
                yield build_Q_poset(Graph.from_edges(n, list(edges)))
    yield parse_poset_doc((DATA / "abstract7.json").read_text(encoding="utf-8"))
    yield ranked_poset(0)
    yield ranked_poset(3)


def test_hasse_matches_covers_by_leq():
    ranked = [ranked_poset(seed) for seed in (1, 2, 5, 8)]
    ranked.append(ranked_poset(11, sizes=(30, 45, 45, 45)))
    for poset in itertools.chain(oracle_posets(), ranked):
        assert poset.hasse() == covers_by_leq(poset), poset.ids()


def test_analyze_matches_definitions_oracle():
    for poset in oracle_posets():
        for field in (QQ, GF2):
            report = analyze(poset, field)
            got = [
                (
                    e.j,
                    e.members,
                    e.bound,
                    list(e.layers.items()),
                    [pid for pid, _ in e.layers.get(0, ())],
                )
                for e in report.entries
            ]
            assert got == oracle_entries(report), (poset.ids(), field)


def test_interval_face_budget_is_exact():
    # a chain of 8: the interval above the bottom is a 7-chain, whose
    # order complex has 2**7 faces, the empty chain included
    ids = [f"c{k}" for k in range(8)]
    poset = AnalysisPoset.from_relations(
        [node(pid, 8 - k) for k, pid in enumerate(ids)],
        [(a, b) for k, a in enumerate(ids) for b in ids[k:]],
    )
    assert multiplicities(poset, max_faces=2**7)["c0"] == {}
    with pytest.raises(FaceBudgetExceeded, match="^chain enumeration passed") as e:
        multiplicities(poset, max_faces=2**7 - 1)
    assert e.value.max_faces == 2**7 - 1


def mobius_to_top(poset):
    """mu(p, top) for the virtual top: -1 minus the sum over the strict up-set."""
    ids = poset.ids()
    up = {a: [b for b in ids if b != a and leq(poset, a, b)] for a in ids}
    mu = {}
    for a in sorted(ids, key=lambda a: len(up[a])):
        mu[a] = -1 - sum(mu[b] for b in up[a])
    return mu


def test_path7_philip_hall_and_field_comparison():
    poset = build_Q_poset(Graph.path(7))
    assert len(poset) == 99
    mu = mobius_to_top(poset)
    tables = {f: multiplicities(poset, f) for f in (QQ, GF2)}
    for nd in poset.nodes:
        for mults in tables.values():
            euler = sum((-1) ** d * v for d, v in mults[nd.id].items())
            assert euler == mu[nd.id], nd.id
        q, two = (tables[f][nd.id] for f in (QQ, GF2))
        assert all(v <= two.get(d, 0) for d, v in q.items())


def assert_matches_rank_oracle(poset):
    for field in (QQ, GF2, GF3):
        mults = multiplicities(poset, field)
        for nd in poset.nodes:
            want = rank_oracle(chains_by_leq(poset, nd.id), field)
            assert mults[nd.id] == want, (poset.ids(), nd.id, field)


def test_multiplicities_match_rank_oracle():
    for poset in oracle_posets():
        assert_matches_rank_oracle(poset)


def test_multiplicities_match_order_complex_reference():
    # the reference lists each open interval's order complex one
    # comparison at a time and reduces its full boundary maps
    for poset in (
        build_Q_poset(Graph.path(6)),
        build_Q_poset(Graph.from_edges(5, cycle_edges(5))),
        build_Q_poset(
            parse_graph_file((DATA / "k35.edges").read_text(encoding="utf-8"))
        ),
        parse_poset_doc((DATA / "abstract7.json").read_text(encoding="utf-8")),
    ):
        assert_matches_rank_oracle(poset)


def with_bottom(elements, pairs):
    """The poset of the given elements and pairs (a, b), a <= b, plus a bottom."""
    nodes = [node("bottom", 0)] + [node(pid, 0) for pid in elements]
    pairs = list(pairs) + [("bottom", pid) for pid in elements]
    return AnalysisPoset.from_relations(nodes, pairs)


RP2_FACETS = [
    (1, 2, 6), (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]


def face_poset(facets):
    """The faces of a complex, a face below each of its own faces, over a bottom.

    The interval above the bottom is the complex's barycentric subdivision.
    """
    faces = {
        frozenset(f)
        for facet in facets
        for k in range(1, len(facet) + 1)
        for f in itertools.combinations(facet, k)
    }
    name = {f: "f" + "".join(map(str, sorted(f))) for f in faces}
    return with_bottom(
        sorted(name.values()),
        [(name[f], name[g]) for f in faces for g in faces if g < f],
    )


def projective_plane_faces():
    # GF(2) homology {1: 1, 2: 1}, and none over Q
    return face_poset(RP2_FACETS)


def suspended_projective_plane_faces():
    # the suspension of RP^2, with apexes 7 and 8: its homology is RP^2's
    # one degree up, so GF(2) {2: 1, 3: 1}, and none over Q
    return face_poset([facet + (apex,) for facet in RP2_FACETS for apex in (7, 8)])


def count_methods(monkeypatch):
    """Lists that record each resolution, as (size, p), and each position
    that a graph sweep answers."""
    resolve = AnalysisPoset._resolution_homology
    sweep = AnalysisPoset._graph_sweep
    resolved, graphed = [], []

    def counted_resolution(poset, p):
        resolved.append((len(poset), p))
        return resolve(poset, p)

    def counted_sweep(poset):
        dims = sweep(poset)
        graphed.extend(range(len(dims)))
        return dims

    monkeypatch.setattr(AnalysisPoset, "_resolution_homology", counted_resolution)
    monkeypatch.setattr(AnalysisPoset, "_graph_sweep", counted_sweep)
    return resolved, graphed


def test_projective_plane_interval_depends_on_the_field():
    # torsion makes Q and GF(2) differ, so Q needs its own resolution
    poset = projective_plane_faces()
    assert len(poset) == 32
    for field, want in ((QQ, {}), (GF2, {1: 1, 2: 1}), (GF3, {})):
        assert multiplicities(poset, field)["bottom"] == want, field
    assert_matches_rank_oracle(poset)


def test_suspended_projective_plane_interval_depends_on_the_field(monkeypatch):
    # GF(2) homology in degrees 2 and 3, consecutive and above degree 0,
    # so Q runs its own resolution after the GF(2) one
    poset = suspended_projective_plane_faces()
    assert len(poset) == 96
    resolved, _ = count_methods(monkeypatch)
    for field, want in ((QQ, {}), (GF2, {2: 1, 3: 1}), (GF3, {})):
        assert multiplicities(poset, field)["bottom"] == want, field
    assert resolved == [(96, 2), (96, 0), (96, 2), (96, 3)]
    assert_matches_rank_oracle(poset)


def point_and_crown():
    # above the bottom: a point and a crown b1, b2 < c1, c2, whose order
    # complex is a 4-cycle, so a point and a circle
    return with_bottom(
        ["a", "b1", "b2", "c1", "c2"],
        [(b, c) for b in ("b1", "b2") for c in ("c1", "c2")],
    )


def test_torsion_free_interval_in_two_degrees(monkeypatch):
    # no chain of three elements, so the graph method reads every interval
    # off its comparability graph: above the bottom V = 5, E = 4 and 2
    # components
    poset = point_and_crown()
    resolved, graphed = count_methods(monkeypatch)
    for field in (QQ, GF2, GF3):
        assert multiplicities(poset, field)["bottom"] == {0: 1, 1: 1}, field
    assert resolved == []
    assert graphed == list(range(len(poset))) * 3
    assert_matches_rank_oracle(poset)


def test_torsion_free_rank_three_interval_in_two_degrees(monkeypatch):
    # above the bottom: a point and the octahedral 2-sphere
    # x1, x2 < y1, y2 < z1, z2.  Its GF(2) homology lies in degrees 0 and
    # 2, no two of them consecutive, so it is the rational homology too
    # and Q runs no resolution of its own
    levels = [("x1", "x2"), ("y1", "y2"), ("z1", "z2")]
    poset = with_bottom(
        ["a"] + [pid for level in levels for pid in level],
        [
            (a, b)
            for i, lower in enumerate(levels)
            for upper in levels[i + 1:]
            for a in lower
            for b in upper
        ],
    )
    assert poset.ids()[0] == "bottom"
    resolved, graphed = count_methods(monkeypatch)
    for field in (QQ, GF2, GF3):
        assert multiplicities(poset, field)["bottom"] == {0: 1, 2: 1}, field
    assert resolved == [(8, 2), (8, 2), (8, 3)]
    assert graphed == []
    assert_matches_rank_oracle(poset)


def test_graph_intervals_are_those_without_three_chains(monkeypatch):
    # the graph method answers a poset exactly when none of its intervals
    # holds a chain of three elements; otherwise one resolution answers all
    resolved, graphed = count_methods(monkeypatch)
    seen = set()
    for poset in oracle_posets():
        longest = max(max(map(len, chains_by_leq(poset, pid))) for pid in poset.ids())
        resolved.clear()
        graphed.clear()
        poset.homology(2)
        if longest > 2:
            assert (resolved, graphed) == ([(len(poset), 2)], []), poset.ids()
        else:
            assert (resolved, graphed) == ([], list(range(len(poset)))), poset.ids()
        seen.add(longest > 2)
    assert seen == {False, True}


def test_chain_masks_keep_the_face_budget_exact(monkeypatch):
    # the budget counts every chain of the interval, the empty one too
    resolved, graphed = count_methods(monkeypatch)
    for poset in (build_Q_poset(Graph.path(5)), ranked_poset(0)):
        most = 0
        for k, pid in enumerate(poset.ids()):
            faces = len(chains_by_leq(poset, pid))
            most = max(most, faces)
            poset._check_faces([k], faces)
            with pytest.raises(
                FaceBudgetExceeded, match="^chain enumeration passed"
            ) as e:
                poset._check_faces([k], faces - 1)
            assert e.value.max_faces == faces - 1
        # homology sizes every interval before it computes any
        with pytest.raises(FaceBudgetExceeded) as e:
            poset.homology(2, max_faces=most - 1)
        assert e.value.max_faces == most - 1
        assert resolved == graphed == []
        poset.homology(2, max_faces=most)
        resolved.clear()
        graphed.clear()


def test_graph_method_keeps_the_face_budget_exact():
    # the largest interval, above the bottom, has 1 + V + E faces
    poset = point_and_crown()
    assert multiplicities(poset, max_faces=1 + 5 + 4)["bottom"] == {0: 1, 1: 1}
    with pytest.raises(FaceBudgetExceeded, match="^chain enumeration passed") as e:
        multiplicities(poset, max_faces=1 + 5 + 4 - 1)
    assert e.value.max_faces == 1 + 5 + 4 - 1
    single = parse_poset_doc('{"format": 1, "elements": [{"id": "a", "dim": 0}]}')
    assert multiplicities(single, max_faces=1) == {"a": {-1: 1}}
    with pytest.raises(FaceBudgetExceeded, match="^chain enumeration passed") as e:
        multiplicities(single, max_faces=0)
    assert e.value.max_faces == 0


def test_graph_intervals_skip_chain_enumeration(monkeypatch):
    resolved, graphed = count_methods(monkeypatch)
    for field in (QQ, GF2, GF3):
        multiplicities(ranked_poset(0), field)
    assert resolved == []
    # path6 has 41 elements, and 6 intervals hold a chain of three: one
    # resolution answers all 41 and the graph method none, and over Q the
    # GF(2) certificate is enough
    graphed.clear()
    path6 = build_Q_poset(Graph.path(6))
    for field in (QQ, GF2, GF3):
        multiplicities(path6, field)
    assert resolved == [(41, 2), (41, 2), (41, 3)]
    assert graphed == []
    # RP^2's GF(2) homology is nonzero in degrees 1 and 2, so Q resolves again
    resolved.clear()
    multiplicities(projective_plane_faces(), QQ)
    assert resolved == [(32, 2), (32, 0)]


def test_neg_inf_prints_as_minus_inf():
    assert defreg.NEG_INF is NEG_INF
    assert str(NEG_INF) == repr(NEG_INF) == "-inf"


def test_negative_infinity_ordering():
    assert NEG_INF < -10**9
    assert NEG_INF <= NEG_INF
    assert not NEG_INF < NEG_INF
    assert 0 > NEG_INF
    assert max(NEG_INF, 3) == 3
    assert max(NEG_INF, NEG_INF) is NEG_INF


def test_layers_are_sparse_in_the_dimension():
    # one element of dimension 4000: a dense layer table would hold
    # 4001 * 4002 / 2 lists, one per (j, k) with k <= j
    poset = parse_poset_doc('{"format": 1, "elements": [{"id": "a", "dim": 4000}]}')
    report = analyze(poset)
    assert len(report.entries) == 4001
    nonzero = sum(len(dims) for dims in report.multiplicities.values())
    assert sum(len(e.layers) for e in report.entries) <= nonzero == 1
    assert report.entries[4000].layers == {0: (("a", 1),)}
    assert report.entries[3999].bound == NEG_INF
