import pathlib

import pytest

from defreg.binomial_edge import Graph, build_Q_poset
from defreg.bounds import (
    SJSet,
    analyze,
    check_conditions,
    filtration_report,
    multiplicities,
    murai_terai_level,
    nonvanishing_witnesses,
    regularity_bound,
    s_set,
)
from defreg.cli import parse_graph_file, parse_poset_doc
from defreg.complexes import FaceBudgetExceeded, reduced_homology
from defreg.exactfield import FieldSpec
from defreg.monomial import SquarefreeIdeal, build_monomial_poset
from defreg.posets import AnalysisPoset, IdealNode, RingContext, order_complex
from defreg.ultrametric import NEG_INF

DATA = pathlib.Path(__file__).parent / "data"
RING4 = RingContext(("x", "y", "z", "w"))
QQ = FieldSpec.rationals()
GF2 = FieldSpec.prime_field(2)


def skew_lines_poset():
    ideal = SquarefreeIdeal.create(
        RING4, [["x", "z"], ["x", "w"], ["y", "z"], ["y", "w"]]
    )
    return build_monomial_poset(ideal)


def node(pid, dim, height=None, is_cm=True):
    return IdealNode(id=pid, ideal=None, dim=dim, height=height, is_cm=is_cm)


def test_multiplicities_of_skew_lines():
    poset = skew_lines_poset()
    table = multiplicities(poset)
    assert table.field.is_rationals
    assert table.profiles["p_1"].nonzero() == {-1: 1}
    assert table.profiles["p_2"].nonzero() == {-1: 1}
    # the open interval above the bottom is a two point antichain
    assert table.profiles["p_3"].nonzero() == {0: 1}
    assert table.mult("p_3", 5) == 0


def test_s_sets_of_skew_lines():
    poset = skew_lines_poset()
    table = multiplicities(poset)
    assert s_set(poset, table, 0).members == ()
    assert s_set(poset, table, 1).members == ("p_3",)
    assert s_set(poset, table, 2).members == ("p_1", "p_2")


def test_regularity_bound_folds_dims():
    poset = skew_lines_poset()
    table = multiplicities(poset)
    assert regularity_bound(poset, s_set(poset, table, 2)) == (2, 2)
    assert regularity_bound(poset, s_set(poset, table, 1)) == (0, 1)
    empty = SJSet(j=0, members=())
    bound, cap = regularity_bound(poset, empty)
    assert bound is NEG_INF
    assert cap == 0


def test_filtration_layers():
    poset = skew_lines_poset()
    table = multiplicities(poset)
    layers2 = filtration_report(poset, table, 2)
    assert [layer.k for layer in layers2] == [0, 1, 2]
    assert layers2[0].summands == (("p_1", 1), ("p_2", 1))
    assert layers2[1].summands == ()
    assert layers2[2].summands == ()
    layers1 = filtration_report(poset, table, 1)
    assert layers1[0].summands == ()
    assert layers1[1].summands == (("p_3", 1),)


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


def test_conditions_flag_non_cm():
    poset = AnalysisPoset.from_relations(
        [node("a", 1, height=2, is_cm=False)], []
    )
    report = check_conditions(poset)
    assert not report.cohen_macaulay
    assert not report.certified


def test_witnesses():
    poset = skew_lines_poset()
    assert nonvanishing_witnesses(poset, 2) == ("p_1", "p_2")
    assert nonvanishing_witnesses(poset, 0) == ()


def test_murai_terai_level():
    assert murai_terai_level({0: NEG_INF, 1: 0, 2: 2}, 2) == (1, False)
    assert murai_terai_level({0: 0, 1: 0, 2: 2}, 2) == (0, False)
    assert murai_terai_level({0: NEG_INF, 1: NEG_INF, 2: 2}, 2) == (2, True)
    assert murai_terai_level({}, 5) == (5, True)


def test_analyze_full_report():
    report = analyze(skew_lines_poset())
    assert report.ambient_dim == 2
    assert [e.j for e in report.entries] == [0, 1, 2]
    assert [e.bound for e in report.entries] == [NEG_INF, 0, 2]
    assert [e.cap for e in report.entries] == [0, 1, 2]
    assert all(e.certified for e in report.entries)
    assert (report.mt_level, report.mt_capped) == (1, False)
    assert report.assumptions == ()
    assert report.entries[0].witnesses is None
    assert report.entries[0].layers is None


def test_analyze_optional_sections_and_degrees():
    report = analyze(
        skew_lines_poset(),
        js=[2, 5],
        include_layers=True,
        include_witnesses=True,
    )
    assert [e.j for e in report.entries] == [2, 5]
    assert report.entries[0].witnesses == ("p_1", "p_2")
    assert len(report.entries[0].layers) == 3
    # a degree past the ambient dimension has nothing contributing
    assert report.entries[1].bound is NEG_INF
    assert report.entries[1].layers is not None
    # the level only looks below the ambient dimension, not at js
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


def cycle(n):
    return Graph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])


def test_multiplicities_match_order_complex_reference():
    # the reference builds each interval poset and its order complex
    posets = [
        build_Q_poset(Graph.path(6)),
        build_Q_poset(cycle(5)),
        build_Q_poset(parse_graph_file((DATA / "k35.edges").read_text())),
        parse_poset_doc((DATA / "abstract7.json").read_text()),
    ]
    for poset in posets:
        for field in (QQ, GF2):
            table = multiplicities(poset, field)
            for nd in poset.nodes:
                above = poset.open_interval_above(nd.id)
                ref = reduced_homology(order_complex(above), field)
                assert table.profiles[nd.id] == ref, (nd.id, field)


def test_interval_face_budget_is_exact():
    # a chain of 8: the interval above the bottom is a 7-chain, whose
    # order complex has 2**7 faces, the empty chain included
    ids = [f"c{k}" for k in range(8)]
    poset = AnalysisPoset.from_relations(
        [node(pid, 8 - k) for k, pid in enumerate(ids)],
        [(a, b) for k, a in enumerate(ids) for b in ids[k:]],
    )
    assert multiplicities(poset, max_faces=2**7).mult("c0", -1) == 0
    with pytest.raises(FaceBudgetExceeded, match="^chain enumeration passed"):
        multiplicities(poset, max_faces=2**7 - 1)
    with pytest.raises(FaceBudgetExceeded, match="^chain enumeration passed"):
        order_complex(poset, max_faces=2**8 - 1)
    assert len(order_complex(poset, max_faces=2**8)) == 2**8


def mobius_to_top(poset):
    """mu(p, top) for the virtual top: -1 minus the sum over the strict up-set."""
    ids = poset.ids()
    up = {a: [b for b in ids if b != a and poset.leq(a, b)] for a in ids}
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
        for table in tables.values():
            profile = table.profiles[nd.id]
            euler = sum((-1) ** d * v for d, v in profile.dims.items())
            assert euler == mu[nd.id], nd.id
        q, two = (tables[f].profiles[nd.id] for f in (QQ, GF2))
        assert all(q.dim(d) <= two.dim(d) for d in set(q.dims) | set(two.dims))
