"""The graph build's face budget, tested on label prefixes, against the full build.

Given --max-faces, build_Q_poset counts the faces of the label prefix at
the fold where it reaches 64 elements, and at 4 times as many each time
after; once one trips, the turns left run count-only and the build
raises FaceBudgetExceeded after the last.  The CLI must print exactly
what the reference flow prints: the whole poset built with no face
budget, then analyze.
"""

import pathlib

import pytest

import defreg.cli
from defreg import binomial_edge
from defreg.binomial_edge import Graph, build_Q_poset
from defreg.cli import run
from defreg.posets import AnalysisPoset, ClosureBudgetExceeded
from golden import _edges_text, corpus_inputs, write_inputs
from oracle import cycle_edges
from test_closure_reference import BUDGET_GRAPHS

FACES = ((), ("--max-faces", "5"), ("--max-faces", "20"), ("--max-faces", "200"),
         ("--max-faces", str(10**15)))
POSETS = ((), ("--max-poset", "5"), ("--max-poset", "20"), ("--max-poset", "100"))
FIELDS = ((), ("--field", "gf:2"))


def named_graphs():
    graphs = {f"path{n}": Graph.path(n) for n in range(5, 11)}
    graphs.update(
        (f"cycle{n}", Graph.from_edges(n, cycle_edges(n))) for n in range(5, 10)
    )
    graphs.update((f"reference_{name}", g) for name, g in BUDGET_GRAPHS.items())
    return graphs


NAMED = named_graphs()
GOLDEN_FILES, GOLDEN_ARGVS = corpus_inputs()
GOLDEN_GRAPH_ARGVS = [argv for argv in GOLDEN_ARGVS if argv[1] == "graph"]


def write_graph(directory, graph):
    path = pathlib.Path(directory) / "g.edges"
    path.write_text(_edges_text(graph.n, sorted(graph.edges)), encoding="utf-8")
    return ["--mode", "graph", "--edges", str(path)]


def assert_runs_match_the_reference(monkeypatch, argv):
    """run(argv) under every budget pair and both fields, against the reference.

    The reference builds each closure once per element budget, with no
    face budget, and analyze then sizes it as before.
    """
    built = {}

    def reference_build(graph, *, max_elements, max_faces):
        key = graph, max_elements
        if key not in built:
            try:
                built[key] = build_Q_poset(graph, max_elements=max_elements)
            except ClosureBudgetExceeded as e:
                built[key] = e
        if isinstance(built[key], ClosureBudgetExceeded):
            raise built[key]
        return built[key]

    for faces in FACES:
        for elements in POSETS:
            for field in FIELDS:
                full = [*argv, *faces, *elements, *field]
                with monkeypatch.context() as m:
                    m.setattr(defreg.cli, "build_Q_poset", reference_build)
                    want = run(full)
                assert run(full) == want, full


@pytest.mark.parametrize("name", NAMED)
def test_named_graphs_print_the_reference_bytes(monkeypatch, tmp_path, name):
    assert_runs_match_the_reference(monkeypatch, write_graph(tmp_path, NAMED[name]))


@pytest.mark.parametrize(
    "argv", GOLDEN_GRAPH_ARGVS, ids=[argv[3] for argv in GOLDEN_GRAPH_ARGVS]
)
def test_golden_graph_argvs_print_the_reference_bytes(monkeypatch, tmp_path, argv):
    write_inputs(GOLDEN_FILES, tmp_path)
    monkeypatch.chdir(tmp_path)
    assert_runs_match_the_reference(monkeypatch, argv)


@pytest.fixture
def constructed(monkeypatch):
    """The sizes AnalysisPoset is constructed with, and the turns taken."""
    sizes, turns = [], []
    init = AnalysisPoset.__init__
    closure = binomial_edge.join_closure

    def recorded(self, nodes, up, **kwargs):
        sizes.append(len(nodes))
        init(self, nodes, up, **kwargs)

    def counted(generators, sums_with, **kwargs):
        def turn(rep):
            turns.append(rep)
            return sums_with(rep)

        return closure(generators, turn, **kwargs)

    monkeypatch.setattr(AnalysisPoset, "__init__", recorded)
    monkeypatch.setattr(binomial_edge, "join_closure", counted)
    return sizes, turns


FACE_LINE = "error: chain enumeration passed the face budget of {}\n"


def test_path9_counts_one_prefix_and_runs_every_turn(tmp_path, constructed):
    # 25 of path9's 577 elements already pass 200 faces, so the first
    # prefix trips, and the closure runs on, count-only, to its end
    sizes, turns = constructed
    argv = write_graph(tmp_path, Graph.path(9))
    assert run([*argv, "--max-faces", "200"]) == (2, FACE_LINE.format(200))
    assert sizes == [64]
    assert len(turns) == 577


def test_path9_prefix_trip_keeps_the_element_budget_first(tmp_path, constructed):
    # the 64-element prefix trips, but the closure passes 100 elements
    # before its last turn, and that is the line printed
    sizes, _ = constructed
    argv = write_graph(tmp_path, Graph.path(9))
    assert run([*argv, "--max-poset", "100", "--max-faces", "200"]) == (
        2, "error: sum closure passed the element budget of 100\n"
    )
    assert sizes == [64]


def test_path10_trips_on_its_second_prefix(tmp_path, constructed):
    # the first 180 of path10's 1,393 elements pass the default budget
    sizes, turns = constructed
    argv = write_graph(tmp_path, Graph.path(10))
    assert run(argv) == (2, FACE_LINE.format(200_000))
    assert sizes == [64, 256]
    assert len(turns) == 1393


def test_path8_counts_one_prefix_then_builds_the_same_poset(tmp_path, constructed):
    sizes, _ = constructed
    graph = Graph.path(8)
    code, text = run(write_graph(tmp_path, graph))
    assert code == 0 and "poset size: 239\n" in text
    assert sizes == [64, 239]
    budgeted = build_Q_poset(graph, max_faces=200_000)
    plain = build_Q_poset(graph)
    assert budgeted.ids() == plain.ids()
    assert [nd.ideal for nd in budgeted.nodes] == [nd.ideal for nd in plain.nodes]
    assert budgeted.up == plain.up
