"""The graph build's face budget, tested on label prefixes, against the full build.

Given --max-faces, build_Q_poset counts the faces of the label prefix at
the fold where it reaches 64 elements, and at 4 times as many each time
after.  Once one trips, the build raises FaceBudgetExceeded on that turn
when a walk over the kill sets proves that no element budget can trip;
otherwise the turns left run count-only and it raises after the last.
The CLI must print exactly what the reference flow prints: the whole
poset built with no face budget, then analyze.  The walk rests on every
element of the closure containing the graph's ideal, which is checked
on whole closures here.
"""

import itertools
import pathlib
import random

import pytest

import defreg.cli
from defreg import binomial_edge
from defreg.binomial_edge import Graph, _neighbourhoods, _prime_space, build_Q_poset
from defreg.cli import run
from defreg.posets import AnalysisPoset, ClosureBudgetExceeded
from golden import _edges_text, corpus_inputs, write_inputs
from oracle import components, cycle_edges
from primes import clique, vertex_mask
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


def test_path9_counts_one_prefix_and_stops_there(tmp_path, constructed):
    # 25 of path9's 577 elements already pass 200 faces, so the first
    # prefix trips, and as only 2,243 primes contain path9's ideal, no
    # element budget can trip: the build raises on that turn
    sizes, turns = constructed
    argv = write_graph(tmp_path, Graph.path(9))
    assert run([*argv, "--max-faces", "200"]) == (2, FACE_LINE.format(200))
    assert sizes == [64]
    assert len(turns) == 64


def test_path9_runs_every_turn_under_an_uncertified_element_budget(
    tmp_path, constructed
):
    # 2,243 primes contain path9's ideal, more than 2,000, so after the
    # first prefix trips the closure runs on, count-only, to its end
    sizes, turns = constructed
    argv = write_graph(tmp_path, Graph.path(9))
    assert run([*argv, "--max-poset", "2000", "--max-faces", "200"]) == (
        2, FACE_LINE.format(200)
    )
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
    assert len(turns) == 256


def test_cycle10_stops_after_its_256_prefix(tmp_path, constructed):
    # the first 170 of cycle10's 4,136 elements pass the default budget,
    # and only 4,486 primes contain its ideal
    sizes, turns = constructed
    argv = write_graph(tmp_path, Graph.from_edges(10, cycle_edges(10)))
    assert run(argv) == (2, FACE_LINE.format(200_000))
    assert sizes == [64, 256]
    assert len(turns) == 256


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


def prime_space_graphs():
    graphs = {f"path{n}": Graph.path(n) for n in range(2, 10)}
    graphs.update(
        (f"cycle{n}", Graph.from_edges(n, cycle_edges(n))) for n in range(3, 10)
    )
    graphs["k35"] = Graph.complete_bipartite(3, 5)
    graphs["k44"] = Graph.complete_bipartite(4, 4)
    graphs.update((f"reference_{name}", g) for name, g in BUDGET_GRAPHS.items())
    rng = random.Random(40)
    for k in range(40):
        n = rng.randint(5, 8)
        pairs = itertools.combinations(range(1, n + 1), 2)
        edges = [e for e in pairs if rng.random() < 0.4]
        graphs[f"seeded{k}"] = Graph.from_edges(n, edges)
    return graphs


PRIME_SPACE_GRAPHS = prime_space_graphs()


@pytest.mark.parametrize("name", PRIME_SPACE_GRAPHS)
def test_every_element_lies_in_the_prime_space(name):
    # each element contains the graph's ideal: every component of G - kill
    # lies in one of its blocks; so the walk counts at least the closure,
    # and a budget one short of it is not certified
    graph = PRIME_SPACE_GRAPHS[name]
    n = graph.n
    poset = build_Q_poset(graph)
    for node in poset.nodes:
        kill, blocks = clique(n, node.ideal)
        unkilled = [v for v in range(1, n + 1) if not kill >> v - 1 & 1]
        for comp in components(unkilled, graph.edges):
            assert any(vertex_mask(comp) & ~b == 0 for b in blocks), node.id
    rows = _neighbourhoods(graph)
    assert _prime_space(rows) >= len(poset)
    assert _prime_space(rows, len(poset) - 1) > len(poset) - 1


def partitions(items):
    """Every set partition of the list items, as a list of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in partitions(rest):
        yield [[first], *blocks]
        for i in range(len(blocks)):
            yield [*blocks[:i], [first, *blocks[i]], *blocks[i + 1:]]


def test_prime_space_counts_the_primes_that_contain_the_ideal():
    # on every graph on at most four vertices, against every (kill set,
    # partition of the rest) whose blocks hold each edge left
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for r in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, r):
                count = 0
                for kill in range(1 << n):
                    unkilled = [v for v in range(1, n + 1) if not kill >> v - 1 & 1]
                    for blocks in partitions(unkilled):
                        block_of = {v: i for i, b in enumerate(blocks) for v in b}
                        count += all(
                            block_of[u] == block_of[v]
                            for u, v in edges
                            if u in block_of and v in block_of
                        )
                rows = _neighbourhoods(Graph.from_edges(n, edges))
                assert _prime_space(rows) == count, (n, edges)
                assert _prime_space(rows, count) == count
                assert _prime_space(rows, count - 1) > count - 1


@pytest.mark.parametrize(("graph", "size"), [
    (Graph.path(9), 2_243),
    (Graph.path(10), 6_073),
    (Graph.from_edges(10, cycle_edges(10)), 4_486),
    (Graph.path(11), 16_737),
    (Graph.from_edges(11, cycle_edges(11)), 12_146),
    (Graph.path(12), 46_905),
], ids=["path9", "path10", "cycle10", "path11", "cycle11", "path12"])
def test_prime_space_sizes(graph, size):
    rows = _neighbourhoods(graph)
    assert _prime_space(rows) == size
    assert _prime_space(rows, size) == size
