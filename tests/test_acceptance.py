"""End-to-end checks of the advertised behavior, one criterion per test.

Each test records a PASS or FAIL line; the lines are echoed in a terminal
summary section after the run (see conftest.py), so a plain `pytest -v`
shows the full scorecard.
"""

import itertools
import json
import os
import pathlib
import random
import subprocess
import sys

from defreg.binomial_edge import (
    Graph,
    build_Q_poset,
    minimal_primes_graph,
)
from defreg.bounds import NEG_INF, analyze, check_conditions, multiplicities
from defreg.cli import parse_poset_doc, run
from defreg.complexes import FieldSpec, homology_of_faces
from defreg.monomial import (
    SquarefreeIdeal,
    build_monomial_poset,
    minimal_primes,
)
from defreg.posets import AnalysisPoset, IdealNode, RingContext
from oracle import (
    components,
    cover_primes,
    faces_by_size,
    graph_primes_by_enumeration,
    prime_key,
)
from primes import clique, face_primes, plain_primes

DATA = pathlib.Path(__file__).parent / "data"

RESULTS = []


def _check(number, message, body):
    try:
        body()
    except BaseException:
        RESULTS.append(f"criterion {number:02d}: FAIL  {message}")
        raise
    line = f"criterion {number:02d}: PASS  {message}"
    RESULTS.append(line)
    print(line)


def _bounds_by_j(report):
    return {e.j: (tuple(e.members), e.bound) for e in report.entries}


def test_criterion_01_two_skew_lines():
    def body():
        ideal = SquarefreeIdeal.create(
            RingContext(("x", "y", "z", "w")),
            [["x", "z"], ["x", "w"], ["y", "z"], ["y", "w"]],
        )
        poset = build_monomial_poset(ideal)
        assert sorted(nd.dim for nd in poset.nodes) == [0, 2, 2]
        report = analyze(poset)
        got = _bounds_by_j(report)
        assert got[0] == ((), NEG_INF)
        assert got[1] == (("p_3",), 0)
        assert got[2] == (("p_1", "p_2"), 2)

    _check(1, "two skew lines: S_j sets and bounds", body)


def test_criterion_02_line_and_plane():
    def body():
        ideal = SquarefreeIdeal.create(
            RingContext(("x", "y", "z")), [["x", "y"], ["x", "z"]]
        )
        poset = build_monomial_poset(ideal)
        assert [nd.dim for nd in poset.nodes] == [2, 1, 0]
        report = analyze(poset)
        got = _bounds_by_j(report)
        assert got[0] == ((), NEG_INF)
        assert got[1] == (("p_2", "p_3"), 1)
        assert got[2] == (("p_1",), 2)

    _check(2, "a plane and a line: S_j sets and bounds", body)


def test_criterion_03_abstract_seven_components():
    def body():
        poset = parse_poset_doc((DATA / "abstract7.json").read_text(encoding="utf-8"))
        assert [nd.dim for nd in poset.nodes] == [3, 2, 3, 1, 2, 1, 0]
        report = analyze(poset)
        got = _bounds_by_j(report)
        assert got[0] == ((), NEG_INF)
        assert got[1] == ((), NEG_INF)
        assert got[2] == (("p_2", "p_4", "p_6", "p_7"), 2)
        assert got[3] == (("p_1", "p_3", "p_5"), 3)

    _check(3, "seven component abstract poset: S_2, S_3 and bounds", body)


def test_criterion_04_path_on_five_vertices():
    def body():
        poset = build_Q_poset(Graph.path(5))
        assert len(poset) == 17
        assert {nd.dim for nd in poset.nodes} == {3, 4, 5, 6}

    _check(4, "path on five vertices: 17 sums with dims 3..6", body)


def test_criterion_05_complete_bipartite_3_5():
    def body():
        poset = build_Q_poset(Graph.complete_bipartite(3, 5))
        assert len(poset) == 6
        assert tuple(nd.dim for nd in poset.nodes) == (10, 9, 6, 6, 0, 4)
        assert set(poset.hasse()) == {
            ("p_3", "p_1"),
            ("p_3", "p_2"),
            ("p_6", "p_2"),
            ("p_6", "p_4"),
            ("p_5", "p_3"),
            ("p_5", "p_6"),
        }
        report = analyze(poset)
        got = _bounds_by_j(report)
        expected = {
            5: (("p_6",), 4),
            6: (("p_4",), 6),
            7: (("p_3",), 6),
            9: (("p_2",), 9),
            10: (("p_1",), 10),
        }
        for j in range(11):
            if j in expected:
                assert got[j] == expected[j]
            else:
                assert got[j] == ((), NEG_INF)

    _check(5, "complete bipartite 3+5: labels, covers and bounds", body)


def test_criterion_06_random_monomial_ideals_vs_oracle():
    def body():
        rng = random.Random(60616)
        for _ in range(200):
            nvars = rng.randint(2, 8)
            ring = RingContext(tuple(f"v{i}" for i in range(nvars)))
            gens = []
            for _ in range(rng.randint(1, 6)):
                size = rng.randint(1, min(4, nvars))
                gens.append(rng.sample(ring.var_names, size))
            ideal = SquarefreeIdeal.create(ring, gens)
            got = face_primes(ring, minimal_primes(ideal))
            assert got == cover_primes(ring, face_primes(ring, ideal.generators))

    _check(6, "random squarefree ideals match the covering oracle", body)


def _engine_primes(n, edges):
    """The engine's minimal primes of the graph, in plain_primes form."""
    reps = minimal_primes_graph(Graph.from_edges(n, edges))
    return plain_primes(n, (clique(n, rep) for rep in reps))


def _oracle_primes(n, edges):
    """graph_primes_by_enumeration's answer, in plain_primes form."""
    return sorted(prime_key(p)[1:] for p in graph_primes_by_enumeration(n, edges))


def _relabel(primes, perm):
    """The oracle's primes with each vertex v renamed perm[v - 1], re-sorted.

    Killed vertices, blocks and the list are sorted again, as the oracle
    sorts its own answer, so the result is what it gives on the image.
    """

    def image(vertices):
        return tuple(sorted(perm[v - 1] for v in vertices))

    return sorted(
        (image(killed), tuple(sorted(map(image, blocks))))
        for killed, blocks in primes
    )


def test_criterion_07_graph_primes_vs_oracle():
    def body():
        cases = 0
        for n in range(1, 7):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            perms = list(itertools.permutations(range(1, n + 1)))
            # the oracle runs once per isomorphism class: at the first
            # labelling met, its answer is relabelled onto the whole orbit
            want = {}
            for picks in itertools.product((False, True), repeat=len(pairs)):
                edges = [e for e, take in zip(pairs, picks) if take]
                if len(components(range(1, n + 1), edges)) > 1:
                    continue
                if frozenset(edges) not in want:
                    primes = _oracle_primes(n, edges)
                    for perm in perms:
                        image = frozenset(
                            tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in edges
                        )
                        if image not in want:
                            want[image] = _relabel(primes, perm)
                got = _engine_primes(n, edges)
                assert got == want[frozenset(edges)]
                cases += 1
        assert cases > 27000
        rng = random.Random(70707)
        for _ in range(100):
            n = rng.randint(2, 8)
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            edges = [e for e in pairs if rng.random() < 0.4]
            got = _engine_primes(n, edges)
            assert got == _oracle_primes(n, edges)

    _check(7, "graph primes match the enumerate and minimize oracle", body)


def test_criterion_08_bounds_never_exceed_degree():
    def body():
        reports = [
            analyze(
                build_monomial_poset(
                    SquarefreeIdeal.create(
                        RingContext(("x", "y", "z", "w")),
                        [["x", "z"], ["x", "w"], ["y", "z"], ["y", "w"]],
                    )
                )
            ),
            analyze(
                parse_poset_doc((DATA / "abstract7.json").read_text(encoding="utf-8"))
            ),
            analyze(build_Q_poset(Graph.path(5))),
            analyze(build_Q_poset(Graph.complete_bipartite(3, 5))),
        ]
        rng = random.Random(808)
        for _ in range(20):
            nvars = rng.randint(2, 5)
            ring = RingContext(tuple(f"v{i}" for i in range(nvars)))
            gens = [
                rng.sample(ring.var_names, rng.randint(1, min(3, nvars)))
                for _ in range(rng.randint(1, 4))
            ]
            ideal = SquarefreeIdeal.create(ring, gens)
            reports.append(analyze(build_monomial_poset(ideal)))
        for report in reports:
            # the entry of K^j sits at index j, and j is its cap
            assert [e.j for e in report.entries] == list(range(len(report.entries)))
            for e in report.entries:
                assert e.bound <= e.j

    _check(8, "every bound is capped by its degree", body)


def test_criterion_09_random_complex_identities():
    def body():
        qq = FieldSpec.rationals()
        gf2 = FieldSpec.prime_field(2)
        rng = random.Random(90909)
        for _ in range(300):
            nverts = rng.randint(1, 12)
            facets = []
            for _ in range(rng.randint(1, 8)):
                size = rng.randint(1, min(4, nverts))
                facets.append(tuple(rng.sample(range(1, nverts + 1), size)))
            faces = faces_by_size(facets)
            hq = homology_of_faces(faces, qq)
            h2 = homology_of_faces(faces, gf2)
            # vertices are the one-bit faces, edges the two-bit ones
            edges = [(e & -e, e & e - 1) for e in (faces[2] if len(faces) > 2 else ())]
            assert hq.get(0, 0) == len(components(faces[1], edges)) - 1
            # a face with k vertices has dimension k - 1
            euler = sum((-1) ** (k - 1) * len(level) for k, level in enumerate(faces))
            assert euler == sum((-1) ** i * v for i, v in hq.items())
            assert euler == sum((-1) ** i * v for i, v in h2.items())
            assert all(v <= h2.get(i, 0) for i, v in hq.items())

    _check(9, "random complexes satisfy the homology identities", body)


def test_criterion_10_structural_sanity():
    def body():
        posets = [
            build_monomial_poset(
                SquarefreeIdeal.create(
                    RingContext(("x", "y", "z", "w")),
                    [["x", "z"], ["x", "w"], ["y", "z"], ["y", "w"]],
                )
            ),
            build_Q_poset(Graph.path(5)),
            build_Q_poset(Graph.complete_bipartite(3, 5)),
            # a chain a < b < c with full heights: above a and above b the
            # interval has a least element
            parse_poset_doc(json.dumps({
                "format": 1,
                "nvars": 3,
                "elements": [
                    {"id": c, "dim": k, "height": 3 - k}
                    for k, c in enumerate("abc")
                ],
                "relations": [["a", "b"], ["b", "c"]],
            })),
        ]
        cones = 0
        for poset in posets:
            assert check_conditions(poset).strict_heights is True
            mults = multiplicities(poset)
            for k, nd in enumerate(poset.nodes):
                alive = -1 in mults[nd.id]
                assert alive == poset.is_maximal(k)
                # an interval with a least element is a cone, hence acyclic
                above = poset.up[k] ^ 1 << k
                has_min = any(
                    above >> m & 1 and above & ~poset.up[m] == 0
                    for m in range(len(poset))
                )
                if has_min:
                    assert mults[nd.id] == {}
                    cones += 1
        assert cones >= 2
        chain = AnalysisPoset.from_relations(
            [IdealNode(id=c, ideal=None, dim=k) for k, c in enumerate("abc")],
            [("a", "b"), ("a", "c"), ("b", "c")],
        )
        assert multiplicities(chain) == {"a": {}, "b": {}, "c": {-1: 1}}

    _check(10, "multiplicities and conditions behave structurally", body)


def test_criterion_11_byte_stable_output():
    def body():
        argvs = [
            [
                "--mode", "monomial", "--vars", "x,y,z,w",
                "--gens", "x*z, x*w, y*z, y*w",
                "--filtration", "--witnesses", "--hasse",
            ],
            ["--mode", "graph", "--edges", str(DATA / "path5.edges"), "--json"],
            ["--mode", "poset", "--poset", str(DATA / "abstract7.json")],
        ]
        for argv in argvs:
            assert run(argv) == run(argv)
        argv = [
            "--mode", "graph", "--edges", str(DATA / "k35.edges"), "--json",
            "--filtration", "--witnesses",
        ]
        outputs = []
        for seed in ("0", "1", "271828"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "defreg.cli", *argv],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 0
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        doc = json.loads(outputs[0])
        assert doc["poset"]["elements"][0]["dim"] == 10

    _check(11, "output is byte stable across runs and hash seeds", body)
