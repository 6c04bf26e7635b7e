"""Multiplicities pinned past the golden corpus's sizes.

The golden corpus pins report bytes on graphs of at most six vertices and
ideals of at most six variables; these inputs have up to 243 elements,
and the three pinned under a raised face budget up to 729.
Each digest is the sha256 of the JSON list of [id, degree, value]
triples, in node order and by ascending degree, as multiplicities returns
them.  They were computed by chain enumeration and column reduction, so a
change of homology method must leave every one of them as it is.
Re-pinning one changes what the program prints.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from defreg.binomial_edge import Graph, build_Q_poset
from defreg.bounds import FieldSpec, multiplicities
from defreg.monomial import SquarefreeIdeal, build_monomial_poset
from defreg.posets import RingContext
from oracle import cycle_edges


def digest(mults):
    """sha256 of the [id, degree, value] triples of a multiplicity map."""
    rows = [[pid, d, v] for pid, dims in mults.items() for d, v in dims.items()]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def graph(n, edges):
    return lambda: build_Q_poset(Graph.from_edges(n, edges))


def ideal(nvars, gens):
    """The ideal on x0..x{nvars-1} with generators given as index tuples."""
    names = tuple(f"x{i}" for i in range(nvars))

    def build():
        gen_names = [[names[i] for i in g] for g in gens]
        return build_monomial_poset(
            SquarefreeIdeal.create(RingContext(names), gen_names)
        )

    return build


def path_edges(first, last):
    return [(v, v + 1) for v in range(first, last)]


def shifted(edges, by):
    return [(u + by, v + by) for u, v in edges]


def disjoint_edges(k):
    return ideal(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


INPUTS = {
    "path7": graph(7, path_edges(1, 7)),
    "path8": graph(8, path_edges(1, 8)),
    "cycle6": graph(6, cycle_edges(6)),
    "cycle7": graph(7, cycle_edges(7)),
    "K44": lambda: build_Q_poset(Graph.complete_bipartite(4, 4)),
    "path3+path4": graph(7, path_edges(1, 3) + path_edges(4, 7)),
    "path4+cycle4": graph(8, path_edges(1, 4) + shifted(cycle_edges(4), 4)),
    "4edges": disjoint_edges(4),
    "5edges": disjoint_edges(5),
    # the path x0 - ... - x9 and one cubic generator: connected, 92 elements
    "path10+cubic": ideal(10, path_edges(0, 9) + [(0, 5, 9)]),
}

# (elements, digest): the three fields give the same multiplicities here
PINNED = {
    "path7": (99,
        "1bbd792bd488122912ab6dd33e366cfc24da06b0e240dcfd7290240b28b6149b"),
    "path8": (239,
        "7fc74fcf1331307adc04c52d9575487d5f2e1c7336fb84bb091e40e8f4c8b1f0"),
    "cycle6": (84,
        "b1823cf37bfd82f7e2d533b28c90c7da9c1724e54e36818aff779fcdef5e9ad9"),
    "cycle7": (233,
        "4d65ce7966ef10a5d1185e002ca5ada3df19e9fdaf5e3c9b73735d92bce89d61"),
    "K44": (6,
        "bc5738d33b8abf82c97296a87ba709fbe48b5e6cc139f42bfd03be0212d0b2f6"),
    "path3+path4": (21,
        "eba7098df36740e7f904e0b7d2dfd00f0eebfb860c098b6b5bc5634aef03bbfa"),
    "path4+cycle4": (42,
        "9832bb6c012b54ae33493fe4d38183e74e2f7fd39241f695f7a75cd0801ec3e9"),
    "4edges": (81,
        "27848a3d6a2452fbf288b101685e6e5ce389d9cb03b9dc272d1362f3b0aa37d3"),
    "5edges": (243,
        "e296432f17d7368a9dbb248ca0eeaa2e06b5dbd85f615a2c63cc9198dd8cf075"),
    "path10+cubic": (92,
        "2107db2b25e330c0ac23715f5db7a3eee9b0eb6062b672606ca6b599eff135f0"),
}


@pytest.mark.parametrize("name", list(INPUTS))
def test_multiplicities_keep_their_digests(name):
    poset = INPUTS[name]()
    size, want = PINNED[name]
    assert len(poset) == size
    for p in (0, 2, 3):
        assert digest(multiplicities(poset, FieldSpec(p))) == want, p


# under --max-faces 5000000, each pinned over GF(2) from one run that
# enumerated and reduced every interval's chains: path9 in about 20 s
# (its largest interval has 1,739,175 faces), cycle8 in 6.5 s and
# 6 disjoint edges in 3.3 s.  Chain enumeration over GF(3) gave the same
# digests, as Q and GF(2) do
RAISED_BUDGET = 5_000_000
RAISED = {
    "path9": (graph(9, path_edges(1, 9)), 577,
        "163611cbd357ed533fa4d61bc562061a6c6e758377eea7c8b4e072d1b8da23f8"),
    "cycle8": (graph(8, cycle_edges(8)), 618,
        "7696360919aafbb6b0ed73261e2e867f4147c4d67769ed7b2c920b479631e464"),
    "6edges": (disjoint_edges(6), 729,
        "091412f31560a8c16b70a0aad93220b97de3cebdfa138d0042b2ab945d394b9f"),
}


@pytest.mark.parametrize("name", list(RAISED))
def test_multiplicities_under_a_raised_budget_keep_their_digests(name):
    build, size, want = RAISED[name]
    poset = build()
    assert len(poset) == size
    for p in (0, 2, 3):
        mults = multiplicities(poset, FieldSpec(p), max_faces=RAISED_BUDGET)
        assert digest(mults) == want, p


def defreg_cli(*args):
    """One CLI run in a fresh interpreter, with this one's -O: (exit, stdout, s)."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    optimize = ["-O"] * sys.flags.optimize
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *optimize, "-m", "defreg.cli", *args],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=5,
    )
    return done.returncode, done.stdout, time.perf_counter() - start


@pytest.mark.parametrize("field", ["gf:2", "gf:3"])
def test_path9_under_a_raised_budget(tmp_path, field):
    # the homology of every interval, 1.7 million faces for the largest,
    # from one run under the 5 s limit
    path = tmp_path / "path9.edges"
    path.write_text(
        "n 9\n" + "".join(f"{u} {u + 1}\n" for u in range(1, 9)), encoding="utf-8"
    )
    code, out, seconds = defreg_cli(
        "--mode", "graph", "--edges", str(path), "--json",
        "--field", field, "--max-faces", str(RAISED_BUDGET),
    )
    assert code == 0
    assert seconds < 5
    mults = {}
    for row in json.loads(out)["multiplicities"]:
        mults.setdefault(row["id"], {})[row["degree"]] = row["value"]
    assert digest(mults) == RAISED["path9"][2]
