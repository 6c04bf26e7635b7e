"""The report tools run against the package as it is.

CI runs tools/layers.py only as a report, with no bound, so a change to
the builders' contract that broke it would pass every other test.
"""

import json
import pathlib
import subprocess
import sys

from defreg.binomial_edge import Graph, build_Q_poset, minimal_primes_graph

ROOT = pathlib.Path(__file__).resolve().parents[1]

LAYERS = ["primes", "turns", "order", "nodes", "constructor", "sizing", "build"]


def test_layers_reports_every_layer_and_the_sizes_of_the_build():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "layers.py"), "--repeat", "1", "path9"],
        capture_output=True, text=True, encoding="utf-8", timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["repeat"] == 1
    assert list(report["inputs"]) == ["path9"]
    measured = report["inputs"]["path9"]
    assert list(measured["layers_s"]) == LAYERS
    assert all(s >= 0 for s in measured["layers_s"].values())
    # some interval of path9 has more faces than the default budget
    assert measured["sizing_trips"] is True
    graph = Graph.path(9)
    poset = build_Q_poset(graph)
    sizes = measured["sizes"]
    assert sizes["minimal_primes"] == len(minimal_primes_graph(graph))
    assert sizes["elements"] == len(poset)
    assert sizes["comparable_pairs"] == sum(
        bin(m).count("1") - 1 for m in poset.up
    )
    assert sizes["cover_pairs"] == len(poset.hasse())
    assert 0 < sizes["turns_with_pieces"] <= sizes["pieces"]
    # one walk for the minimal primes, over the 2^7 subsets of the inner
    # vertices, then one per distinct non-prime sum relation
    assert sizes["walks"] == 1 + 263
    assert sizes["subsets_walked"] == 2**7 + 1090
