"""Print, as JSON, in-process times and exact sizes of the poset build layers.

Each input is built by its builder, build_Q_poset or build_monomial_poset,
with the builder module's join_closure and AnalysisPoset swapped for ones
that mark the layer boundaries.  The layers, in the order printed:

- primes: the builder up to join_closure, that is the minimal primes;
- turns: join_closure's turns, up to the end of the last;
- order: the builder's order(), from join_closure's return up to the
  constructor;
- nodes: the rest of join_closure, the builder's node_builder over every
  element;
- constructor: AnalysisPoset on those nodes and up-masks;
- sizing: the face-budget pass that homology runs first, at the default
  budget; a FaceBudgetExceeded there is recorded as "sizing_trips".

The nodes run before the order, inside join_closure.  A graph turn reads
its prime's relation once, for its kill mask and for the dim and height
of its node, so that read is in turns, not in nodes.

Each layer's time is the best of --repeat runs, in seconds; "build" is
the best of as many plain builder calls, for comparison with the sum.
The sizes do not vary from run to run: minimal primes, elements, the
pieces the turns hand join_closure and the turns that hand any, the
cut-set walks (the graph's own and one per decomposition, none for an
ideal) and the vertex subsets they walk, 2^k for k non-simplicial
vertices, comparable pairs and cover pairs.  Only the standard library
is used.

    python3 tools/layers.py [--repeat N] [input ...]

The inputs are path9, path10, cycle9, k88 (K_{8,8}, whose cut-set walk
visits all 2^16 vertex subsets for its 3 minimal primes), matching12 (a
perfect matching of x1..x12, paired by random.Random(0)), edges6 and
edges8 (6 and 8 disjoint edges); all of them when none is named.  The
script only reports; it sets no bound.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import random
import sys
from time import perf_counter

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from defreg import binomial_edge, monomial  # noqa: E402
from defreg.posets import (  # noqa: E402
    DEFAULT_MAX_FACES,
    AnalysisPoset,
    FaceBudgetExceeded,
    RingContext,
)

LAYERS = ("primes", "turns", "order", "nodes", "constructor", "sizing")


def _matching(k: int, names: list[str], rng: random.Random | None = None):
    order = names[:]
    if rng is not None:
        rng.shuffle(order)
    ring = RingContext(tuple(names))
    gens = [(order[2 * i], order[2 * i + 1]) for i in range(k)]
    return monomial.SquarefreeIdeal.create(ring, gens)


def _cycle(n: int) -> binomial_edge.Graph:
    return binomial_edge.Graph.from_edges(
        n, [(i, i + 1) for i in range(1, n)] + [(1, n)]
    )


INPUTS = {
    "path9": lambda: binomial_edge.Graph.path(9),
    "path10": lambda: binomial_edge.Graph.path(10),
    "cycle9": lambda: _cycle(9),
    "k88": lambda: binomial_edge.Graph.complete_bipartite(8, 8),
    "matching12": lambda: _matching(
        6, [f"x{i}" for i in range(1, 13)], random.Random(0)
    ),
    "edges6": lambda: _matching(6, [f"v{i}" for i in range(12)]),
    "edges8": lambda: _matching(8, [f"v{i}" for i in range(16)]),
}


def _builder(item):
    if isinstance(item, binomial_edge.Graph):
        return binomial_edge, binomial_edge.build_Q_poset
    return monomial, monomial.build_monomial_poset


def _layer_run(item) -> tuple[dict[str, float], AnalysisPoset]:
    """One builder call split into the layers, and the poset it builds."""
    module, build = _builder(item)
    real_closure, real_constructor = module.join_closure, module.AnalysisPoset
    marks: dict[str, float] = {}

    def closure(generators, sums_with, **kwargs):
        def turn(rep):
            pieces = sums_with(rep)
            marks["nodes"] = perf_counter()
            return pieces

        marks["turns"] = perf_counter()
        nodes = real_closure(generators, turn, **kwargs)
        marks["order"] = perf_counter()
        return nodes

    def constructor(*args, **kwargs):
        marks["constructor"] = perf_counter()
        poset = real_constructor(*args, **kwargs)
        marks["end"] = perf_counter()
        return poset

    module.join_closure, module.AnalysisPoset = closure, constructor
    start = perf_counter()
    try:
        poset = build(item)
    finally:
        module.join_closure, module.AnalysisPoset = real_closure, real_constructor
    times = {
        "primes": marks["turns"] - start,
        "turns": marks["nodes"] - marks["turns"],
        "order": marks["constructor"] - marks["order"],
        "nodes": marks["order"] - marks["nodes"],
        "constructor": marks["end"] - marks["constructor"],
    }
    return times, poset


def _sizing(poset: AnalysisPoset) -> tuple[float, bool]:
    t = perf_counter()
    try:
        poset._check_faces(range(len(poset)), DEFAULT_MAX_FACES)
    except FaceBudgetExceeded:
        return perf_counter() - t, True
    return perf_counter() - t, False


def _sizes(item, poset: AnalysisPoset) -> dict[str, int]:
    """The exact sizes, from one more run whose turns and walks are counted."""
    module, build = _builder(item)
    real = module.join_closure
    real_walk = binomial_edge._admissible_primes
    real_walked = binomial_edge._non_simplicial
    count = {"pieces": 0, "turns_with_pieces": 0, "walks": 0, "subsets_walked": 0}

    def closure(generators, sums_with, **kwargs):
        count["minimal_primes"] = len(generators)

        def counted(rep):
            pieces = list(sums_with(rep))
            count["pieces"] += len(pieces)
            count["turns_with_pieces"] += bool(pieces)
            return pieces

        return real(generators, counted, **kwargs)

    def walk(*args, **kwargs):
        count["walks"] += 1
        return real_walk(*args, **kwargs)

    def walked(rows):
        vertices = real_walked(rows)
        count["subsets_walked"] += 1 << vertices.bit_count()
        return vertices

    module.join_closure = closure
    binomial_edge._admissible_primes = walk
    binomial_edge._non_simplicial = walked
    try:
        build(item)
    finally:
        module.join_closure = real
        binomial_edge._admissible_primes = real_walk
        binomial_edge._non_simplicial = real_walked
    count["elements"] = len(poset)
    count["comparable_pairs"] = sum(m.bit_count() for m in poset.up) - len(poset)
    count["cover_pairs"] = len(poset.hasse())
    return count


def measure(name: str, repeat: int) -> dict:
    item = INPUTS[name]()
    _, build = _builder(item)
    best = dict.fromkeys(LAYERS + ("build",), float("inf"))
    for _ in range(repeat):
        times, poset = _layer_run(item)
        times["sizing"], trips = _sizing(poset)
        t = perf_counter()
        build(item)
        times["build"] = perf_counter() - t
        for layer, s in times.items():
            best[layer] = min(best[layer], s)
    return {
        "layers_s": {layer: round(s, 6) for layer, s in best.items()},
        "sizing_trips": trips,
        "sizes": _sizes(item, poset),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="runs per input (best of)")
    parser.add_argument("inputs", nargs="*", metavar="input", help=", ".join(INPUTS))
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    unknown = [name for name in args.inputs if name not in INPUTS]
    if unknown:
        parser.error(f"unknown inputs {unknown}; choose from {', '.join(INPUTS)}")
    names = args.inputs or list(INPUTS)
    report = {
        "python": platform.python_version(),
        "repeat": args.repeat,
        "inputs": {name: measure(name, args.repeat) for name in names},
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
