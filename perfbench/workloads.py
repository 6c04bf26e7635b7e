"""Seeded inputs of the three benchmark workloads.

Each workload is a function of the seed that returns the inputs of one
round: the argv handed to ``defreg.cli.main`` and the text of the files it
names.  The same seed gives the same bytes.  The program sees only these
files and arguments.

Inputs marked ``seeded=False`` are the same for every seed, so their
references are pinned once; seeded inputs are pinned per default seed (see
``references.json``) and checked by invariants for any other seed.

Why the seeded graphs are relabelings of fixed shapes, not random graphs:
over Q, random connected graphs on 6-7 vertices took from 0.001 s to over
20 s each when measured, so a round of random graphs would measure the
seed rather than the code.  A random relabeling keeps the cost of a shape
within about 25% while changing every label the program sees.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Input:
    name: str
    argv: tuple[str, ...]
    files: tuple[tuple[str, str], ...]  # (file name, text), named in argv
    expect_exit: int
    seeded: bool
    group: str  # inputs of one group describe one poset; they are cross-checked


def _edges_text(n: int, edges) -> str:
    return f"format: 1\nn {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def _path(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, n)]


def _relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    """The same shape under a random vertex permutation and edge order."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    out = [tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in edges]
    rng.shuffle(out)
    return out


# Connected shapes on 6-7 vertices with 21-26 element posets.  Measured
# cost over Q, under random relabelings: 0.6-1.0 s, 0.26-0.34 s,
# 0.20-0.31 s and 0.12-0.18 s.
GRAPH_SHAPES = {
    "tree7": (7, [(1, 7), (2, 5), (3, 4), (3, 5), (3, 7), (6, 7)]),
    "unicyclic6": (6, [(1, 3), (1, 4), (2, 5), (4, 5), (4, 6), (5, 6)]),
    "dense7": (7, [(1, 7), (2, 5), (2, 6), (2, 7), (3, 4), (3, 6), (3, 7),
                   (4, 6), (4, 7)]),
    "tree6": (6, [(1, 2), (1, 6), (2, 3), (2, 4), (4, 5)]),
}

FIELDS = (("rational", "rational"), ("gf2", "gf:2"))


def graph_homology(seed: int) -> list[Input]:
    """Reduced homology of large interval complexes, over Q and GF(2).

    path6 (41 elements) and cycle5 keep their natural labels; the shapes
    above get a seeded relabeling.  Dense rank in ``exactfield`` dominates.
    """
    rng = random.Random(seed)
    graphs = [
        ("path6", 6, _path(6), False),
        ("cycle5", 5, _path(5) + [(1, 5)], False),
    ]
    for name, (n, edges) in GRAPH_SHAPES.items():
        graphs.append((name, n, _relabel(rng, n, edges), True))
    inputs = []
    for name, n, edges, seeded in graphs:
        fname = f"{name}.edges"
        for tag, field in FIELDS:
            inputs.append(Input(
                name=f"{name}:{tag}",
                argv=("--mode", "graph", "--json", "--edges", fname,
                      "--field", field),
                files=((fname, _edges_text(n, edges)),),
                expect_exit=0,
                seeded=seeded,
                group=name,
            ))
    return inputs


def closure_heavy(seed: int) -> list[Input]:
    """Inputs whose cost is building the poset, not its homology.

    path9 (577 elements) and a seeded perfect matching on 12 variables (729
    elements) run under ``--max-faces 200``: they exit 2 at the first large
    interval, right after the sum closure.  A windmill of 7 triangles and
    K15 have posets of at most 3 elements; the 2^15 cut-set walk of
    ``minimal_primes_graph`` is their whole cost.
    """
    rng = random.Random(seed)
    variables = [f"x{i}" for i in range(1, 13)]
    order = variables[:]
    rng.shuffle(order)
    gens = [f"{order[2 * k]}*{order[2 * k + 1]}" for k in range(6)]
    windmill = []
    for k in range(7):
        a, b = 2 + 2 * k, 3 + 2 * k
        windmill += [(1, a), (1, b), (a, b)]
    k15 = [(u, v) for u in range(1, 16) for v in range(u + 1, 16)]
    return [
        Input("path9", ("--mode", "graph", "--json", "--edges", "path9.edges",
                        "--max-faces", "200"),
              (("path9.edges", _edges_text(9, _path(9))),), 2, False, "path9"),
        Input("matching12", ("--mode", "monomial", "--vars", ",".join(variables),
                             "--gens", ", ".join(gens), "--max-faces", "200"),
              (), 2, True, "matching12"),
        Input("windmill7", ("--mode", "graph", "--json", "--edges",
                            "windmill7.edges"),
              (("windmill7.edges",
                _edges_text(15, _relabel(rng, 15, windmill))),), 0, True,
              "windmill7"),
        Input("k15", ("--mode", "graph", "--json", "--edges", "k15.edges"),
              (("k15.edges", _edges_text(15, k15)),), 0, False, "k15"),
    ]


# Ranked levels of the abstract poset, top first; dims 2, 1, 0 in 6 variables.
WIDE_LEVELS = (340, 510, 510)


def poset_wide(seed: int) -> list[Input]:
    """A seeded ranked poset of 1360 components with tiny intervals.

    Every component lies below 2-3 components of the level above it.  The
    same file runs once as JSON and once as text with every report flag.
    """
    rng = random.Random(seed)
    total = sum(WIDE_LEVELS)
    labels = [f"c_{k}" for k in range(1, total + 1)]
    rng.shuffle(labels)
    levels, at = [], 0
    for size in WIDE_LEVELS:
        levels.append(labels[at:at + size])
        at += size
    nvars = 6
    elements, relations = [], []
    for depth, level in enumerate(levels):
        dim = len(WIDE_LEVELS) - 1 - depth
        elements += [{"id": pid, "dim": dim, "height": nvars - dim}
                     for pid in level]
        if depth:
            for pid in level:
                for up in rng.sample(levels[depth - 1], rng.choice((2, 3))):
                    relations.append([pid, up])
    rng.shuffle(elements)
    rng.shuffle(relations)
    text = json.dumps({"format": 1, "nvars": nvars, "elements": elements,
                       "relations": relations})
    files = (("wide.json", text),)
    return [
        Input("wide:json", ("--mode", "poset", "--poset", "wide.json", "--json"),
              files, 0, True, "wide"),
        Input("wide:text", ("--mode", "poset", "--poset", "wide.json", "--hasse",
                            "--filtration", "--witnesses", "--check"),
              files, 0, True, "wide"),
    ]


WORKLOADS = {
    "graph-homology": graph_homology,
    "closure-heavy": closure_heavy,
    "poset-wide": poset_wide,
}
