"""The golden corpus: CLI runs whose output is pinned byte for byte.

tests/data/golden.json holds the corpus.  "inputs" maps the path of each
generated input file to its text, and "runs" maps each argv, joined with
shlex, to the exit code of defreg.cli.main and the sha256 of what it
wrote to stdout.  The argvs name their files relative to a working
directory that holds the generated inputs and a copy of tests/data, so
the keys read as commands run from the repository root.

The inputs are tests/data, every connected graph on at most five
vertices up to isomorphism, seeded random graphs, ideals and ranked
posets, a few malformed files, and the inputs known to pass a budget,
under small budgets.  Each one runs over the three fields and the seven
flag sets below.  `--help` and one usage error close the corpus.

Regenerate the file from the repository root with

    PYTHONPATH=src python tests/golden.py

Re-pinning changes what the program prints, so every hash that moves
must be named, with its reason, where the change is described.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import random
import shlex
import shutil
import sys
import tempfile

from defreg.cli import main

DATA = pathlib.Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden.json"

FIELDS = ((), ("--field", "gf:2"), ("--field", "gf:3"))
FLAG_SETS = (
    (),
    ("--json",),
    ("--filtration",),
    ("--witnesses", "--hasse"),
    ("--check", "--strict"),
    ("--json", "--filtration", "--witnesses"),
    ("--json", "--hasse", "--check", "--strict"),
)
EXTRA_RUNS = (("--help",), ("--vars", "x", "--gens", "x"))


def _edges_text(n, edges):
    return f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def _connected(n, edges):
    seen, todo = {1}, [1]
    while todo:
        u = todo.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in seen:
                    seen.add(y)
                    todo.append(y)
    return len(seen) == n


def connected_graphs(max_n=5):
    """(n, edges) for every connected graph on 1..max_n vertices, one per class."""
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        perms = list(itertools.permutations(range(1, n + 1)))
        seen = set()
        for r in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, r):
                if not _connected(n, edges):
                    continue
                canon = min(
                    tuple(sorted(tuple(sorted((p[u - 1], p[v - 1]))) for u, v in edges))
                    for p in perms
                )
                if canon not in seen:
                    seen.add(canon)
                    yield n, edges


def _ranked_doc(rng, sizes, nvars, heights=True):
    labels = [f"c_{k}" for k in range(1, sum(sizes) + 1)]
    rng.shuffle(labels)
    levels = [labels[sum(sizes[:i]):sum(sizes[:i + 1])] for i in range(len(sizes))]
    elements, relations = [], []
    for depth, level in enumerate(levels):
        dim = len(sizes) - 1 - depth
        for p in level:
            elements.append({"id": p, "dim": dim})
            if heights:
                elements[-1]["height"] = nvars - dim
        if depth:
            for p in level:
                for q in rng.sample(levels[depth - 1], min(2, len(levels[depth - 1]))):
                    relations.append([p, q])
    rng.shuffle(elements)
    doc = {"format": 1, "elements": elements, "relations": relations}
    if heights:
        doc["nvars"] = nvars
    return json.dumps(doc)


def corpus_inputs():
    """(files, argvs): generated input files by path, and one base argv per input."""
    files = {}
    argvs = [
        ["--mode", "graph", "--edges", "tests/data/path5.edges"],
        ["--mode", "graph", "--edges", "tests/data/k35.edges"],
        ["--mode", "poset", "--poset", "tests/data/abstract7.json"],
    ]

    def graph(name, n, edges, *budget):
        files[f"corpus/{name}.edges"] = _edges_text(n, edges)
        argvs.append(["--mode", "graph", "--edges", f"corpus/{name}.edges", *budget])

    def poset(name, text):
        files[f"corpus/{name}.json"] = text
        argvs.append(["--mode", "poset", "--poset", f"corpus/{name}.json"])

    def monomial(nvars, gens, *budget):
        names = [f"v{i}" for i in range(nvars)]
        argvs.append([
            "--mode", "monomial", "--vars", ",".join(names),
            "--gens", ", ".join("*".join(names[v] for v in g) for g in gens),
            *budget,
        ])

    for k, (n, edges) in enumerate(connected_graphs()):
        graph(f"connected{n}_{k:02d}", n, edges)
    rng = random.Random(2412)
    for k in range(8):
        n = rng.randint(4, 6)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        graph(f"random{k}", n, [e for e in pairs if rng.random() < 0.45])
    for _ in range(16):
        nvars = rng.randint(2, 6)
        monomial(nvars, [
            sorted(rng.sample(range(nvars), rng.randint(1, min(3, nvars))))
            for _ in range(rng.randint(1, 5))
        ])
    poset("ranked0", _ranked_doc(rng, (3, 4, 4), 5))
    poset("ranked1", _ranked_doc(rng, (2, 5, 6, 4), 6))
    poset("ranked_no_heights", _ranked_doc(rng, (2, 3, 3), 4, heights=False))
    poset("point_dim40", '{"format": 1, "elements": [{"id": "a", "dim": 40}]}')
    poset("not_cm", json.dumps({
        "format": 1, "nvars": 4,
        "elements": [
            {"id": "a", "dim": 3, "height": 1},
            {"id": "b", "dim": 1, "height": 3, "cm": False},
        ],
        "relations": [["b", "a"]],
    }))
    poset("cycle", json.dumps({
        "format": 1,
        "elements": [{"id": "a", "dim": 1}, {"id": "b", "dim": 0}],
        "relations": [["a", "b"], ["b", "a"]],
    }))
    # ids that the JSON report must escape: a quote, a backslash, non-ASCII
    # (one character outside the BMP) and characters left as they are
    poset("escaped_ids", json.dumps({
        "format": 1, "nvars": 3,
        "elements": [
            {"id": "a\"b", "dim": 2, "height": 1},
            {"id": "c\\d", "dim": 2, "height": 1},
            {"id": "é/😀", "dim": 1, "height": 2},
            {"id": "<&>", "dim": 0, "height": 3},
        ],
        "relations": [["é/😀", "a\"b"], ["é/😀", "c\\d"], ["<&>", "é/😀"]],
    }))
    files["corpus/bad_edge.edges"] = "n 3\n1 4\n"
    argvs.append(["--mode", "graph", "--edges", "corpus/bad_edge.edges"])
    # inputs that pass a default budget, under budgets small enough to stop early
    graph("path9", 9, [(i, i + 1) for i in range(1, 9)], "--max-poset", "40")
    graph("cycle8", 8, [(i, i + 1) for i in range(1, 8)] + [(1, 8)], "--max-poset", "40")
    graph("path6", 6, [(i, i + 1) for i in range(1, 6)], "--max-faces", "100")
    monomial(12, [(2 * i, 2 * i + 1) for i in range(6)], "--max-poset", "40")
    monomial(
        16, [(2 * i, 2 * i + 1) for i in range(8)] + [(0, 2), (4, 6)],
        "--max-poset", "40",
    )
    return files, argvs


def corpus_runs(argvs):
    """Every base argv over every field and flag set, then the extra runs."""
    runs = [
        [*argv, *field, *flags]
        for argv in argvs
        for field in FIELDS
        for flags in FLAG_SETS
    ]
    return runs + [list(extra) for extra in EXTRA_RUNS]


def write_inputs(files, directory):
    """Write the generated inputs and a copy of tests/data under directory."""
    directory = pathlib.Path(directory)
    shutil.copytree(
        DATA, directory / "tests" / "data",
        ignore=shutil.ignore_patterns(GOLDEN.name), dirs_exist_ok=True,
    )
    for name, text in files.items():
        path = directory / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def call(argv):
    """(exit code, sha256 of stdout) of one in-process run of defreg.cli.main."""
    out = io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as done:
                code = done.code
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def record():
    files, argvs = corpus_inputs()
    runs = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(files, tmp)
        os.chdir(tmp)
        try:
            for argv in corpus_runs(argvs):
                code, digest = call(argv)
                runs[shlex.join(argv)] = {"exit": code, "sha256": digest}
        finally:
            os.chdir(cwd)
    return {"inputs": files, "runs": runs}


if __name__ == "__main__":
    doc = record()
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"{len(doc['runs'])} runs over {len(doc['inputs'])} generated files", file=sys.stderr)
