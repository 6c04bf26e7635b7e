"""The monomial build's face budget, tested on label prefixes, against the full build.

Given --max-faces, build_monomial_poset counts the faces of the label
prefix on the turn where it reaches 64 elements, and at 4 times as many
each time after while it is at most U(I) / 2, but only when U(I), the
product of 2^|V| - 1 over the variable sets V of the generators'
components, is at most the element budget.  The first prefix over the
face budget then raises FaceBudgetExceeded on its turn.  The CLI must print exactly what the
reference flow prints: the whole poset built with no face budget, then
analyze.  The certificate rests on every element of the closure meeting
each component's variables and lying in their union, which is checked
on whole closures here.
"""

import itertools
import os
import pathlib
import random
import subprocess
import sys
import time
from math import prod

import pytest

import defreg.cli
from defreg import monomial
from defreg.cli import run
from defreg.monomial import SquarefreeIdeal, _closure_bound, build_monomial_poset
from defreg.posets import AnalysisPoset, ClosureBudgetExceeded, RingContext
from golden import corpus_inputs

FACES = ((), ("--max-faces", "3"), ("--max-faces", "20"), ("--max-faces", "200"),
         ("--max-faces", str(10**15)))
POSETS = ((), ("--max-poset", "5"), ("--max-poset", "40"), ("--max-poset", "100"),
          ("--max-poset", "1000"))
FIELDS = ((), ("--field", "gf:2"))

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def argv_for(nvars, gens):
    """The CLI argv of the ideal on v0..v{nvars - 1} with gens as index lists."""
    names = [f"v{i}" for i in range(nvars)]
    return [
        "--mode", "monomial", "--vars", ",".join(names),
        "--gens", ", ".join("*".join(names[v] for v in g) for g in gens),
    ]


def edges(k):
    """v0*v1, ..., v(2k-2)*v(2k-1): 2^k minimal primes, 3^k sums."""
    return [(2 * i, 2 * i + 1) for i in range(k)]


# 8 disjoint edges and v0*v2, v4*v6: U(I) = 15 * 15 * 3^4 = 18,225 passes
# the default element budget, though the closure has 2,916 elements
JOINED16 = 16, edges(8) + [(0, 2), (4, 6)]


def seeded_ideals(count, seed, max_nvars=12):
    """(nvars, gens) of seeded ideals on 2..max_nvars variables."""
    rng = random.Random(seed)
    ideals = []
    for _ in range(count):
        nvars = rng.randint(2, max_nvars)
        gens = [
            sorted(rng.sample(range(nvars), rng.randint(1, min(3, nvars))))
            for _ in range(rng.randint(1, 8))
        ]
        ideals.append((nvars, gens))
    return ideals


def ideal_of(nvars, gens):
    names = [f"v{i}" for i in range(nvars)]
    ring = RingContext(tuple(names))
    return SquarefreeIdeal.create(ring, [[names[v] for v in g] for g in gens])


NAMED = {f"edges{k}": (2 * k, edges(k)) for k in range(4, 9)}
NAMED["joined16"] = JOINED16
NAMED.update((f"seeded{k}", ideal) for k, ideal in enumerate(seeded_ideals(12, 41)))
_, GOLDEN_ARGVS = corpus_inputs()
GOLDEN_MONOMIAL_ARGVS = [argv for argv in GOLDEN_ARGVS if argv[1] == "monomial"]


def assert_runs_match_the_reference(monkeypatch, argv):
    """run(argv) under every budget pair and both fields, against the reference.

    The reference builds each closure once per element budget, with no
    face budget, and analyze then sizes it as before.
    """
    built = {}

    def reference_build(ideal, *, max_elements, max_faces):
        key = ideal, max_elements
        if key not in built:
            try:
                built[key] = build_monomial_poset(ideal, max_elements=max_elements)
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
                    m.setattr(defreg.cli, "build_monomial_poset", reference_build)
                    want = run(full)
                assert run(full) == want, full


@pytest.mark.parametrize("name", NAMED)
def test_named_ideals_print_the_reference_bytes(monkeypatch, name):
    assert_runs_match_the_reference(monkeypatch, argv_for(*NAMED[name]))


@pytest.mark.parametrize(
    "argv", GOLDEN_MONOMIAL_ARGVS,
    ids=[f"golden{k}" for k in range(len(GOLDEN_MONOMIAL_ARGVS))],
)
def test_golden_monomial_argvs_print_the_reference_bytes(monkeypatch, argv):
    assert_runs_match_the_reference(monkeypatch, argv)


def components(generators):
    """The variable masks of the generators' components: meeting masks merged."""
    parts = list(generators)
    for i, j in itertools.combinations(range(len(parts)), 2):
        if parts[i] & parts[j]:
            parts[i] |= parts.pop(j)
            return components(parts)
    return parts


@pytest.mark.parametrize("seed", range(4))
def test_every_element_meets_each_component(seed):
    # every element lies in the union of the components' variables and
    # meets each, so the closure has at most U(I) elements; on a product
    # of disjoint edges it has exactly that many
    for nvars, gens in seeded_ideals(50, 4100 + seed):
        ideal = ideal_of(nvars, gens)
        parts = components(ideal.generators)
        poset = build_monomial_poset(ideal)
        union = sum(parts)
        for node in poset.nodes:
            assert node.ideal & ~union == 0, (gens, node.id)
            assert all(node.ideal & p for p in parts), (gens, node.id)
        bound = _closure_bound(ideal.generators)
        assert bound == prod((1 << p.bit_count()) - 1 for p in parts), gens
        assert bound >= len(poset), gens


@pytest.mark.parametrize("k", range(1, 7))
def test_the_bound_is_exact_on_disjoint_edges(k):
    ideal = ideal_of(2 * k, edges(k))
    assert _closure_bound(ideal.generators) == 3**k == len(build_monomial_poset(ideal))


def test_closure_bound_sizes():
    assert _closure_bound(ideal_of(16, edges(8)).generators) == 6_561
    assert _closure_bound(ideal_of(*JOINED16).generators) == 18_225
    # one component on all 5 variables, and a variable in no generator
    assert _closure_bound(ideal_of(6, [(0, 1), (1, 2), (3, 4), (2, 3)]).generators) == 31


@pytest.fixture
def constructed(monkeypatch):
    """The sizes AnalysisPoset is constructed with, and the turns taken."""
    sizes, turns = [], []
    init = AnalysisPoset.__init__
    closure = monomial.join_closure

    def recorded(self, nodes, up, **kwargs):
        sizes.append(len(nodes))
        init(self, nodes, up, **kwargs)

    def counted(generators, sums_with, **kwargs):
        def turn(rep):
            turns.append(rep)
            return sums_with(rep)

        return closure(generators, turn, **kwargs)

    monkeypatch.setattr(AnalysisPoset, "__init__", recorded)
    monkeypatch.setattr(monomial, "join_closure", counted)
    return sizes, turns


FACE_LINE = "error: chain enumeration passed the face budget of {}\n"


def test_edges6_counts_one_prefix_and_stops_there(constructed):
    # U(I) = 729 <= 10,000, so no element budget can trip, and the first
    # 64 of the 729 elements already pass 200 faces
    sizes, turns = constructed
    assert run([*argv_for(*NAMED["edges6"]), "--max-faces", "200"]) == (
        2, FACE_LINE.format(200)
    )
    assert sizes == [64]
    assert len(turns) == 64


def test_edges6_under_an_uncertified_element_budget_runs_as_before(constructed):
    # 100 is below U(I) = 729: no prefix is counted, and the closure
    # passes the element budget as it does with no face budget
    sizes, turns = constructed
    assert run([*argv_for(*NAMED["edges6"]), "--max-poset", "100", "--max-faces", "200"]) == (
        2, "error: sum closure passed the element budget of 100\n"
    )
    assert sizes == []
    assert len(turns) < 100


def test_joined16_builds_the_whole_closure(constructed):
    # U(I) = 18,225 passes the default element budget, so no prefix is
    # counted: the whole 2,916-element poset is built, and analyze trips
    sizes, turns = constructed
    assert run(argv_for(*JOINED16)) == (2, FACE_LINE.format(200_000))
    assert sizes == [2_916]
    assert len(turns) == 2_916


def test_edges5_counts_one_prefix_then_builds_the_same_poset(constructed):
    sizes, _ = constructed
    code, text = run(argv_for(*NAMED["edges5"]))
    assert code == 0 and "poset size: 243\n" in text
    assert sizes == [64, 243]
    ideal = ideal_of(*NAMED["edges5"])
    budgeted = build_monomial_poset(ideal, max_faces=200_000)
    plain = build_monomial_poset(ideal)
    assert budgeted.ids() == plain.ids()
    assert [nd.ideal for nd in budgeted.nodes] == [nd.ideal for nd in plain.nodes]
    assert budgeted.up == plain.up


def test_edges8_trips_on_its_1024_prefix(constructed):
    sizes, turns = constructed
    assert run(argv_for(*NAMED["edges8"])) == (2, FACE_LINE.format(200_000))
    assert sizes == [64, 256, 1024]
    assert len(turns) == 1024


def test_edges8_counts_no_prefix_past_half_its_bound(constructed):
    # U(I) = 6,561: the 4,096-element prefix is more than half of it, so
    # a build that passes the budget counts 64, 256 and 1,024 only
    sizes, _ = constructed
    build_monomial_poset(ideal_of(*NAMED["edges8"]), max_faces=10**15)
    assert sizes == [64, 256, 1024, 6561]


def test_edges8_exits_promptly_at_default_flags():
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "defreg.cli", *argv_for(*NAMED["edges8"])],
        capture_output=True, text=True, encoding="utf-8", timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stdout) == (2, FACE_LINE.format(200_000))
    assert elapsed < 5, elapsed
