import copy
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from defreg import (
    AnalysisPoset,
    BoundEntry,
    BoundReport,
    CliquePrime,
    ConditionReport,
    FacePrime,
    FieldSpec,
    Graph,
    IdealNode,
    RingContext,
    SquarefreeIdeal,
)

RING = RingContext(("x", "y"))
CONDITIONS = ConditionReport("assumed", True, None)
POSET = AnalysisPoset([IdealNode("p_1", None, 0)], [0])

# type: (the fields a call must give, the defaulted fields with today's
# defaults), each in declaration order
CASES = {
    FieldSpec: ({}, {"characteristic": 0}),
    RingContext: ({"var_names": ("x", "y")}, {}),
    IdealNode: (
        {"id": "p_1", "ideal": FacePrime(frozenset("x")), "dim": 1},
        {"height": None, "is_cm": True},
    ),
    Graph: ({"n": 3, "edges": frozenset({(1, 2)})}, {}),
    CliquePrime: ({"n": 3, "kill": 0b100, "blocks": (0b011,)}, {}),
    FacePrime: ({"variables": frozenset({"x", "y"})}, {}),
    SquarefreeIdeal: ({"ring": RING, "generators": (frozenset({"x"}),)}, {}),
    ConditionReport: (
        {
            "distributive_lattice": "assumed",
            "cohen_macaulay": True,
            "strict_heights": None,
        },
        {"notes": ()},
    ),
    BoundEntry: (
        {"j": 0, "members": ("p_1",), "bound": 0, "layers": {0: (("p_1", 1),)}},
        {},
    ),
    BoundReport: (
        {
            "poset": POSET,
            "field": FieldSpec(),
            "multiplicities": {"p_1": {-1: 1}},
            "entries": (),
            "conditions": CONDITIONS,
            "mt_level": 0,
            "mt_capped": True,
        },
        {"assumptions": ()},
    ),
}
UNHASHABLE = {BoundEntry, BoundReport}  # they hold dicts
RECORDS = pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)


def clone(value):
    """A deep copy that keeps POSET, since posets compare by identity."""
    return copy.deepcopy(value, {id(POSET): POSET})


@RECORDS
def test_keyword_construction_with_defaults(cls):
    given, defaults = CASES[cls]
    record = cls(**given)
    for name, value in {**given, **defaults}.items():
        assert getattr(record, name) == value, name
    assert record == cls(**given, **defaults)


@RECORDS
def test_fields_cannot_be_assigned_or_deleted(cls):
    given, defaults = CASES[cls]
    fields = {**given, **defaults}
    record = cls(**given)
    for name, value in fields.items():
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert getattr(record, name) == value
    with pytest.raises(AttributeError):
        record.extra = 1


@RECORDS
def test_equal_fields_give_equal_records(cls):
    given, _ = CASES[cls]
    a, b = cls(**given), cls(**clone(given))
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@RECORDS
def test_another_type_with_the_same_fields_differs(cls):
    given, defaults = CASES[cls]
    other = type(cls.__name__, (cls,), {"__slots__": ()})
    record = cls(**given)
    assert record != other(**given) and other(**given) != record
    assert record != tuple({**given, **defaults}.values())


@RECORDS
def test_repr_lists_the_fields_in_order(cls):
    given, defaults = CASES[cls]
    fields = ", ".join(f"{k}={v!r}" for k, v in {**given, **defaults}.items())
    assert repr(cls(**given)) == f"{cls.__name__}({fields})"


@RECORDS
def test_copy_and_pickle_keep_the_value(cls):
    given, _ = CASES[cls]
    record = cls(**given)
    assert copy.copy(record) == record
    assert clone(record) == record
    if cls is not BoundReport:  # an unpickled poset is another poset
        assert pickle.loads(pickle.dumps(record)) == record


def test_unequal_fields_give_unequal_records():
    assert FieldSpec(2) != FieldSpec(3)
    assert IdealNode("p_1", None, 1) != IdealNode("p_1", None, 1, height=2)


# Start-up must not load these: dataclasses pulls in inspect, ast, dis and
# tokenize, typing pulls in contextlib, and the graph and monomial builders
# load only on their mode's first run.  The check runs as a plain script,
# so any interpreter can run it with the package on its path; it runs
# under -S, since a site .pth file may load typing before the package.
STARTUP_GUARD = """
import sys
before = set(sys.modules)
import defreg, defreg.cli
loaded = {
    "dataclasses", "inspect", "typing", "defreg.binomial_edge", "defreg.monomial"
} & set(sys.modules) - before
sys.exit(f"import defreg, defreg.cli loads {sorted(loaded)}" if loaded else 0)
"""


def run_script(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    return subprocess.run(
        [sys.executable, "-S", "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_startup_loads_neither_dataclasses_nor_inspect():
    done = run_script(STARTUP_GUARD)
    assert done.returncode == 0, done.stderr


# Imports the package, runs defreg.cli.main on argv[1:] when there are
# arguments, and prints the package's submodules loaded by then.
MODULES_LOADED = """
import contextlib, io, sys
import defreg
if sys.argv[1:]:
    import defreg.cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert defreg.cli.main(sys.argv[1:]) == 0
print(*sorted(m for m in sys.modules if m.startswith("defreg.")))
"""

DATA = pathlib.Path(__file__).parent / "data"
EVERY_RUN = ["_record", "bounds", "cli", "complexes", "exactfield", "posets"]


@pytest.mark.parametrize("argv, loaded", [
    ([], []),
    (["--mode", "poset", "--poset", str(DATA / "abstract7.json")], EVERY_RUN),
    (["--mode", "graph", "--edges", str(DATA / "path5.edges")],
     EVERY_RUN + ["binomial_edge"]),
    (["--mode", "monomial", "--vars", "x,y,z", "--gens", "x*y, y*z"],
     EVERY_RUN + ["monomial"]),
], ids=["import-only", "poset-mode", "graph-mode", "monomial-mode"])
def test_each_mode_loads_only_its_own_modules(argv, loaded):
    done = run_script(MODULES_LOADED, *argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == sorted(f"defreg.{m}" for m in loaded)


def test_public_names_resolve_lazily_to_their_home_objects():
    import importlib

    import defreg

    namespace: dict = {}
    exec("from defreg import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(defreg.__all__)
    assert len(defreg.__all__) == 31
    # the lazy table and __all__ list the same names
    assert [*defreg._HOMES, "__version__"] == defreg.__all__
    for name, home in defreg._HOMES.items():
        module = importlib.import_module(f"defreg.{home}")
        assert namespace[name] is getattr(module, name) is getattr(defreg, name)
    assert set(defreg.__all__) <= set(dir(defreg))
    with pytest.raises(AttributeError, match="no_such_name"):
        defreg.no_such_name
