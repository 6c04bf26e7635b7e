import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import defreg.cli
from defreg.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_STRICT,
    ParseError,
    _parse_field,
    main,
    parse_graph_file,
    parse_monomial,
    parse_poset_doc,
    parse_var_list,
    run,
)
from oracle import leq

DATA = pathlib.Path(__file__).parent / "data"

SKEW = ["--mode", "monomial", "--vars", "x,y,z,w", "--gens", "x*z, x*w, y*z, y*w"]


def test_parse_monomial():
    gens = parse_monomial(("x", "y", "z"), " x*y ,y * z ")
    assert gens == [("x", "y"), ("y", "z")]
    with pytest.raises(ParseError, match="variable 'x' repeats in generator 'x\\*x'"):
        parse_monomial(("x", "y"), "x*x")
    with pytest.raises(ParseError, match="unknown variable 'q'"):
        parse_monomial(("x", "y"), "x*q")
    with pytest.raises(ParseError):
        parse_monomial(("x", "y"), "x*, y")
    with pytest.raises(ParseError):
        parse_monomial(("x", "y"), "")


def test_parse_graph_file():
    g = parse_graph_file("format: 1\n# comment\nn 3\n1 2\n2 3\n")
    assert g.n == 3
    assert g.edges == frozenset({(1, 2), (2, 3)})
    # the format line is optional
    assert parse_graph_file("n 2\n1 2\n").n == 2
    with pytest.raises(ParseError):
        parse_graph_file("")
    with pytest.raises(ParseError):
        parse_graph_file("format: 2\nn 2\n1 2\n")
    with pytest.raises(ParseError):
        parse_graph_file("n two\n")
    with pytest.raises(ParseError):
        parse_graph_file("n 0\n")
    with pytest.raises(ParseError):
        parse_graph_file("n 3\n1 2 3\n")
    with pytest.raises(ParseError):
        parse_graph_file("n 3\n2 1\n")
    with pytest.raises(ParseError):
        parse_graph_file("n 3\n1 4\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("x 3\n", "expected a vertex count line 'n <count>'"),
        ("n 3\n0 1\n", "edge 0 1 must satisfy 1 <= u < v <= 3"),
    ],
    ids=["count-line", "edge-range"],
)
def test_parse_graph_file_messages(text, message):
    with pytest.raises(ParseError) as exc:
        parse_graph_file(text)
    assert str(exc.value) == message


def test_parse_poset_doc():
    poset = parse_poset_doc((DATA / "abstract7.json").read_text(encoding="utf-8"))
    assert len(poset) == 7
    assert poset.ring.nvars == 6
    # relations are given as covers; the closure is taken automatically
    assert leq(poset, "p_7", "p_1")
    assert [poset.is_maximal(k) for k in range(len(poset))] == [True] * 3 + [False] * 4


def test_parse_poset_doc_errors():
    with pytest.raises(ParseError):
        parse_poset_doc("not json")
    with pytest.raises(ParseError):
        parse_poset_doc("[]")
    with pytest.raises(ParseError):
        parse_poset_doc('{"format": 2, "elements": [{"id": "a", "dim": 0}]}')
    # true and 1.0 compare equal to 1 but are not the integer 1
    for fmt in ("true", "1.0"):
        doc = f'{{"format": {fmt}, "elements": [{{"id": "a", "dim": 0}}]}}'
        with pytest.raises(ParseError) as exc:
            parse_poset_doc(doc)
        assert str(exc.value) == 'poset document must declare "format": 1'
    with pytest.raises(ParseError):
        parse_poset_doc('{"format": 1, "elements": []}')
    with pytest.raises(ParseError):
        parse_poset_doc('{"format": 1, "elements": [{"id": "", "dim": 0}]}')
    with pytest.raises(ParseError, match="duplicate element id 'a'"):
        parse_poset_doc(
            '{"format": 1, "elements":'
            ' [{"id": "a", "dim": 0}, {"id": "a", "dim": 1}]}'
        )
    with pytest.raises(ParseError):
        parse_poset_doc('{"format": 1, "elements": [{"id": "a", "dim": -1}]}')
    for height in ("-1", "true"):
        doc = (
            '{"format": 1,'
            f' "elements": [{{"id": "a", "dim": 0, "height": {height}}}]}}'
        )
        with pytest.raises(ParseError) as exc:
            parse_poset_doc(doc)
        assert str(exc.value) == "element 'a': \"height\" must be an integer >= 0"
    with pytest.raises(ParseError):
        parse_poset_doc(
            '{"format": 1, "elements": [{"id": "a", "dim": 0, "cm": "yes"}]}'
        )
    with pytest.raises(ParseError):
        parse_poset_doc(
            '{"format": 1,'
            ' "elements": [{"id": "a", "dim": 0}],'
            ' "relations": [["a", "ghost"]]}'
        )
    with pytest.raises(ParseError, match="relations order 'a' and 'b' both ways"):
        parse_poset_doc(
            '{"format": 1,'
            ' "elements": [{"id": "a", "dim": 0}, {"id": "b", "dim": 1}],'
            ' "relations": [["a", "b"], ["b", "a"]]}'
        )
    # nvars makes height + dim checkable
    with pytest.raises(ParseError):
        parse_poset_doc(
            '{"format": 1, "nvars": 3,'
            ' "elements": [{"id": "a", "dim": 1, "height": 1}]}'
        )


@pytest.mark.parametrize(
    "relations", ["5", "null", '[[["x"], "a"]]'], ids=["int", "null", "list-endpoint"]
)
def test_malformed_relations_exit_1(tmp_path, relations):
    doc = tmp_path / "p.json"
    doc.write_text(
        '{"format": 1, "elements": [{"id": "a", "dim": 0}],'
        f' "relations": {relations}}}',
        encoding="utf-8",
    )
    with pytest.raises(ParseError):
        parse_poset_doc(doc.read_text(encoding="utf-8"))
    code, text = run(["--mode", "poset", "--poset", str(doc)])
    assert code == EXIT_PARSE
    assert text.startswith("error:")


@pytest.mark.parametrize(
    "relations, message",
    [
        (
            '[["a", "b"], ["c", "d"], ["d", "b"], ["b", "c"]]',
            "relations order 'b' and 'c' both ways",
        ),
        ('[["a", "ghost"]]', "relation ['a', 'ghost'] mentions an unknown id"),
        ('{"a": "b"}', '"relations" must be a list of [a, b] pairs'),
        ('[["a", 5]]', "malformed relation ['a', 5]"),
    ],
    ids=["cycle", "unknown-id", "not-a-list", "int-endpoint"],
)
def test_parse_poset_doc_messages(relations, message):
    elements = ", ".join(f'{{"id": "{pid}", "dim": 0}}' for pid in "abcd")
    with pytest.raises(ParseError) as exc:
        parse_poset_doc(
            f'{{"format": 1, "elements": [{elements}], "relations": {relations}}}'
        )
    assert str(exc.value) == message


def test_parse_poset_doc_closes_relations_listed_bottom_up():
    # a diamond d0 < d1, d2 < d3 below a 6-chain c0 < ... < c5, elements
    # and relations listed bottom first, so one in-place pass in position
    # order does not reach the transitive closure
    ids = ["d0", "d1", "d2", "d3"] + [f"c{k}" for k in range(6)]
    covers = [("d0", "d1"), ("d0", "d2"), ("d1", "d3"), ("d2", "d3"), ("d3", "c0")]
    covers += [(f"c{k}", f"c{k + 1}") for k in range(5)]
    doc = {
        "format": 1,
        "elements": [{"id": pid, "dim": 0} for pid in ids],
        "relations": [list(rel) for rel in covers],
    }
    poset = parse_poset_doc(json.dumps(doc))

    def up_set(a):
        seen, todo = {a}, [a]
        while todo:
            x = todo.pop()
            for lo, hi in covers:
                if lo == x and hi not in seen:
                    seen.add(hi)
                    todo.append(hi)
        return seen

    for a in ids:
        assert {b for b in ids if leq(poset, a, b)} == up_set(a)
    assert poset.hasse() == covers


@pytest.mark.parametrize("where", ["document", "notes"])
def test_deeply_nested_poset_json_exit_1(tmp_path, where):
    text = "[" * 100_000 + "]" * 100_000
    if where == "notes":
        text = (
            '{"format": 1, "elements": [{"id": "a", "dim": 0}],'
            f' "notes": {text}}}'
        )
    doc = tmp_path / "p.json"
    doc.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError):
        parse_poset_doc(text)
    code, text = run(["--mode", "poset", "--poset", str(doc)])
    assert code == EXIT_PARSE
    assert text.startswith("error:")


def test_surrogate_id_exit_1(tmp_path, capsys):
    # a lone surrogate passes json.loads but cannot be written as UTF-8
    text = '{"format": 1, "elements": [{"id": "\\ud800", "dim": 1}]}'
    with pytest.raises(ParseError, match="not valid UTF-8"):
        parse_poset_doc(text)
    doc = tmp_path / "p.json"
    doc.write_text(text, encoding="utf-8")
    code = main(["--mode", "poset", "--poset", str(doc)])
    out = capsys.readouterr().out
    assert code == EXIT_PARSE
    assert out.startswith("error:")


def test_unprintable_id_exit_1(tmp_path, capsys):
    # a newline in an id would split its line of the text report
    text = json.dumps({"format": 1, "elements": [
        {"id": "a\nb", "dim": 1}, {"id": "c", "dim": 1}]})
    with pytest.raises(ParseError, match="unprintable character"):
        parse_poset_doc(text)
    doc = tmp_path / "p.json"
    doc.write_text(text, encoding="utf-8")
    code = main(["--mode", "poset", "--poset", str(doc)])
    assert code == EXIT_PARSE
    assert capsys.readouterr().out == (
        "error: element id 'a\\nb' has an unprintable character\n"
    )


def test_dim_above_nvars_exit_1(tmp_path, capsys):
    # without a height, only the dim can be held against the ring
    doc = tmp_path / "p.json"
    doc.write_text(
        '{"format": 1, "nvars": 2, "elements": [{"id": "a", "dim": 5}]}',
        encoding="utf-8",
    )
    code = main(["--mode", "poset", "--poset", str(doc)])
    assert code == EXIT_PARSE
    assert capsys.readouterr().out == "error: node a: dim 5 exceeds the ambient 2\n"


def test_parse_field():
    assert _parse_field("rational").is_rationals
    assert _parse_field("gf:5").characteristic == 5
    with pytest.raises(ValueError):
        _parse_field("gf:4")
    with pytest.raises(ValueError):
        _parse_field("gf:x")
    with pytest.raises(ValueError):
        _parse_field("real")


def test_run_ok():
    code, text = run(SKEW)
    assert code == EXIT_OK
    assert text.startswith("format: 1\n")
    assert "reg K^2 <= 2 (cap 2)" in text
    assert "S_1 = {p_3}" in text
    assert text.endswith("\n")


def test_run_parse_failures():
    code, text = run(["--mode", "monomial", "--vars", "x,y"])
    assert code == EXIT_PARSE
    assert text.startswith("error:")
    code, _ = run(["--mode", "monomial", "--vars", "x,y", "--gens", "x*q"])
    assert code == EXIT_PARSE
    code, _ = run(["--mode", "graph", "--edges", "/no/such/file"])
    assert code == EXIT_PARSE


def test_run_returns_command_line_errors_as_text(capsys):
    assert run(["--mode", "graph", "--field", "gf:4"]) == (
        EXIT_PARSE, "error: 4 is not prime\n"
    )
    code, text = run(["--mode", "nonsense"])
    assert code == EXIT_PARSE
    assert text.startswith("error: argument --mode: invalid choice: 'nonsense'")
    assert text.count("\n") == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: defreg ") and "Traceback" not in err


def test_run_budget_failures():
    code, text = run(SKEW + ["--max-poset", "2"])
    assert code == EXIT_BUDGET
    assert "budget" in text
    code, text = run(SKEW + ["--max-faces", "2"])
    assert code == EXIT_BUDGET
    assert "budget" in text


@pytest.mark.parametrize(
    "flag, value", [("--max-poset", 0), ("--max-poset", -3),
                    ("--max-faces", 0), ("--max-faces", -1)]
)
def test_non_positive_budgets_exit_1(capsys, flag, value):
    argv = ["--mode", "monomial", "--vars", "x", "--gens", "x", flag, str(value)]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXIT_PARSE
    assert out == f"error: {flag} must be at least 1, got {value}\n"
    assert run(argv) == (EXIT_PARSE, out)


def test_large_intervals_exit_2_under_the_face_budget(tmp_path, capsys):
    # path9 (577 elements) and 6 disjoint edges (729 elements): an
    # interval passes 200 chains, counting the empty one, right after the
    # closure
    path = tmp_path / "path9.edges"
    path.write_text(
        "n 9\n" + "".join(f"{u} {u + 1}\n" for u in range(1, 9)), encoding="utf-8"
    )
    variables = [f"x{i}" for i in range(1, 13)]
    gens = ", ".join(f"x{2 * k - 1}*x{2 * k}" for k in range(1, 7))
    for argv in (
        ["--mode", "graph", "--edges", str(path)],
        ["--mode", "monomial", "--vars", ",".join(variables), "--gens", gens],
    ):
        assert main(argv + ["--max-faces", "200"]) == EXIT_BUDGET
        assert capsys.readouterr().out == (
            "error: chain enumeration passed the face budget of 200\n"
        )


def test_budget_of_one_is_valid(capsys):
    for flag in ("--max-poset", "--max-faces"):
        code = main(["--mode", "monomial", "--vars", "x", "--gens", "x", flag, "1"])
        assert code == EXIT_OK
        assert "poset size: 1" in capsys.readouterr().out


def test_run_strict_mode(tmp_path):
    heightless = tmp_path / "p.json"
    heightless.write_text(
        '{"format": 1, "elements": [{"id": "a", "dim": 1}]}', encoding="utf-8"
    )
    relaxed = ["--mode", "poset", "--poset", str(heightless)]
    code, text = run(relaxed + ["--strict"])
    assert code == EXIT_STRICT
    assert "certified: no" in text
    assert "(iii) not checkable" in text
    # same input without --strict reports the same text but exits cleanly
    assert run(relaxed) == (EXIT_OK, text)
    # a < b at equal heights fails condition (iii), and --check says where
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({
        "format": 1,
        "nvars": 3,
        "elements": [
            {"id": "a", "dim": 1, "height": 2},
            {"id": "b", "dim": 1, "height": 2},
        ],
        "relations": [["a", "b"]],
    }), encoding="utf-8")
    relaxed = ["--mode", "poset", "--poset", str(flat)]
    code, text = run(relaxed)
    assert code == EXIT_OK
    assert "conditions: (i) assumed; (ii) pass; (iii) FAIL" in text
    _, text = run(relaxed + ["--check"])
    assert "\n  - height does not drop strictly from a to b\n" in text
    _, text = run(relaxed + ["--json"])
    assert json.loads(text)["conditions"]["iii"] is False
    assert run(relaxed + ["--strict"])[0] == EXIT_STRICT


def test_text_report_sections():
    code, text = run(SKEW + ["--hasse", "--witnesses", "--filtration", "--check"])
    assert code == EXIT_OK
    assert "ring: 4 variables (x, y, z, w)" in text
    assert "covers:" in text
    assert "  p_3 < p_1" in text
    assert "conditions: (i) verified-structural; (ii) pass; (iii) pass" in text
    assert "certified: yes" in text
    assert "notes:" in text
    assert "witnesses = {p_1, p_2}" in text
    assert "layer 0: p_1^1 + p_2^1" in text
    assert "layer 1: (empty)" in text
    assert "mt level: 1" in text


def test_json_report():
    code, text = run(SKEW + ["--json"])
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["format"] == 1
    assert doc["mode"] == "monomial"
    assert doc["field"] == "rational"
    assert doc["ring"] == {"nvars": 4}
    assert [e["id"] for e in doc["poset"]["elements"]] == ["p_1", "p_2", "p_3"]
    assert doc["poset"]["covers"] == [["p_3", "p_1"], ["p_3", "p_2"]]
    assert {"id": "p_3", "degree": 0, "value": 1} in doc["multiplicities"]
    assert doc["bounds"][0] == {
        "j": 0, "S": [], "bound": "-inf", "cap": 0, "certified": True
    }
    assert doc["bounds"][2]["bound"] == 2
    assert doc["conditions"] == {
        "i": "verified-structural", "ii": True, "iii": True
    }
    assert doc["mt_level"] == 1
    assert doc["mt_capped"] is False
    assert doc["assumptions"] == []
    assert "witnesses" not in doc
    assert "filtration" not in doc


def test_json_optional_sections():
    _, text = run(SKEW + ["--json", "--witnesses", "--filtration", "--check"])
    doc = json.loads(text)
    assert doc["witnesses"][2] == {"j": 2, "members": ["p_1", "p_2"]}
    assert doc["filtration"][1]["layers"][1]["summands"] == [
        {"id": "p_3", "exponent": 1}
    ]
    assert isinstance(doc["conditions"]["notes"], list)


# ids that JSON must escape: a quote, a backslash and non-ASCII characters,
# one of them outside the BMP; '/', '<', '&' and '>' are left as they are
ESCAPED_IDS = ['a"b', "c\\d", "é/😀", "<&>"]
EVERY_JSON_FLAG = ["--hasse", "--witnesses", "--filtration", "--check"]


@pytest.mark.parametrize("field", ["rational", "gf:2"])
@pytest.mark.parametrize("flags", [[], EVERY_JSON_FLAG], ids=["plain", "every-flag"])
@pytest.mark.parametrize("source", ["skew", "abstract7", "path5", "escaped"])
def test_json_report_has_the_stdlib_layout(tmp_path, source, flags, field):
    a, b, c, d = ESCAPED_IDS
    escaped = tmp_path / "escaped.json"
    escaped.write_text(json.dumps({
        "format": 1, "nvars": 3,
        "elements": [
            {"id": pid, "dim": dim, "height": 3 - dim}
            for pid, dim in zip(ESCAPED_IDS, (2, 2, 1, 0))
        ],
        "relations": [[c, a], [c, b], [d, c]],
    }), encoding="utf-8")
    argv = {
        "skew": SKEW,
        "abstract7": ["--mode", "poset", "--poset", str(DATA / "abstract7.json")],
        "path5": ["--mode", "graph", "--edges", str(DATA / "path5.edges")],
        "escaped": ["--mode", "poset", "--poset", str(escaped)],
    }[source]
    code, text = run(argv + ["--json", "--field", field, *flags])
    assert code == EXIT_OK
    # the standard library is the reference for the layout and the escaping
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2) + "\n"
    assert text.isascii()
    ids = [e["id"] for e in doc["poset"]["elements"]]
    if source == "escaped":
        assert ids == ESCAPED_IDS
        assert doc["poset"]["covers"][0] == [c, a]
    named = {pid for pair in doc["poset"]["covers"] for pid in pair}
    named.update(m["id"] for m in doc["multiplicities"])
    named.update(pid for b in doc["bounds"] for pid in b["S"])
    named.update(pid for w in doc.get("witnesses", ()) for pid in w["members"])
    named.update(
        s["id"] for f in doc.get("filtration", ()) for layer in f["layers"]
        for s in layer["summands"]
    )
    assert named <= set(ids)
    assert ("witnesses" in doc) == ("notes" in doc["conditions"]) == bool(flags)


def test_graph_mode_from_fixture():
    code, text = run(["--mode", "graph", "--edges", str(DATA / "path5.edges")])
    assert code == EXIT_OK
    assert "poset size: 17" in text
    assert "mode: graph" in text
    assert "ring: 10 variables" in text
    assert "limit acyclicity" in text


def test_poset_mode_from_fixture():
    code, text = run(["--mode", "poset", "--poset", str(DATA / "abstract7.json")])
    assert code == EXIT_OK
    assert "reg K^2 <= 2 (cap 2)" in text
    assert "S_3 = {p_1, p_3, p_5}" in text


def test_runs_are_byte_identical():
    for argv in (
        SKEW,
        SKEW + ["--json", "--filtration", "--witnesses"],
        ["--mode", "graph", "--edges", str(DATA / "path5.edges")],
        ["--mode", "poset", "--poset", str(DATA / "abstract7.json")],
    ):
        assert run(argv) == run(argv)


BUILDER_RUNS = {
    "build_Q_poset": ["--mode", "graph", "--edges", str(DATA / "path5.edges")],
    "build_monomial_poset": SKEW,
}


@pytest.mark.parametrize("name", sorted(BUILDER_RUNS))
def test_builders_are_called_through_the_cli_module(name):
    # a tracer replaces defreg.cli.<builder> with a wrapper and puts the
    # original back afterwards; a run must go through whatever is bound
    original = getattr(defreg.cli, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    setattr(defreg.cli, name, counting)
    try:
        assert run(BUILDER_RUNS[name])[0] == EXIT_OK
    finally:
        setattr(defreg.cli, name, original)
    assert calls == [name]
    assert run(BUILDER_RUNS[name])[0] == EXIT_OK
    assert calls == [name]


# Looks up defreg.cli.<argv[1]> before any run has loaded its module, as a
# tracer resolves its hook targets.
RESOLVE_BEFORE_LOAD = """
import sys
import defreg, defreg.cli
assert getattr(defreg.cli, sys.argv[1]) is getattr(defreg, sys.argv[1])
"""


@pytest.mark.parametrize("name", sorted(BUILDER_RUNS))
def test_builders_resolve_on_the_cli_module_before_the_first_run(name):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", RESOLVE_BEFORE_LOAD, name],
        capture_output=True, text=True, encoding="utf-8",
        env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr


# Binds a wrapper that raises at defreg.cli.<argv[1]> before the builder's
# module is loaded, and prints what the CLI prints for argv[2:].
WRAP_BEFORE_LOAD = """
import sys
import defreg.cli

def wrapper(*args, **kwargs):
    raise ValueError("wrapper called")

setattr(defreg.cli, sys.argv[1], wrapper)
sys.exit(defreg.cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("name", sorted(BUILDER_RUNS))
def test_a_wrapper_bound_before_the_first_run_stays(name):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", WRAP_BEFORE_LOAD, name, *BUILDER_RUNS[name]],
        capture_output=True, text=True, encoding="utf-8",
        env=env, timeout=60,
    )
    assert done.returncode == EXIT_PARSE, done.stderr
    assert done.stdout == "error: wrapper called\n"


def test_main_entry_point(capsys):
    code = main(
        ["--mode", "monomial", "--vars", "x,y,z", "--gens", "x*y, x*z"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "reg K^1 <= 1 (cap 1)" in out
    assert "reg K^2 <= 2 (cap 2)" in out


@pytest.mark.parametrize("argv, message", [
    (["--mode", "monomial", "--vars", "-x", "--gens", "x"],
     "error: argument --vars: expected one argument\n"),
    (["--vars", "x", "--gens", "x"],
     "error: the following arguments are required: --mode\n"),
    (["--mode", "monomial", "--vars", "x", "--gens", "x", "--max-poset", "abc"],
     "error: argument --max-poset: invalid int value: 'abc'\n"),
    (["--mode", "graph", "--edges", "g", "a\nb"],
     "error: unrecognized arguments: a\\nb\n"),
    (["--mode", "graph"], "error: graph mode needs --edges FILE\n"),
    (["--mode", "poset"], "error: poset mode needs --poset FILE\n"),
], ids=[
    "dash-value", "missing-mode", "non-integer-budget", "stray-argument",
    "graph-without-edges", "poset-without-file",
])
def test_main_usage_errors_exit_1(capsys, argv, message):
    code = main(argv)
    assert code == EXIT_PARSE
    assert capsys.readouterr().out == message


def test_main_help_exits_0(capsys):
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: defreg")


PATH5 = ["--mode", "graph", "--edges", str(DATA / "path5.edges")]

# one process runs these in turn through one parser: a good run, a bad
# budget value, a missing --mode, a budget exit, --help twice, the good
# run again
REUSED_PARSER_RUNS = [
    PATH5,
    PATH5 + ["--max-faces", "x"],
    ["--edges", str(DATA / "path5.edges")],
    PATH5 + ["--max-faces", "1"],
    ["--help"],
    ["--help"],
    PATH5,
]


def test_one_parser_serves_every_run(monkeypatch, capsys):
    # help text wraps at the terminal width, read from COLUMNS on each call
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(
        os.environ, COLUMNS="80",
        PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"),
    )
    fresh = {}
    for argv in map(tuple, REUSED_PARSER_RUNS):
        if argv not in fresh:
            done = subprocess.run(
                [sys.executable, "-m", "defreg.cli", *argv],
                capture_output=True, text=True, encoding="utf-8",
                env=env, timeout=60,
            )
            fresh[argv] = done.returncode, done.stdout
    got = []
    for argv in REUSED_PARSER_RUNS:
        if argv == ["--help"]:
            with pytest.raises(SystemExit) as done:
                run(argv)
            got.append((done.value.code, capsys.readouterr().out))
        else:
            got.append(run(argv))
    assert [code for code, _ in got] == [
        EXIT_OK, EXIT_PARSE, EXIT_PARSE, EXIT_BUDGET, 0, 0, EXIT_OK
    ]
    assert got[4] == got[5] and got[4][1].startswith("usage: defreg")
    assert got == [fresh[tuple(argv)] for argv in REUSED_PARSER_RUNS]


# Counts the argparse parsers built by importing defreg.cli and by the
# runs after it.
PARSERS_BUILT = """
import argparse, sys
built = []
init = argparse.ArgumentParser.__init__

def counting(self, *args, **kwargs):
    built.append(type(self).__name__)
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting
import defreg.cli
assert built == [], built
for _ in range(3):
    defreg.cli.run(["--mode", "poset", "--poset", sys.argv[1]])
assert built == ["_Parser"], built
"""


def test_the_parser_is_built_on_the_first_run():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", PARSERS_BUILT, str(DATA / "abstract7.json")],
        capture_output=True, text=True, encoding="utf-8",
        env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("text", ["a\tb", "x, a\x7f", "a\u2028b", "a\x00"])
def test_parse_var_list_rejects_control_characters(text):
    with pytest.raises(ParseError, match="unprintable character"):
        parse_var_list(text)
    assert parse_var_list(" x , y z ") == ("x", "y z")


def test_main_rejects_control_character_in_variable(capsys):
    code = main(["--mode", "monomial", "--vars", "a\nb", "--gens", "a\nb"])
    assert code == EXIT_PARSE
    assert capsys.readouterr().out == (
        "error: variable name 'a\\nb' has an unprintable character\n"
    )


def test_main_json_flag(capsys):
    code = main(
        ["--mode", "monomial", "--vars", "x,y", "--gens", "x*y", "--json"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert json.loads(out)["mode"] == "monomial"


def test_main_rejects_bad_field(capsys):
    code = main(["--mode", "monomial", "--vars", "x", "--gens", "x",
                 "--field", "gf:6"])
    out = capsys.readouterr().out
    assert code == EXIT_PARSE
    assert out.startswith("error:")


def test_main_large_prime_field_is_prompt(capsys):
    # 10^18 + 3 is prime; trial division used to take minutes on it
    start = time.perf_counter()
    code = main(["--mode", "monomial", "--vars", "x", "--gens", "x",
                 "--field", "gf:1000000000000000003"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "field: gf(1000000000000000003)" in out
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("edges, size", [
    ("n 30\n", 1),
    ("n 20\n" + "".join(f"{u} {v}\n" for u in range(1, 21) for v in range(u + 1, 21)), 1),
    ("n 4000\n", 1),
    ("n 2000\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 2000, 2)), 1),
    ("n 4000\n" + "".join(f"1 {v}\n" for v in range(2, 4001)), 3),
], ids=["edgeless30", "K20", "edgeless4000", "matching1000", "star4000"])
def test_main_cut_set_walk_is_prompt(tmp_path, edges, size):
    # every graph but the star has one minimal prime; walking every vertex
    # subset took over 20 s on the edgeless30 and seconds on K20, and
    # packing its n(n + 1)-bit relation by one whole-relation shift or OR
    # per vertex took 37 s on edgeless4000 and 5 s on matching1000.  The
    # star's three elements relate about 8M vertex pairs, so an order that
    # spends a Python step per related pair would take far over 5 s
    path = tmp_path / "g.edges"
    path.write_text(edges, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "defreg.cli", "--mode", "graph", "--edges", str(path)],
        capture_output=True, text=True, encoding="utf-8",
        env=env, timeout=5,
    )
    assert time.perf_counter() - start < 5
    assert done.returncode == EXIT_OK
    assert f"poset size: {size}\n" in done.stdout


def test_main_cut_set_walk_stops_at_the_poset_budget(tmp_path):
    # the 24-vertex path has 46,368 minimal primes; walking all 2^22 cut
    # sets before the closure looked at the budget took over 8 s
    path = tmp_path / "g.edges"
    path.write_text(
        "n 24\n" + "".join(f"{u} {u + 1}\n" for u in range(1, 24)), encoding="utf-8"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "defreg.cli", "--mode", "graph", "--edges", str(path),
         "--max-poset", "5"],
        capture_output=True, text=True, encoding="utf-8",
        env=env, timeout=5,
    )
    assert time.perf_counter() - start < 5
    assert done.returncode == EXIT_BUDGET
    assert done.stdout == "error: sum closure passed the element budget of 5\n"


def test_main_high_dimension_is_prompt(tmp_path):
    # one element of dimension 4000: a layer table with a list for every
    # k <= j took over 5 s and 600 MB to print this 189 KB report
    path = tmp_path / "point.json"
    path.write_text(
        '{"format": 1, "elements": [{"id": "a", "dim": 4000}]}', encoding="utf-8"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "defreg.cli", "--mode", "poset", "--poset", str(path)],
        capture_output=True, text=True, encoding="utf-8",
        env=env, timeout=5,
    )
    assert time.perf_counter() - start < 2
    assert done.returncode == EXIT_OK
    assert done.stdout.count("reg K^") == 4001
    assert "  reg K^3999 <= -inf (cap 3999)\n" in done.stdout
    assert "  reg K^4000 <= 4000 (cap 4000)\n" in done.stdout


@pytest.mark.parametrize("n, extra, a, b", [
    (2000, ("c1999", "c0"), "c0", "c1"),
    (3000, ("c2999", "c2998"), "c2998", "c2999"),
], ids=["cycle2000", "chain3000-top-2-cycle"])
def test_main_cyclic_poset_exits_1_promptly(tmp_path, n, extra, a, b):
    # the covers of an n-chain plus one pair that closes a cycle: the
    # closure's fixpoint passes and the constructor's per-pair pass took
    # 1.8 s on the 2000-cycle and 4.5 s on the 3000-chain
    ids = [f"c{k}" for k in range(n)]
    doc = {
        "format": 1,
        "elements": [{"id": pid, "dim": 0} for pid in ids],
        "relations": [*map(list, zip(ids, ids[1:])), list(extra)],
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "defreg.cli", "--mode", "poset", "--poset", str(path)],
        capture_output=True, text=True, encoding="utf-8",
        env=env, timeout=5,
    )
    assert time.perf_counter() - start < 5
    assert done.returncode == EXIT_PARSE
    assert done.stdout == f"error: relations order {a!r} and {b!r} both ways\n"


def test_main_long_chain_file_is_prompt(tmp_path):
    # a 3000-element chain, listed bottom first and top first: closing its
    # relations by passes to a fixpoint took 7.5 s and the run 10 s, and an
    # order check of one OR per comparable pair took 1.2 s of the rest
    n = 3000
    elements = [{"id": f"c{k}", "dim": 0} for k in range(n)]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    argv = [sys.executable, "-m", "defreg.cli", "--mode", "poset", "--poset"]
    for order in (elements, elements[::-1]):
        doc = {
            "format": 1,
            "elements": order,
            "relations": [[f"c{k}", f"c{k + 1}"] for k in range(n - 1)],
        }
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        start = time.perf_counter()
        done = subprocess.run(
            argv + [str(path)], capture_output=True, text=True, encoding="utf-8",
            env=env, timeout=5,
        )
        assert time.perf_counter() - start < 5
        assert done.returncode == EXIT_BUDGET
        assert done.stdout == (
            "error: chain enumeration passed the face budget of 200000\n"
        )


def test_main_wide_graph_interval_is_prompt(tmp_path):
    # one bottom below m disjoint 2-chains and m maximal elements: its
    # interval is a graph of 2m components, which merging component masks
    # pairwise took 1.34 s to count at m = 3000, growing as m^2
    m = 9000
    elements = [{"id": "b", "dim": 0}] + [
        {"id": f"{c}{k}", "dim": 0} for k in range(m) for c in "xyz"
    ]
    relations = [
        pair
        for k in range(m)
        for pair in (["b", f"x{k}"], [f"x{k}", f"y{k}"], ["b", f"z{k}"])
    ]
    path = tmp_path / "comb.json"
    path.write_text(
        json.dumps({"format": 1, "elements": elements, "relations": relations}),
        encoding="utf-8",
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "defreg.cli", "--mode", "poset", "--poset", str(path),
         "--json"],
        capture_output=True, text=True, encoding="utf-8",
        env=env, timeout=5,
    )
    assert time.perf_counter() - start < 5
    assert done.returncode == EXIT_OK
    dims = {
        row["degree"]: row["value"]
        for row in json.loads(done.stdout)["multiplicities"]
        if row["id"] == "b"
    }
    assert dims == {0: 2 * m - 1}


def test_main_path9_passes_the_face_budget_promptly(tmp_path):
    # every interval is sized before any homology: enumerating the largest
    # one's chains up to the budget took 2.35 s
    path = tmp_path / "path9.edges"
    path.write_text(
        "n 9\n" + "".join(f"{u} {u + 1}\n" for u in range(1, 9)), encoding="utf-8"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "defreg.cli", "--mode", "graph", "--edges", str(path)],
        capture_output=True, text=True, encoding="utf-8",
        env=env, timeout=5,
    )
    assert time.perf_counter() - start < 5
    assert done.returncode == EXIT_BUDGET
    assert done.stdout == (
        "error: chain enumeration passed the face budget of 200000\n"
    )


@pytest.mark.parametrize("spec", [
    "gf:1000000000000000001",  # 101 * 9901 * 999999000001
    "gf:318665857834031151167461",  # strong pseudoprime to bases 2..37
    "gf:3317044064679887385961981",  # past the exact Miller-Rabin range
    "gf:0",
])
def test_main_rejects_composite_or_huge_field(capsys, spec):
    code = main(["--mode", "monomial", "--vars", "x", "--gens", "x",
                 "--field", spec])
    out = capsys.readouterr().out
    assert code == EXIT_PARSE
    assert out.startswith("error:")


def test_main_field_choice_changes_label(capsys):
    args = ["--mode", "monomial", "--vars", "x,y", "--gens", "x*y",
            "--field", "gf:3"]
    code = main(args)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "field: gf(3)" in out
