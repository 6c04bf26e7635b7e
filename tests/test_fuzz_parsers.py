"""Property tests: malformed input ends in an error line, never a traceback.

The parsers may raise ParseError or ValueError and nothing else, and runs
through main exit with a documented code.  Graph mode is only parsed, never
run end to end, because the cut set walk costs 2^n.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stdout

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from defreg.cli import (
    ParseError,
    main,
    parse_graph_file,
    parse_monomial,
    parse_poset_doc,
    parse_var_list,
)

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=150)

# a lone surrogate survives json.loads but not UTF-8 output
ID_CHARS = "abé\ud800"
SYNTAX = st.text(alphabet="xyzw1 ,*#:n-\n\t[]{}\"", max_size=40)
TEXT = st.one_of(st.text(max_size=40), SYNTAX)
IDS = st.one_of(
    st.text(min_size=1, max_size=3), st.text(alphabet=ID_CHARS, min_size=1, max_size=2)
)
JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.text(max_size=3)
)


JSON_VALUES = st.recursive(
    JSON_SCALAR,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=6,
)


@st.composite
def poset_docs(draw, junk):
    """Poset documents in which junk may replace any field.

    With junk = st.nothing() every field is well typed, so the documents
    reach the report unless an id is a lone surrogate, the relations
    form a cycle or a height disagrees with nvars.
    """
    ids = draw(st.lists(IDS, min_size=1, max_size=7, unique=True))
    elements = []
    for pid in ids:
        item = {"id": pid, "dim": draw(st.one_of(st.integers(0, 6), junk))}
        if draw(st.booleans()):
            item["height"] = draw(st.one_of(st.integers(0, 6), junk))
        if draw(st.booleans()):
            item["cm"] = draw(st.one_of(st.booleans(), junk))
        elements.append(draw(st.one_of(st.just(item), junk)))
    pair = st.one_of(st.lists(st.sampled_from(ids), min_size=2, max_size=2), junk)
    doc = {
        "format": draw(st.one_of(st.just(1), junk)),
        "elements": elements,
        "relations": draw(st.one_of(st.lists(pair, max_size=6), junk)),
    }
    if draw(st.booleans()):
        doc["nvars"] = draw(st.one_of(st.integers(1, 8), junk))
    if draw(st.booleans()):
        doc["notes"] = draw(JSON_VALUES)
    return json.dumps(doc)


POSET_TEXT = st.one_of(
    poset_docs(st.nothing()),
    poset_docs(JSON_VALUES),
    TEXT,
    JSON_VALUES.map(json.dumps),
)

VARS = ["x", "y", "z", "w", "u", "v"]


@st.composite
def monomial_args(draw):
    """--vars and --gens for at most 6 variables, sometimes malformed."""
    names = draw(st.lists(st.sampled_from(VARS), min_size=1, max_size=6, unique=True))
    gens = draw(
        st.lists(
            st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True),
            min_size=1,
            max_size=5,
        )
    )
    var_text = draw(st.one_of(st.just(",".join(names)), SYNTAX))
    gen_text = draw(st.one_of(st.just(", ".join("*".join(g) for g in gens)), SYNTAX))
    return [f"--vars={var_text}", f"--gens={gen_text}"]


FLAGS = st.lists(
    st.sampled_from(
        ["--json", "--filtration", "--witnesses", "--check", "--hasse", "--strict"]
    ),
    unique=True,
)
OPTIONS = st.lists(
    st.one_of(
        st.sampled_from(
            ["--field=rational", "--field=gf:2", "--field=gf:3", "--field=gf:4"]
        ),
        st.integers(-1, 12).map(lambda k: f"--max-poset={k}"),
        st.integers(-1, 30).map(lambda k: f"--max-faces={k}"),
    ),
    max_size=2,
)


def run_main(argv):
    """main's exit code and output, written through a strict UTF-8 stream."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", errors="strict", newline="")
    with redirect_stdout(out):
        code = main(argv)
    out.flush()
    return code, buf.getvalue().decode("utf-8")


def check_exit(code, text):
    assert code in (0, 1, 2, 3)
    if code in (1, 2):
        assert text.startswith("error:")
        assert text.count("\n") == 1
    else:
        # 3 is --strict on an uncertified report: the report is printed
        assert text.startswith(("format: 1\n", "{"))


@FUZZ
@given(TEXT)
def test_parse_var_list_raises_only_value_errors(text):
    try:
        parse_var_list(text)
    except ValueError:
        pass


@FUZZ
@given(st.lists(st.sampled_from(VARS), max_size=6), TEXT)
def test_parse_monomial_raises_only_value_errors(names, text):
    try:
        parse_monomial(names, text)
    except ValueError:
        pass


GRAPH_TEXT = st.one_of(
    TEXT,
    st.lists(
        st.one_of(
            st.just("format: 1"),
            st.integers(-2, 9).map(lambda k: f"n {k}"),
            st.tuples(st.integers(-1, 9), st.integers(-1, 9)).map(
                lambda e: f"{e[0]} {e[1]}"
            ),
            SYNTAX,
        ),
        max_size=8,
    ).map("\n".join),
)


@FUZZ
@given(GRAPH_TEXT)
def test_parse_graph_file_raises_only_value_errors(text):
    try:
        parse_graph_file(text)
    except ValueError:
        pass


@FUZZ
@given(POSET_TEXT)
def test_parse_poset_doc_raises_only_parse_errors(text):
    try:
        parse_poset_doc(text)
    except ParseError:
        pass


@FUZZ
@given(st.one_of(poset_docs(st.nothing()), POSET_TEXT), FLAGS, OPTIONS)
def test_main_poset_mode_exits_cleanly(text, flags, options):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        check_exit(*run_main(["--mode=poset", f"--poset={path}", *flags, *options]))


@FUZZ
@given(monomial_args(), FLAGS, OPTIONS)
def test_main_monomial_mode_exits_cleanly(args, flags, options):
    check_exit(*run_main(["--mode=monomial", *args, *flags, *options]))
