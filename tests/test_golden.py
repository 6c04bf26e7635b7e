"""The golden corpus of CLI runs keeps its bytes (see tests/golden.py).

On every corpus argv the text and the JSON report state the same facts,
and main prints what run returns.
"""

import json
import re
import shlex

import pytest

import golden
from defreg.cli import EXIT_OK, EXIT_STRICT, main, run


@pytest.fixture
def corpus(tmp_path, monkeypatch):
    """The corpus runs, from a working directory that holds their inputs."""
    doc = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    golden.write_inputs(doc["inputs"], tmp_path)
    monkeypatch.chdir(tmp_path)
    return doc["runs"]


def test_golden_corpus(corpus):
    changed = []
    for key, want in corpus.items():
        code, digest = golden.call(shlex.split(key))
        if (code, digest) != (want["exit"], want["sha256"]):
            changed.append(key)
    assert not changed, f"{len(changed)} of {len(corpus)} runs changed: {changed[:5]}"


def test_golden_corpus_covers_every_field_and_flag_set():
    files, argvs = golden.corpus_inputs()
    doc = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    assert doc["inputs"] == files
    assert list(doc["runs"]) == [shlex.join(argv) for argv in golden.corpus_runs(argvs)]


ELEMENT = re.compile(r"  (.+)  dim (\d+)  height (\d+|\?)(  maximal)?")
BOUND = re.compile(r"  reg K\^(\d+) <= (-inf|-?\d+) \(cap (\d+)\)")
CONDITIONS = re.compile(r"\(i\) (.+); \(ii\) (pass|FAIL); \(iii\) (pass|FAIL|not checkable)")
VERDICT = {"pass": True, "FAIL": False, "not checkable": "not checkable"}


def members(braced):
    """The ids of a text set, such as {p_1, p_2}."""
    assert braced[0] == "{" and braced[-1] == "}", braced
    return braced[1:-1].split(", ") if braced != "{}" else []


def text_facts(text):
    """The facts a text report states, in the JSON report's terms."""
    facts = {"layers": []}
    section = None
    for line in text.splitlines():
        if not line.startswith(" "):
            if line.endswith(":"):
                section = line[:-1]
                facts[section] = []
                continue
            key, value = line.split(": ", 1)
            if key == "ring":
                facts["nvars"] = None if value == "unspecified" else int(value.split()[0])
            elif key == "poset size":
                facts["size"] = int(value)
            elif key == "conditions":
                i, ii, iii = CONDITIONS.fullmatch(value).groups()
                facts[key] = (i, VERDICT[ii], VERDICT[iii])
            elif key == "certified":
                facts[key] = {"yes": True, "no": False}[value]
            elif key == "mt level":
                level, _, capped = value.partition(" ")
                assert capped in ("", "(vacuous, capped at ambient dimension)")
                facts["mt"] = (int(level), bool(capped))
            else:
                facts[key] = int(value) if key == "format" else value
        elif section == "elements":
            pid, dim, height, top = ELEMENT.fullmatch(line).groups()
            facts[section].append(
                (pid, int(dim), None if height == "?" else int(height), bool(top))
            )
        elif section == "covers":
            facts[section].append(tuple(line[2:].split(" < ")))
        elif section in ("notes", "assumptions"):
            if line != "  (none)":
                assert line.startswith("  - ")
                facts[section].append(line[4:])
        elif not line.startswith("    "):  # a bound, under bounds
            j, bound, cap = BOUND.fullmatch(line).groups()
            j, bound = int(j), bound if bound == "-inf" else int(bound)
            facts["bounds"].append([j, bound, int(cap)])
        elif line.startswith(f"    S_{j} = "):
            facts["bounds"][-1].append(members(line.split(" = ", 1)[1]))
        elif line.startswith("    witnesses = "):
            facts.setdefault("witnesses", []).append((j, members(line[16:])))
        else:
            k, body = re.fullmatch(r"    layer (\d+): (.+)", line).groups()
            summands = [] if body == "(empty)" else [
                (pid, int(exp)) for pid, exp in (s.rsplit("^", 1) for s in body.split(" + "))
            ]
            facts["layers"].append((j, int(k), summands))
    facts["bounds"] = [tuple(b) for b in facts["bounds"]]
    return facts


def json_facts(doc, flags):
    """The facts of a JSON report that its text form, under flags, states."""
    elements = doc["poset"]["elements"]
    cond = doc["conditions"]
    (certified,) = {b["certified"] for b in doc["bounds"]}
    facts = {
        "format": doc["format"], "mode": doc["mode"], "field": doc["field"],
        "nvars": doc["ring"]["nvars"], "size": len(elements),
        "elements": [(e["id"], e["dim"], e["height"], e["maximal"]) for e in elements],
        "conditions": (cond["i"], cond["ii"], cond["iii"]),
        "certified": certified,
        "bounds": [(b["j"], b["bound"], b["cap"], b["S"]) for b in doc["bounds"]],
        "layers": [
            (f["j"], layer["k"], [(s["id"], s["exponent"]) for s in layer["summands"]])
            for f in doc.get("filtration", ()) for layer in f["layers"]
        ],
        "mt": (doc["mt_level"], doc["mt_capped"]),
    }
    if "--hasse" in flags:
        facts["covers"] = [tuple(c) for c in doc["poset"]["covers"]]
    if "--check" in flags:
        facts["notes"] = cond["notes"]
    if "--witnesses" in flags:
        facts["witnesses"] = [(w["j"], w["members"]) for w in doc["witnesses"]]
    if doc["assumptions"]:
        facts["assumptions"] = doc["assumptions"]
    return facts


def test_text_and_json_state_the_same_facts(corpus):
    # each corpus argv without --json, and with it; --help prints no report
    pairs = dict.fromkeys(
        tuple(a for a in shlex.split(key) if a != "--json")
        for key in corpus if "--help" not in key
    )
    reports = errors = 0
    for argv in pairs:
        code, text = run(list(argv))
        json_code, doc = run([*argv, "--json"])
        assert json_code == code, argv
        if code in (EXIT_OK, EXIT_STRICT):
            assert text_facts(text) == json_facts(json.loads(doc), argv), argv
            reports += 1
        else:
            assert doc == text and text.startswith("error: "), argv
            assert text.count("\n") == 1, argv
            errors += 1
    # 71 inputs over 3 fields and 6 text flag sets, and the usage error
    assert len(pairs) == 71 * 3 * 6 + 1
    assert errors > 100 and reports > 1000


def test_main_prints_what_run_returns(corpus, capsys):
    # --help leaves through argparse's SystemExit, in run as in main
    for key in corpus:
        if "--help" in key:
            continue
        argv = shlex.split(key)
        code, text = run(argv)
        capsys.readouterr()
        assert main(argv) == code, key
        assert capsys.readouterr().out == text, key
