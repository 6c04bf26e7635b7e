"""The golden corpus of CLI runs keeps its bytes (see tests/golden.py)."""

import json
import shlex

import golden


def test_golden_corpus(tmp_path, monkeypatch):
    doc = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    golden.write_inputs(doc["inputs"], tmp_path)
    monkeypatch.chdir(tmp_path)
    changed = []
    for key, want in doc["runs"].items():
        code, digest = golden.call(shlex.split(key))
        if (code, digest) != (want["exit"], want["sha256"]):
            changed.append(key)
    assert not changed, f"{len(changed)} of {len(doc['runs'])} runs changed: {changed[:5]}"


def test_golden_corpus_covers_every_field_and_flag_set():
    files, argvs = golden.corpus_inputs()
    doc = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    assert doc["inputs"] == files
    assert list(doc["runs"]) == [shlex.join(argv) for argv in golden.corpus_runs(argvs)]
