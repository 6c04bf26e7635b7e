"""Correctness gate of the benchmark.

Every output is checked three ways, none of which trusts the code under
test:

* pinned references: for the default seeds, each input's exit code and the
  sha256 of its stdout, recorded from the program (``pin.py``).  For an
  input that exits 2 on a budget only the exit code and the ``error:``
  prefix are pinned, so a clearer budget message is not a failure;
* invariants of every JSON report, for any seed: Philip Hall's theorem
  (the reduced Euler characteristic of each open interval equals the
  Moebius value mu(p, top), computed here from the cover relations), and
  S_j, the bound, the cap and the MT level recomputed from the
  multiplicities and the element dims;
* cross-checks inside a group of inputs that describe one poset: the same
  poset over every field, GF(2) dimensions at least the rational ones
  (universal coefficients), and a text report that agrees line for line
  with what its JSON twin implies.

Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_for(code: int, text: str) -> dict:
    """What ``pin.py`` records for an output: exit 2 keeps only the code."""
    if code == 2:
        return {"exit": 2}
    return {"exit": code, "sha256": sha256(text)}


def load_references(workload: str, seed: int) -> dict[str, dict]:
    """Pinned references of one workload and seed, by input name.

    Inputs that are the same for every seed are always pinned; seeded ones
    only for the seeds listed in the file.
    """
    doc = json.loads(REFERENCES.read_text(encoding="utf-8"))
    refs = doc.get(workload, {})
    return {**refs.get("fixed", {}), **refs.get("seeded", {}).get(str(seed), {})}


def check_output(inp, code, text: str, ref: dict | None) -> list[str]:
    """Exit code, pinned reference and, for JSON, the report invariants."""
    if code != inp.expect_exit:
        return [f"exit code {code}, expected {inp.expect_exit}"]
    if code == 2:
        return [] if text.startswith("error:") else ["exit 2 without an error: line"]
    problems = []
    if ref is not None and ref.get("sha256") != sha256(text):
        problems.append("stdout differs from the pinned reference")
    if "--json" in inp.argv:
        try:
            problems += check_report(json.loads(text))
        except (ValueError, KeyError, TypeError) as e:
            problems.append(f"malformed report: {e!r}")
    return problems


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mobius_to_top(ids: list[str], covers) -> dict[str, int] | None:
    """mu(p, top) for every element, top being the virtual maximum.

    Uses mu(p, top) = -1 - sum of mu(z, top) over z strictly above p, with
    the strict up-sets closed from the covers.  None if the covers cycle.
    """
    index = {p: k for k, p in enumerate(ids)}
    upper = [[] for _ in ids]
    lower = [[] for _ in ids]
    for low, high in covers:
        upper[index[low]].append(index[high])
        lower[index[high]].append(index[low])
    waiting = [len(u) for u in upper]
    ready = [k for k, w in enumerate(waiting) if w == 0]
    up = [0] * len(ids)
    mu = [0] * len(ids)
    done = 0
    while ready:
        k = ready.pop()
        done += 1
        for c in upper[k]:
            up[k] |= up[c] | 1 << c
        mu[k] = -1 - sum(mu[z] for z in _bits(up[k]))
        for low in lower[k]:
            waiting[low] -= 1
            if waiting[low] == 0:
                ready.append(low)
    if done != len(ids):
        return None
    return dict(zip(ids, mu))


def check_report(doc: dict) -> list[str]:
    """Invariants of one JSON report that hold whatever code produced it."""
    problems = []
    elements = doc["poset"]["elements"]
    covers = doc["poset"]["covers"]
    ids = [e["id"] for e in elements]
    dims = {e["id"]: e["dim"] for e in elements}
    has_upper = {low for low, _ in covers}
    for e in elements:
        if e["maximal"] != (e["id"] not in has_upper):
            problems.append(f"{e['id']}: maximal flag disagrees with the covers")
    mult: dict[tuple[str, int], int] = {}
    euler = dict.fromkeys(ids, 0)
    for m in doc["multiplicities"]:
        mult[m["id"], m["degree"]] = m["value"]
        euler[m["id"]] += (-1) ** (m["degree"] % 2) * m["value"]
    mu = mobius_to_top(ids, covers)
    if mu is None:
        problems.append("cover relations contain a cycle")
    else:
        bad = [p for p in ids if euler[p] != mu[p]]
        if bad:
            problems.append(
                f"Philip Hall fails at {len(bad)} elements, first {bad[0]}:"
                f" Euler characteristic {euler[bad[0]]}, mu {mu[bad[0]]}"
            )
    ambient = max(dims.values())
    bounds = doc["bounds"]
    if [b["j"] for b in bounds] != list(range(ambient + 1)):
        problems.append("bounds do not cover degrees 0..ambient dimension")
        return problems
    gaps = []
    for b in bounds:
        j = b["j"]
        s_j = [p for p in ids if dims[p] <= j and mult.get((p, j - dims[p] - 1))]
        bound = max((dims[p] for p in s_j), default="-inf")
        if b["S"] != s_j or b["bound"] != bound or b["cap"] != j:
            problems.append(f"S_{j}, bound or cap differ from the multiplicities")
        if b["bound"] != "-inf" and b["bound"] > j:
            problems.append(f"bound {b['bound']} exceeds j = {j}")
        if j < ambient and bound != "-inf":
            gaps.append(j - bound)
    expected_mt = (min(gaps), False) if gaps else (ambient, True)
    if (doc["mt_level"], doc["mt_capped"]) != expected_mt:
        problems.append("mt level differs from the bounds")
    return problems


def _multiplicities(doc: dict) -> dict[tuple[str, int], int]:
    return {(m["id"], m["degree"]): m["value"] for m in doc["multiplicities"]}


def check_group(outputs) -> list[str]:
    """Cross-checks among the exit-0 outputs of inputs naming one poset.

    ``outputs`` holds (input, stdout) pairs.
    """
    docs, texts = [], []
    for inp, text in outputs:
        if "--json" in inp.argv:
            try:
                docs.append(json.loads(text))
            except ValueError:
                return ["malformed JSON report"]
        else:
            texts.append(text)
    if not docs:
        return []
    problems = []
    try:
        first = docs[0]
        if any(d["poset"] != first["poset"] for d in docs):
            problems.append("the poset differs between fields")
        rational = [d for d in docs if d["field"] == "rational"]
        for q in rational:
            q_mult = _multiplicities(q)
            for d in docs:
                if d["field"] == "rational":
                    continue
                p_mult = _multiplicities(d)
                if any(p_mult.get(k, 0) < v for k, v in q_mult.items()):
                    problems.append(
                        f"{d['field']} homology below the rational one"
                    )
        for text in texts:
            problems += check_text(first, text)
    except (KeyError, TypeError) as e:
        problems.append(f"malformed report: {e!r}")
    return problems


def _sections(text: str) -> dict[str, list[str]]:
    """Indented lines of the text report, under their unindented header."""
    sections: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        if line.startswith(" "):
            if current is not None:
                sections[current].append(line)
        else:
            current = line
            sections.setdefault(current, [])
    return sections


def check_text(doc: dict, text: str) -> list[str]:
    """A text report with --hasse --filtration --witnesses, against its JSON.

    Witnesses and filtration layers are not in the JSON report; they are
    recomputed from its multiplicities and maximal flags.
    """
    sections = _sections(text)
    elements = doc["poset"]["elements"]
    mult = _multiplicities(doc)
    problems = []
    if f"poset size: {len(elements)}" not in sections:
        problems.append("text poset size differs from JSON")
    expected = [
        f"  {e['id']}  dim {e['dim']}  height "
        f"{'?' if e['height'] is None else e['height']}"
        f"{'  maximal' if e['maximal'] else ''}"
        for e in elements
    ]
    if sections.get("elements:") != expected:
        problems.append("text elements differ from JSON")
    if sections.get("covers:") != [f"  {a} < {b}" for a, b in doc["poset"]["covers"]]:
        problems.append("text covers differ from JSON")
    expected = []
    for b in doc["bounds"]:
        j = b["j"]
        expected.append(f"  reg K^{j} <= {b['bound']} (cap {b['cap']})")
        expected.append(f"    S_{j} = {{{', '.join(b['S'])}}}")
        witnesses = [e["id"] for e in elements if e["dim"] == j and e["maximal"]]
        expected.append(f"    witnesses = {{{', '.join(witnesses)}}}")
        for k in range(j + 1):
            summands = [
                f"{e['id']}^{mult[e['id'], j - e['dim'] - 1]}"
                for e in elements
                if e["dim"] == j - k and mult.get((e["id"], j - e["dim"] - 1), 0) > 0
            ]
            expected.append(f"    layer {k}: {' + '.join(summands) or '(empty)'}")
    if sections.get("bounds:") != expected:
        problems.append("text bounds, witnesses or layers differ from JSON")
    suffix = " (vacuous, capped at ambient dimension)" if doc["mt_capped"] else ""
    if f"mt level: {doc['mt_level']}{suffix}" not in sections:
        problems.append("text mt level differs from JSON")
    return problems
