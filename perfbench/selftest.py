"""Self-test of the correctness gate, on a captured output.

    python3 perfbench/selftest.py

Corrupts one multiplicity in the captured report of cycle5 over GF(2) and
checks that the gate reports it, both as a reference mismatch and as a
broken invariant.  ``run.py`` runs it before every benchmark run, so a
gate that stopped detecting failures fails the run.  Exits 1 on failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import gate
from workloads import graph_homology

CAPTURED = Path(__file__).with_name("fixtures") / "cycle5_gf2.out"
INPUT = "cycle5:gf2"


def run() -> list[str]:
    """Problems found with the gate itself; empty when it works."""
    inp = next(i for i in graph_homology(0) if i.name == INPUT)
    ref = gate.load_references("graph-homology", 0)[INPUT]
    text = CAPTURED.read_text(encoding="utf-8")
    problems = []
    clean = gate.check_output(inp, 0, text, ref)
    if clean:
        problems.append(f"captured output fails the gate: {clean}")
    doc = json.loads(text)
    doc["multiplicities"][0]["value"] += 1
    found = gate.check_output(inp, 0, json.dumps(doc, indent=2) + "\n", ref)
    if not any("pinned reference" in p for p in found):
        problems.append("a corrupted multiplicity passed the reference check")
    if not any("Philip Hall" in p for p in found):
        problems.append("a corrupted multiplicity passed the Philip Hall check")
    return problems


if __name__ == "__main__":
    failures = run()
    for p in failures:
        print(f"FAILED: {p}")
    print("gate self-test:", "failed" if failures else "ok")
    sys.exit(1 if failures else 0)
