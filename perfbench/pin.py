"""Record the pinned references of the correctness gate.

    PYTHONPATH=src python3 perfbench/pin.py

Runs every input of every workload once, for the default seeds, and writes
``references.json``: per input its exit code and, unless it exits 2 on a
budget, the sha256 of its stdout.  Inputs that do not depend on the seed
are recorded once under "fixed".  Also rewrites the captured output that
``selftest.py`` corrupts.  Refuses to pin an output that fails the gate's
invariants.  Reports must stay byte-identical, so this is rerun only when
the inputs of the benchmark change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import gate
import selftest
from worker import call_main, resolve_argv, write_inputs
from workloads import WORKLOADS

DEFAULT_SEEDS = range(32)


def pin_workload(name: str, main, directory: Path) -> dict:
    fixed: dict[str, dict] = {}
    seeded: dict[str, dict] = {}
    for seed in DEFAULT_SEEDS:
        inputs = WORKLOADS[name](seed)
        write_inputs(inputs, directory)
        outputs = []
        for inp in inputs:
            if not inp.seeded and inp.name in fixed:
                continue
            code, text, error = call_main(main, resolve_argv(inp, directory))
            problems = [error] if error else gate.check_output(inp, code, text, None)
            if problems:
                sys.exit(f"{name} seed {seed} {inp.name}: {problems}")
            if code == 0:
                outputs.append((inp, text))
            ref = gate.reference_for(code, text)
            if inp.seeded:
                seeded.setdefault(str(seed), {})[inp.name] = ref
            else:
                fixed[inp.name] = ref
            if name == "graph-homology" and inp.name == selftest.INPUT:
                selftest.CAPTURED.parent.mkdir(exist_ok=True)
                selftest.CAPTURED.write_text(text, encoding="utf-8")
        for group in {inp.group for inp, _ in outputs}:
            problems = gate.check_group([o for o in outputs if o[0].group == group])
            if problems:
                sys.exit(f"{name} seed {seed} group {group}: {problems}")
        print(f"{name} seed {seed}: {len(outputs)} outputs", flush=True)
    return {"fixed": fixed, "seeded": seeded}


def main() -> int:
    from defreg.cli import main as defreg_main

    refs = {}
    scratch = Path(__file__).resolve().parent.parent / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name in WORKLOADS:
            refs[name] = pin_workload(name, defreg_main, Path(tmp))
    gate.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
