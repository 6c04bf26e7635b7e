"""Benchmark of defreg: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload graph-homology --seed 1 \
        --seconds 30 --trace 0

Workloads: graph-homology, closure-heavy, poset-wide (see README.md).
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1``
the per-layer ones.  Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Exits 2 without a result when the program's sources are missing.

Set-up time is the median import time of ``defreg`` and ``defreg.cli`` in
fresh interpreters.  The workload itself runs in one fresh worker process
(``worker.py``) under a wall-clock limit, so a blow-up ends as a failure,
never as a hang.  End-to-end times are adjusted for the host's speed
(``hostspeed.py``); the raw ones are printed above the result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import selftest
from spans import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 15
SETUP_LIMIT_S = 40.0  # all set-up interpreters together
# Every run ends within this many seconds, worker included.
RUN_LIMIT_S = 170.0


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(env) -> tuple[float, float]:
    """Median (raw, adjusted) import time over fresh interpreters.

    One unmeasured interpreter goes first, so that every measured one
    finds the compiled bytecode in place.
    """
    raw, adjusted = [], []
    deadline = time.perf_counter() + SETUP_LIMIT_S
    for k in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "hostspeed.py")], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True,
            timeout=max(1.0, deadline - time.perf_counter()))
        if k:
            r, a = map(float, done.stdout.split())
            raw.append(r)
            adjusted.append(a)
    return statistics.median(raw), statistics.median(adjusted)


def run_worker(args, env, directory: Path, budget: float):
    """Records of the worker and run-level problems (timeout, crash)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", str(directory)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    problems = []
    try:
        out, err = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        problems.append(f"worker passed the {budget:.0f} s limit and was killed")
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            problems.append(f"worker wrote a non-record line: {line[:80]!r}")
    if proc.returncode != 0 and not problems:
        tail = err.strip().splitlines()[-1:] or ["no stderr"]
        problems.append(f"worker exited {proc.returncode}: {tail[0]}")
    if not any(r["kind"] == "done" for r in records) and not problems:
        problems.append("worker ended without its last record")
    return records, problems


def rounds_of(records, traced: bool) -> dict[int, list[dict]]:
    by_round = defaultdict(list)
    for r in records:
        if r["kind"] == "input" and r["traced"] == traced:
            by_round[r["round"]].append(r)
    return by_round


def complete(by_round, n_inputs: int) -> list[list[dict]]:
    """Rounds in which every input ran; a round cut by a kill is dropped."""
    return [rs for rs in by_round.values() if len(rs) == n_inputs]


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def timings(rounds, adjusted: bool) -> tuple[float, float, float]:
    """wall_s, cpu_s and input_p50_s of complete untraced rounds.

    Adjusted times are scaled by the host speed factor of each call
    (``hostspeed.py``); raw ones are printed for comparison.
    """
    def scale(r):
        return r["speed"] if adjusted else 1.0

    per_input = defaultdict(list)
    for rs in rounds:
        for r in rs:
            per_input[r["name"]].append(r["wall_s"] * scale(r))
    return (
        median_or_zero([sum(r["wall_s"] * scale(r) for r in rs) for rs in rounds]),
        median_or_zero([sum(r["cpu_s"] * scale(r) for r in rs) for rs in rounds]),
        median_or_zero([statistics.median(v) for v in per_input.values()]),
    )


def end_to_end(records, n_inputs, setup, ok_frac):
    rounds = complete(rounds_of(records, False), n_inputs)
    wall, cpu, p50 = timings(rounds, adjusted=True)
    raw = timings(rounds, adjusted=False)
    peak = [r["peak_rss_mb"] for r in records if r["kind"] == "done"]
    metrics = {
        "setup_s": (setup[1], "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "input_p50_s": (p50, "s"),
        "peak_rss_mb": (peak[0] if peak else 0.0, "MB"),
        "ok_frac": (ok_frac, "ratio"),
    }
    speeds = [r["speed"] for rs in rounds for r in rs]
    notes = [
        f"samples: {len(rounds)} rounds x {n_inputs} inputs"
        f" ({SETUP_SAMPLES} interpreters for setup_s)",
        f"host speed factor: median {median_or_zero(speeds):.3f};"
        f" raw setup_s {setup[0]:.6f}, wall_s {raw[0]:.6f},"
        f" cpu_s {raw[1]:.6f}, input_p50_s {raw[2]:.6f}",
    ]
    return metrics, notes


def per_layer(records, n_inputs):
    """Layer metrics: median self time over traced rounds, and counts.

    Self times are adjusted for host speed like the end-to-end times, with
    the speed factor of their round.  Counts must repeat exactly between
    traced rounds; a mismatch is a problem of the run.
    """
    layers = [r for r in records if r["kind"] == "layers"]
    problems, notes = [], []
    absent = next((r["targets"] for r in records if r["kind"] == "absent"), [])
    if absent:
        notes.append(f"absent hook targets (their layers read 0): {', '.join(absent)}")
    broken = sorted({b for r in layers for b in r["broken"]})
    if broken:
        notes.append(f"sizes unreadable for spans: {', '.join(broken)}")
    counts = layers[0]["counts"] if layers else {}
    if any(r["counts"] != counts for r in layers[1:]):
        problems.append("counts differ between traced rounds")
    metrics = {}
    for name, (unit, source) in LAYER_METRICS.items():
        kind, key = source.split(":")
        if kind == "self":
            value = median_or_zero(
                [r["self"].get(key, 0.0) * r["speed"] for r in layers])
        else:
            value = counts.get(key, 0)
        metrics[name] = (value, unit)
    sums = counts.get("monomial.sums", 0) + counts.get("binomial_edge.sums", 0)
    new = counts.get("posets.elements", 0) - counts.get("posets.generators", 0)
    metrics["posets.closure_yield"] = (new / sums if sums else 0.0, "ratio")
    walls = {traced: timings(complete(rounds_of(records, traced), n_inputs),
                             adjusted=True)[0]
             for traced in (False, True)}
    metrics["trace.overhead_s"] = (walls[True] - walls[False], "s")
    metrics["trace.absent_hooks"] = (len(absent), "count")
    totals = defaultdict(float)
    for r in layers:
        for span, t in r["self"].items():
            totals[span.split(".")[0]] += t
    whole = sum(totals.values()) or 1.0
    notes.append("self-time share: " + ", ".join(
        f"{layer} {t / whole:.1%}"
        for layer, t in sorted(totals.items(), key=lambda kv: -kv[1])))
    return metrics, notes, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()
    if not (ROOT / "src" / "defreg" / "cli.py").is_file():
        print(f"error: no defreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = program_env()
    try:
        setup = measure_setup(env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"error: importing defreg failed: {e}", file=sys.stderr)
        return 1

    problems = [f"gate self-test: {p}" for p in selftest.run()]
    n_inputs = len(WORKLOADS[args.workload](args.seed))
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(dir=scratch))
    try:
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        records, run_problems = run_worker(args, env, directory, budget)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    problems += run_problems

    inputs = [r for r in records if r["kind"] == "input"]
    failed = {(r["round"], r["name"]) for r in inputs if r["problems"]}
    for r in records:
        if r["kind"] == "group":
            failed |= {(r["round"], name) for name in r["names"]}
    reported = [f"{r.get('name') or ', '.join(r['names'])} (round {r['round']}):"
                f" {'; '.join(r['problems'])}"
                for r in records if r.get("problems")]
    if args.trace:
        metrics, notes, layer_problems = per_layer(records, n_inputs)
        problems += layer_problems
    attempted = max(1, len(inputs) + (1 if run_problems else 0))
    n_failed = min(attempted, len(failed) + len(problems))
    if not args.trace:
        metrics, notes = end_to_end(records, n_inputs, setup,
                                    (attempted - n_failed) / attempted)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    for p in (problems + reported)[:20]:
        print(f"FAILED: {p}")
    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
