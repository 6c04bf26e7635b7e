"""One workload in one fresh process: a closed loop over its inputs.

Usage (``run.py`` starts it with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --dir INPUT_DIR

The worker generates the seeded inputs, writes their files to INPUT_DIR,
then calls ``defreg.cli.main(argv)`` in process, one input after another,
in rounds over all inputs until the next round would pass S seconds.  Each
call is timed, its stdout captured and checked by the gate outside the
timed region.  A host speed probe (``hostspeed.py``) runs throughout, and
each call records the speed factor measured while it ran.  With
``--trace 1`` rounds alternate untraced and traced, starting untraced,
with at least one untraced and two traced rounds.

It writes one JSON record per line to stdout: one per input call, one per
group cross-check, one per traced round with its layer numbers, and a last
one with the process's peak resident set.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

import gate
import hostspeed
import spans
from workloads import WORKLOADS

# An input running longer than this is a blow-up: it counts as failed and
# the loop goes on with the next input.
INPUT_TIMEOUT_S = 60.0


class InputTimeout(BaseException):
    """Raised by the alarm; a BaseException so the program cannot catch it."""


def _alarm(signum, frame):
    raise InputTimeout()


def write_inputs(inputs, directory: Path) -> None:
    for inp in inputs:
        for name, text in inp.files:
            (directory / name).write_text(text, encoding="utf-8")


def resolve_argv(inp, directory: Path) -> list[str]:
    files = {name for name, _ in inp.files}
    return [str(directory / a) if a in files else a for a in inp.argv]


def call_main(main, argv: list[str]) -> tuple[object, str, str | None]:
    """(exit code, stdout, error) of one in-process call of main(argv)."""
    buf = io.StringIO()
    error = None
    code: object = None
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, INPUT_TIMEOUT_S)
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except InputTimeout:
        error = f"timed out after {INPUT_TIMEOUT_S:.0f} s"
    except SystemExit as e:
        code = e.code
    except Exception as e:  # a crash of the program is a failed input
        error = f"crashed: {e!r}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, buf.getvalue(), error


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def round_plan(trace_on: bool):
    """Traced flags of successive rounds: U U U ..., or U T T U T U T ..."""
    if trace_on:
        yield from (False, True, True)
    while True:
        yield False
        if trace_on:
            yield True


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--dir", type=Path, required=True)
    args = ap.parse_args()

    inputs = WORKLOADS[args.workload](args.seed)
    refs = gate.load_references(args.workload, args.seed)
    write_inputs(inputs, args.dir)
    argvs = [resolve_argv(inp, args.dir) for inp in inputs]

    from defreg.cli import main as defreg_main

    hooks = spans.Hooks() if args.trace else None
    if hooks is not None:
        emit({"kind": "absent", "targets": hooks.absent})
    sampler = hostspeed.Sampler()
    sampler.start()
    verdicts: dict[tuple[str, str], list[str]] = {}
    first_output: dict[str, str] = {}
    group_verdicts: dict[tuple, list[str]] = {}
    start = time.perf_counter()
    last_round = 0.0
    rounds = {False: 0, True: 0}
    for traced in round_plan(bool(args.trace)):
        elapsed = time.perf_counter() - start
        need_more = rounds[False] < 1 or (args.trace and rounds[True] < 2)
        if not need_more and elapsed + last_round > args.seconds:
            break
        round_start = time.perf_counter()
        round_probes = len(sampler.samples)
        rec = hooks.install() if traced else None
        out_bytes = 0
        outputs = {}
        try:
            for inp, argv in zip(inputs, argvs):
                if rec is not None:
                    root = rec.open(spans.ROOT)
                k0 = len(sampler.samples)
                t0, c0 = time.perf_counter(), time.process_time()
                code, out, error = call_main(defreg_main, argv)
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                speed = sampler.factor_since(k0)
                if rec is not None:
                    rec.close(root)
                out_bytes += len(out.encode("utf-8"))
                if error is None:
                    key = (inp.name, gate.sha256(out))
                    if key not in verdicts:
                        verdicts[key] = gate.check_output(
                            inp, code, out, refs.get(inp.name))
                    problems = list(verdicts[key])
                    if first_output.setdefault(inp.name, out) != out:
                        problems.append("stdout differs from an earlier round")
                    if code == 0:
                        outputs[inp.name] = (inp, out)
                else:
                    problems = [error]
                emit({"kind": "input", "round": sum(rounds.values()),
                      "traced": traced, "name": inp.name, "exit": code,
                      "wall_s": wall, "cpu_s": cpu, "speed": speed,
                      "problems": problems})
        finally:
            if hooks is not None:
                hooks.uninstall()
        for group in dict.fromkeys(inp.group for inp in inputs):
            members = [v for v in outputs.values() if v[0].group == group]
            if not members:
                continue
            key = tuple(gate.sha256(out) for _, out in members)
            if key not in group_verdicts:
                group_verdicts[key] = gate.check_group(members)
            if group_verdicts[key]:
                emit({"kind": "group", "round": sum(rounds.values()),
                      "names": [inp.name for inp, _ in members],
                      "problems": group_verdicts[key]})
        if rec is not None:
            emit({"kind": "layers", "round": sum(rounds.values()),
                  "speed": sampler.factor_since(round_probes),
                  **spans.round_summary(rec, out_bytes)})
        rounds[traced] += 1
        last_round = time.perf_counter() - round_start
    sampler.stop()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit({"kind": "done", "peak_rss_mb": peak_kb / 1024.0})
    return 0


if __name__ == "__main__":
    sys.exit(main())
