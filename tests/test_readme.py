"""The README's examples run as written, from the repository root."""

import os
import pathlib
import re
import shlex
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _env():
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def _block(section, lang):
    """The first fenced block of the given language under a '## ' heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_library_snippet_runs():
    code = _block("Library", "python")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=_env(),
        capture_output=True, text=True, encoding="utf-8", timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "layer 0" in proc.stdout


def test_command_line_examples_run():
    commands = [
        shlex.split(line)
        for line in _block("Command line", "sh").splitlines()
        if line.startswith("defreg ")
    ]
    assert [argv[1:3] for argv in commands] == [
        ["--mode", "monomial"], ["--mode", "graph"], ["--mode", "poset"]
    ]
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "defreg.cli", *argv[1:]], cwd=ROOT,
            env=_env(), capture_output=True, text=True, encoding="utf-8",
            timeout=60,
        )
        assert proc.returncode == 0, (argv, proc.stdout, proc.stderr)
        assert proc.stdout.startswith(("format: 1", "{"))
