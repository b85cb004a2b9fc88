"""Golden digests of the bundled CLI matrix.

Every bundled scenario runs under every command with each eraser flag (none,
``--eraser``, ``--no-eraser``): 75 runs through ``epiq.cli.main`` in-process.
Each run's exit code, the SHA-256 of each JSON and CSV result file, and the
SHA-256 of what it prints to stdout and to stderr must match
``cli_digests.json``.  A change that alters an output on purpose
regenerates that file with

    PYTHONPATH=src python tests/test_cli_digests.py

and says which runs changed.
"""
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from epiq.cli import COMMANDS, main
from epiq.scenario import bundled_scenario_path

DIGESTS = Path(__file__).with_name("cli_digests.json")
SCENARIOS = ("born-uniqueness", "branching", "mach-zehnder-detected",
             "mach-zehnder-open", "twin-eraser")
FLAGS = {"default": [], "eraser": ["--eraser"], "no-eraser": ["--no-eraser"]}
RUNS = [f"{s}.{c}.{f}" for s in SCENARIOS for c in COMMANDS for f in FLAGS]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(run, out_dir):
    """A run's exit code, the SHA-256 of each file it writes into the empty
    directory ``out_dir``, and the SHA-256 of its stdout and stderr text."""
    scenario, command, flag = run.split(".")
    argv = [str(bundled_scenario_path(scenario)), "--command", command,
            *FLAGS[flag], "--out-dir", str(out_dir)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            main(argv)
        except SystemExit as e:
            code = e.code
    files = {name: _sha256((Path(out_dir) / name).read_bytes())
             for name in sorted(os.listdir(out_dir))}
    return {"exit": code, "files": files, "stdout": _sha256(stdout.getvalue().encode()),
            "stderr": _sha256(stderr.getvalue().encode())}


@pytest.fixture(scope="module")
def golden():
    return json.loads(DIGESTS.read_text())


def test_golden_file_covers_the_matrix(golden):
    assert len(RUNS) == 75
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("run", RUNS)
def test_bundled_run_matches_its_digest(tmp_path, golden, run):
    assert digest(run, tmp_path) == golden[run]


if __name__ == "__main__":
    table = {}
    for run in RUNS:
        with tempfile.TemporaryDirectory() as out_dir:
            table[run] = digest(run, out_dir)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DIGESTS}", file=sys.stderr)
