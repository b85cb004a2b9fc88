"""The four benchmark workloads still run on this package.

Each workload reads epiq names of its own: ``context.propagate(net)``,
``build_constraints(m, mp, Knowability.NEVER, cand)``,
``cli.main(..., standalone_mode=True)``, and names that no command reaches
(``AttributeKind`` strings, ``slots``, ``InvarianceReport.max_deviation`` and
more).  Every op of every workload runs once here through the workload's own
check, so a cut that breaks a name the benchmark reads fails here, not only in
a benchmark run.  ``cli-scenarios`` runs its commands in this process, as its
traced run does.  ``bench/`` is imported as the benchmark's own tests import
it, and nothing there is changed.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402


def run_ops(workload, tmp_path):
    """Set the workload up at seed 1, run one pass in this process, and
    return the number of ops; an op whose check fails fails the test."""
    workload.setup(1, tmp_path)
    ops = workload.ops(in_process=True)
    for label, fn, check in ops:
        assert check(fn()) is None, label
    return len(ops)


def test_state_space_ops_pass_their_own_checks(tmp_path):
    assert run_ops(workloads.StateSpace(), tmp_path) == len(workloads.STATE_TARGETS)


def test_propagate_depth_ops_pass_their_own_checks(tmp_path):
    count = sum(n for _, n in workloads.EXACT_DEPTHS + workloads.FLOAT_DEPTHS)
    assert run_ops(workloads.PropagateDepth(), tmp_path) == count


def test_uniqueness_table_ops_pass_their_own_checks(tmp_path):
    rows = len(workloads.CANDIDATE_TAGS) * len(workloads.UNIQUENESS_SHAPES)
    assert run_ops(workloads.UniquenessTable(), tmp_path) == rows


def test_cli_scenarios_ops_pass_their_own_checks(tmp_path, monkeypatch):
    # the workload finds the bundled scenarios from the working directory
    monkeypatch.chdir(ROOT)
    count = len(workloads.cli_inputs()) + 2 * workloads.SEEDED_FILES
    assert run_ops(workloads.CliScenarios(), tmp_path) == count
