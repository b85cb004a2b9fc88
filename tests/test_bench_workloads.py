"""The state-space benchmark workload still runs on this package.

The workload reads epiq names that no command reaches (``AttributeKind``
strings, ``slots``, ``InvarianceReport.max_deviation`` and more), so a cut in
``epiq.statespace`` or ``epiq.evolution`` that breaks it fails here, not only
in a benchmark run.  ``bench/`` is imported as the benchmark's own tests
import it, and nothing there is changed.
"""
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def test_state_space_ops_pass_their_own_checks(tmp_path):
    workload = workloads.StateSpace()
    workload.setup(1, tmp_path)
    ops = workload.ops(in_process=True)
    assert len(ops) == len(workloads.STATE_TARGETS)
    for label, fn, check in ops:
        assert check(fn()) is None, label
