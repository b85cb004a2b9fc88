"""Regenerate the reference outputs in bench/reference/ from ``src/``.

    python3 bench/make_reference.py

Run it only when an output is meant to change, and say why in the change
that commits the new files: the benchmark counts every op whose output
differs from these files as failed.
"""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads


def uniqueness_reference(seed):
    wl = workloads.UniquenessTable()
    wl.plan(seed)
    rows = []
    for _, fn, _ in wl.ops(in_process=True):
        row = fn()
        rep = row.report
        rows.append({"candidate": row.candidate, "shape": list(row.shape),
                     "padded_shape": list(row.padded_shape) if row.padded_shape else None,
                     "feasible": rep.feasible, "dof": rep.dof, "required": rep.required,
                     "verdict": row.verdict})
    return rows


def cli_reference(root):
    out = {}
    scenarios = root / "src" / "epiq" / "scenarios"
    with tempfile.TemporaryDirectory(dir=root / ".bench_work") as tmp:
        for label, scenario, args in workloads.cli_inputs():
            out_dir = Path(tmp) / label
            proc = subprocess.run(
                [sys.executable, "-m", "epiq.cli", str(scenarios / f"{scenario}.json"),
                 *args, "--out-dir", str(out_dir)], capture_output=True, text=True)
            entry = {"exit": proc.returncode}
            if proc.returncode == 0:
                (path,) = out_dir.glob("*.json")
                entry["result"] = json.loads(path.read_text())["result"]
            out[label] = entry
    return out


def main():
    root = Path.cwd()
    run.use_checkout_source(root)
    run.cap_threads()
    (root / ".bench_work").mkdir(exist_ok=True)
    ref = workloads.REFERENCE_DIR
    ref.mkdir(exist_ok=True)
    table = uniqueness_reference(seed=1)
    if uniqueness_reference(seed=2) != table:
        sys.exit("the verdict table depends on the seed; raise WIDE_STARTS")
    (ref / "uniqueness.json").write_text(json.dumps(table, indent=1) + "\n")
    (ref / "cli.json").write_text(json.dumps(cli_reference(root), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
