"""Command-line front end: load a scenario, dispatch a command, emit results.

Exit codes: 0 on success, 1 on a domain error (a module rejected the
scenario's content), 2 on a schema error (the document itself is malformed).
Outputs are written as JSON (full doubles) and CSV (12 significant digits)
into the output directory; serialization is deterministic for a fixed
scenario file and seed.
"""
from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .context import (ContextError, Distribution, propagate, reduce_by_consistency,
                      validate_context)
from .evolution import Knowability, borel_trial
from .hilbert import (JointVolumeTable, SpaceConstructionError, build_space, commutator,
                      make_operator, principle4_probabilities)
from .scenario import Scenario, ScenarioDomainError, ScenarioSchemaError, load_scenario_file
from .uniqueness import uniqueness_report

DEFAULT_TOLERANCE = 1e-9


def _resolved_network(scenario: Scenario, eraser):
    net = scenario.network
    if eraser is None:
        eraser = scenario.eraser
    if any(l.level is Knowability.CONTINGENT for l in net.layers):
        if eraser is None:
            raise ContextError(
                "contingent layers need the eraser flag to be resolved")
        net = reduce_by_consistency(net, path_knowledge_reachable=not eraser)
    return net, eraser


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _write_outputs(out_dir: Path, name: str, command: str, result: dict, rows, header):
    text = json.dumps(result, indent=2, sort_keys=True, allow_nan=False)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-{command}"
    with open(out_dir / f"{stem}.json", "w") as fh:
        fh.write(text + "\n")
    with open(out_dir / f"{stem}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _distribution_rows(dist: Distribution):
    return [( _fmt(label), _fmt(p)) for label, p in zip(dist.labels, dist.probabilities)]


def _cmd_propagate(scenario, eraser, tolerance):
    net, eraser = _resolved_network(scenario, eraser)
    dist = propagate(net)
    result = {
        "labels": list(dist.labels),
        "probabilities": list(dist.probabilities),
        "rules": list(dist.rules),
        "exact": dist.exact is not None,
        "eraser": eraser,
    }
    rows = _distribution_rows(dist)
    click.echo("value  probability")
    for label, p in rows:
        click.echo(f"{label:>5}  {p}")
    return result, rows, ("value", "probability")


def _cmd_montecarlo(scenario, eraser, n, seed, tolerance):
    net, eraser = _resolved_network(scenario, eraser)
    dist = propagate(net)
    freqs = borel_trial(dist.probabilities, n=n, seed=seed)
    rows, out_rows, all_ok = [], [], True
    for label, p, freq in zip(dist.labels, dist.probabilities, freqs):
        sigma = math.sqrt(p * (1 - p) / n)
        lo, hi = p - 3 * sigma, p + 3 * sigma
        ok = bool(lo - tolerance <= freq <= hi + tolerance)
        all_ok = all_ok and ok
        rows.append({"label": label, "probability": p, "frequency": float(freq),
                     "band": [lo, hi], "pass": ok})
        out_rows.append((_fmt(label), _fmt(p), _fmt(freq), _fmt(lo), _fmt(hi),
                         "pass" if ok else "fail"))
    click.echo("value  probability  frequency  band_low  band_high  check")
    for r in out_rows:
        click.echo("  ".join(r))
    result = {"n": n, "seed": seed, "outcomes": rows, "all_pass": all_ok}
    return result, out_rows, ("value", "probability", "frequency",
                              "band_low", "band_high", "check")


def _cmd_hilbert(scenario, eraser, tolerance):
    net, eraser = _resolved_network(scenario, eraser)
    jv = JointVolumeTable(v=scenario.joint_volumes) if scenario.joint_volumes else None
    space = build_space(net, joint_volumes=jv, simultaneous=scenario.simultaneous)
    result = {
        "dimension": space.dimension,
        "kind": space.kind,
        "properties": {
            pid: list(space.subspace_dimensions(pid)) for pid in space.property_order
        },
    }
    rows = [(space.kind, str(space.dimension), "", "")]
    if len(space.property_order) == 2:
        first, second = space.property_order
        op_a = make_operator(space, first, labels=net.layers[0].labels
                             if space.kind != "joint" else None)
        op_b = make_operator(space, second, labels=net.layers[1].labels
                             if space.kind != "joint" else None)
        comm = commutator(op_a, op_b)
        result["commutator_norm"] = comm.norm
        result["commuting"] = comm.commuting
        rows = [(space.kind, str(space.dimension), _fmt(comm.norm),
                 "commuting" if comm.commuting else "non-commuting")]
        if space.kind in ("interference", "sequential"):
            probs = principle4_probabilities(space, net)
            dist = propagate(net)
            dev = float(np.max(np.abs(probs - np.array(dist.probabilities))))
            result["principle4_probabilities"] = [float(p) for p in probs]
            result["principle4_max_deviation"] = dev
            if dev > max(tolerance, 1e-12):
                raise SpaceConstructionError(
                    "vector representation disagrees with network propagation")
    click.echo(f"kind={space.kind} D_H={space.dimension}")
    if "commutator_norm" in result:
        click.echo(f"commutator norm {_fmt(result['commutator_norm'])} "
                   f"({'commuting' if result['commuting'] else 'non-commuting'})")
    return result, rows, ("kind", "dimension", "commutator_norm", "classification")


def _cmd_uniqueness(scenario, seed):
    section = scenario.uniqueness or {}
    shapes = [tuple(s) for s in section.get("shapes", [[2, 2]])]
    samples = section.get("samples", 60)
    seed = section.get("seed", seed)
    report = uniqueness_report([s[0] for s in shapes], [s[1] for s in shapes],
                               samples=samples, seed=seed)
    rows, json_rows = [], []
    for row in report.rows:
        rep = row.report
        rows.append((row.candidate, f"{row.shape[0]}x{row.shape[1]}",
                     "yes" if rep.feasible else "no",
                     str(rep.dof.get("P", "")), str(rep.dof.get("P'", "")),
                     str(rep.dof.get("total", "")),
                     "pass" if row.verdict else "fail"))
        json_rows.append({"candidate": row.candidate, "shape": list(row.shape),
                          "padded_shape": list(row.padded_shape) if row.padded_shape else None,
                          "feasible": rep.feasible, "dof": rep.dof,
                          "required": rep.required, "verdict": row.verdict})
    passing = report.passing_candidates()
    click.echo("candidate  shape  feasible  dof_P  dof_P'  dof_total  verdict")
    for r in rows:
        click.echo("  ".join(r))
    click.echo(f"passing candidates: {', '.join(passing) if passing else 'none'}")
    ok = passing == ("|a|^2",)
    result = {"rows": json_rows, "passing": list(passing), "unique_born_rule": ok}
    return result, rows, ("candidate", "shape", "feasible", "dof_P", "dof_Pprime",
                          "dof_total", "verdict"), ok


def _cmd_validate(scenario):
    errors = validate_context(scenario.network)
    rows = [(msg,) for msg in errors] or [("ok",)]
    for (msg,) in rows:
        click.echo(msg)
    return {"errors": errors, "valid": not errors}, rows, ("message",), not errors


@click.command()
@click.version_option(__version__)
@click.argument("scenario_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--command", "command", default=None,
              type=click.Choice(["propagate", "montecarlo", "hilbert",
                                 "uniqueness", "validate"]),
              help="Override the scenario's run command.")
@click.option("--n", "n", type=click.IntRange(min=1), default=None,
              help="Monte Carlo sample count.")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Random seed for sampling and solver starts.")
@click.option("--out-dir", type=click.Path(file_okay=False), default=None,
              envvar="EPIQ_OUT_DIR", help="Output directory for CSV/JSON results.")
@click.option("--tolerance", type=float, default=None,
              help="Numerical tolerance for result checks.")
@click.option("--eraser/--no-eraser", "eraser", default=None,
              help="Resolve contingent layers as erased (interference) or recorded.")
def main(scenario_path, command, n, seed, out_dir, tolerance, eraser):
    """Run a scenario file through the epistemic-context engine."""
    try:
        scenario = load_scenario_file(scenario_path)
    except ScenarioSchemaError as e:
        click.echo(f"schema error: {e}", err=True)
        sys.exit(2)
    except ScenarioDomainError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)

    run = scenario.run
    command = command or run.get("command", "propagate")
    n = n if n is not None else run.get("n", 100_000)
    seed = seed if seed is not None else run.get("seed", 0)
    tolerance = tolerance if tolerance is not None else run.get("tolerance", DEFAULT_TOLERANCE)
    out_dir = Path(out_dir) if out_dir else Path(".")

    exit_code = 0
    try:
        if command == "propagate":
            result, rows, header = _cmd_propagate(scenario, eraser, tolerance)
        elif command == "montecarlo":
            result, rows, header = _cmd_montecarlo(scenario, eraser, n, seed, tolerance)
        elif command == "hilbert":
            result, rows, header = _cmd_hilbert(scenario, eraser, tolerance)
        elif command == "uniqueness":
            result, rows, header, ok = _cmd_uniqueness(scenario, seed)
            exit_code = 0 if ok else 1
        else:
            result, rows, header, ok = _cmd_validate(scenario)
            exit_code = 0 if ok else 1
        payload = {
            "command": command,
            "scenario": scenario.name,
            "seed": seed,
            "version": __version__,
            "result": result,
        }
        # a non-finite result is refused here, before any file is opened
        _write_outputs(out_dir, scenario.name, command, payload, rows, header)
    except (ContextError, SpaceConstructionError, ScenarioDomainError, ValueError) as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)
    sys.exit(exit_code)


if __name__ == "__main__":
    main()
