"""Command-line front end: load a scenario, dispatch a command, emit results.

Exit codes: 0 on success, 1 on a domain error (a module rejected the
scenario's content), 2 on a schema error (the document itself is malformed)
or an invalid command-line option.
Outputs are written as JSON (full doubles) and CSV (12 significant digits)
into the output directory; serialization is deterministic for a fixed
scenario file and seed; files are read and written as UTF-8.  Options in
the plain form are read without loading ``argparse``, ``gettext`` or
``locale``, and any other list goes to ``argparse`` (see ``_parse``).
Scenario files are checked against the bundled schema by ``epiq.scenario``'s
own interpreter, so no third-party library is loaded.
``borel_trial`` lives in the package root and samples with the standard
library's ``random``; ``epiq.hilbert`` and ``epiq.uniqueness`` are plain
Python, imported inside the command that uses them.  So no command loads
numpy, ``epiq.evolution`` or ``epiq.statespace``, nor ``dataclasses`` (and
``inspect`` under it) or ``fractions`` (and ``decimal``): scenarios,
networks, distributions, contextual spaces and verdict rows are
``epiq.Record``s, and exact arithmetic builds a ``Fraction`` only on request.
Nor does one load ``typing``, ``pathlib`` or ``importlib.resources``: results
are written through ``os.path``, and a result file that cannot be written
(say, a scenario name too long for a file name) is an error, exit 1.
"""
from __future__ import annotations

import csv
import json
import math
import os
import sys

from . import Knowability, __version__, borel_trial
from .context import ContextError, propagate, reduce_by_consistency, validate_context
from .scenario import Scenario, ScenarioSchemaError, load_scenario_file

DEFAULT_TOLERANCE = 1e-9
MAX_SAMPLES = 2**63 - 1  # the schema's run.n maximum


def _resolved_network(scenario: Scenario, eraser):
    net = scenario.network
    if eraser is None:
        eraser = scenario.eraser
    if any(l.level is Knowability.CONTINGENT for l in net.layers):
        if eraser is None:
            raise ContextError("contingent layers need the eraser flag to be resolved")
        net = reduce_by_consistency(net, path_knowledge_reachable=not eraser)
    return net, eraser


def _unreadable(path):
    try:  # a missing, unreadable or directory path, as argparse.FileType refuses it
        open(path, "rb").close()
    except OSError as e:
        return f"can't open {path!r}: {e.strerror}"


def _range_problem(lo, hi=math.inf):
    bounds = f"x>={lo}" if hi == math.inf else f"{lo}<=x<={hi}"
    return lambda v: None if lo <= v <= hi else f"{v} is not in the range {bounds}"


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _write_outputs(out_dir: str, name: str, command: str, result: dict, rows, header):
    text = json.dumps(result, indent=2, sort_keys=True, allow_nan=False)
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{name}-{command}")
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    with open(f"{stem}.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# Each command takes (scenario, eraser, n, seed, tolerance) and returns the
# result, the CSV rows and header, and whether the run exits 0.
def _cmd_propagate(scenario, eraser, n, seed, tolerance):
    net, eraser = _resolved_network(scenario, eraser)
    dist = propagate(net)
    result = {"labels": list(dist.labels), "probabilities": list(dist.probabilities),
              "rules": list(dist.rules), "exact": dist.exact is not None, "eraser": eraser}
    rows = [(_fmt(label), _fmt(p)) for label, p in zip(dist.labels, dist.probabilities)]
    print("value  probability")
    for label, p in rows:
        print(f"{label:>5}  {p}")
    return result, rows, ("value", "probability"), True


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
    print("value  probability  frequency  band_low  band_high  check")
    for r in out_rows:
        print("  ".join(r))
    result = {"n": n, "seed": seed, "outcomes": rows, "all_pass": all_ok}
    return result, out_rows, ("value", "probability", "frequency",
                              "band_low", "band_high", "check"), True


def _cmd_hilbert(scenario, eraser, n, seed, tolerance):
    from .hilbert import (JointVolumeTable, SpaceConstructionError, build_space, commutator,
                          make_operator, principle4_probabilities)
    net, eraser = _resolved_network(scenario, eraser)
    dist = propagate(net)  # checks the network, which keeps its check for build_space
    jv = JointVolumeTable(v=scenario.joint_volumes) if scenario.joint_volumes else None
    space = build_space(net, jv, scenario.simultaneous)
    result = {"dimension": space.dimension, "kind": space.kind, "properties": {
        pid: list(space.subspace_dimensions(pid)) for pid in space.property_order}}
    rows = [(space.kind, str(space.dimension), "", "")]
    if len(space.property_order) == 2:
        first, second = space.property_order
        comm = commutator(make_operator(space, first), make_operator(space, second))
        result.update(commutator_norm=comm.norm, commuting=comm.commuting)
        rows = [(space.kind, str(space.dimension), _fmt(comm.norm),
                 "commuting" if comm.commuting else "non-commuting")]
        if space.kind in ("interference", "sequential"):
            probs = principle4_probabilities(space)
            dev = max(abs(p - q) for p, q in zip(probs, dist.probabilities))
            result["principle4_probabilities"] = list(probs)
            result["principle4_max_deviation"] = dev
            if dev > max(tolerance, 1e-12):
                raise SpaceConstructionError(
                    "vector representation disagrees with network propagation")
    print(f"kind={space.kind} D_H={space.dimension}")
    if "commutator_norm" in result:
        print(f"commutator norm {_fmt(result['commutator_norm'])} "
              f"({'commuting' if result['commuting'] else 'non-commuting'})")
    return result, rows, ("kind", "dimension", "commutator_norm", "classification"), True


def _cmd_uniqueness(scenario, eraser, n, seed, tolerance):
    from .uniqueness import uniqueness_report
    section = scenario.uniqueness or {}
    shapes = [tuple(s) for s in section.get("shapes", [[2, 2]])]
    samples = section.get("samples", 60)
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
    print("candidate  shape  feasible  dof_P  dof_P'  dof_total  verdict")
    for r in rows:
        print("  ".join(r))
    print(f"passing candidates: {', '.join(passing) if passing else 'none'}")
    ok = passing == ("|a|^2",)
    result = {"rows": json_rows, "passing": list(passing), "unique_born_rule": ok}
    return result, rows, ("candidate", "shape", "feasible", "dof_P", "dof_Pprime",
                          "dof_total", "verdict"), ok


def _cmd_validate(scenario, eraser, n, seed, tolerance):
    errors = validate_context(scenario.network)
    rows = [(msg,) for msg in errors] or [("ok",)]
    for (msg,) in rows:
        print(msg)
    return {"errors": errors, "valid": not errors}, rows, ("message",), not errors


COMMANDS = {"propagate": _cmd_propagate, "montecarlo": _cmd_montecarlo, "hilbert": _cmd_hilbert,
            "uniqueness": _cmd_uniqueness, "validate": _cmd_validate}


# Each value option's key among the parsed values, the type its text converts
# to, the rule that names a problem with the value (None for none) and its
# help line; a flag has its help line (--no-eraser is shown with --eraser).
_OPTIONS = {
    "--command": ("command", str, lambda v: None if v in COMMANDS else (
        f"invalid choice: {v!r} (choose from {', '.join(map(repr, COMMANDS))})"),
        "Override the scenario's run command."),
    "--n": ("n", int, _range_problem(1, MAX_SAMPLES), "Monte Carlo sample count."),
    "--seed": ("seed", int, _range_problem(0), "Random seed for Monte Carlo sampling "
               "(uniqueness accepts it and decides its table without one)."),
    "--out-dir": ("out_dir", str,
                  lambda v: f"directory {v!r} is a file" if os.path.isfile(v) else None,
                  "Output directory for CSV/JSON results (default: $EPIQ_OUT_DIR)."),
    # the schema's run.tolerance rule (a number above 0), also finite
    "--tolerance": ("tolerance", float, lambda v: None if math.isfinite(v) and v > 0
                    else "must be a finite number above 0",
                    "Numerical tolerance for result checks."),
    "--eraser": "Resolve contingent layers as erased (interference) or recorded.",
    "--no-eraser": None,
    "--help": "Show this message and exit.",
    "--version": "Show the version and exit.",
}


def _converted(text, kind, problem):
    """(``kind`` of ``text``, None), or (None, argparse's message for it)."""
    try:  # a ValueError from either step makes the text invalid, as in argparse
        value = kind(text)
        return value, problem(value)
    except ValueError:
        return None, f"invalid {kind.__name__} value: {text!r}"


def _parser(prog):
    """The argparse parser for these options, usage and help at 80 columns."""
    import argparse

    class Value(argparse.Action):
        # 3.11's argparse drops the "--" of "--n=--" and passes []: read it as that text
        def __call__(self, parser, namespace, values, option_string=None):
            setattr(namespace, self.dest, parser._get_value(self, "--") if values == [] else values)

    def typed(kind, problem):
        def convert(text):
            value, message = _converted(text, kind, problem)
            if message:
                raise argparse.ArgumentTypeError(message)
            return value
        return convert

    flags = {"--eraser": {"action": argparse.BooleanOptionalAction}, "--help": {"action": "help"},
             "--version": {"action": "version", "version": f"%(prog)s, version {__version__}"}}
    parser = argparse.ArgumentParser(  # 80 columns, whatever $COLUMNS says
        prog=prog, description=main.__doc__, allow_abbrev=False, add_help=False,
        formatter_class=lambda prog: argparse.HelpFormatter(prog, width=78))
    parser.add_argument("scenario_path", type=typed(str, _unreadable))
    for name, entry in _OPTIONS.items():
        if isinstance(entry, tuple):
            key, kind, problem, text = entry
            parser.add_argument(name, dest=key, action=Value, type=typed(kind, problem),
                                choices=COMMANDS if key == "command" else None, help=text)
        elif entry:  # --no-eraser comes with --eraser
            parser.add_argument(name, help=entry, **flags[name])
    # read per call, not at import; a string default is checked by its type too
    parser.set_defaults(out_dir=os.environ.get("EPIQ_OUT_DIR"))
    return parser


def _parse(args, prog):
    """The values that ``args`` give, as ``_parser(prog)`` reads them.

    The plain form is read here without loading argparse: one scenario path
    that does not start with "-", each value option as "--opt value" (the
    value not starting with "-") or "--opt=value", and --eraser or
    --no-eraser, converted in token order, the last occurrence winning.  At
    its first other token ("--", --help, --version, an unknown option, a
    missing or option-like value, a second path), or with no path, the whole
    list goes to argparse, which reads the tokens before it alike.  A usage
    error exits 2 through argparse's ``error``."""
    def convert(name, text, kind, problem):
        value, message = _converted(text, kind, problem)
        if message:
            _parser(prog).error(f"argument {name}: {message}")
        return value

    opts = dict.fromkeys(("scenario_path", "command", "n", "seed", "out_dir", "tolerance",
                          "eraser"))
    i = 0
    while i < len(args):
        token, i = args[i], i + 1
        name, eq, text = token.partition("=")
        if not token.startswith("-") and opts["scenario_path"] is None:
            opts["scenario_path"] = convert("scenario_path", token, str, _unreadable)
        elif token in ("--eraser", "--no-eraser"):
            opts["eraser"] = token == "--eraser"
        elif isinstance(_OPTIONS.get(name), tuple) and (
                eq or i < len(args) and not args[i].startswith("-")):
            if not eq:
                text, i = args[i], i + 1
            key, kind, problem, _ = _OPTIONS[name]
            opts[key] = convert(name, text, kind, problem)
        else:
            return vars(_parser(prog).parse_args(args))
    if opts["scenario_path"] is None:
        return vars(_parser(prog).parse_args(args))
    # read per call, not at import, and checked only when --out-dir is absent
    if opts["out_dir"] is None and (env := os.environ.get("EPIQ_OUT_DIR")) is not None:
        opts["out_dir"] = convert("--out-dir", env, *_OPTIONS["--out-dir"][1:3])
    return opts


def main(args=None, prog_name="epiq", standalone_mode=True):
    """Run a scenario file through the epistemic-context engine."""
    # standalone_mode stays for callers of the click-era signature; every run
    # ends in sys.exit, so it has nothing to change
    opts = _parse(sys.argv[1:] if args is None else list(args), prog_name)
    command, n, seed, tolerance = opts["command"], opts["n"], opts["seed"], opts["tolerance"]
    try:
        scenario = load_scenario_file(opts["scenario_path"])
    except ScenarioSchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        sys.exit(2)

    run = scenario.run
    command = command or run.get("command", "propagate")
    n = n if n is not None else run.get("n", 100_000)
    if seed is None:
        # the study's own seed comes before the run default; --seed beats both
        seed = run.get("seed", 0)
        if command == "uniqueness":
            seed = (scenario.uniqueness or {}).get("seed", seed)
    tolerance = tolerance if tolerance is not None else run.get("tolerance", DEFAULT_TOLERANCE)
    out_dir = opts["out_dir"] or "."

    try:
        result, rows, header, ok = COMMANDS[command](scenario, opts["eraser"], n, seed, tolerance)
        payload = {"command": command, "scenario": scenario.name, "seed": seed,
                   "version": __version__, "result": result}
        # a non-finite result is refused here, before any file is opened
        _write_outputs(out_dir, scenario.name, command, payload, rows, header)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
