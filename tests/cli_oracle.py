"""The argparse parser that first read the CLI's options, kept as its oracle.

``epiq.cli`` reads the plain form of its options itself, so that a run in
that form loads no ``argparse``, ``gettext`` or ``locale``, and hands any
other list to an argparse parser built from its own option table.
``parser(prog)`` builds the original parser independently, from the same
command table, sample bound and version, so the tests can hold the CLI to
the same values, the same usage errors and the same help text.
"""
import argparse
import math
import os

from epiq import __version__
from epiq.cli import COMMANDS, MAX_SAMPLES, main


def _checked(kind, problem):
    """An argparse type: ``kind`` of the text, refused by a message from ``problem``."""
    def convert(text):
        value = kind(text)
        if message := problem(value):
            raise argparse.ArgumentTypeError(message)
        return value
    convert.__name__ = kind.__name__  # argparse's "invalid int value: ..." names it
    return convert


def _readable_file(path):
    try:  # refuses a missing, unreadable or directory path, as argparse.FileType does
        open(path, "rb").close()
    except OSError as e:
        raise argparse.ArgumentTypeError(f"can't open {path!r}: {e.strerror}") from None
    return path


def _range_problem(lo, hi=math.inf):
    bounds = f"x>={lo}" if hi == math.inf else f"{lo}<=x<={hi}"
    return lambda v: None if lo <= v <= hi else f"{v} is not in the range {bounds}"


def parser(prog):
    parser = argparse.ArgumentParser(prog=prog, allow_abbrev=False, add_help=False,
                                     description=main.__doc__)
    add = parser.add_argument
    add("scenario_path", type=_readable_file)
    add("--command", choices=COMMANDS, help="Override the scenario's run command.")
    add("--n", type=_checked(int, _range_problem(1, MAX_SAMPLES)), help="Monte Carlo sample count.")
    add("--seed", type=_checked(int, _range_problem(0)),
        help="Random seed for Monte Carlo sampling (uniqueness accepts it and "
             "decides its table without one).")
    # read per call, not at import; a string default is checked by its type too
    add("--out-dir", default=os.environ.get("EPIQ_OUT_DIR"), type=_checked(
        str, lambda v: f"directory {v!r} is a file" if os.path.isfile(v) else None),
        help="Output directory for CSV/JSON results (default: $EPIQ_OUT_DIR).")
    # the schema's run.tolerance rule (a number above 0), also finite
    add("--tolerance", type=_checked(float, lambda v: None if math.isfinite(v) and v > 0
                                     else "must be a finite number above 0"),
        help="Numerical tolerance for result checks.")
    add("--eraser", action=argparse.BooleanOptionalAction,
        help="Resolve contingent layers as erased (interference) or recorded.")
    add("--help", action="help", help="Show this message and exit.")
    add("--version", action="version", version=f"%(prog)s, version {__version__}",
        help="Show the version and exit.")
    return parser
