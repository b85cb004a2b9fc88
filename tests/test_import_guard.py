"""Import guard: epiq needs only the standard library.

Each case runs a fresh ``python -I -S -B``, whose path holds the standard
library and the checkout's ``src`` and nothing else, so no installed package
(numpy included) can be imported.  The state space and its evolution load
neither numpy nor ``dataclasses`` (nor ``inspect`` under it), and no CLI
command loads any of them, or the ``typing``, ``pathlib`` and
``importlib.resources`` that a ``site`` hook would otherwise have paid for,
or the ``argparse``, ``gettext`` and ``locale`` of an option parser.
Checking and propagating an exact network loads neither ``fractions`` nor
``decimal``, and neither does one that mixes exact and float amplitudes.
"""
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import epiq
from epiq.scenario import bundled_scenario_path

SRC = str(Path(epiq.__file__).resolve().parents[1])
FORBIDDEN = ("numpy", "dataclasses", "inspect", "typing", "pathlib", "importlib.resources",
             "argparse", "gettext", "locale")

# four positions, halved: codes 0, 1 go to 0 and codes 2, 3 to 1
STATE_SPACE = """
from epiq.evolution import EvolutionRule
from epiq.statespace import (AttributeDef, EpistemicState, ObjectRegistry, all_exact_states,
                             full_state, volume)
registry = ObjectRegistry.build(
    [AttributeDef(id="x", kind="ordered", values=(0, 1, 2, 3))], {"dot": ["x"]})
states = list(all_exact_states(registry))
rule = EvolutionRule(images={z: frozenset([states[z.code // 2]]) for z in states})
assert volume(rule.apply(full_state(registry))) == 2
assert rule.apply(EpistemicState(registry, states[:2])).members == {states[0]}
"""

# an interferometer, then a decided layer of three values, all exact
EXACT_PROPAGATE = """
from epiq import Knowability
from epiq.context import ContextNetwork, Layer, propagate, validate_context
from epiq.exactnum import parse_exact
h, g, q = parse_exact("1/sqrt2"), parse_exact("-1/sqrt2"), parse_exact("1/2")
net = ContextNetwork(
    (Layer("a", Knowability.NEVER, (1, 2)), Layer("b", Knowability.DECIDED, (1, 2)),
     Layer("c", Knowability.DECIDED, (1, 2, 3))),
    (h, h), (((h, h), (h, g)), ((q, q, h), (h, q, q))))
assert validate_context(net) == []
dist = propagate(net)
assert [t._k for t in dist.exact] == [(1, 0, 4), (1, 0, 4), (1, 0, 2)], dist.exact
assert dist.probabilities == (0.25, 0.25, 0.5), dist.probabilities
"""

CLI = """
from epiq.cli import main
try:
    main([{path!r}, "--command", {command!r}, *{out!r}])
except SystemExit as e:
    assert e.code == 0, e.code
"""


def _modules_after(tmp_path, body):
    """The module names a standard-library-only interpreter holds after ``body``."""
    out = tmp_path / "modules.json"
    script = "\n".join([
        "import sys", f"sys.path.insert(0, {SRC!r})", textwrap.dedent(body),
        "loaded = sorted(sys.modules)", "import json",
        f"with open({str(out)!r}, 'w') as fh: json.dump(loaded, fh)"])
    subprocess.run([sys.executable, "-I", "-S", "-B", "-c", script], cwd=tmp_path,
                   check=True, capture_output=True, timeout=120)
    return json.loads(out.read_text())


def _cli(command, scenario, out=("--out-dir", ".")):
    return CLI.format(path=str(bundled_scenario_path(scenario)), command=command, out=out)


@pytest.mark.parametrize("body", [
    STATE_SPACE,
    _cli("propagate", "mach-zehnder-open"),
    _cli("validate", "branching"),
    _cli("hilbert", "branching"),
    _cli("montecarlo", "mach-zehnder-detected"),
    _cli("uniqueness", "born-uniqueness"),
    _cli("propagate", "mach-zehnder-open", out=("--out-dir=.",)),
], ids=["state-space", "cli", "cli-validate", "cli-hilbert", "cli-montecarlo",
        "cli-uniqueness", "cli-out-dir-equals"])
def test_standard_library_only(tmp_path, body):
    loaded = _modules_after(tmp_path, body)
    assert [m for m in loaded if any(m == f or m.startswith(f + ".") for f in FORBIDDEN)] == []


def test_exact_propagation_loads_no_fractions_or_decimal(tmp_path):
    loaded = _modules_after(tmp_path, EXACT_PROPAGATE)
    assert [m for m in loaded if m in ("fractions", "decimal")] == []


# float and exact amplitudes in one valid document
MIXED = {"name": "mixed", "context": {
    "layers": [{"property": "path", "level": 1, "labels": [1, 2]},
               {"property": "detector", "level": 3, "labels": [1, 2]}],
    "initial": [0.7071067811865476, "1/sqrt2"],
    "matrices": [[["1/sqrt2", "1/sqrt2"], ["1/sqrt2", "-1/sqrt2"]]]}}


@pytest.mark.parametrize("command", ["validate", "propagate"])
def test_mixed_network_is_checked_on_complex_rows_without_fractions(tmp_path, command):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(MIXED))
    body = CLI.format(path=str(path), command=command, out=("--out-dir", "."))
    loaded = _modules_after(tmp_path, body)
    assert [m for m in loaded if m in ("fractions", "decimal")] == []
