import collections
import contextlib
import copy
import io
import json
import math
import os
import random
import subprocess
import sys
import textwrap
import time
import warnings
from decimal import Decimal
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_oracle
import epiq
import epiq.cli
import epiq.context
import epiq.hilbert
import epiq.scenario
import epiq.uniqueness
from epiq.cli import main
from epiq.exactnum import ExactAmplitude
from epiq.scenario import (_TYPES, ScenarioSchemaError, _resolve, bundled_scenario_path,
                           load_scenario, load_scenario_file, parse_amplitude,
                           validate_document)

BUNDLED = ("mach-zehnder-open", "mach-zehnder-detected", "twin-eraser",
           "branching", "born-uniqueness")


def minimal_doc(**overrides):
    doc = {
        "name": "minimal",
        "context": {
            "layers": [
                {"property": "path", "level": 1, "labels": [1, 2]},
                {"property": "detector", "level": 3, "labels": [1, 2]},
            ],
            "initial": ["1/sqrt2", "1/sqrt2"],
            "matrices": [[["1/sqrt2", "1/sqrt2"], ["1/sqrt2", "-1/sqrt2"]]],
        },
    }
    doc.update(overrides)
    return doc


class TestAmplitudeParsing:
    def test_number(self):
        assert parse_amplitude(0.5) == 0.5 + 0j

    def test_pair(self):
        assert parse_amplitude([0.0, -1.0]) == -1j

    def test_exact_token(self):
        amp = parse_amplitude("1/sqrt2")
        assert isinstance(amp, ExactAmplitude)
        assert abs(complex(amp)) ** 2 == pytest.approx(0.5)

    def test_exact_fraction(self):
        assert complex(parse_amplitude("-3/5")) == -0.6 + 0j


class TestSchema:
    def test_minimal_document_valid(self):
        validate_document(minimal_doc())

    def test_unknown_field_rejected(self):
        with pytest.raises(ScenarioSchemaError, match="unexpected"):
            validate_document(minimal_doc(unexpected=1))

    def test_bad_level_rejected(self):
        doc = minimal_doc()
        doc["context"]["layers"][0]["level"] = 4
        with pytest.raises(ScenarioSchemaError, match="level"):
            validate_document(doc)

    def test_missing_context_rejected(self):
        with pytest.raises(ScenarioSchemaError, match="context"):
            validate_document({"name": "x"})

    def test_error_messages_carry_field_paths(self):
        doc = minimal_doc()
        doc["context"]["initial"] = ["nonsense", "1/sqrt2"]
        with pytest.raises(ScenarioSchemaError, match="context/initial/0"):
            validate_document(doc)

    @pytest.mark.parametrize("value", [Fraction(3, 2), Decimal("1.5")],
                             ids=["fraction", "decimal"])
    def test_only_a_json_number_is_a_number(self, value):
        # a document holds JSON values; json.load never makes these
        doc = minimal_doc()
        doc["context"]["layers"][1]["labels"][1] = value
        with pytest.raises(ScenarioSchemaError) as refused:
            validate_document(doc)
        assert str(refused.value) == \
            f"context/layers/1/labels/1: {value!r} is not of type 'number'"


# jsonschema's Draft 2020-12 validator is the oracle for epiq.scenario's own
# interpreter of the bundled schema: messages must match it exactly, on
# targeted documents and on a fixed-seed sample of mutated bundled scenarios.
SCHEMA = json.loads(resources.files("epiq").joinpath("schema/scenario.schema.json").read_text())
ORACLE = jsonschema.Draft202012Validator(SCHEMA)
# the keywords epiq.scenario._errors checks, then those that assert nothing
KEYWORDS = {"type", "enum", "required", "properties", "additionalProperties", "items",
            "minItems", "maxItems", "minLength", "pattern", "minimum", "maximum",
            "exclusiveMinimum", "oneOf", "$ref", "$schema", "$id", "title", "description",
            "$defs"}


def check_schema(schema: dict, root: dict | None = None) -> dict:
    """Return ``schema`` once every keyword in it is one ``_errors`` interprets.

    Raises ``ValueError`` naming the first keyword (or keyword value) that is
    not, such as ``uniqueItems`` or ``additionalProperties`` given a schema.
    """
    root = schema if root is None else root
    if not isinstance(schema, dict):
        raise ValueError(f"unsupported subschema {schema!r}")
    for key, value in schema.items():
        if (key not in KEYWORDS
                or key == "type" and not (isinstance(value, str) and value in _TYPES)
                or key == "additionalProperties" and value is not False
                or key == "enum" and not all(isinstance(v, (str, int, float)) for v in value)
                or key == "$ref" and not value.startswith("#/")):
            raise ValueError(f"unsupported schema keyword {key!r}: {value!r}")
        if key == "$ref":
            _resolve(root, value)  # must resolve; the walk reaches and checks its target
        for sub in (value.values() if key in ("properties", "$defs")
                    else value if key == "oneOf" else [value] if key == "items" else ()):
            check_schema(sub, root)
    return schema


def oracle_message(doc, oracle=ORACLE):
    """The ScenarioSchemaError text that jsonschema's errors would give."""
    errors = sorted(oracle.iter_errors(doc), key=lambda e: list(e.absolute_path))
    return "; ".join(f"{'/'.join(str(p) for p in e.absolute_path) or '<root>'}: {e.message}"
                     for e in errors) or None


def interpreter_message(doc):
    try:
        validate_document(doc)
    except ScenarioSchemaError as e:
        return str(e)
    return None


def _with(path, value):
    doc = minimal_doc(run={"command": "montecarlo", "n": 10, "seed": 1})
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("doc", [
    _with(("context", "layers", 0, "level"), True),  # True is not 1 in an enum
    _with(("context", "layers", 0, "level"), 1.0),  # but 1.0 is
    _with(("context", "layers", 0, "labels"), [1, True]),  # a bool is not a number
    _with(("run", "n"), 5.0),  # an integral float is an integer
    _with(("run", "n"), 5.5),
    _with(("run", "n"), False),
    _with(("run", "n"), 10**25),
    _with(("run", "tolerance"), 0),
    _with(("context", "zeta"), 1) | {"alpha": 2, "beta": 3},  # extras sorted, per object
    _with(("context", "initial"), [[1, 2, 3], "1/sqrtx", None]),
    _with(("name",), ""),
    _with(("uniqueness",), {"shapes": [[2, 5], [1]], "samples": 0}),
], ids=["enum-true", "enum-float", "bool-not-number", "integral-float", "fraction",
        "bool-not-integer", "n-too-large", "exclusive-minimum", "extras", "one-of",
        "min-length", "uniqueness"])
def test_targeted_messages_match_jsonschema(doc):
    assert interpreter_message(doc) == oracle_message(doc)


@pytest.mark.parametrize("doc", [1, 1.5, True, "x", None])
def test_one_of_needs_exactly_one_valid_branch(monkeypatch, doc):
    # integer and number overlap, which the bundled schema's branches never do
    schema = {"oneOf": [{"type": "number"}, {"type": "string"}, {"type": "integer"}]}
    monkeypatch.setattr(epiq.scenario, "_schema", lambda: check_schema(schema))
    oracle = jsonschema.Draft202012Validator(schema)
    assert interpreter_message(doc) == oracle_message(doc, oracle)


# Replacement values: every JSON type, values at and past the schema's bounds,
# and lists longer than its caps.
VALUES = (None, True, False, 0, 1, 2, 3, 4, 5, -1, 1.0, 2.5, -0.5, 1e300, 1001,
          10**25, 2**63, "", "x", "1/sqrt2", "-3/5", "1/0", "sqrt2", "propagate",
          [], [1], [1, 2], [1.0, "a"], [2, 2], [[1, 2], [3, 4]], ["1/sqrt2"] * 65,
          list(range(65)), {}, {"x": 1}, {"command": "hilbert"})
KEYS = ("name", "description", "context", "layers", "initial", "matrices", "eraser",
        "run", "n", "seed", "shapes", "samples", "level", "labels", "property",
        "jointVolumes", "uniqueness", "extra", "z")


def _containers(node):
    if isinstance(node, (dict, list)):
        yield node
        for child in (node.values() if isinstance(node, dict) else node):
            yield from _containers(child)


def mutate(doc, rng, values=VALUES):
    """Replace a value, delete a key or item, or add an unknown key or item."""
    node = rng.choice(list(_containers(doc)))
    op = rng.choice(("replace", "delete", "add")) if node else "add"
    value = copy.deepcopy(rng.choice(values))
    if op == "add":
        if isinstance(node, dict):
            node[rng.choice(KEYS)] = value
        else:
            node.append(value)
        return
    key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
    if op == "replace":
        node[key] = value
    else:
        del node[key]


def test_mutated_scenarios_match_jsonschema():
    rng = random.Random(20171)
    docs = [json.loads(bundled_scenario_path(name).read_text()) for name in BUNDLED]
    rejected = 0
    for case in range(2000):
        doc = copy.deepcopy(docs[case % len(docs)])
        for _ in range(rng.randint(1, 3)):
            mutate(doc, rng)
        want = oracle_message(doc)
        assert interpreter_message(doc) == want, (case, doc)
        rejected += want is not None
    # the mutations must mostly break the documents to test the messages
    assert rejected > 1200


@pytest.mark.parametrize("schema", [
    {"type": "array", "uniqueItems": True},
    {"type": "object", "properties": {"a": {"type": "array", "uniqueItems": True}}},
    {"items": {"oneOf": [{"type": "string"}, {"format": "email"}]}},
    {"$ref": "#/$defs/x", "$defs": {"x": {"maxLength": 3}}},
    {"type": "object", "additionalProperties": {"type": "string"}},
    {"type": ["string", "null"]},
    {"enum": [[1, 2]]},
    {"$ref": "other.json#/x"},
], ids=["uniqueItems", "nested", "in-oneOf", "in-defs", "additional-schema",
        "type-list", "enum-of-lists", "remote-ref"])
def test_uninterpreted_keyword_is_refused(schema):
    with pytest.raises(ValueError, match="unsupported"):
        check_schema(schema)


def test_bundled_schema_is_interpreted_whole():
    assert check_schema(SCHEMA) is SCHEMA


class TestLoading:
    def test_bundled_scenarios_load_and_validate(self):
        from epiq.context import validate_context
        for name in BUNDLED:
            scenario = load_scenario_file(bundled_scenario_path(name))
            assert scenario.name == name
            assert validate_context(scenario.network) == []

    def test_mismatched_matrix_caught_by_validation(self):
        from epiq.context import validate_context
        doc = minimal_doc()
        doc["context"]["matrices"] = []
        scenario = load_scenario(doc)
        assert any("one amplitude matrix" in msg
                   for msg in validate_context(scenario.network))

    @pytest.mark.parametrize("field, path", [
        (lambda ctx: ctx["layers"][1]["labels"].__setitem__(1, 10**400),
         "context/layers/1/labels/1"),
        (lambda ctx: ctx["initial"].__setitem__(0, -10**400), "context/initial/0"),
        (lambda ctx: ctx["matrices"][0][1].__setitem__(0, [0, 10**400]),
         "context/matrices/0/1/0"),
    ], ids=["label", "amplitude", "pair"])
    def test_int_past_float_range_is_a_schema_error(self, field, path):
        doc = minimal_doc()
        field(doc["context"])
        with pytest.raises(ScenarioSchemaError, match=f"^{path}: "):
            load_scenario(doc)

    def test_registry_section_is_a_schema_error(self):
        doc = minimal_doc(registry={
            "attributes": [{"id": "cell", "kind": "ordered", "values": [1, 2]}],
            "objects": {"mote": ["cell"]},
        })
        with pytest.raises(ScenarioSchemaError, match="registry"):
            load_scenario(doc)


class CliResult(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr together


def invoke(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            main(argv)
        except SystemExit as e:
            return CliResult(e.code, sink.getvalue())
    raise AssertionError("main returned without sys.exit")


def run_cli(tmp_path, *args):
    return invoke([*args, "--out-dir", str(tmp_path)])


def src_env():
    """This environment with the checkout's ``src`` first on the import path,
    for a fresh interpreter."""
    src = str(Path(epiq.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def error_line(output):
    """The usage error's own line, without the usage text around it."""
    return [line for line in output.splitlines() if "error" in line.lower()][-1]


class TestOptions:
    """Every usage error exits 2, names the offending option or argument and
    writes no file."""

    @pytest.mark.parametrize("args, name", [
        (("missing.json",), "scenario_path"),
        ((".",), "scenario_path"),
        (("{scenario}", "--command", "bogus"), "--command"),
        (("{scenario}", "--n", "0"), "--n"),
        (("{scenario}", "--n", str(2**63)), "--n"),
        (("{scenario}", "--seed", "-1"), "--seed"),
        (("{scenario}", "--out-dir", "taken"), "--out-dir"),
        (("{scenario}", "--bogus"), "--bogus"),
        (("{scenario}", "--tol", "1e-3"), "--tol"),
    ], ids=["missing-path", "directory-path", "command", "n-zero", "n-too-large",
            "negative-seed", "out-dir-is-file", "unknown-option", "option-prefix"])
    def test_usage_error_exit_code_2(self, tmp_path, monkeypatch, args, name):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("EPIQ_OUT_DIR", raising=False)
        (tmp_path / "taken").write_text("")
        scenario = str(bundled_scenario_path("mach-zehnder-open"))
        result = invoke([a.format(scenario=scenario) for a in args])
        assert result.exit_code == 2, result.output
        assert name in error_line(result.output).lower()
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_version(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = invoke(["--version"])
        assert result.exit_code == 0
        assert f"version {epiq.__version__}" in result.output
        assert not list(tmp_path.iterdir())

    def test_out_dir_environment_variable(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("EPIQ_OUT_DIR", str(tmp_path / "env"))
        path = str(bundled_scenario_path("mach-zehnder-open"))
        assert invoke([path, "--command", "propagate"]).exit_code == 0
        assert (tmp_path / "env" / "mach-zehnder-open-propagate.json").is_file()
        assert invoke([path, "--command", "validate",
                       "--out-dir", str(tmp_path / "flag")]).exit_code == 0
        assert (tmp_path / "flag" / "mach-zehnder-open-validate.json").is_file()
        assert not (tmp_path / "env" / "mach-zehnder-open-validate.json").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["env", "flag"]


VALUE_OPTIONS = ("--command", "--n", "--seed", "--tolerance", "--out-dir")
# a value each option takes, so that most drawn lists parse up to their odd
# tokens; --out-dir takes a path drawn in the test
GOOD_VALUES = {"--command": "validate", "--n": "7", "--seed": "0", "--tolerance": "1e-3"}
# values that options refuse or that read as options, negative numbers among
# them; "--" never follows "=" (see test_dashes_after_equals_are_a_value)
ODD_VALUES = ("propagate", "bogus", "1", " 3 ", "1_000", "0x10", str(2**63), "-1", "-0.5",
              "-.5", "-1e3", "nan", "-inf", "", "-x", "a b", "-a b", "-5\n")
OTHER_TOKENS = ("--eraser", "--no-eraser", "--tol", "-h", "-", "--bogus", "--eraser=1",
                "--no-eraser=", "--help", "--version", "--help=x")


N_DASHES = "argument --n: invalid int value: '--'"
COMMAND_DASHES = ("argument --command: invalid choice: '--' (choose from 'propagate', "
                  "'montecarlo', 'hilbert', 'uniqueness', 'validate')")


def _outcome(parse, argv, env, columns="80"):
    """(exit code or None, stdout, stderr, parsed values or None) of ``parse``
    on ``argv`` at ``columns`` columns, with ``$EPIQ_OUT_DIR`` set to ``env``
    (unset for None)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": columns}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop("EPIQ_OUT_DIR", None)
        if env is not None:
            os.environ["EPIQ_OUT_DIR"] = env
        try:
            values = parse(argv)
        except SystemExit as e:
            return e.code, out.getvalue(), err.getvalue(), None
    return None, out.getvalue(), err.getvalue(), values


@pytest.fixture(scope="module")
def option_dir(tmp_path_factory):
    """A directory holding the file ``taken`` and nothing else."""
    root = tmp_path_factory.mktemp("options")
    (root / "taken").write_text("")
    return root


class TestOptionGrammar:
    """epiq.cli reads its options as the argparse parser of tests/cli_oracle.py
    reads them: the same values, the same usage errors and the same help.  It
    reads the plain form without loading argparse and hands every other list
    to an argparse parser of its own."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_options_read_as_argparse_read_them(self, option_dir, data):
        paths = (str(bundled_scenario_path("branching")), str(option_dir / "missing.json"),
                 str(option_dir), str(option_dir / "taken"), str(option_dir / "out"))
        values = ODD_VALUES + paths
        chunk = st.one_of(  # each a short list of tokens
            st.sampled_from(VALUE_OPTIONS).map(lambda o: [o, GOOD_VALUES.get(o, paths[4])]),
            st.tuples(st.sampled_from(VALUE_OPTIONS), st.sampled_from(values)).map(list),
            st.builds(lambda o, v: [f"{o}={v}"], st.sampled_from(VALUE_OPTIONS),
                      st.sampled_from(values + tuple(GOOD_VALUES.values()))),
            st.sampled_from(values + VALUE_OPTIONS + OTHER_TOKENS).map(lambda t: [t]),
            st.sampled_from(paths).map(lambda p: [p]), st.just(["--"]))
        argv = data.draw(st.lists(chunk, max_size=6).map(lambda c: sum(c, [])), label="argv")
        env = data.draw(st.sampled_from((None, "", paths[3], paths[4])), label="env")
        got = _outcome(lambda a: epiq.cli._parse(a, "epiq"), argv, env)
        want = _outcome(lambda a: vars(cli_oracle.parser("epiq").parse_args(a)), argv, env)
        assert got == want

    def test_help_is_argparse_help_at_80_columns(self):
        # the scenario path named after --help is never opened
        got = _outcome(lambda a: epiq.cli._parse(a, "epiq"), ["--help", "missing.json"], None)
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):  # the oracle wraps at $COLUMNS
            want = cli_oracle.parser("epiq").format_help()
        assert got == (0, want, "", None)

    @pytest.mark.parametrize("argv", [["--help"], ["{path}", "--n", "0"], ["{path}", "--bogus"]],
                             ids=["help", "plain-usage-error", "argparse-usage-error"])
    def test_usage_and_help_ignore_the_terminal_width(self, argv):
        argv = [a.format(path=bundled_scenario_path("branching")) for a in argv]
        narrow, wide = (_outcome(lambda a: epiq.cli._parse(a, "epiq"), argv, None, columns)
                        for columns in ("40", "200"))
        assert narrow[0] in (0, 2) and "usage: epiq" in narrow[1] + narrow[2]
        assert narrow == wide

    @pytest.mark.parametrize("args, message", [
        # the first two keep the ids of the single option they once stood for
        pytest.param(("--command", "montecarlo", "--n=--"), N_DASHES, id=f"--n-{N_DASHES}"),
        pytest.param(("--command", "montecarlo", "--command=--"), COMMAND_DASHES,
                     id=f"--command-{COMMAND_DASHES}"),
        pytest.param(("--command", "montecarlo", "--n=--", "--"), N_DASHES, id="n-then-dashes"),
        pytest.param(("--seed=--", "--", "x"), "argument --seed: invalid int value: '--'",
                     id="seed-then-dashes"),
        pytest.param(("--n=--", "--seed", "x", "--"), N_DASHES, id="n-then-bad-seed"),
        # a second path hands the list to argparse before "--n=--" is read
        pytest.param(("x", "--n=--"), N_DASHES, id="second-path-then-n"),
    ])
    def test_dashes_after_equals_are_a_value(self, tmp_path, args, message):
        # argparse dropped the "--" of "--n=--" and stored an empty list, which
        # montecarlo then compared with an int
        result = run_cli(tmp_path, str(bundled_scenario_path("mach-zehnder-open")), *args)
        assert result.exit_code == 2
        assert error_line(result.output) == f"epiq: error: {message}"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, scenario", [
        ("propagate", "mach-zehnder-open"), ("validate", "branching"), ("hilbert", "branching"),
        ("montecarlo", "mach-zehnder-detected"), ("uniqueness", "born-uniqueness")])
    def test_files_are_opened_as_utf8(self, tmp_path, command, scenario):
        """No file is read or written in the locale's encoding: a fresh
        interpreter that turns EncodingWarning into an error runs every command."""
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "epiq.cli", str(bundled_scenario_path(scenario)), "--command", command,
             "--out-dir", str(tmp_path)],
            env=src_env(), capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.suffix for p in tmp_path.iterdir()) == [".csv", ".json"]


class TestCli:
    def test_propagate_bundled_distributions(self, tmp_path):
        expected = {
            "mach-zehnder-open": [1.0, 0.0],
            "mach-zehnder-detected": [0.5, 0.5],
            "twin-eraser": [1.0, 0.0],
            "branching": [0.5, 0.5, 0.0],
        }
        for name, probs in expected.items():
            result = run_cli(tmp_path, str(bundled_scenario_path(name)),
                             "--command", "propagate")
            assert result.exit_code == 0, result.output
            payload = json.loads((tmp_path / f"{name}-propagate.json").read_text())
            assert payload["result"]["probabilities"] == probs

    def test_eraser_override_flips_distribution(self, tmp_path):
        path = str(bundled_scenario_path("twin-eraser"))
        on = run_cli(tmp_path, path, "--eraser")
        off = run_cli(tmp_path, path, "--no-eraser")
        assert on.exit_code == off.exit_code == 0
        assert "1  1" in on.output
        assert "1  0.5" in off.output

    def test_montecarlo_within_bands(self, tmp_path):
        result = run_cli(tmp_path, str(bundled_scenario_path("mach-zehnder-detected")),
                         "--command", "montecarlo", "--n", "100000", "--seed", "9")
        assert result.exit_code == 0, result.output
        payload = json.loads(
            (tmp_path / "mach-zehnder-detected-montecarlo.json").read_text())
        assert payload["result"]["all_pass"]

    @staticmethod
    def float_rounding_doc(tmp_path):
        """Mach-Zehnder in floats, which propagates to 1.0000000000000004 unclipped."""
        h = 0.7071067811865476
        doc = minimal_doc()
        doc["context"]["initial"] = [h, h]
        doc["context"]["matrices"] = [[[h, h], [h, -h]]]
        path = tmp_path / "float.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_montecarlo_float_network_rounding_above_one(self, tmp_path):
        path = self.float_rounding_doc(tmp_path)
        result = run_cli(tmp_path, path, "--command", "montecarlo", "--n", "1000")
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "minimal-montecarlo.json").read_text())["result"]
        assert payload["outcomes"][0]["probability"] == 1.0
        assert payload["outcomes"][0]["band"] == [1.0, 1.0]
        assert payload["all_pass"]

    def test_propagate_float_network_rounding_above_one(self, tmp_path):
        path = self.float_rounding_doc(tmp_path)
        result = run_cli(tmp_path, path, "--command", "propagate")
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "minimal-propagate.json").read_text())["result"]
        assert payload["probabilities"] == [1.0, 0.0]

    def test_hilbert_float_network_rounding_above_one(self, tmp_path):
        path = self.float_rounding_doc(tmp_path)
        result = run_cli(tmp_path, path, "--command", "hilbert")
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "minimal-hilbert.json").read_text())["result"]
        assert payload["principle4_probabilities"] == [1.0, 0.0]
        assert payload["principle4_max_deviation"] == 0.0

    def test_repeated_runs_byte_identical(self, tmp_path):
        path = str(bundled_scenario_path("mach-zehnder-detected"))
        run_cli(tmp_path, path, "--command", "montecarlo", "--seed", "5")
        first = (tmp_path / "mach-zehnder-detected-montecarlo.json").read_bytes()
        first_csv = (tmp_path / "mach-zehnder-detected-montecarlo.csv").read_bytes()
        run_cli(tmp_path, path, "--command", "montecarlo", "--seed", "5")
        assert (tmp_path / "mach-zehnder-detected-montecarlo.json").read_bytes() == first
        assert (tmp_path / "mach-zehnder-detected-montecarlo.csv").read_bytes() == first_csv

    def test_hilbert_command(self, tmp_path):
        result = run_cli(tmp_path, str(bundled_scenario_path("mach-zehnder-open")),
                         "--command", "hilbert")
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "mach-zehnder-open-hilbert.json").read_text())
        assert payload["result"]["dimension"] == 2
        assert payload["result"]["kind"] == "interference"
        assert payload["result"]["principle4_max_deviation"] < 1e-12

    def test_hilbert_command_simultaneous_pair(self, tmp_path):
        doc = minimal_doc(simultaneous=True)
        doc["context"] = {
            "layers": [{"property": "a", "level": 3, "labels": [0.5, -2, 7]},
                       {"property": "b", "level": 3, "labels": [3, 1.25]}],
            "initial": ["1", "0", "0"],
            "matrices": [[["1", "0"], ["0", "1"], ["1", "0"]]],
        }
        path = tmp_path / "joint.json"
        path.write_text(json.dumps(doc))
        result = run_cli(tmp_path, str(path), "--command", "hilbert")
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "minimal-hilbert.json").read_text())["result"]
        assert payload["kind"] == "joint" and payload["dimension"] == 6
        assert payload["properties"] == {"a": [2, 2, 2], "b": [3, 3]}
        assert payload["commutator_norm"] == 0.0 and payload["commuting"] is True

    def test_hilbert_labels_past_the_float_range_fail_on_one_line(self, tmp_path):
        """Labels whose commutator overflows end in exit 1 with one error line
        and no warning, on the bundled interference scenario."""
        doc = json.loads(bundled_scenario_path("mach-zehnder-open").read_text())
        for layer in doc["context"]["layers"]:
            layer["labels"] = [1, 1e160]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_cli(tmp_path, str(path), "--command", "hilbert")
        assert result.exit_code == 1
        assert result.output == "error: commutator norm lies outside the float range\n"
        assert not list(tmp_path.glob("*-hilbert.*"))

    @staticmethod
    def widest_doc(level, matrix, **overrides):
        """Two layers of the schema's maximum width, 64 values each."""
        labels = list(range(1, 65))
        return minimal_doc(context={
            "layers": [{"property": "a", "level": level, "labels": labels},
                       {"property": "b", "level": 3, "labels": labels}],
            "initial": ["1"] + ["0"] * 63, "matrices": [matrix]}, **overrides)

    @staticmethod
    def counted(monkeypatch, module, *names):
        """The calls of each named function of ``module`` from here on, by name."""
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counting(*args, _name=name, _call=getattr(module, name)):
                calls[_name] += 1
                return _call(*args)
            monkeypatch.setattr(module, name, counting)
        return calls

    def widest_joint(self, tmp_path):
        path = tmp_path / "joint.json"
        path.write_text(json.dumps(self.widest_doc(3, [["1/8"] * 64] * 64, simultaneous=True)))
        return path

    def widest_interference(self, tmp_path):
        """A 64-wide Sylvester-Hadamard network, and its +-1 matrix."""
        hadamard = [[1]]
        for _ in range(6):
            hadamard = [row + row for row in hadamard] + [row + [-x for x in row] for row in hadamard]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(self.widest_doc(
            1, [["1/8" if x > 0 else "-1/8" for x in row] for row in hadamard])))
        return path, hadamard

    def test_hilbert_joint_space_at_the_schema_maximum(self, tmp_path):
        """A 64x64 joint space has dimension 4096; its operators are diagonal,
        so no 4096^2 matrix is built and the run takes well under 2 s."""
        path = self.widest_joint(tmp_path)
        start = time.perf_counter()
        result = run_cli(tmp_path, str(path), "--command", "hilbert")
        elapsed = time.perf_counter() - start
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "minimal-hilbert.json").read_text())["result"]
        assert payload["dimension"] == 4096
        assert payload["commuting"] is True and payload["commutator_norm"] == 0.0
        assert elapsed < 2.0

    def test_hilbert_joint_space_at_the_schema_maximum_builds_no_matrix(self, tmp_path,
                                                                         monkeypatch):
        """The clock-free guard of the bound above: the two diagonal operators
        commute by their bases alone, so no matrix is recomposed or normed."""
        calls = self.counted(monkeypatch, epiq.hilbert, "_recompose", "spectral_norm")
        result = run_cli(tmp_path, str(self.widest_joint(tmp_path)), "--command", "hilbert")
        assert result.exit_code == 0, result.output
        assert calls == {"_recompose": 0, "spectral_norm": 0}

    def test_hilbert_interference_at_the_schema_maximum(self, tmp_path):
        """A 64-wide interference space (a Sylvester-Hadamard network) runs in
        under 0.41 s, the time numpy's dense construction took as a whole
        subprocess; the norm is that of [diag(1..64), H diag(1..64) H]."""
        path, hadamard = self.widest_interference(tmp_path)
        start = time.perf_counter()
        result = run_cli(tmp_path, str(path), "--command", "hilbert")
        elapsed = time.perf_counter() - start
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "minimal-hilbert.json").read_text())["result"]
        assert payload["kind"] == "interference" and payload["dimension"] == 64
        assert payload["principle4_probabilities"] == [1 / 64] * 64
        h = np.array(hadamard) / 8
        d = np.diag(np.arange(1.0, 65.0))
        b = h @ d @ h
        assert payload["commutator_norm"] == pytest.approx(
            np.linalg.norm(d @ b - b @ d, 2), rel=1e-12)
        assert elapsed < 0.41

    def test_hilbert_interference_at_the_schema_maximum_reduces_once(self, tmp_path,
                                                                     monkeypatch):
        """The clock-free guard of the bound above: the commutator's norm
        takes one Householder reduction."""
        calls = self.counted(monkeypatch, epiq.hilbert, "_tridiagonal")
        path, _ = self.widest_interference(tmp_path)
        result = run_cli(tmp_path, str(path), "--command", "hilbert")
        assert result.exit_code == 0, result.output
        assert calls == {"_tridiagonal": 1}

    def test_hilbert_command_single_property(self, tmp_path):
        doc = minimal_doc()
        doc["context"] = {"layers": [{"property": "a", "level": 3, "labels": [1, 2]}],
                          "initial": ["1/sqrt2", "1/sqrt2"], "matrices": []}
        path = tmp_path / "single.json"
        path.write_text(json.dumps(doc))
        result = run_cli(tmp_path, str(path), "--command", "hilbert")
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "minimal-hilbert.json").read_text())["result"]
        assert payload == {"dimension": 2, "kind": "single", "properties": {"a": [1, 1]}}

    def test_hilbert_command_refuses_three_properties(self, tmp_path):
        doc = minimal_doc()
        doc["context"]["layers"].append({"property": "screen", "level": 3, "labels": [1, 2]})
        doc["context"]["matrices"].append([["1", "0"], ["0", "1"]])
        path = tmp_path / "three.json"
        path.write_text(json.dumps(doc))
        result = run_cli(tmp_path, str(path), "--command", "hilbert")
        assert result.exit_code == 1
        assert "one- and two-property contexts" in result.output
        assert not list(tmp_path.glob("minimal-hilbert.*"))

    @pytest.mark.parametrize("context, simultaneous", [
        ({"layers": [{"property": "a", "level": 3, "labels": [1, 2]},
                     {"property": "b", "level": 3, "labels": [1, 2]}],
          "initial": ["1", "1"], "matrices": [[["1", "1"], ["1", "1"]]]}, True),
        ({"layers": [{"property": "a", "level": 3, "labels": [1, 2]}],
          "initial": ["1", "1"], "matrices": []}, False),
    ], ids=["joint", "single"])
    def test_hilbert_command_refuses_what_validate_refuses(self, tmp_path, context,
                                                           simultaneous):
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(minimal_doc(context=context, simultaneous=simultaneous)))
        validated = run_cli(tmp_path, str(path), "--command", "validate")
        assert validated.exit_code == 1
        result = run_cli(tmp_path, str(path), "--command", "hilbert")
        assert result.exit_code == 1
        assert result.output.startswith("error: row not normalized: ")
        assert not list(tmp_path.glob("minimal-hilbert.*"))

    def test_hilbert_vector_and_network_disagreement_exits_1(self, tmp_path):
        """A decided/decided pair whose rows sit 5e-10 off the neutral table's:
        inside the neutrality check, so the space builds, and its principle-4
        probabilities then miss propagate's by 5e-10, past a 1e-12 tolerance."""
        a, b = math.sqrt(0.5 + 5e-10), math.sqrt(0.5 - 5e-10)
        doc = minimal_doc(jointVolumes=[[0.25, 0.25], [0.25, 0.25]])
        doc["context"] = {
            "layers": [{"property": "a", "level": 3, "labels": [1, 2]},
                       {"property": "b", "level": 3, "labels": [1, 2]}],
            "initial": [1, 0], "matrices": [[[a, b], [b, a]]]}
        path = tmp_path / "off.json"
        path.write_text(json.dumps(doc))
        result = run_cli(tmp_path, str(path), "--command", "hilbert", "--tolerance", "1e-12")
        assert result.exit_code == 1
        assert result.output == "error: vector representation disagrees with network propagation\n"
        assert not list(tmp_path.glob("minimal-hilbert.*"))
        result = run_cli(tmp_path, str(path), "--command", "hilbert")
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "minimal-hilbert.json").read_text())["result"]
        assert 1e-12 < payload["principle4_max_deviation"] < 1e-9

    def test_hilbert_checks_the_network_once(self, tmp_path, monkeypatch):
        calls, examine = [], epiq.context._examine
        monkeypatch.setattr(epiq.context, "_examine", lambda *a: calls.append(1) or examine(*a))
        result = run_cli(tmp_path, str(bundled_scenario_path("branching")), "--command", "hilbert")
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    def test_hilbert_refuses_a_non_unitary_interference_as_propagate_does(self, tmp_path):
        doc = minimal_doc()
        doc["context"]["matrices"] = [[[0.6, 0.8], [0.8, 0.6]]]
        path = tmp_path / "skew.json"
        path.write_text(json.dumps(doc))
        result = run_cli(tmp_path, str(path), "--command", "hilbert")
        assert result.exit_code == 1
        assert result.output == "error: amplitude matrix violates unitarity conditions\n"
        assert run_cli(tmp_path, str(path), "--command", "propagate").output == result.output

    @pytest.mark.parametrize("name, place", [
        ("born-uniqueness", lambda c: c["initial"]),
        ("branching", lambda c: c["matrices"][0][0]),
    ], ids=["initial", "matrix"])
    def test_float_square_past_the_float_range_fails_like_an_unnormalized_row(
            self, tmp_path, name, place):
        """A float whose square overflows, among exact tokens, is refused as a
        row that does not normalize, exactly as the float 2.0 is."""
        runs = {}
        for value in (2.0, 1e160):
            doc = json.loads(bundled_scenario_path(name).read_text())
            place(doc["context"])[0] = value
            out = tmp_path / str(value)
            out.mkdir()
            path = out / "scenario.json"
            path.write_text(json.dumps(doc))
            runs[value] = [run_cli(out, str(path), "--command", c)
                           for c in ("validate", "propagate", "hilbert")]
            runs[value].append((out / f"{name}-validate.json").read_text())
        assert runs[1e160] == runs[2.0]
        assert [r.exit_code for r in runs[2.0][:-1]] == [1, 1, 1]
        assert "row not normalized" in json.loads(runs[2.0][-1])["result"]["errors"][0]

    @pytest.mark.parametrize("command", ["propagate", "montecarlo", "hilbert"])
    def test_mixed_network_with_an_exact_entry_past_the_float_range(self, tmp_path, command):
        """Float and exact amplitudes mixed, with an exact entry too large for
        a float: every command refuses the row validate refuses, with no
        traceback, in a fresh interpreter."""
        doc = minimal_doc(name="mixed")
        doc["context"]["initial"] = [0.7071067811865476, "1/sqrt2"]
        doc["context"]["matrices"][0][0] = ["1" + "0" * 400, "0"]
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        validated = run_cli(tmp_path, str(path), "--command", "validate")
        assert validated == (1, "row not normalized: matrix 0 row 0\n")
        result = subprocess.run(
            [sys.executable, "-m", "epiq.cli", str(path), "--command", command,
             "--out-dir", str(tmp_path)], env=src_env(), capture_output=True, text=True,
            timeout=120)
        assert (result.returncode, result.stderr) == (1, "error: row not normalized: matrix 0 row 0\n")
        assert not list(tmp_path.glob(f"mixed-{command}.*"))

    def test_uniqueness_command_guard(self, tmp_path):
        result = run_cli(tmp_path, str(bundled_scenario_path("born-uniqueness")))
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "born-uniqueness-uniqueness.json").read_text())
        assert payload["result"]["unique_born_rule"]
        assert payload["result"]["passing"] == ["|a|^2"]

    @pytest.mark.parametrize("flag, expected", [((), 3), (("--seed", "7"), 7)])
    def test_uniqueness_seed_option_wins(self, tmp_path, monkeypatch, flag, expected):
        used = []
        real = epiq.uniqueness.uniqueness_report

        def spy(*args, seed, **kwargs):
            used.append(seed)
            return real(*args, seed=seed, **kwargs)

        monkeypatch.setattr(epiq.uniqueness, "uniqueness_report", spy)
        path = tmp_path / "seeded.json"
        path.write_text(json.dumps(minimal_doc(uniqueness={"seed": 3},
                                               run={"command": "uniqueness", "seed": 5})))
        result = run_cli(tmp_path, str(path), *flag)
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "minimal-uniqueness.json").read_text())
        assert used == [expected] and payload["seed"] == expected

    @pytest.mark.parametrize("section", [
        {"samples": 1001},
        {"shapes": [[2, 2]] * 17},
        {"shapes": [[2, 5]]},
    ], ids=["samples", "shape-count", "dimension"])
    def test_oversized_uniqueness_exit_code_2(self, tmp_path, section):
        bad = tmp_path / "oversized.json"
        bad.write_text(json.dumps(minimal_doc(uniqueness=section)))
        result = run_cli(tmp_path, str(bad), "--command", "uniqueness")
        assert result.exit_code == 2
        assert "schema error" in result.output
        assert not list(tmp_path.glob("minimal-*"))

    def test_integral_float_uniqueness_fields(self, tmp_path):
        doc = tmp_path / "floats.json"
        doc.write_text(json.dumps(minimal_doc(
            uniqueness={"shapes": [[2.0, 2]], "samples": 2.0, "seed": 1.0})))
        result = run_cli(tmp_path, str(doc), "--command", "uniqueness")
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "minimal-uniqueness.json").read_text())
        assert payload["result"]["rows"][0]["shape"] == [2, 2]

    def test_integral_float_run_fields(self, tmp_path):
        doc = tmp_path / "floats.json"
        doc.write_text(json.dumps(minimal_doc(
            run={"command": "montecarlo", "n": 1000.0, "seed": 3.0})))
        result = run_cli(tmp_path, str(doc))
        assert result.exit_code == 0, result.output
        text = (tmp_path / "minimal-montecarlo.json").read_text()
        assert '"n": 1000,' in text and '"n": 1000.0' not in text
        assert json.loads(text)["seed"] == 3 and '"seed": 3.0' not in text

    @pytest.mark.parametrize("path, size", [
        (("layers",), 65), (("layers", 0, "labels"), 65), (("initial",), 65),
        (("matrices",), 65), (("matrices", 0), 65), (("matrices", 0, 0), 65),
    ], ids=["layers", "labels", "initial", "matrices", "matrix-rows", "row-entries"])
    def test_oversized_context_exit_code_2(self, tmp_path, path, size):
        doc = minimal_doc()
        parent = doc["context"]
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = [parent[path[-1]][0]] * size
        bad = tmp_path / "oversized.json"
        bad.write_text(json.dumps(doc))
        result = run_cli(tmp_path, str(bad))
        assert result.exit_code == 2
        assert "schema error" in result.output and "is too long" in result.output
        assert not list(tmp_path.glob("minimal-*"))

    @pytest.mark.parametrize("name", ["a/b", "../escaped", "a\\b"],
                             ids=["slash", "parent", "backslash"])
    def test_name_with_a_path_separator_exit_code_2(self, tmp_path, name):
        # the name is the stem of the output files, which must stay in --out-dir
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "doc.json").write_text(json.dumps(minimal_doc(name=name)))
        result = run_cli(tmp_path / "run" / "out", str(tmp_path / "run" / "doc.json"))
        assert result.exit_code == 2, result.output
        assert result.output == (f"schema error: name: {name!r} does not match "
                                 f"'^[^/\\\\\\\\]*$'\n")
        assert [p.name for p in tmp_path.rglob("*")] == ["run", "doc.json"]

    @pytest.mark.parametrize("name", ["x" * 300, "é" * 200], ids=["long", "multibyte"])
    def test_name_too_long_for_a_file_exit_code_1(self, tmp_path, name):
        # 300 bytes, or 200 characters of two UTF-8 bytes each: past a file name's 255
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(minimal_doc(name=name)))
        result = run_cli(tmp_path / "out", str(path))
        assert result.exit_code == 1, result.output
        assert [line for line in result.output.splitlines()
                if line.startswith("error:")] == [error_line(result.output)]
        assert "File name too long" in result.output and "Traceback" not in result.output

    def test_oversized_sample_count_option_exit_code_2(self, tmp_path):
        result = run_cli(tmp_path, str(bundled_scenario_path("mach-zehnder-open")),
                         "--command", "montecarlo", "--n", str(10**23))
        assert result.exit_code == 2
        assert "argument --n" in result.output
        assert not list(tmp_path.iterdir())

    def test_oversized_sample_count_in_scenario_exit_code_2(self, tmp_path):
        bad = tmp_path / "oversized.json"
        bad.write_text(json.dumps(minimal_doc(run={"command": "montecarlo", "n": 10**25})))
        result = run_cli(tmp_path, str(bad))
        assert result.exit_code == 2
        assert "schema error: run/n: " in result.output
        assert not list(tmp_path.glob("minimal-*"))

    def test_largest_sample_count_runs(self, tmp_path):
        result = run_cli(tmp_path, str(bundled_scenario_path("mach-zehnder-open")),
                         "--command", "montecarlo", "--n", str(2**63 - 1))
        assert result.exit_code == 0, result.output

    def test_seed_past_128_bits_runs(self, tmp_path):
        # the schema allows any seed >= 0, and random.Random takes any integer
        result = run_cli(tmp_path, str(bundled_scenario_path("mach-zehnder-detected")),
                         "--command", "montecarlo", "--seed", str(2**128))
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "mach-zehnder-detected-montecarlo.json").read_text())
        assert payload["result"]["seed"] == 2**128 and payload["result"]["all_pass"]

    def test_validate_command(self, tmp_path):
        result = run_cli(tmp_path, str(bundled_scenario_path("branching")),
                         "--command", "validate")
        assert result.exit_code == 0
        assert "ok" in result.output

    def test_schema_error_exit_code_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(minimal_doc(unexpected=1)))
        result = run_cli(tmp_path, str(bad))
        assert result.exit_code == 2
        assert "schema error" in result.output

    def test_domain_error_exit_code_1(self, tmp_path):
        doc = minimal_doc()
        # contingent layer with no eraser flag anywhere
        doc["context"]["layers"][0]["level"] = 2
        path = tmp_path / "contingent.json"
        path.write_text(json.dumps(doc))
        result = run_cli(tmp_path, str(path))
        assert result.exit_code == 1
        assert "eraser" in result.output

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
    def test_tolerance_must_be_finite_and_positive(self, tmp_path, tolerance):
        result = run_cli(tmp_path, str(bundled_scenario_path("mach-zehnder-open")),
                         "--command", "montecarlo", "--tolerance", tolerance)
        assert result.exit_code == 2
        assert "--tolerance" in result.output
        assert not list(tmp_path.iterdir())

    def test_malformed_json_exit_code_2(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{nope")
        result = run_cli(tmp_path, str(bad))
        assert result.exit_code == 2

    def test_scenario_not_in_utf8_exit_code_2(self, tmp_path):
        bad = tmp_path / "latin-1.json"
        bad.write_bytes(json.dumps(minimal_doc(description="caf\xe9"),
                                   ensure_ascii=False).encode("latin-1"))
        result = run_cli(tmp_path, str(bad))
        assert result.exit_code == 2
        assert "schema error: not valid JSON: 'utf-8' codec can't decode" in result.output
        assert not list(tmp_path.glob("minimal-*"))

    @pytest.mark.parametrize("command", ["validate", "propagate"])
    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_input_exit_code_2(self, tmp_path, command, constant):
        text = json.dumps(minimal_doc()).replace(
            '["1/sqrt2", "1/sqrt2"]', f'["1/sqrt2", {constant}]', 1)
        assert constant in text
        bad = tmp_path / "non-finite.json"
        bad.write_text(text)
        result = run_cli(tmp_path, str(bad), "--command", command)
        assert result.exit_code == 2
        assert "non-finite" in result.output
        assert not list(tmp_path.glob("minimal-*"))

    @staticmethod
    def _with_integer(setter, integer):
        """minimal_doc's text with ``setter`` putting ``integer`` in one field;
        written by hand, since repr of an int past 4300 digits is refused."""
        doc = minimal_doc(run={"seed": 1})
        setter(doc, "PLACEHOLDER")
        return json.dumps(doc).replace('"PLACEHOLDER"', integer)

    OVERSIZED_FIELDS = {
        "label": lambda doc, v: doc["context"]["layers"][0]["labels"].__setitem__(0, v),
        "amplitude": lambda doc, v: doc["context"]["initial"].__setitem__(0, v),
        "pair": lambda doc, v: doc["context"]["initial"].__setitem__(0, [0, v]),
        "tolerance": lambda doc, v: doc["run"].__setitem__("tolerance", v),
        "seed": lambda doc, v: doc["run"].__setitem__("seed", v),
    }

    @pytest.mark.parametrize("command", ["validate", "propagate"])
    @pytest.mark.parametrize("digits", [400, 5000])
    @pytest.mark.parametrize("field", OVERSIZED_FIELDS)
    def test_oversized_integer_exit_code_2(self, tmp_path, command, digits, field):
        bad = tmp_path / "oversized.json"
        bad.write_text(self._with_integer(self.OVERSIZED_FIELDS[field], "9" * digits))
        result = run_cli(tmp_path, str(bad), "--command", command)
        assert result.exit_code == 2, result.output
        assert result.output == (
            f"schema error: integer of {digits} digits is out of the float range\n")
        assert not list(tmp_path.glob("minimal-*"))

    def test_integers_a_float_holds_stay_exact(self, tmp_path):
        path = tmp_path / "large.json"
        path.write_text(json.dumps(minimal_doc(run={"n": 2**63 - 1})))
        n = load_scenario_file(path).run["n"]
        assert n == 2**63 - 1 and type(n) is int
        largest = 2**1024 - 2**970 - 1  # rounds down to the largest float
        label = self.OVERSIZED_FIELDS["label"]
        path.write_text(self._with_integer(label, str(-largest)))
        assert load_scenario_file(path).network.layers[0].labels[0] == -1.7976931348623157e308
        path.write_text(self._with_integer(label, str(largest + 1)))
        with pytest.raises(ScenarioSchemaError, match="integer of 309 digits"):
            load_scenario_file(path)

    @pytest.mark.parametrize("token, reason", [("1/0", "zero denominator"),
                                               ("1" * 5000, "Exceeds the limit")])
    @pytest.mark.parametrize("field, path", [
        (lambda ctx: ctx["initial"], "context/initial/0"),
        (lambda ctx: ctx["matrices"][0][1], "context/matrices/0/1/0"),
    ])
    def test_unreadable_exact_token_exit_code_2(self, tmp_path, token, reason, field, path):
        doc = minimal_doc()
        field(doc["context"])[0] = token
        bad = tmp_path / "unreadable.json"
        bad.write_text(json.dumps(doc))
        result = run_cli(tmp_path, str(bad), "--command", "propagate")
        assert result.exit_code == 2
        assert f"schema error: {path}: " in result.output
        assert reason in result.output
        assert not list(tmp_path.glob("minimal-*"))


def _modules_after(tmp_path, statement):
    """Module names a fresh interpreter holds after importing epiq.cli and
    running ``statement`` (which must finish or exit with code 0)."""
    out = tmp_path / "modules.json"
    script = textwrap.dedent(f"""
        import json, sys
        from epiq.cli import main
        try:
            {statement}
        except SystemExit as e:
            assert e.code == 0, e.code
        with open({str(out)!r}, "w") as fh:
            json.dump(sorted(sys.modules), fh)
        """)
    subprocess.run([sys.executable, "-c", script], env=src_env(), cwd=tmp_path,
                   check=True, capture_output=True, timeout=120)
    return json.loads(out.read_text())


def _cli_call(name, command):
    argv = [str(bundled_scenario_path(name)), "--command", command, "--out-dir", "."]
    return f"main({argv!r})"


# loaded by no command: the schema is interpreted in epiq.scenario, and
# epiq.cli reads options in the plain form without argparse
NO_LIBRARY = ("scipy", "jsonschema", "click", "argparse", "gettext", "locale")
# no command loads numpy or the state-space modules; borel_trial is in the
# package root
LIGHT = ("numpy", *NO_LIBRARY, "epiq.statespace", "epiq.evolution")
# the CLI path's values are epiq.Records, not dataclasses, exact arithmetic
# builds no Fraction, and the schema's numbers are ints and floats; numpy
# itself imports inspect
NO_STDLIB_EXTRAS = ("dataclasses", "inspect", "fractions", "decimal", "numbers")


class TestImportCost:
    """A module-level import on the CLI path is only for what every command
    uses, and no command loads numpy, epiq.evolution, the state space under
    it, scipy, jsonschema or click, nor argparse, gettext or locale, which the
    CLI's option parser once cost every run.  Importing the CLI, epiq.hilbert or
    epiq.uniqueness, and running any command, load neither dataclasses (nor
    inspect under it) nor fractions (nor decimal) nor numbers."""

    @pytest.mark.parametrize("statement", [
        "pass",
        _cli_call("mach-zehnder-open", "propagate"),
        _cli_call("branching", "validate"),
        _cli_call("branching", "hilbert"),
        "import epiq.hilbert",
        "import epiq.hilbert, epiq.uniqueness",
        _cli_call("born-uniqueness", "uniqueness"),
        _cli_call("mach-zehnder-detected", "montecarlo"),
    ], ids=["import", "propagate", "validate", "hilbert", "hilbert-module", "modules",
            "uniqueness", "montecarlo"])
    def test_heavy_modules_not_loaded(self, tmp_path, statement):
        forbidden = LIGHT + NO_STDLIB_EXTRAS
        loaded = _modules_after(tmp_path, statement)
        assert [m for m in loaded
                if any(m == f or m.startswith(f + ".") for f in forbidden)] == []


FUZZ_CASES = 300
FUZZ_COMMANDS = ("propagate", "montecarlo", "hilbert", "uniqueness", "validate")
# finite floats whose squares overflow or underflow, or that sit at the range's edge
FUZZ_VALUES = VALUES + (1e160, -1e308, 5e-324, 1e-170, [1e160, 0.0])


def _finite(node):
    if isinstance(node, float):
        return math.isfinite(node)
    if isinstance(node, (dict, list)):
        return all(map(_finite, node.values() if isinstance(node, dict) else node))
    return True


def test_mutated_scenarios_end_in_an_exit_code(tmp_path):
    """Fuzz guard: every command on seeded mutations of the bundled scenarios
    ends in exit 0, 1 or 2 (``invoke`` lets any other exception escape), and
    an exit-0 result file holds only finite numbers."""
    rng = random.Random(2017)
    docs = [json.loads(bundled_scenario_path(name).read_text()) for name in BUNDLED]
    codes = collections.Counter()
    for case in range(FUZZ_CASES):
        doc = copy.deepcopy(docs[case % len(docs)])
        for _ in range(rng.randint(1, 3)):
            mutate(doc, rng, FUZZ_VALUES)
        path = tmp_path / f"case{case}.json"
        path.write_text(json.dumps(doc))
        for command in FUZZ_COMMANDS:
            out_dir = tmp_path / f"out{case}-{command}"
            result = invoke([str(path), "--command", command, "--n", "1000",
                             "--out-dir", str(out_dir)])
            assert result.exit_code in (0, 1, 2), (case, command, result.output)
            codes[result.exit_code] += 1
            if result.exit_code == 0:
                [file] = out_dir.glob("*.json")
                assert _finite(json.loads(file.read_text())), (case, command)
    # the mutations must leave documents that run and break others both ways
    assert set(codes) == {0, 1, 2}, codes
