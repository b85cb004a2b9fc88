import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import textwrap
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import jsonschema
import pytest

import epiq
import epiq.scenario
import epiq.uniqueness
from epiq.cli import main
from epiq.exactnum import ExactAmplitude
from epiq.scenario import (ScenarioSchemaError, bundled_scenario_path, check_schema,
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


# jsonschema's Draft 2020-12 validator is the oracle for epiq.scenario's own
# interpreter of the bundled schema: messages must match it exactly, on
# targeted documents and on a fixed-seed sample of mutated bundled scenarios.
SCHEMA = json.loads(resources.files("epiq").joinpath("schema/scenario.schema.json").read_text())
ORACLE = jsonschema.Draft202012Validator(SCHEMA)


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


def mutate(doc, rng):
    """Replace a value, delete a key or item, or add an unknown key or item."""
    node = rng.choice(list(_containers(doc)))
    op = rng.choice(("replace", "delete", "add")) if node else "add"
    value = copy.deepcopy(rng.choice(VALUES))
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
    src = str(Path(epiq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                   check=True, capture_output=True, timeout=120)
    return json.loads(out.read_text())


def _cli_call(name, command):
    argv = [str(bundled_scenario_path(name)), "--command", command, "--out-dir", "."]
    return f"main({argv!r})"


# loaded by no command: the schema is interpreted in epiq.scenario, options
# are parsed by argparse
NO_LIBRARY = ("scipy", "jsonschema", "click")
# no command loads the state-space modules; borel_trial is in the package root
LIGHT = ("numpy", *NO_LIBRARY, "epiq.statespace", "epiq.evolution")
# the CLI path's values are epiq.Records, not dataclasses, and exact arithmetic
# builds no Fraction; numpy itself imports inspect
NO_STDLIB_EXTRAS = ("dataclasses", "inspect", "fractions", "decimal")


class TestImportCost:
    """A module-level import on the CLI path is only for what every command
    uses; numpy is imported by the commands that need it, and no command
    loads epiq.evolution, the state space under it, scipy, jsonschema or
    click.  Importing the CLI, propagate and validate load neither
    dataclasses (nor inspect under it) nor fractions (nor decimal)."""

    @pytest.mark.parametrize("statement, forbidden", [
        ("pass", LIGHT + NO_STDLIB_EXTRAS),
        (_cli_call("mach-zehnder-open", "propagate"), LIGHT + NO_STDLIB_EXTRAS),
        (_cli_call("branching", "validate"), LIGHT + NO_STDLIB_EXTRAS),
        # M < M': the orthonormal completion comes from numpy's SVD
        (_cli_call("branching", "hilbert"), LIGHT[1:]),
        ("import epiq.hilbert, epiq.uniqueness", ("scipy",)),
        (_cli_call("born-uniqueness", "uniqueness"), LIGHT[1:]),
        (_cli_call("mach-zehnder-detected", "montecarlo"), LIGHT[1:]),
    ], ids=["import", "propagate", "validate", "hilbert", "modules", "uniqueness",
            "montecarlo"])
    def test_heavy_modules_not_loaded(self, tmp_path, statement, forbidden):
        loaded = _modules_after(tmp_path, statement)
        assert [m for m in loaded
                if any(m == f or m.startswith(f + ".") for f in forbidden)] == []
