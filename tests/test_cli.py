import json

import pytest
from click.testing import CliRunner

from epiq.cli import main
from epiq.exactnum import ExactAmplitude
from epiq.scenario import (ScenarioDomainError, ScenarioSchemaError, bundled_scenario_path,
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

    def test_registry_and_evolution_load(self):
        doc = minimal_doc(
            registry={
                "attributes": [{"id": "cell", "kind": "ordered", "values": [1, 2, 3, 4]}],
                "objects": {"mote": ["cell"]},
            },
            evolution={"images": {str(i): [(i + 2) % 4] for i in range(4)}},
        )
        scenario = load_scenario(doc)
        assert scenario.registry is not None
        assert len(scenario.rule.images) == 4

    def test_evolution_without_registry_rejected(self):
        doc = minimal_doc(evolution={"images": {"0": [0]}})
        with pytest.raises(ScenarioDomainError, match="registry"):
            load_scenario(doc)

    def test_evolution_index_out_of_range(self):
        doc = minimal_doc(
            registry={
                "attributes": [{"id": "cell", "kind": "ordered", "values": [1, 2]}],
                "objects": {"mote": ["cell"]},
            },
            evolution={"images": {"0": [5], "1": [0]}},
        )
        with pytest.raises(ScenarioDomainError, match="outside"):
            load_scenario(doc)


def run_cli(tmp_path, *args):
    runner = CliRunner()
    return runner.invoke(main, [*args, "--out-dir", str(tmp_path)])


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

    def test_uniqueness_command_guard(self, tmp_path):
        result = run_cli(tmp_path, str(bundled_scenario_path("born-uniqueness")))
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "born-uniqueness-uniqueness.json").read_text())
        assert payload["result"]["unique_born_rule"]
        assert payload["result"]["passing"] == ["|a|^2"]

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

