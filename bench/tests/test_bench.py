"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from epiq.context import propagate, validate_context  # noqa: E402
from epiq.scenario import load_scenario, validate_document  # noqa: E402


def networks(seed, exact, depths=range(4, 9)):
    rng = workloads._rng(seed, 2)
    out = []
    for depth in depths:
        levels, widths = workloads.layer_plan(rng, depth)
        out.append(workloads.make_network(rng, levels, widths, exact))
    return out


@pytest.mark.parametrize("exact", [True, False])
def test_networks_are_deterministic_per_seed(exact):
    assert networks(7, exact) == networks(7, exact)
    assert networks(7, exact) != networks(8, exact)


def test_registries_and_scenarios_are_deterministic_per_seed():
    def draw(seed):
        rng = workloads._rng(seed, 4)
        specs = [workloads.make_registry_spec(rng, *target) for target in workloads.STATE_TARGETS]
        rng = workloads._rng(seed, 3)
        docs = [workloads.make_scenario_doc(rng, i) for i in range(workloads.SEEDED_FILES)]
        return specs, docs
    assert repr(draw(3)) == repr(draw(3))
    assert repr(draw(3)) != repr(draw(4))


def test_layer_plan_fixes_the_decided_product_per_depth():
    for depth in range(4, 17):
        products = {workloads.decided_product(*workloads.layer_plan(workloads._rng(s, 2), depth))
                    for s in range(6)}
        assert len(products) == 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_networks_are_valid_and_exact_ones_normalise_exactly(seed):
    for net in networks(seed, exact=True):
        assert validate_context(net) == []
        assert net.is_exact()
        dist = propagate(net)
        total = sum(dist.exact[1:], dist.exact[0])
        assert (total.p, total.q) == (Fraction(1), Fraction(0))
        assert np.allclose(dist.probabilities, workloads.network_reference(net), atol=1e-12)
    for net in networks(seed, exact=False, depths=range(4, 12)):
        assert validate_context(net) == []
        dist = propagate(net)
        assert dist.exact is None
        assert np.allclose(dist.probabilities, workloads.network_reference(net), atol=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_generated_scenario_files_pass_the_schema(seed):
    rng = workloads._rng(seed, 3)
    for i in range(workloads.SEEDED_FILES):
        doc, probs, widths = workloads.make_scenario_doc(rng, i)
        doc = json.loads(json.dumps(doc))  # as the CLI reads it from disk
        validate_document(doc)
        scenario = load_scenario(doc)
        assert validate_context(scenario.network) == []
        assert max(widths) <= 8
        assert np.allclose(propagate(scenario.network).probabilities, probs, atol=1e-12)


def test_registry_state_count_matches_enumeration():
    rng = workloads._rng(5, 4)
    attrs, objects, count = workloads.make_registry_spec(rng, 300, 2, 5)
    registry = workloads.build_registry(attrs, objects)
    from epiq.statespace import full_state
    assert len(full_state(registry)) == count


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert tracing.self_times(start, end, parent) == [3.0, 3.0, 3.0, 1.0]


def test_tracer_records_nesting_and_self_time():
    tracer = tracing.Tracer()
    inner = tracer.span_wrapper("inner", lambda: sum(range(1000)))
    outer = tracer.span_wrapper("outer", lambda: [inner() for _ in range(3)])
    outer()
    stats = tracing.SpanStats(tracer, 0, len(tracer))
    assert stats.calls("outer") == 1 and stats.calls("inner") == 3
    assert list(tracer.parent) == [-1, 0, 0, 0]
    assert stats.median_self("outer") == pytest.approx(
        stats.total("outer") - stats.total("inner"))


def test_traced_run_tolerates_a_missing_name():
    tracer = tracing.Tracer()
    tracer.patch("epiq.uniqueness:_no_such_function", "uniqueness.gone")
    tracer.patch("epiq.no_such_module:f", "nowhere.f")
    tracer.patch("epiq.context:propagate", "context.propagate")
    try:
        assert set(tracer.missing) == {"uniqueness.gone", "nowhere.f"}
        import epiq.context
        assert epiq.context.propagate is not propagate
    finally:
        tracer.unpatch()
    import epiq.context
    assert epiq.context.propagate is propagate
    reasons = layers.missing_reasons("propagate-depth", [], {},
                                     {"context.propagate": "epiq.context:propagate not found"})
    assert reasons["context.propagate_calls"] == "epiq.context:propagate not found"
    assert reasons["uniqueness.least_squares_s"] == "not exercised by propagate-depth"


def test_unpatch_restores_inherited_and_own_attributes():
    from epiq.exactnum import Sqrt2Scalar
    own = Sqrt2Scalar.__dict__["__mul__"]
    tracer = tracing.Tracer()
    tracer.patch("epiq.exactnum:Sqrt2Scalar.__mul__", "m", counter=True)
    Sqrt2Scalar.of(2) * Sqrt2Scalar.of(3)
    tracer.unpatch()
    assert tracer.counts["m"] == [1]
    assert Sqrt2Scalar.__dict__["__mul__"] is own


def test_parse_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |        120 |     scipy._lib\n"
            "import time:      2000 |       2120 |   scipy\n"
            "import time:       500 |       9000 | epiq.cli\n")
    table = tracing.parse_importtime(text)
    assert table["scipy"] == (0.002, 0.00212)
    assert table["epiq.cli"] == (0.0005, 0.009)


def test_tail_has_ten_samples_beyond_or_is_the_maximum():
    assert run.tail([float(i) for i in range(12)]) == (11.0, 100.0, 0)
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0 and beyond == 10


def test_compare_result_allows_added_keys_only():
    want = {"labels": [1.0, 2.0], "probabilities": [0.5, 0.5], "exact": True}
    got = dict(want, probabilities=[0.5 + 1e-15, 0.5], diagnostics={"layers": []})
    assert workloads.compare_result(got, want) is None
    assert workloads.compare_result(dict(got, exact=False), want)
    assert workloads.compare_result({"labels": [1.0, 2.0]}, want)


def test_benchmark_json_names_the_metrics_the_runs_emit():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.E2E_UNITS)
    assert {m["unit"] for m in spec["end_to_end"] if m["name"] == "setup_s"} == {"s"}
    assert [m["name"] for m in spec["per_layer"]] == list(layers.METRICS)
    assert all([m["unit"], m["better"]] == list(layers.METRICS[m["name"]][:2])
               for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_hd_median_weights_ranks_around_the_middle():
    assert run.hd_median([5.0]) == 5.0
    assert run.hd_median([1.0, 2.0, 3.0]) == pytest.approx(2.0)
    assert run.hd_median([4.0, 1.0, 3.0, 2.0]) == pytest.approx(2.5)
    assert run.hd_median([7.0] * 6) == pytest.approx(7.0)
    # a gap in the middle moves it smoothly, not by the whole gap
    assert 2.0 < run.hd_median([1.0, 2.0, 3.0, 30.0, 31.0, 32.0]) < 30.0
    x = np.random.default_rng(0).normal(size=2001)
    assert run.hd_median(x) == pytest.approx(np.median(x), abs=0.05)


def test_probe_scales_by_the_reference_times_around_an_interval():
    import hostspeed
    probe = hostspeed.Probe()  # not started: samples are set by hand
    ref = hostspeed.REFERENCE_S
    # reference runs at twice the reference time, every 0.1 s from t = 0
    for k in range(40):
        probe.starts.append(0.1 * k)
        probe.ends.append(0.1 * k + 2 * ref)
    took, scaled = probe.scale(1.0, 2.0)
    own = 10 * 2 * ref  # probe runs that started at 1.0, 1.1, ..., 1.9
    assert took == pytest.approx(1.0 - own)
    assert scaled == pytest.approx(took / 2)
    # an interval with no reference run inside its window uses the nearest
    took, scaled = probe.scale(10.0, 10.001)
    assert scaled == pytest.approx(took / 2)
