"""What the traced run wraps, and the per-layer metrics it derives.

Targets are public names at the attribute their caller looks up.  Private
helpers (``_numeric_jacobian``, ``_rank``, ``_pair_term``, ``_padded_width``)
are not wrapped: they are slated for removal, and their time shows up as
the self time of the public function that calls them.
"""
from __future__ import annotations

import statistics

# (target, span name, kind): kind "span" records a span per call, "count"
# only counts calls (used where calls number in the millions).
TARGETS = (
    ("epiq.cli:main", "cli.main", "span"),
    ("epiq.cli:load_scenario_file", "scenario.load_scenario_file", "span"),
    ("epiq.scenario:validate_document", "scenario.validate_document", "span"),
    ("epiq.cli:propagate", "context.propagate", "span"),
    ("epiq.cli:validate_context", "context.validate_context", "span"),
    ("epiq.cli:reduce_by_consistency", "context.reduce_by_consistency", "span"),
    ("epiq.cli:borel_trial", "evolution.borel_trial", "span"),
    ("epiq.cli:build_space", "hilbert.build_space", "span"),
    ("epiq.cli:make_operator", "hilbert.make_operator", "span"),
    ("epiq.cli:commutator", "hilbert.commutator", "span"),
    ("epiq.cli:principle4_probabilities", "hilbert.principle4_probabilities", "span"),
    ("epiq.context:propagate", "context.propagate", "span"),
    ("epiq.context:validate_context", "context.validate_context", "span"),
    ("epiq.exactnum:Sqrt2Scalar.__mul__", "exactnum.scalar_mul", "count"),
    ("epiq.exactnum:Sqrt2Scalar.__rmul__", "exactnum.scalar_mul", "count"),
    ("epiq.exactnum:ExactAmplitude.__mul__", "exactnum.amplitude_mul", "count"),
    ("epiq.uniqueness:build_constraints", "uniqueness.build_constraints", "span"),
    ("epiq.uniqueness:property_independence_conditions",
     "uniqueness.property_independence_conditions", "span"),
    ("epiq.uniqueness:estimate_dof", "uniqueness.estimate_dof", "span"),
    ("epiq.uniqueness:verify_multiplicativity", "uniqueness.verify_multiplicativity", "span"),
    # both, so the spans survive moving the scipy import into the function
    ("scipy.optimize:least_squares", "uniqueness.least_squares", "span"),
    ("epiq.uniqueness:least_squares", "uniqueness.least_squares", "span"),
    ("epiq.uniqueness:ConstraintSystem.residual", "uniqueness.residual", "span"),
    ("epiq.statespace:full_state", "statespace.full_state", "span"),
    ("epiq.statespace:state_slice", "statespace.state_slice", "span"),
    ("epiq.statespace:combine", "statespace.combine", "span"),
    ("epiq.statespace:relative_volume", "statespace.relative_volume", "span"),
    ("epiq.evolution:relative_volume", "statespace.relative_volume", "span"),
    ("epiq.evolution:EvolutionRule.__init__", "evolution.rule_build", "span"),
    ("epiq.evolution:make_alternatives", "evolution.make_alternatives", "span"),
    ("epiq.evolution:probability", "evolution.probability", "span"),
    ("epiq.evolution:check_invariance", "evolution.check_invariance", "span"),
)


def classify_propagate(dist):
    return "exact" if getattr(dist, "exact", None) is not None else "float"


CLASSIFIERS = {"context.propagate": classify_propagate}

CANDIDATES = ("real", "a2", "a4", "a6")
SHAPES = ("2x2", "3x2", "3x3")


def _ms(x):
    return x * 1e3


# name -> (unit, better, span or counter names it reads, fn(stats, counts, facts))
METRICS = {
    "import.epiq_cli_s": ("s", "lower", ("import",), None),
    "import.scipy_s": ("s", "lower", ("import",), None),
    "scenario.load_scenario_file_ms": (
        "ms", "lower", ("scenario.load_scenario_file",),
        lambda s, c, f: _ms(s.median("scenario.load_scenario_file"))),
    "scenario.validate_document_ms": (
        "ms", "lower", ("scenario.validate_document",),
        lambda s, c, f: _ms(s.median("scenario.validate_document"))),
    "cli.main_ms": ("ms", "lower", ("cli.main",), lambda s, c, f: _ms(s.median("cli.main"))),
    "cli.self_ms": ("ms", "lower", ("cli.main",), lambda s, c, f: _ms(s.median_self("cli.main"))),
    "hilbert.build_space_ms": (
        "ms", "lower", ("hilbert.build_space",),
        lambda s, c, f: _ms(s.median("hilbert.build_space"))),
    "hilbert.principle4_probabilities_ms": (
        "ms", "lower", ("hilbert.principle4_probabilities",),
        lambda s, c, f: _ms(s.median("hilbert.principle4_probabilities"))),
    "hilbert.commutator_ms": (
        "ms", "lower", ("hilbert.commutator",),
        lambda s, c, f: _ms(s.median("hilbert.commutator"))),
    "evolution.borel_trial_s": (
        "s", "lower", ("evolution.borel_trial",),
        lambda s, c, f: s.total("evolution.borel_trial")),
    "context.propagate_exact_s": (
        "s", "lower", ("context.propagate",),
        lambda s, c, f: s.by_tag.get(("context.propagate", "exact"), 0.0)),
    "context.propagate_float_s": (
        "s", "lower", ("context.propagate",),
        lambda s, c, f: s.by_tag.get(("context.propagate", "float"), 0.0)),
    "context.propagate_calls": (
        "count", "lower", ("context.propagate",),
        lambda s, c, f: s.calls("context.propagate")),
    "context.validate_context_ms": (
        "ms", "lower", ("context.validate_context",),
        lambda s, c, f: _ms(s.median("context.validate_context"))),
    "exactnum.scalar_mul_count": (
        "count", "lower", ("exactnum.scalar_mul",),
        lambda s, c, f: c.get("exactnum.scalar_mul", 0)),
    "exactnum.amplitude_mul_count": (
        "count", "lower", ("exactnum.amplitude_mul",),
        lambda s, c, f: c.get("exactnum.amplitude_mul", 0)),
    **{f"uniqueness.estimate_dof_s.{cand}.{shape}": (
        "s", "lower", ("uniqueness.estimate_dof",),
        lambda s, c, f, key=f"{cand}.{shape}": f.get("estimate_dof_by_row", {}).get(key, 0.0))
       for cand in CANDIDATES for shape in SHAPES},
    "uniqueness.least_squares_s": (
        "s", "lower", ("uniqueness.least_squares",),
        lambda s, c, f: s.total("uniqueness.least_squares")),
    "uniqueness.least_squares_calls": (
        "count", "lower", ("uniqueness.least_squares",),
        lambda s, c, f: s.calls("uniqueness.least_squares")),
    "uniqueness.residual_calls": (
        "count", "lower", ("uniqueness.residual",),
        lambda s, c, f: s.calls("uniqueness.residual")),
    "uniqueness.residual_us": (
        "us", "lower", ("uniqueness.residual",),
        lambda s, c, f: s.median("uniqueness.residual") * 1e6),
    # estimate_dof outside least_squares: the Jacobian, the rank and the
    # acceptance checks (their residual calls included)
    "uniqueness.estimate_dof_self_s": (
        "s", "lower", ("uniqueness.estimate_dof",),
        lambda s, c, f: s.total("uniqueness.estimate_dof") - s.total("uniqueness.least_squares")),
    "uniqueness.accepted_start_frac": (
        "frac", "higher", ("uniqueness.least_squares",),
        lambda s, c, f: (f.get("solutions", 0) / s.calls("uniqueness.least_squares")
                         if s.calls("uniqueness.least_squares") else 0.0)),
    "uniqueness.constraints_build_ms": (
        "ms", "lower",
        ("uniqueness.build_constraints", "uniqueness.property_independence_conditions"),
        lambda s, c, f: _ms(s.total("uniqueness.build_constraints",
                                    "uniqueness.property_independence_conditions"))),
    "uniqueness.multiplicativity_ms": (
        "ms", "lower", ("uniqueness.verify_multiplicativity",),
        lambda s, c, f: _ms(s.total("uniqueness.verify_multiplicativity"))),
    "statespace.full_state_us_per_state": (
        "us", "lower", ("statespace.full_state",),
        lambda s, c, f: (s.total("statespace.full_state") / f["states"] * 1e6
                         if f.get("states") else 0.0)),
    "statespace.states": (
        "count", "higher", ("statespace.full_state",), lambda s, c, f: f.get("states", 0)),
    "statespace.state_slice_s": (
        "s", "lower", ("statespace.state_slice",),
        lambda s, c, f: s.total("statespace.state_slice")),
    "statespace.combine_s": (
        "s", "lower", ("statespace.combine",), lambda s, c, f: s.total("statespace.combine")),
    "statespace.relative_volume_s": (
        "s", "lower", ("statespace.relative_volume",),
        lambda s, c, f: s.total("statespace.relative_volume")),
    "evolution.rule_build_s": (
        "s", "lower", ("evolution.rule_build",), lambda s, c, f: s.total("evolution.rule_build")),
    "evolution.make_alternatives_s": (
        "s", "lower", ("evolution.make_alternatives", "evolution.probability"),
        lambda s, c, f: s.total("evolution.make_alternatives", "evolution.probability")),
    "evolution.check_invariance_s": (
        "s", "lower", ("evolution.check_invariance",),
        lambda s, c, f: s.total("evolution.check_invariance")),
    "trace.overhead_frac": ("frac", "lower", ("trace",), None),
}


def pass_metrics(stats, counts, facts):
    """Every metric with a per-pass function, from one traced pass."""
    return {name: fn(stats, counts, facts)
            for name, (_, _, _, fn) in METRICS.items() if fn is not None}


def combine_passes(per_pass):
    """Median over traced passes of each metric."""
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}


def missing_reasons(workload, stats_list, counts, tracer_missing):
    """Why each metric read no span or counter on this workload."""
    reasons = {}
    for name, (_, _, sources, fn) in METRICS.items():
        if fn is None:
            continue
        seen = any(s.calls(src) for s in stats_list for src in sources) or \
            any(counts.get(src, 0) for src in sources)
        if seen:
            continue
        lost = [tracer_missing[src] for src in sources if src in tracer_missing]
        reasons[name] = lost[0] if lost else f"not exercised by {workload}"
    return reasons
