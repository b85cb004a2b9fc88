"""Acceptance gate: one pass/fail line per criterion, at the stated tolerances.

Each test prints "ACCEPTANCE <n> <name>: PASS|FAIL" and asserts the criterion.
"""
import functools
import math
import time
from fractions import Fraction

import numpy as np
import scipy.stats

from epiq.context import (ContextNetwork, ContextualState, Layer, propagate,
                          reduce_by_consistency)
from epiq.evolution import (EvolutionRule, Knowability, borel_trial, check_invariance,
                            make_alternatives, probability)
from epiq.exactnum import parse_exact
from epiq.hilbert import (JointVolumeTable, build_space, commutator, inner, make_operator,
                          principle4_probabilities, reciprocal)
from epiq.scenario import bundled_scenario_path, load_scenario_file
from epiq.statespace import (AttributeDef, EpistemicState, ObjectRegistry, PropertySpec,
                             all_exact_states, full_state, relative_volume, state_slice,
                             volume)
from epiq.uniqueness import (BORN, QUARTIC, REAL_QUADRATIC, build_constraints, estimate_dof,
                             property_independence_conditions)

H = parse_exact("1/sqrt2")
HN = parse_exact("-1/sqrt2")


def report(num: int, name: str, ok: bool):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def mz(level):
    return ContextNetwork(
        layers=(Layer("path", Knowability(level), (1.0, 2.0)),
                Layer("detector", Knowability.DECIDED, (1.0, 2.0))),
        initial=(H, H),
        edges=(((H, H), (H, HN)),))


def test_criterion_1_born_uniqueness_table():
    start = time.perf_counter()

    def run(candidate, samples=60):
        system = property_independence_conditions(
            build_constraints(2, 2, Knowability.NEVER, candidate))
        return estimate_dof(system, samples=samples, seed=1)

    real = run(REAL_QUADRATIC)
    born = run(BORN)
    quartic = run(QUARTIC, samples=60)  # >= 50 independent starts
    elapsed = time.perf_counter() - start

    ok = (real.feasible and real.dof["total"] == 2 and real.required["total"] == 3
          and not real.verdict
          and born.feasible and born.dof["P'"] == 4 and born.dof["P"] == 3
          and born.verdict
          and not quartic.feasible
          and elapsed < 30.0)
    report(1, "born-uniqueness-table", ok)


def test_criterion_2_interference_dichotomy():
    quantum = propagate(mz(1))
    classical = propagate(mz(3))
    ok = (quantum.exact == (parse_exact("1").re, parse_exact("0").re)
          and classical.exact == (parse_exact("1/2").re,) * 2
          and quantum.probabilities == (1.0, 0.0)
          and classical.probabilities == (0.5, 0.5)
          and quantum.total_variation(classical) >= 0.49)
    report(2, "interference-dichotomy", ok)


def test_criterion_3_borel_convergence():
    start = time.perf_counter()
    n = 100_000
    distributions = ([1.0, 0.0], [0.5, 0.5], [0.5, 0.5, 0.0])
    ok = True
    for probs in distributions:
        hits = 0
        for seed in range(100):
            freqs = borel_trial(probs, n=n, seed=seed)
            in_band = all(
                abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / n)
                for p, freq in zip(probs, freqs))
            hits += in_band
        ok = ok and hits >= 99
    elapsed = time.perf_counter() - start
    report(3, "borel-convergence", ok and elapsed < 10.0)


def test_criterion_4_hilbert_construction():
    seq = ContextNetwork(
        layers=(Layer("P", Knowability.DECIDED, (1.0, 2.0)),
                Layer("Q", Knowability.DECIDED, (1.0, 2.0))),
        initial=(complex(H), complex(H)),
        edges=(((complex(H), complex(H)), (complex(H), complex(HN))),))
    space_c = build_space(seq, joint_volumes=JointVolumeTable(v=((0.25,) * 2,) * 2))
    p, q = space_c.basis("P"), space_c.basis("Q")
    tilted = all(
        abs(abs(inner(p[:, j], q[:, k])) ** 2 - 0.5) <= 1e-12
        for j in range(2) for k in range(2))

    s = math.sqrt(1 / 3)
    joint = ContextNetwork(
        layers=(Layer("P", Knowability.DECIDED, (1.0, 2.0)),
                Layer("Q", Knowability.DECIDED, (1.0, 2.0, 3.0))),
        initial=(complex(H), complex(H)),
        edges=((tuple([s + 0j] * 3),) * 2,))
    space_b = build_space(joint, simultaneous=True)
    ok = (tilted
          and space_b.dimension == 6
          and space_b.subspace_dimensions("P") == (3, 3)
          and space_b.subspace_dimensions("Q") == (2, 2, 2))
    report(4, "hilbert-construction", ok)


def test_criterion_5_commutation_dichotomy():
    s = math.sqrt(1 / 3)
    joint = ContextNetwork(
        layers=(Layer("P", Knowability.DECIDED, (1.0, 2.0)),
                Layer("Q", Knowability.DECIDED, (1.0, 2.0, 3.0))),
        initial=(complex(H), complex(H)),
        edges=((tuple([s + 0j] * 3),) * 2,))
    space_b = build_space(joint, simultaneous=True)
    product_norm = commutator(
        make_operator(space_b, "P", labels=(1.0, -1.0)),
        make_operator(space_b, "Q", labels=(1.0, 2.0, 3.0))).norm

    seq = ContextNetwork(
        layers=(Layer("P", Knowability.DECIDED, (1.0, 2.0)),
                Layer("Q", Knowability.DECIDED, (1.0, 2.0))),
        initial=(complex(H), complex(H)),
        edges=(((complex(H), complex(H)), (complex(H), complex(HN))),))
    space_c = build_space(seq, joint_volumes=JointVolumeTable(v=((0.25,) * 2,) * 2))
    tilted = commutator(
        make_operator(space_c, "P", labels=(1.0, -1.0)),
        make_operator(space_c, "Q", labels=(1.0, -1.0)))
    # matrix oracle: [diag(1,-1), [[0,1],[1,0]]] = [[0,2],[-2,0]], norm 2
    ok = (product_norm < 1e-12
          and tilted.norm >= 0.5
          and abs(tilted.norm - 2.0) <= 1e-12)
    report(5, "commutation-dichotomy", ok)


def test_criterion_6_reciprocal_round_trip():
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(100):
        u = scipy.stats.unitary_group.rvs(2, random_state=rng)
        init = rng.normal(size=2) + 1j * rng.normal(size=2)
        init /= np.linalg.norm(init)
        net = ContextNetwork(
            layers=(Layer("P", Knowability.NEVER, (1.0, 2.0)),
                    Layer("Q", Knowability.DECIDED, (1.0, 2.0))),
            initial=tuple(init), edges=(tuple(map(tuple, u)),))
        rec = reciprocal(net)
        back = reciprocal(rec)
        ok = ok and np.max(np.abs(np.array(rec.edges[0]) @ u - np.eye(2))) < 1e-12
        ok = ok and np.max(np.abs(np.array(back.edges[0]) - u)) < 1e-12
        ok = ok and np.max(np.abs(np.array(back.initial) - init)) < 1e-12
    report(6, "reciprocal-round-trip", ok)


def test_criterion_7_eraser_behavior():
    scenario = load_scenario_file(bundled_scenario_path("twin-eraser"))
    erased = propagate(reduce_by_consistency(scenario.network,
                                             path_knowledge_reachable=False))
    recorded = propagate(reduce_by_consistency(scenario.network,
                                               path_knowledge_reachable=True))
    ok = (erased.probabilities == (1.0, 0.0)
          and recorded.probabilities == (0.5, 0.5)
          and erased.rules == ("amplitude",)
          and recorded.rules == ("classical",))
    report(7, "eraser-behavior", ok)


def _exact_rows(rng, cols):
    """Unit-norm rational amplitude rows (Pythagorean entries)."""
    seeds = [("3/5", "4/5"), ("4/5", "-3/5"), ("5/13", "12/13"), ("1", "0"), ("0", "1")]
    pair = seeds[rng.integers(len(seeds))]
    row = [parse_exact(pair[0]), parse_exact(pair[1])] + \
          [parse_exact("0")] * (cols - 2)
    rng.shuffle(row)
    return tuple(row)


def test_criterion_8_cross_module_oracle():
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(50):
        sizes = [int(rng.integers(2, 4)) for _ in range(3)]
        layers = tuple(
            Layer(f"L{i}", Knowability.DECIDED, tuple(float(k + 1) for k in range(m)))
            for i, m in enumerate(sizes))
        initial = _exact_rows(rng, sizes[0])
        edges = tuple(
            tuple(_exact_rows(rng, sizes[i + 1]) for _ in range(sizes[i]))
            for i in range(len(sizes) - 1))
        net = ContextNetwork(layers=layers, initial=initial, edges=edges)
        dist = propagate(net)
        # independent oracle: exhaustive path enumeration with Fractions
        totals = [Fraction(0)] * sizes[-1]
        for j in range(sizes[0]):
            w0 = initial[j].abs2().as_fraction()
            for k in range(sizes[1]):
                w1 = w0 * edges[0][j][k].abs2().as_fraction()
                for l in range(sizes[2]):
                    totals[l] += w1 * edges[1][k][l].abs2().as_fraction()
        ok = ok and [x.as_fraction() for x in dist.exact] == totals

    for level, jv in ((1, None), (3, JointVolumeTable(v=((0.25,) * 2,) * 2))):
        net = mz(level)
        space = build_space(net, joint_volumes=jv)
        probs = principle4_probabilities(space, net)
        ok = ok and np.max(np.abs(probs - np.array(propagate(net).probabilities))) <= 1e-12
    report(8, "cross-module-oracle", ok)


def test_criterion_9_measure_probability_suites():
    rng = np.random.default_rng(9)
    violations = 0
    for _ in range(1000):
        n_pos = int(rng.integers(2, 5))
        n_mark = int(rng.integers(2, 4))
        registry = ObjectRegistry.build(
            [AttributeDef(id="position", kind="ordered",
                          values=tuple(range(1, n_pos + 1))),
             AttributeDef(id="mark", kind="ordered", values=tuple(range(n_mark)))],
            {"dot": ["position", "mark"]})
        states = list(all_exact_states(registry))
        whole = full_state(registry)

        # additivity over the mark partition + slice equality for the
        # independent position attribute
        slices = [state_slice(whole, "dot", "mark", m) for m in range(n_mark)]
        if sum(volume(s) for s in slices) != volume(whole):
            violations += 1
        pos_slices = [state_slice(whole, "dot", "position", p)
                      for p in range(1, n_pos + 1)]
        if len({volume(s) for s in pos_slices}) != 1:
            violations += 1

        # Kolmogorov axioms on a complete alternative set
        prop = PropertySpec(id="mark", labels=tuple(float(m + 1) for m in range(n_mark)),
                            valuation=lambda z: z.value("dot", "mark"))
        alts = make_alternatives(
            whole, prop,
            {m: slices[m] for m in range(n_mark)},
            {m: Knowability.DECIDED for m in range(n_mark)})
        probs = [probability(a, whole) for a in alts.alternatives]
        if any(not 0 <= p <= 1 for p in probs) or sum(probs) != 1:
            violations += 1

        # volume invariance + linearity under a random permutation rule
        image = list(states)
        rng.shuffle(image)
        rule = EvolutionRule(images={z: frozenset([w])
                                     for z, w in zip(states, image)})
        picks = rng.choice(len(states), size=int(rng.integers(1, len(states))),
                           replace=False)
        part = EpistemicState(registry, frozenset(states[i] for i in picks))
        evolved = rule.apply(part)
        if relative_volume(evolved, whole) != relative_volume(part, whole):
            violations += 1
        other = EpistemicState(registry, frozenset(
            states[i] for i in rng.choice(len(states), size=2, replace=False)))
        union = EpistemicState(registry, part.members | other.members)
        if rule.apply(union).members != rule.apply(part).members | rule.apply(other).members:
            violations += 1
    report(9, "measure-probability-suites", violations == 0)


# Unit rows whose |a|^2 are rational, so that a finite space can hold them
# exactly: Pythagorean entries, beam-splitter halves, and three-way splits.
BRIDGE_ROWS = (("3/5", "4/5"), ("4/5", "-3/5"), ("5/13", "12/13"), ("1/sqrt2", "-1/sqrt2"),
               ("1/2", "-1/2", "1/sqrt2"), ("2/3", "2/3", "-1/3"), ("1", "0"))
BRIDGE_MAX_STATES = 2000


def _bridge_row(rng, cols):
    fits = [row for row in BRIDGE_ROWS if len(row) <= cols]
    row = [parse_exact(e) for e in fits[rng.integers(len(fits))]]
    row += [parse_exact("0")] * (cols - len(row))
    rng.shuffle(row)
    return tuple(row)


def _ticket_tables(boundaries):
    """Per boundary (the initial row, then each matrix), its common
    denominator D of |a|^2 and, per row, the value that each of the D tickets
    falls on: value k owns D*|a_k|^2 consecutive tickets.  None when the
    product of the D exceeds ``BRIDGE_MAX_STATES``."""
    squares = [[[a.abs2().as_fraction() for a in row] for row in rows] for rows in boundaries]
    dens = [max(2, math.lcm(*(p.denominator for row in rows for p in row))) for rows in squares]
    if math.prod(dens) > BRIDGE_MAX_STATES:
        return None
    return [(d, [[k for k, p in enumerate(row) for _ in range(int(p * d))]
                 for row in rows]) for d, rows in zip(dens, squares)]


def test_criterion_10_volume_born_bridge():
    """Born probabilities of a decided chain are relative volumes of the state
    space: one object per boundary holds a ticket, each layer's value is read
    off the ticket intervals of the previous value's row, and the preimage of
    each final value has exactly the propagated probability.  A finite space
    has only rational relative volumes, so chains whose probabilities carry a
    sqrt2 term are out of scope."""
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    ok, chains = True, 0
    while chains < 50:
        sizes = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 4)))]
        initial = _bridge_row(rng, sizes[0])
        edges = tuple(tuple(_bridge_row(rng, sizes[i + 1]) for _ in range(sizes[i]))
                      for i in range(len(sizes) - 1))
        tables = _ticket_tables(((initial,),) + edges)
        if tables is None:
            continue
        chains += 1
        net = ContextNetwork(
            layers=tuple(Layer(f"L{i}", Knowability.DECIDED, tuple(float(k + 1) for k in range(m)))
                         for i, m in enumerate(sizes)),
            initial=initial, edges=edges)
        registry = ObjectRegistry.build(
            [AttributeDef(id=f"ticket{i}", kind="ordered", values=tuple(range(d)))
             for i, (d, _) in enumerate(tables)],
            {f"boundary{i}": [f"ticket{i}"] for i in range(len(tables))})

        @functools.cache  # one walk per state, however many preimages read it
        def final_value(z):
            value = 0  # the initial amplitudes are the one row of the first table
            for ticket, (_, rows) in zip(z.values, tables):
                value = rows[value][ticket]
            return value

        final = PropertySpec(id=f"L{len(sizes) - 1}", labels=net.final_layer.labels,
                             valuation=final_value)
        whole = full_state(registry)
        regions = {j: final.preimage(j, whole) for j in range(sizes[-1])}
        volumes = [Fraction(0) if r is None else relative_volume(r, whole) for r in regions.values()]
        ok = ok and volumes == [p.as_fraction() for p in propagate(net).exact]

        regions = {j: r for j, r in regions.items() if r is not None}
        if len(regions) < 2:  # one certain outcome: no genuine alternatives
            continue
        alts = make_alternatives(whole, final, regions,
                                 {j: Knowability.DECIDED for j in regions})
        ok = ok and [probability(a, whole) for a in alts.alternatives] == \
            [volumes[j] for j in regions]
        states = list(all_exact_states(registry))
        image = rng.permutation(len(states))
        rule = EvolutionRule(images={z: frozenset([states[k]]) for z, k in zip(states, image)})
        ok = ok and check_invariance(whole, alts, rule, steps=2).ratios == \
            tuple(volumes[j] for j in regions)
    elapsed = time.perf_counter() - start
    report(10, "volume-born-bridge", ok and elapsed < 1.0)
