from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dof_search
from dof_search import (LM_MAX_ITER, MAX_SOLUTIONS, apply, block_dof, estimate_dof, evaluate,
                        unpack)
from epiq.evolution import Knowability
import epiq.uniqueness as uniqueness
from epiq.uniqueness import (BORN, DEFAULT_CANDIDATES, QUARTIC, REAL_QUADRATIC, SEXTIC,
                             CandidateMap, UniquenessRow, build_constraints, evaluate_candidate,
                             property_independence_conditions, uniqueness_report)


class TestCandidateMap:
    def test_unknown_kind_rejected(self):
        for kind in ("cubic", "bivariate"):
            with pytest.raises(ValueError, match="kind"):
                CandidateMap(name="x", kind=kind)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError, match="gamma"):
            CandidateMap(name="x", kind="modulus-power", gamma=0)

    @pytest.mark.parametrize("gamma", [1.5, 2.0, True])
    def test_gamma_must_be_an_int(self, gamma):
        # the proof of infeasibility needs an integer gamma >= 2, and a bool
        # is not an exponent
        with pytest.raises(ValueError, match="must be a positive integer"):
            CandidateMap(name="x", kind="modulus-power", gamma=gamma)

    @pytest.mark.parametrize("gamma", [2.5, 2, 0, 1.0, True])
    def test_real_candidate_takes_no_gamma(self, gamma):
        # kind "real" is a**2 whatever gamma says, so a gamma it would ignore is refused
        with pytest.raises(ValueError, match="gamma must be 1"):
            CandidateMap(name="x", kind="real", gamma=gamma)

    def test_born_map_values(self):
        assert apply(BORN, np.array([0.6 + 0.8j]))[0] == pytest.approx(1.0)
        assert apply(QUARTIC, np.array([0.6 + 0.8j]))[0] == pytest.approx(1.0)
        assert apply(REAL_QUADRATIC, np.array([0.5 + 0j]))[0] == pytest.approx(0.25)


class TestBuildConstraints:
    def test_complex_system_shape(self):
        system = build_constraints(2, 2, Knowability.NEVER, BORN)
        assert system.n_vars == 12
        assert len(system.equations) == 4  # initial norm, 2 row norms, closure

    def test_real_system_shape(self):
        system = build_constraints(2, 2, Knowability.NEVER, REAL_QUADRATIC)
        assert system.n_vars == 6
        assert len(system.equations) == 4

    @pytest.mark.parametrize("gamma", [1, 2])
    def test_closure_follows_from_norms_only_at_level_three(self, gamma):
        rng = np.random.default_rng(5)
        candidate = CandidateMap(name="g", kind="modulus-power", gamma=gamma)
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        big = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = a / np.sum(apply(candidate, a)) ** (1 / (2 * gamma))
        big = big / np.sum(apply(candidate, big), axis=1, keepdims=True) ** (1 / (2 * gamma))
        x = pack(a, big)
        for level, closure_vanishes in ((Knowability.DECIDED, True), (Knowability.NEVER, False)):
            system = build_constraints(3, 3, level, candidate)
            res = dict(zip(system.equations, evaluate(system, x)[0]))
            assert max(abs(v) for k, v in res.items() if k != "closure") < 1e-12
            assert (abs(res["closure"]) < 1e-12) == closure_vanishes

    def test_residual_vanishes_on_unitary_solution(self):
        system = build_constraints(2, 2, Knowability.NEVER, BORN)
        system = property_independence_conditions(system)
        h = 1 / np.sqrt(2)
        x = np.array([h, h, 0, 0,  # a real parts, imaginary parts
                      h, h, h, -h, 0, 0, 0, 0])
        assert np.max(np.abs(evaluate(system, x)[0])) < 1e-12

    def test_too_small_shapes_rejected(self):
        with pytest.raises(ValueError, match="two values"):
            build_constraints(1, 2, Knowability.NEVER, BORN)


def pack(a, big):
    """Real parameter vector of a complex system: Re a, Im a, Re A, Im A."""
    return np.concatenate([a.real, a.imag, big.real.ravel(), big.imag.ravel()])


def full_system(candidate, m, mp):
    return property_independence_conditions(
        build_constraints(m, mp, Knowability.NEVER, candidate))


SHAPES = [(2, 2), (3, 3), (2, 3)]


def leveled_system(candidate, m, mp, level):
    """Level 1 with the independence rows, level 3 without them."""
    system = build_constraints(m, mp, level, candidate)
    if level is Knowability.NEVER:
        system = property_independence_conditions(system)
    return system


def central_difference(system, x, h=1e-6):
    """The residual's central difference, column by column, from one
    evaluation of the whole (2 n_vars, n_vars) stencil."""
    steps = h * np.eye(system.n_vars)
    r = evaluate(system, x + np.concatenate([steps, -steps]))[0]
    return ((r[:system.n_vars] - r[system.n_vars:]) / (2 * h)).T


LEVELS = [Knowability.NEVER, Knowability.DECIDED]


def jacobian_case(candidate, level, m, mp):
    """Case id m-mp-gamma, "real" for the real candidate, "-decided" at level 3."""
    tag = str(candidate.gamma) if candidate.kind == "modulus-power" else candidate.kind
    suffix = "-decided" if level is Knowability.DECIDED else ""
    return pytest.param(candidate, level, m, mp, id=f"{m}-{mp}-{tag}{suffix}")


class TestArrayResidual:
    @pytest.mark.parametrize("candidate, level, m, mp", [
        jacobian_case(candidate, level, m, mp)
        for level in LEVELS for candidate in DEFAULT_CANDIDATES
        for m, mp in SHAPES + [(4, 4)]])
    def test_jacobian_is_columnwise_central_difference(self, candidate, level, m, mp):
        system = leveled_system(candidate, m, mp, level)
        seed = m * mp
        x = np.random.default_rng(seed).normal(scale=0.7, size=system.n_vars)
        ref = central_difference(system, x)
        assert np.allclose(evaluate(system, x)[1], ref, rtol=0, atol=1e-9 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("candidate", DEFAULT_CANDIDATES, ids=lambda c: c.name)
    def test_jacobian_finite_at_vanishing_entry(self, candidate):
        # solver starts on infeasible candidates run into A_jk -> 0
        system = full_system(candidate, 3, 3)
        x = np.random.default_rng(7).normal(scale=0.7, size=system.n_vars)
        n = system.m * system.mp
        entry = system.n_p_vars + 4  # A_11
        x[entry] = 0.0
        if not candidate.real_only:
            x[entry + n] = 0.0
        _, big = unpack(system, x)
        assert big[1, 1] == 0
        jac = evaluate(system, x)[1]
        assert np.all(np.isfinite(jac))
        ref = central_difference(system, x)
        assert np.allclose(jac, ref, rtol=0, atol=1e-9 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("candidate", DEFAULT_CANDIDATES, ids=lambda c: c.name)
    @pytest.mark.parametrize("m, mp", SHAPES)
    def test_batched_jacobian_stacks_single_calls(self, candidate, m, mp):
        system = full_system(candidate, m, mp)
        xs = np.random.default_rng(0).normal(size=(2, 3, system.n_vars))
        batched = evaluate(system, xs)[1]
        assert batched.shape == (2, 3, len(system.equations), system.n_vars)
        singles = np.array([[evaluate(system, x)[1] for x in row] for row in xs])
        assert np.allclose(batched, singles, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("candidate", DEFAULT_CANDIDATES)
    @pytest.mark.parametrize("m, mp", SHAPES)
    def test_batched_residual_stacks_single_calls(self, candidate, m, mp):
        system = full_system(candidate, m, mp)
        xs = np.random.default_rng(0).normal(size=(2, 3, system.n_vars))
        batched = evaluate(system, xs)[0]
        assert batched.shape == (2, 3, len(system.equations))
        singles = np.array([[evaluate(system, x)[0] for x in row] for row in xs])
        assert np.allclose(batched, singles, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("gamma", [1, 2, 3])
    @pytest.mark.parametrize("m, mp", SHAPES)
    def test_independence_rows_match_their_labels(self, gamma, m, mp):
        system = full_system(CandidateMap(name="g", kind="modulus-power", gamma=gamma), m, mp)
        x = np.random.default_rng(gamma).normal(scale=0.7, size=system.n_vars)
        _, big = unpack(system, x)
        rows = dict(zip(system.equations, evaluate(system, x)[0]))
        labels = [label for label in system.equations if label.startswith("independence")]
        assert labels
        for label in labels:
            _, part, tag = label.split()
            alpha, beta = ([int(e) for e in half] for half in tag.split("|"))
            term = 0j
            for k in range(mp):
                factor = 1 + 0j
                for j in range(m):
                    factor *= big[j, k] ** alpha[j] * np.conj(big[j, k]) ** beta[j]
                term += factor
            want = term.real if part == "re" else term.imag
            assert rows[label] == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("candidate, level, m, mp", [
        jacobian_case(candidate, level, m, mp)
        for level in LEVELS for candidate in DEFAULT_CANDIDATES
        for m, mp in SHAPES])
    def test_fused_evaluation_matches_its_wrappers(self, candidate, level, m, mp):
        system = leveled_system(candidate, m, mp, level)
        xs = np.random.default_rng(m + mp).normal(scale=0.7, size=(2, 3, system.n_vars))
        _, jac = evaluate(system, xs)
        assert jac.shape == (2, 3, len(system.equations), system.n_vars)
        f_rows = len(build_constraints(m, mp, level, candidate).equations)
        assert np.all(jac[..., f_rows:, :system.n_p_vars] == 0)  # independence rows hold no a_j

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_born_rows_vanish_on_random_unitary(self, m):
        rng = np.random.default_rng(m)
        a = rng.normal(size=m) + 1j * rng.normal(size=m)
        big, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        residual = evaluate(full_system(BORN, m, m), pack(a / np.linalg.norm(a), big))[0]
        assert np.max(np.abs(residual)) < 1e-12


class TestIndependenceConditions:
    def count(self, candidate, m, mp):
        base = build_constraints(m, mp, Knowability.NEVER, candidate)
        return len(property_independence_conditions(base).equations) - len(base.equations)

    def test_born_pairwise_orthogonality(self):
        assert self.count(BORN, 2, 2) == 2   # one complex row
        assert self.count(BORN, 3, 2) == 6   # three complex rows

    def test_quartic_has_eight_conditions(self):
        assert self.count(QUARTIC, 2, 2) == 8

    def test_real_single_row_per_pair(self):
        assert self.count(REAL_QUADRATIC, 2, 2) == 1

    def test_level_three_has_no_independence_rows(self):
        base = build_constraints(2, 2, Knowability.DECIDED, BORN)
        with pytest.raises(ValueError, match="never knowable"):
            property_independence_conditions(base)


def dof_for(candidate, samples=40, seed=0):
    return estimate_dof(full_system(candidate, 2, 2), samples=samples, seed=seed)


class TestEstimateDof:
    def test_born_counts(self):
        report = dof_for(BORN)
        assert report.feasible
        assert report.dof == {"P": 3, "P'": 4, "total": 7}
        assert report.verdict

    def test_born_solutions_are_row_orthonormal(self):
        report = dof_for(BORN)
        system = full_system(BORN, 2, 2)
        for x in report.sample_solutions:
            _, big = unpack(system, x)
            gram = big @ np.conj(big).T
            assert np.max(np.abs(gram - np.eye(2))) < 1e-8

    def test_real_candidate_lacks_freedom(self):
        report = dof_for(REAL_QUADRATIC)
        assert report.feasible
        assert report.dof["total"] == 2
        assert report.required["total"] == 3
        assert not report.verdict

    def test_quartic_infeasible(self):
        report = dof_for(QUARTIC, samples=50)
        assert not report.feasible
        assert not report.verdict

    def test_dof_stable_across_seeds(self):
        assert dof_for(BORN, seed=1).dof == dof_for(BORN, seed=2).dof

    def test_same_seed_same_solutions(self):
        first, second = dof_for(BORN, seed=3), dof_for(BORN, seed=3)
        assert len(first.sample_solutions) == len(second.sample_solutions) > 0
        for x, y in zip(first.sample_solutions, second.sample_solutions):
            assert x.tobytes() == y.tobytes()

    def test_one_evaluation_per_iteration(self, monkeypatch):
        calls = []
        original = dof_search.evaluate

        def counted(system, x):
            calls.append(x)
            return original(system, x)
        monkeypatch.setattr(dof_search, "evaluate", counted)
        estimate_dof(full_system(QUARTIC, 2, 2), samples=8)
        assert 1 <= len(calls) <= LM_MAX_ITER + 1

    @pytest.mark.parametrize("candidate", [BORN, REAL_QUADRATIC], ids=lambda c: c.name)
    def test_keeps_at_most_max_solutions(self, candidate):
        report = dof_for(candidate, samples=3 * MAX_SOLUTIONS)
        assert len(report.sample_solutions) == MAX_SOLUTIONS


class TestReport:
    def test_padding_marked_for_wide_shapes(self):
        row = evaluate_candidate(BORN, 3, 2, samples=40, seed=3)
        assert row.padded_shape == (3, 3)
        assert row.verdict

    def test_unpadded_wide_shape_fails(self):
        system = property_independence_conditions(
            build_constraints(3, 2, Knowability.NEVER, BORN))
        report = estimate_dof(system, samples=40, seed=3)
        assert not report.feasible
        assert not report.verdict

    def test_only_born_map_passes(self):
        report = uniqueness_report([2], [2], samples=40, seed=4)
        assert report.passing_candidates() == ("|a|^2",)

    def test_only_born_map_passes_at_three_by_three(self):
        report = uniqueness_report([3], [3], samples=60, seed=1)
        assert report.passing_candidates() == ("|a|^2",)

    def test_unpaired_shape_lists_are_refused(self):
        with pytest.raises(ValueError, match="shorter"):
            uniqueness_report([2, 3], [2], samples=2)


def row_fields(row):
    rep = row.report
    return (row.candidate, row.shape, row.padded_shape, rep.feasible, rep.dof, rep.required,
            rep.verdict)


@pytest.fixture
def lm_outputs(monkeypatch):
    """Every (x, r, jac) that _levenberg_marquardt returns while the test runs."""
    outputs = []
    original = dof_search._levenberg_marquardt

    def spy(system, x):
        outputs.append(original(system, x))
        return outputs[-1]
    monkeypatch.setattr(dof_search, "_levenberg_marquardt", spy)
    return outputs


class TestInfeasibilityProof:
    """|a|^(2 gamma), gamma >= 2, is decided by a bound, with the search as
    its oracle."""

    @pytest.mark.parametrize("candidate", [QUARTIC, SEXTIC], ids=lambda c: c.name)
    @pytest.mark.parametrize("m, mp, samples", [(2, 2, 12), (3, 2, 12), (3, 3, 12), (4, 4, 6)])
    def test_search_agrees_with_the_bound(self, lm_outputs, candidate, m, mp, samples):
        system = full_system(candidate, m, max(m, mp))
        searched = estimate_dof(system, samples=samples, seed=1)
        (x, r, _), = lm_outputs
        # the proved bound on min |A_jk| at a point within RESIDUAL_TOL, recomputed
        tol, g = uniqueness.RESIDUAL_TOL, candidate.gamma
        bound = np.sqrt(tol * (system.mp / (1 - tol)) ** ((g - 1) / g))
        assert bound < uniqueness.DEGENERACY_FLOOR
        converged = np.max(np.abs(r), axis=-1) < tol
        assert converged.any()
        _, big = unpack(system, x[converged])
        assert np.all(np.min(np.abs(big), axis=(-2, -1)) < bound)

        proved = evaluate_candidate(candidate, m, mp, samples=samples, seed=1)
        assert len(lm_outputs) == 1  # the proof ran no search
        assert not proved.report.feasible and proved.report.sample_solutions == ()
        assert row_fields(proved) == row_fields(UniquenessRow(
            candidate=candidate.name, shape=(m, mp),
            padded_shape=(m, m) if m > mp else None, report=searched))

    def test_raises_when_the_bound_fails(self, monkeypatch, lm_outputs):
        monkeypatch.setattr(uniqueness, "DEGENERACY_FLOOR", 1e-6)
        with pytest.raises(ValueError, match="no proof decides"):
            evaluate_candidate(QUARTIC, 2, 2, samples=4, seed=1)
        assert lm_outputs == []

    def test_proof_decides_an_unpadded_wide_row(self):
        # the search on this row can stop with LinAlgError on an exactly
        # singular damped matrix (seen at seed 1); the proof cannot
        row = evaluate_candidate(SEXTIC, 2, 3, samples=60, seed=1)
        assert row.padded_shape is None and not row.report.feasible

    def test_search_survives_a_singular_damped_matrix(self, monkeypatch):
        # at seed 1 the batched solve meets an exactly singular damped matrix
        # on this row; each start is then solved on its own
        fallbacks = []
        original = dof_search._solve_or_nan

        def spy(a, b):
            fallbacks.append(original(a, b))
            return fallbacks[-1]
        monkeypatch.setattr(dof_search, "_solve_or_nan", spy)
        report = estimate_dof(full_system(SEXTIC, 2, 3), samples=60, seed=1)
        assert any(np.isnan(step).all() for step in fallbacks)
        assert not report.feasible and report.sample_solutions == ()

    @pytest.mark.parametrize("candidate", DEFAULT_CANDIDATES, ids=lambda c: c.name)
    def test_input_checks_hold_on_proved_rows(self, lm_outputs, candidate):
        for samples in (0, True, 1.5, "x"):
            with pytest.raises(ValueError, match="need at least one start"):
                uniqueness_report([2], [2], candidates=[candidate], samples=samples)
        for m, mp in ((1, 2), (1, 1), (2, 1), (3, 1), (2.5, 3), (3, 2.5), (True, 2)):
            with pytest.raises(ValueError, match="at least two values"):
                evaluate_candidate(candidate, m, mp, samples=4)
        assert lm_outputs == []


def exact_rows(system, x):
    """Every residual row at x in the arithmetic of x's entries (Fractions
    stay exact), complex numbers held as (re, im) pairs: a plain-Python
    mirror of dof_search.evaluate's residual."""
    m, n, cand = system.m, system.mp, system.candidate
    zero = x[0] * 0
    if cand.real_only:
        a = [(v, zero) for v in x[:m]]
        flat = [(v, zero) for v in x[m:]]
    else:
        a = list(zip(x[:m], x[m:2 * m]))
        flat = list(zip(x[2 * m:2 * m + m * n], x[2 * m + m * n:]))
    big = [flat[j * n:(j + 1) * n] for j in range(m)]

    def mul(p, q):
        return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]

    def f(z):
        return z[0] ** 2 if cand.real_only else (z[0] ** 2 + z[1] ** 2) ** cand.gamma

    rows = [sum(map(f, a)) - 1] + [sum(map(f, row)) - 1 for row in big]
    if system.level is Knowability.DECIDED:
        closure = sum(f(a[j]) * f(big[j][k]) for j in range(m) for k in range(n))
    else:
        w = [(sum(mul(a[j], big[j][k])[0] for j in range(m)),
              sum(mul(a[j], big[j][k])[1] for j in range(m))) for k in range(n)]
        closure = sum(map(f, w))
    rows.append(closure - 1)
    for alpha, beta in zip(system.alpha, system.beta):
        term = (zero, zero)
        for k in range(n):
            factor = (zero + 1, zero)
            for j in range(m):
                entry = big[j][k]
                for _ in range(alpha[j]):
                    factor = mul(factor, entry)
                for _ in range(beta[j]):
                    factor = mul(factor, (entry[0], -entry[1]))
            term = (term[0] + factor[0], term[1] + factor[1])
        rows.extend(term[:1] if cand.real_only else term)
    return rows


FEASIBLE = [REAL_QUADRATIC, BORN]
SCHEMA_ROWS = [pytest.param(c, m, mp, id=f"{c.name}-{m}x{mp}")
               for c in FEASIBLE for m in (2, 3, 4) for mp in (2, 3, 4)]
WIDE_SHAPES = [(m, mp) for m in range(2, 9) for mp in range(2, 9)]


class TestClosedForm:
    """The real and |a|^2 rows are decided by the dimension of their solution
    manifold and one rational witness; the float search is the oracle."""

    @pytest.mark.parametrize("candidate, m, mp", SCHEMA_ROWS)
    def test_search_agrees_with_the_closed_form(self, candidate, m, mp):
        # seeds 1-3 here; seeds 1-10 at 60 starts also agree on all 18 rows,
        # in about 5 s with one BLAS thread
        row = evaluate_candidate(candidate, m, mp)
        system = full_system(candidate, m, max(m, mp))
        for seed in (1, 2, 3):
            searched = estimate_dof(system, samples=60, seed=seed)
            assert ((searched.feasible, searched.dof, searched.verdict)
                    == (row.report.feasible, row.report.dof, row.report.verdict)), seed
        assert row.verdict == (candidate is BORN)

    def test_exact_rows_mirror_the_search_residual(self):
        for candidate in DEFAULT_CANDIDATES:
            for level in LEVELS:
                system = leveled_system(candidate, 3, 4, level)
                x = np.random.default_rng(11).normal(scale=0.7, size=system.n_vars)
                assert np.allclose(exact_rows(system, list(x)), evaluate(system, x)[0],
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("candidate", FEASIBLE, ids=lambda c: c.name)
    def test_witness_zeroes_every_row_exactly(self, candidate):
        for m, mp in WIDE_SHAPES:
            system = full_system(candidate, m, max(m, mp))
            x = uniqueness._witness(m, max(m, mp), candidate.real_only, Fraction)
            assert all(type(v) is Fraction for v in x)
            assert all(row == 0 for row in exact_rows(system, x)), (m, mp)
            _, big = unpack(system, np.array(x, dtype=float))
            assert np.min(np.abs(big)) >= 0.25

    @pytest.mark.parametrize("candidate", FEASIBLE, ids=lambda c: c.name)
    def test_search_ranks_at_the_witness_give_the_closed_form(self, candidate):
        for m, mp in WIDE_SHAPES:
            system = full_system(candidate, m, max(m, mp))
            x = uniqueness._witness(m, max(m, mp), candidate.real_only)
            _, jac = evaluate(system, np.array([x]))
            ranked = {k: int(v[0]) for k, v in block_dof(system, jac).items()}
            assert ranked == uniqueness._manifold_dof(m, max(m, mp), candidate.real_only), (m, mp)

    def test_rows_build_no_constraint_system(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a row built a constraint system")
        monkeypatch.setattr(uniqueness, "build_constraints", refuse)
        monkeypatch.setattr(uniqueness, "ConstraintSystem", refuse)
        mlist, mplist = zip(*WIDE_SHAPES)
        report = uniqueness_report(mlist, mplist)
        assert len(report.rows) == len(DEFAULT_CANDIDATES) * len(WIDE_SHAPES)
        assert report.passing_candidates() == (BORN.name,)
        by_name = {c.name: c for c in DEFAULT_CANDIDATES}
        monkeypatch.undo()
        for row in report.rows:
            (m, mp), candidate = row.shape, by_name[row.candidate]
            system = build_constraints(m, max(m, mp), Knowability.NEVER, candidate)
            assert row.report.required == system.required_dof, (row.candidate, m, mp)

    def test_report_carries_the_float_witness(self):
        row = evaluate_candidate(BORN, 3, 2)
        system = full_system(BORN, 3, 3)
        (x,) = row.report.sample_solutions
        assert len(x) == system.n_vars
        assert np.max(np.abs(evaluate(system, np.array(x))[0])) < 1e-15

    def test_one_start_no_longer_misses_a_feasible_row(self):
        # the search's one start at seed 4 finds no solution of this row
        assert not estimate_dof(full_system(REAL_QUADRATIC, 3, 3), samples=1, seed=4).feasible
        report = evaluate_candidate(REAL_QUADRATIC, 3, 3, samples=1, seed=4).report
        assert report.feasible
        assert report.dof == {"P": 2, "P'": 3, "total": 5}

    def test_report_ignores_samples_and_seed(self):
        shapes = ([2, 3, 4, 3, 2], [2, 3, 4, 2, 4])
        first = uniqueness_report(*shapes, samples=60, seed=0)
        for samples, seed in ((1, 4), (1, 14), (1000, 7)):
            assert uniqueness_report(*shapes, samples=samples, seed=seed) == first


def test_benchmark_plans_the_uniqueness_table(monkeypatch, tmp_path):
    """The uniqueness-table workload's set-up builds each row's system and
    runs one study, so it fails if a name it calls leaves this module."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads
    table = workloads.UniquenessTable()
    table.setup(1, tmp_path)
    assert len(table.equations) == len(table.rows) == len(DEFAULT_CANDIDATES) * 3
    assert {(cand.name, (m, mp)) for cand, m, mp, *_ in table.rows} == set(table.reference)
