import numpy as np
import pytest

from epiq.evolution import Knowability
from epiq.uniqueness import (BORN, DEFAULT_CANDIDATES, LM_MAX_ITER, MAX_SOLUTIONS, QUARTIC,
                             REAL_QUADRATIC, SEXTIC, CandidateMap, ConstraintSystem,
                             build_constraints, estimate_dof, evaluate_candidate,
                             property_independence_conditions, uniqueness_report,
                             verify_multiplicativity)


class TestCandidateMap:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            CandidateMap(name="x", kind="cubic")

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError, match="gamma"):
            CandidateMap(name="x", kind="modulus-power", gamma=0)

    def test_bivariate_degree_cap(self):
        with pytest.raises(ValueError, match="degree"):
            CandidateMap(name="x", kind="bivariate", coefficients=((7, 0, 1.0),))

    def test_born_map_values(self):
        assert BORN.apply(np.array([0.6 + 0.8j]))[0] == pytest.approx(1.0)
        assert QUARTIC.apply(np.array([0.6 + 0.8j]))[0] == pytest.approx(1.0)
        assert REAL_QUADRATIC.apply(np.array([0.5 + 0j]))[0] == pytest.approx(0.25)


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
        a = a / np.sum(candidate.apply(a)) ** (1 / (2 * gamma))
        big = big / np.sum(candidate.apply(big), axis=1, keepdims=True) ** (1 / (2 * gamma))
        x = pack(a, big)
        for level, closure_vanishes in ((Knowability.DECIDED, True), (Knowability.NEVER, False)):
            system = build_constraints(3, 3, level, candidate)
            res = dict(zip(system.equations, system.residual(x)))
            assert max(abs(v) for k, v in res.items() if k != "closure") < 1e-12
            assert (abs(res["closure"]) < 1e-12) == closure_vanishes

    def test_residual_vanishes_on_unitary_solution(self):
        system = build_constraints(2, 2, Knowability.NEVER, BORN)
        system = property_independence_conditions(system)
        h = 1 / np.sqrt(2)
        x = np.array([h, h, 0, 0,  # a real parts, imaginary parts
                      h, h, h, -h, 0, 0, 0, 0])
        assert np.max(np.abs(system.residual(x))) < 1e-12

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


BIVARIATE = CandidateMap(name="g", kind="bivariate",
                         coefficients=((2, 0, 1.0), (1, 1, 0.5), (0, 3, 2.0)))


def leveled_system(candidate, m, mp, level):
    """Level 1 with the independence rows, level 3 without them; a bivariate
    candidate has no independence rows."""
    system = build_constraints(m, mp, level, candidate)
    if level is Knowability.NEVER and candidate.kind != "bivariate":
        system = property_independence_conditions(system)
    return system


def central_difference(system, x, h=1e-6):
    ref = np.empty((len(system.equations), system.n_vars))
    for i in range(system.n_vars):
        step = np.zeros(system.n_vars)
        step[i] = h
        ref[:, i] = (system.residual(x + step) - system.residual(x - step)) / (2 * h)
    return ref


LEVELS = [Knowability.NEVER, Knowability.DECIDED]


def jacobian_case(candidate, level, m, mp):
    """Case id m-mp-gamma, the kind for other candidates, "-decided" at level 3."""
    tag = str(candidate.gamma) if candidate.kind == "modulus-power" else candidate.kind
    suffix = "-decided" if level is Knowability.DECIDED else ""
    return pytest.param(candidate, level, m, mp, id=f"{m}-{mp}-{tag}{suffix}")


class TestArrayResidual:
    @pytest.mark.parametrize("candidate, level, m, mp", [
        jacobian_case(candidate, level, m, mp)
        for level in LEVELS for candidate in DEFAULT_CANDIDATES + (BIVARIATE,)
        for m, mp in SHAPES + [(4, 4)]])
    def test_jacobian_is_columnwise_central_difference(self, candidate, level, m, mp):
        system = leveled_system(candidate, m, mp, level)
        seed = m * mp
        x = np.random.default_rng(seed).normal(scale=0.7, size=system.n_vars)
        ref = central_difference(system, x)
        assert np.allclose(system.jacobian(x), ref, rtol=0, atol=1e-9 * np.max(np.abs(ref)))

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
        _, big = system.unpack(x)
        assert big[1, 1] == 0
        jac = system.jacobian(x)
        assert np.all(np.isfinite(jac))
        ref = central_difference(system, x)
        assert np.allclose(jac, ref, rtol=0, atol=1e-9 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("candidate", DEFAULT_CANDIDATES, ids=lambda c: c.name)
    @pytest.mark.parametrize("m, mp", SHAPES)
    def test_batched_jacobian_stacks_single_calls(self, candidate, m, mp):
        system = full_system(candidate, m, mp)
        xs = np.random.default_rng(0).normal(size=(2, 3, system.n_vars))
        batched = system.jacobian(xs)
        assert batched.shape == (2, 3, len(system.equations), system.n_vars)
        singles = np.array([[system.jacobian(x) for x in row] for row in xs])
        assert np.allclose(batched, singles, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("gamma", [1, 2, 3])
    @pytest.mark.parametrize("m, mp", SHAPES)
    def test_independence_rows_match_their_labels(self, gamma, m, mp):
        system = full_system(CandidateMap(name="g", kind="modulus-power", gamma=gamma), m, mp)
        x = np.random.default_rng(gamma).normal(scale=0.7, size=system.n_vars)
        _, big = system.unpack(x)
        rows = dict(zip(system.equations, system.residual(x)))
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

    @pytest.mark.parametrize("candidate", DEFAULT_CANDIDATES)
    @pytest.mark.parametrize("m, mp", SHAPES)
    def test_batched_residual_stacks_single_calls(self, candidate, m, mp):
        system = full_system(candidate, m, mp)
        xs = np.random.default_rng(0).normal(size=(2, 3, system.n_vars))
        batched = system.residual(xs)
        assert batched.shape == (2, 3, len(system.equations))
        singles = np.array([[system.residual(x) for x in row] for row in xs])
        assert np.allclose(batched, singles, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("candidate, level, m, mp", [
        jacobian_case(candidate, level, m, mp)
        for level in LEVELS for candidate in DEFAULT_CANDIDATES + (BIVARIATE,)
        for m, mp in SHAPES])
    def test_fused_evaluation_matches_its_wrappers(self, candidate, level, m, mp):
        system = leveled_system(candidate, m, mp, level)
        xs = np.random.default_rng(m + mp).normal(scale=0.7, size=(2, 3, system.n_vars))
        r, jac = system.evaluate(xs)
        r_only, no_jac = system.evaluate(xs, jacobian=False)
        assert no_jac is None
        assert r.tobytes() == r_only.tobytes() == system.residual(xs).tobytes()
        assert jac.tobytes() == system.jacobian(xs).tobytes()
        assert jac.shape == (2, 3, len(system.equations), system.n_vars)
        f_rows = len(build_constraints(m, mp, level, candidate).equations)
        assert np.all(jac[..., f_rows:, :system.n_p_vars] == 0)  # independence rows hold no a_j

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_born_rows_vanish_on_random_unitary(self, m):
        rng = np.random.default_rng(m)
        a = rng.normal(size=m) + 1j * rng.normal(size=m)
        big, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        residual = full_system(BORN, m, m).residual(pack(a / np.linalg.norm(a), big))
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

    def test_bivariate_unsupported(self):
        cand = CandidateMap(name="g", kind="bivariate", coefficients=((2, 0, 1.0),))
        base = build_constraints(2, 2, Knowability.NEVER, cand)
        with pytest.raises(ValueError, match="modulus-power"):
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
            _, big = system.unpack(x)
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
        calls = {"evaluate": 0, "residual": 0, "jacobian": 0}

        def spy(name):
            original = getattr(ConstraintSystem, name)

            def counted(self, *args, **kwargs):
                calls[name] += 1
                return original(self, *args, **kwargs)
            monkeypatch.setattr(ConstraintSystem, name, counted)

        for name in calls:
            spy(name)
        estimate_dof(full_system(QUARTIC, 2, 2), samples=8)
        assert calls["residual"] == calls["jacobian"] == 0
        assert 1 <= calls["evaluate"] <= LM_MAX_ITER + 1

    @pytest.mark.parametrize("candidate", [BORN, REAL_QUADRATIC], ids=lambda c: c.name)
    def test_keeps_at_most_max_solutions(self, candidate):
        report = dof_for(candidate, samples=3 * MAX_SOLUTIONS)
        assert len(report.sample_solutions) == MAX_SOLUTIONS


class TestMultiplicativity:
    def test_modulus_powers_multiplicative(self):
        for cand in (BORN, QUARTIC, SEXTIC):
            assert verify_multiplicativity(cand).max_deviation < 1e-12

    def test_polynomial_fails_with_witness(self):
        cand = CandidateMap(name="x^2+y^4", kind="bivariate",
                            coefficients=((2, 0, 1.0), (0, 4, 1.0)))
        report = verify_multiplicativity(cand)
        assert not report.multiplicative
        assert report.witness is not None
        a, b = report.witness
        f = lambda z: cand.apply(np.array([z]))[0]
        assert abs(f(a * b) - f(a) * f(b)) == pytest.approx(report.max_deviation)


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

    def test_table_rows_cover_grid(self):
        report = uniqueness_report([2], [2], candidates=(BORN,), samples=30, seed=0)
        assert len(report.rows) == 1
        candidate, shape, summary = report.table()[0]
        assert candidate == "|a|^2" and shape == "2x2" and summary.startswith("pass")
