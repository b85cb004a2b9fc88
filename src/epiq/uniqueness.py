"""Born-rule uniqueness as feasibility and freedom checks, decided in closed form.

A candidate probability map f turns amplitudes into relative volumes; it is
either a**2 on real amplitudes or |a|**(2*gamma) on complex ones.  For a
never-knowable property P observed before a decided property P', the map must
satisfy the normalization system (initial amplitudes, each amplitude-matrix
row, and the closure row obtained by composing the two stages) together with
the property-independence rows that let the P-stage and P'-stage of the setup
be tuned separately.  A candidate is acceptable when that system is feasible
and its solution manifold leaves at least the experimental-freedom minimum of
free real parameters: M-1 for P, M(n-1) for P', Mn-1 in total, where n =
max(M, M') since a wide shape is padded to M x M.

No search and no constraint system decides a row: it reads only M, n, the
candidate's kind and gamma.  For real and |a|^2 the system says exactly that
a is a unit vector and that the rows of A are orthonormal (row norms and
orthogonality rows), and the closure row then holds by itself, since
sum_k f((aA)_k) = |aA|^2 = |a|^2.  So the solution set is a sphere times a
Stiefel manifold, and each block's freedom is that factor's dimension
(_manifold_dof); one rational point clear of the degeneracy floor (_witness)
shows that the set meets the region the study accepts.  Every |a|^(2 gamma)
with gamma >= 2 is infeasible by a bound on the degeneracy floor
(_proved_infeasible).  The float search these verdicts replace is the tests'
oracle; it and the benchmark build the rows with build_constraints.
"""
from __future__ import annotations

import itertools
from collections.abc import Sequence

from . import Knowability, Record, _set

# The largest residual a point may leave and still count as a solution.
RESIDUAL_TOL = 1e-10
# A solution matrix with an (almost) vanishing entry makes some value
# transition deterministic and would leak the never-knowable value, so only
# solutions clear of that boundary count.  For |a|^(2 gamma), gamma >= 2,
# this floor alone proves the verdict: every point within RESIDUAL_TOL has an
# entry far below it (_proved_infeasible).
DEGENERACY_FLOOR = 1e-3


class CandidateMap(Record):
    """A map from amplitudes to relative volumes, of one of two kinds.

    kind "real": real amplitudes with f(a) = a**2, the minimal power map on
    the reals compatible with f(a) != a.
    kind "modulus-power": complex amplitudes with f(a) = |a|**(2*gamma).
    """

    __slots__ = ("name", "kind", "gamma")

    def __init__(self, name: str, kind: str, gamma: int = 1):
        if kind not in ("real", "modulus-power"):
            raise ValueError(f"unknown candidate kind {kind!r}")
        if kind == "modulus-power" and not (type(gamma) is int and gamma >= 1):
            raise ValueError("modulus-power exponent gamma must be a positive integer")
        if kind == "real" and not (type(gamma) is int and gamma == 1):
            raise ValueError("real candidate takes no exponent: gamma must be 1")
        _set(self, "name", name)
        _set(self, "kind", kind)
        _set(self, "gamma", gamma)

    @property
    def real_only(self) -> bool:
        return self.kind == "real"


REAL_QUADRATIC = CandidateMap(name="real", kind="real")
BORN = CandidateMap(name="|a|^2", kind="modulus-power", gamma=1)
QUARTIC = CandidateMap(name="|a|^4", kind="modulus-power", gamma=2)
SEXTIC = CandidateMap(name="|a|^6", kind="modulus-power", gamma=3)

DEFAULT_CANDIDATES = (REAL_QUADRATIC, BORN, QUARTIC, SEXTIC)


class ConstraintSystem(Record):
    """Polynomial equality system over the real parameters of (a_j, a_jj').

    ``equations`` labels the rows and ``blocks`` names each row's block ("P"
    or "P'"); ``alpha`` and ``beta`` hold the exponent pairs of the
    independence rows, empty until property_independence_conditions adds them.
    A point's parameters are Re a then Re A row by row for a real candidate,
    else Re a, Im a, Re A, Im A.
    """

    __slots__ = ("m", "mp", "level", "candidate", "equations", "blocks", "alpha", "beta")

    def __init__(self, m: int, mp: int, level: Knowability, candidate: CandidateMap,
                 equations: tuple, blocks: tuple, alpha: tuple = (), beta: tuple = ()):
        _set(self, "m", m)
        _set(self, "mp", mp)
        _set(self, "level", level)
        _set(self, "candidate", candidate)
        _set(self, "equations", equations)
        _set(self, "blocks", blocks)
        _set(self, "alpha", alpha)
        _set(self, "beta", beta)

    @property
    def n_p_vars(self) -> int:
        return self.m * (1 if self.candidate.real_only else 2)

    @property
    def n_pp_vars(self) -> int:
        return self.n_p_vars * self.mp

    @property
    def n_vars(self) -> int:
        return self.n_p_vars + self.n_pp_vars

    @property
    def required_dof(self) -> dict:
        return _required_dof(self.m, self.mp)


def _required_dof(m: int, n: int) -> dict:
    return {"P": m - 1, "P'": m * (n - 1), "total": m * n - 1}


def build_constraints(m: int, mp: int, level_of_p: Knowability,
                      candidate: CandidateMap) -> ConstraintSystem:
    """Normalization rows plus the closure row of the two-stage composition.

    With P decided (level 3) the closure row sums f(a_j) f(a_jk), which the
    normalization rows already force to 1; with P never knowable (level 1) it
    sums f((aA)_k), an independent restriction on the candidate map.
    """
    if m < 2 or mp < 2:
        raise ValueError("both properties need at least two values")
    labels = ("initial norm",) + tuple(f"row norm {j}" for j in range(m)) + ("closure",)
    return ConstraintSystem(m=m, mp=mp, level=Knowability(level_of_p), candidate=candidate,
                            equations=labels, blocks=("P",) + ("P'",) * m + ("P",))


def _independence_pairs(gamma: int, m: int):
    """Unordered exponent pairs (alpha, beta) indexing the cross terms that
    the closure row produces, from the exponent tuples over m slots summing
    to gamma in lexicographic order; alpha = beta = gamma*e_j is a row norm
    and is excluded."""
    idx = [t for t in itertools.product(range(gamma + 1), repeat=m) if sum(t) == gamma]
    for i, alpha in enumerate(idx):
        for beta in idx[i:]:
            if alpha == beta and max(alpha) == gamma:
                continue
            yield alpha, beta


def property_independence_conditions(system: ConstraintSystem) -> ConstraintSystem:
    """Augment the system with the rows that decouple the P' stage.

    These make the closure row hold however the initial amplitudes are tuned:
    the cross terms the closure expansion produces must vanish separately.
    For f = |a|^2 they are the pairwise row orthogonality relations; higher
    powers generate one complex row per pair of exponent patterns of weight
    gamma.
    """
    if system.level is not Knowability.NEVER:
        raise ValueError("property independence rows apply when P is never knowable")
    cand, m = system.candidate, system.m
    if cand.real_only:
        # closure cross terms 2 a_j a_k * sum_k' a_jk' a_kk'
        combos = list(itertools.combinations(range(m), 2))
        unit = [tuple(int(i == j) for i in range(m)) for j in range(m)]
        pairs = [(unit[j], unit[k]) for j, k in combos]
        labels = tuple(f"orthogonality {j}{k}" for j, k in combos)
    else:
        pairs = list(_independence_pairs(cand.gamma, m))
        tags = ["".join(map(str, al)) + "|" + "".join(map(str, be)) for al, be in pairs]
        labels = tuple(f"independence {part} {tag}" for tag in tags for part in ("re", "im"))
    return ConstraintSystem(m, system.mp, system.level, cand, system.equations + labels,
                            system.blocks + ("P'",) * len(labels),
                            alpha=tuple(al for al, _ in pairs), beta=tuple(be for _, be in pairs))


class DofReport(Record):
    __slots__ = ("feasible", "sample_solutions", "dof", "required", "verdict")

    def __init__(self, feasible: bool, sample_solutions: tuple, dof: dict, required: dict,
                 verdict: bool):
        _set(self, "feasible", feasible)
        _set(self, "sample_solutions", sample_solutions)
        _set(self, "dof", dof)  # block -> manifold dimension
        _set(self, "required", required)
        _set(self, "verdict", verdict)


class UniquenessRow(Record):
    __slots__ = ("candidate", "shape", "padded_shape", "report")

    def __init__(self, candidate: str, shape: tuple, padded_shape: tuple | None,
                 report: DofReport):
        _set(self, "candidate", candidate)
        _set(self, "shape", shape)
        _set(self, "padded_shape", padded_shape)
        _set(self, "report", report)

    @property
    def verdict(self) -> bool:
        return self.report.verdict


class UniquenessReport(Record):
    __slots__ = ("rows",)

    def __init__(self, rows: tuple):
        _set(self, "rows", rows)

    def passing_candidates(self) -> tuple:
        names = sorted({r.candidate for r in self.rows})
        return tuple(n for n in names
                     if all(r.verdict for r in self.rows if r.candidate == n))


def _manifold_dof(m: int, n: int, real_only: bool) -> dict:
    """Per-block dimension of the solution set of the real or |a|^2 system:
    the unit sphere of a in R^m or C^m (P), times the Stiefel manifold of m
    orthonormal rows in R^n or C^n (P')."""
    if real_only:
        p, pp = m - 1, m * n - m * (m + 1) // 2
    else:
        p, pp = 2 * m - 1, 2 * m * n - m * m
    return {"P": p, "P'": pp, "total": p + pp}


def _witness(m: int, n: int, real_only: bool, number=float) -> tuple:
    """One solution of the real or |a|^2 system, in the parameter layout.

    a = e_1 and A is the first m rows of an orthogonal matrix with rational
    entries: the Householder reflection I - (2/n) 11^T for n >= 3, the
    reflection [[3/5, 4/5], [4/5, -3/5]] for n = 2.  Every |A_jk| is then at
    least 1/4 for n <= 8, clear of DEGENERACY_FLOOR.  ``number`` builds the
    entries (``fractions.Fraction`` for an exact point), each distinct one once.
    """
    if n == 2:
        three, four = number(3) / 5, number(4) / 5
        big = (three, four, four, -three)
    else:
        # row j holds 1 - 2/n at column j, so `on` recurs every n + 1 entries
        on, off = 1 - number(2) / n, number(-2) / n
        big = (((on,) + (off,) * n) * m)[:m * n]
    a = (number(1),) + (number(0),) * (m - 1)
    if real_only:
        return a + big
    return a + (number(0),) * m + big + (number(0),) * (m * n)


def _proved_infeasible(candidate: CandidateMap, mp: int) -> bool:
    """Whether no point of |a|^(2 gamma), gamma >= 2, at width mp is a
    solution clear of the floor.  With alpha = (gamma-1) e_j + e_l, j != l,
    the independence row (alpha, alpha) is sum_k |A_jk|^(2(gamma-1)) |A_lk|^2,
    a sum of non-negative terms.  If every residual is below t = RESIDUAL_TOL,
    row norm j has some |A_jk|^(2 gamma) > (1-t)/mp, so that row's k-th term
    gives |A_lk|^2 < t (mp/(1-t))^((gamma-1)/gamma); below DEGENERACY_FLOOR^2,
    A_lk fails the floor."""
    t, g = RESIDUAL_TOL, candidate.gamma
    return t * (mp / (1 - t)) ** ((g - 1) / g) < DEGENERACY_FLOOR ** 2


def evaluate_candidate(candidate: CandidateMap, m: int, mp: int,
                       samples: int = 60, seed: int = 0) -> UniquenessRow:
    """Decide one candidate at one shape from M = m, n = max(m, mp), its kind
    and gamma alone, building no constraint system.

    ``samples`` and ``seed`` configured the search that used to decide the
    row; they are still accepted (samples a positive int) and change nothing.
    """
    if not (type(m) is int and type(mp) is int and m >= 2 and mp >= 2):
        raise ValueError("both properties need at least two values")
    if not (type(samples) is int and samples >= 1):
        raise ValueError("need at least one start")
    n = max(m, mp)
    req = _required_dof(m, n)
    real = candidate.real_only
    if real or candidate.gamma == 1:
        dof = _manifold_dof(m, n, real)
        report = DofReport(feasible=True, sample_solutions=(_witness(m, n, real),), dof=dof,
                           required=req, verdict=all(dof[k] >= req[k] for k in req))
    elif _proved_infeasible(candidate, n):
        report = DofReport(feasible=False, sample_solutions=(), dof={}, required=req,
                           verdict=False)
    else:
        raise ValueError(f"no proof decides {candidate.name} at width {n}")
    return UniquenessRow(candidate=candidate.name, shape=(m, mp),
                         padded_shape=(m, m) if m > mp else None, report=report)


def uniqueness_report(mlist: Sequence[int], mplist: Sequence[int],
                      candidates: Sequence[CandidateMap] = DEFAULT_CANDIDATES,
                      samples: int = 60, seed: int = 0) -> UniquenessReport:
    """Candidate-by-shape verdict table; only |a|^2 is expected to pass."""
    rows = []
    for candidate in candidates:
        for m, mp in zip(mlist, mplist, strict=True):
            rows.append(evaluate_candidate(candidate, m, mp, samples=samples, seed=seed))
    return UniquenessReport(rows=tuple(rows))
