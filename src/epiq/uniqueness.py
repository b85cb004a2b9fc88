"""Born-rule uniqueness as numerical feasibility and freedom checks.

A candidate probability map f turns amplitudes into relative volumes.  For a
never-knowable property P observed before a decided property P', the map must
satisfy the normalization system (initial amplitudes, each amplitude-matrix
row, and the closure row obtained by composing the two stages) together with
the property-independence rows that let the P-stage and P'-stage of the setup
be tuned separately.  A candidate is acceptable when that system is feasible
and its solution manifold leaves at least the experimental-freedom minimum of
free real parameters: M-1 for the P block, M(M'-1) for the P' block, MM'-1 in
total.

The system is one array residual over (..., n_vars) parameter vectors, so
the central-difference Jacobian is a single batched pair of residual calls.
Feasibility is probed by randomized least-squares descent on that residual and
Jacobian; the local manifold dimension is variables minus the numerical rank
of the Jacobian at the solutions found, and each block's freedom is the rank
of that block's rows against that block's variables, sliced from the same
matrix.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .evolution import Knowability

RESIDUAL_TOL = 1e-10
RANK_TOL = 1e-8
# Central-difference step of the constraint Jacobian.
JACOBIAN_STEP = 1e-6
# A solution matrix with an (almost) vanishing entry makes some value
# transition deterministic and would leak the never-knowable value, so the
# feasibility search only accepts solutions clear of that boundary.
DEGENERACY_FLOOR = 1e-3
# Accepted solutions that the DoF vote uses; the search stops at this many.
MAX_SOLUTIONS = 10

MAX_BIVARIATE_DEGREE = 6


@dataclass(frozen=True)
class CandidateMap:
    """A map from amplitudes to relative volumes.

    kind "real": real amplitudes with f(a) = a**2, the minimal power map on
    the reals compatible with f(a) != a.
    kind "modulus-power": complex amplitudes with f(a) = |a|**(2*gamma).
    kind "bivariate": complex a = x + i*y with f(a) = sum of d_mn x^m y^n;
    coefficients are (m, n, d_mn) triples, total degree at most 6.
    """

    name: str
    kind: str
    gamma: int = 1
    coefficients: tuple = ()

    def __post_init__(self):
        if self.kind not in ("real", "modulus-power", "bivariate"):
            raise ValueError(f"unknown candidate kind {self.kind!r}")
        if self.kind == "modulus-power" and self.gamma < 1:
            raise ValueError("modulus-power exponent gamma must be a positive integer")
        if self.kind == "bivariate":
            coeffs = tuple((int(m), int(n), float(d)) for m, n, d in self.coefficients)
            object.__setattr__(self, "coefficients", coeffs)
            if not coeffs:
                raise ValueError("bivariate candidate needs coefficients")
            if any(m + n > MAX_BIVARIATE_DEGREE or m < 0 or n < 0 for m, n, _ in coeffs):
                raise ValueError(f"bivariate total degree is capped at {MAX_BIVARIATE_DEGREE}")

    @property
    def real_only(self) -> bool:
        return self.kind == "real"

    def apply(self, z):
        """Evaluate f elementwise on an array of amplitudes."""
        z = np.asarray(z)
        if self.kind == "real":
            return np.real(z) ** 2
        if self.kind == "modulus-power":
            return (np.real(z) ** 2 + np.imag(z) ** 2) ** self.gamma
        x, y = np.real(z), np.imag(z)
        out = np.zeros_like(x, dtype=float)
        for m, n, d in self.coefficients:
            out = out + d * x ** m * y ** n
        return out


REAL_QUADRATIC = CandidateMap(name="real", kind="real")
BORN = CandidateMap(name="|a|^2", kind="modulus-power", gamma=1)
QUARTIC = CandidateMap(name="|a|^4", kind="modulus-power", gamma=2)
SEXTIC = CandidateMap(name="|a|^6", kind="modulus-power", gamma=3)

DEFAULT_CANDIDATES = (REAL_QUADRATIC, BORN, QUARTIC, SEXTIC)


@dataclass(frozen=True)
class ConstraintSystem:
    """Polynomial equality system over the real parameters of (a_j, a_jj').

    ``equations`` labels the rows and ``blocks`` names each row's block ("P"
    or "P'"); ``alpha`` and ``beta`` hold the exponent pairs of the
    independence rows, empty until property_independence_conditions adds them.
    """

    m: int
    mp: int
    level: Knowability
    candidate: CandidateMap
    equations: tuple
    blocks: tuple
    alpha: tuple = ()
    beta: tuple = ()

    @property
    def reals_per_amplitude(self) -> int:
        return 1 if self.candidate.real_only else 2

    @property
    def n_p_vars(self) -> int:
        return self.m * self.reals_per_amplitude

    @property
    def n_pp_vars(self) -> int:
        return self.m * self.mp * self.reals_per_amplitude

    @property
    def n_vars(self) -> int:
        return self.n_p_vars + self.n_pp_vars

    @property
    def required_dof(self) -> dict:
        return {"P": self.m - 1,
                "P'": self.m * (self.mp - 1),
                "total": self.m * self.mp - 1}

    def unpack(self, x: np.ndarray):
        """Split real parameter vectors (..., n_vars) into (a, A)."""
        x = np.asarray(x, dtype=float)
        lead, m, mp = x.shape[:-1], self.m, self.mp
        if self.candidate.real_only:
            return x[..., :m] + 0j, x[..., m:].reshape(*lead, m, mp) + 0j
        a = x[..., :m] + 1j * x[..., m:2 * m]
        rest = x[..., 2 * m:]
        half = m * mp
        return a, (rest[..., :half] + 1j * rest[..., half:]).reshape(*lead, m, mp)

    def residual(self, x: np.ndarray) -> np.ndarray:
        """Every row at x, batched over leading axes: (..., n_vars) -> (..., rows)."""
        a, big = self.unpack(x)
        f = self.candidate.apply
        fa, fbig = f(a), f(big)
        if self.level is Knowability.DECIDED:
            closure = np.sum(fa[..., :, None] * fbig, axis=(-2, -1))
        else:
            closure = np.sum(f(np.einsum("...j,...jk->...k", a, big)), axis=-1)
        rows = [np.sum(fa, axis=-1, keepdims=True) - 1.0,
                np.sum(fbig, axis=-1) - 1.0,
                closure[..., None] - 1.0]
        if self.alpha:
            # sum_k prod_j A_jk^alpha_j conj(A_jk)^beta_j, one term per pair
            alpha = np.array(self.alpha)[:, :, None]
            beta = np.array(self.beta)[:, :, None]
            big = big[..., None, :, :]
            terms = np.sum(np.prod(big ** alpha * np.conj(big) ** beta, axis=-2), axis=-1)
            if self.candidate.real_only:
                rows.append(terms.real)
            else:
                rows.append(np.stack([terms.real, terms.imag], axis=-1)
                            .reshape(*terms.shape[:-1], -1))
        return np.concatenate(rows, axis=-1)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Central differences of every row, all columns in one batched call."""
        step = JACOBIAN_STEP * np.eye(self.n_vars)
        x = np.asarray(x, dtype=float)
        return (self.residual(x + step) - self.residual(x - step)).T / (2 * JACOBIAN_STEP)


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


def _multi_indices(gamma: int, m: int):
    """Exponent tuples over m slots summing to gamma, in lexicographic order."""
    return [t for t in itertools.product(range(gamma + 1), repeat=m) if sum(t) == gamma]


def _independence_pairs(gamma: int, m: int):
    """Unordered exponent pairs (alpha, beta) indexing the cross terms that
    the closure row produces; alpha = beta = gamma*e_j is a row norm and is
    excluded."""
    idx = _multi_indices(gamma, m)
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
    cand = system.candidate
    if cand.real_only:
        # closure cross terms 2 a_j a_k * sum_k' a_jk' a_kk'
        combos = list(itertools.combinations(range(system.m), 2))
        unit = np.eye(system.m, dtype=int).tolist()
        pairs = [(tuple(unit[j]), tuple(unit[k])) for j, k in combos]
        labels = tuple(f"orthogonality {j}{k}" for j, k in combos)
    elif cand.kind == "modulus-power":
        pairs = list(_independence_pairs(cand.gamma, system.m))
        tags = ["".join(map(str, al)) + "|" + "".join(map(str, be)) for al, be in pairs]
        labels = tuple(f"independence {part} {tag}" for tag in tags for part in ("re", "im"))
    else:
        raise ValueError(
            "property independence rows are defined for real and modulus-power candidates")
    return replace(system, equations=system.equations + labels,
                   blocks=system.blocks + ("P'",) * len(labels),
                   alpha=tuple(al for al, _ in pairs), beta=tuple(be for _, be in pairs))


@dataclass(frozen=True)
class DofReport:
    feasible: bool
    sample_solutions: tuple
    dof: dict  # block -> estimated manifold dimension
    required: dict
    verdict: bool

    def summary(self) -> str:
        if not self.feasible:
            return "infeasible"
        parts = [f"{k}={self.dof[k]}/{self.required[k]}" for k in ("P", "P'", "total")]
        return ("pass " if self.verdict else "fail ") + " ".join(parts)


def _rank(jac: np.ndarray) -> int:
    if jac.size == 0:
        return 0
    s = np.linalg.svd(jac, compute_uv=False)
    return int(np.sum(s > RANK_TOL))


def _nondegenerate(system: ConstraintSystem, x: np.ndarray) -> bool:
    _, big = system.unpack(x)
    return float(np.min(np.abs(big))) >= DEGENERACY_FLOOR


def estimate_dof(system: ConstraintSystem, samples: int = 60, seed: int = 0) -> DofReport:
    """Search for solutions and measure the freedom they leave.

    Each random start descends the squared residual; a start counts as a
    solution when every residual is below RESIDUAL_TOL and the amplitude
    matrix stays clear of the degeneracy floor.  Per-block freedom is the
    block's variable count minus the rank of the block's constraint rows
    with respect to the block's variables, evaluated at the solutions found.
    """
    if samples < 1:
        raise ValueError("need at least one start")
    from scipy.optimize import least_squares
    rng = np.random.default_rng(seed)
    solutions = []
    for _ in range(samples):
        x0 = rng.normal(scale=0.7, size=system.n_vars)
        result = least_squares(system.residual, x0, jac=system.jacobian,
                               xtol=1e-15, ftol=1e-15, gtol=1e-15)
        x = result.x
        if np.max(np.abs(result.fun)) < RESIDUAL_TOL and _nondegenerate(system, x):
            solutions.append(x)
            if len(solutions) >= MAX_SOLUTIONS:
                break
    if not solutions:
        return DofReport(feasible=False, sample_solutions=(),
                         dof={}, required=system.required_dof, verdict=False)

    n_p = system.n_p_vars
    p_rows = np.array(system.blocks) == "P"
    dof_votes = {"P": [], "P'": [], "total": []}
    for x in solutions:
        jac = system.jacobian(x)
        dof_votes["total"].append(system.n_vars - _rank(jac))
        dof_votes["P"].append(n_p - _rank(jac[p_rows, :n_p]))
        dof_votes["P'"].append(system.n_pp_vars - _rank(jac[~p_rows, n_p:]))
    # the estimate must be stable across solutions; report the typical value
    dof = {k: int(np.median(v)) for k, v in dof_votes.items()}
    req = system.required_dof
    verdict = (dof["P"] >= req["P"] and dof["P'"] >= req["P'"]
               and dof["total"] >= req["total"])
    return DofReport(feasible=True, sample_solutions=tuple(solutions),
                     dof=dof, required=req, verdict=verdict)


@dataclass(frozen=True)
class MultiplicativityReport:
    max_deviation: float
    multiplicative: bool
    witness: Optional[tuple] = None


def verify_multiplicativity(candidate: CandidateMap, trials: int = 1000,
                            seed: int = 0) -> MultiplicativityReport:
    """Check f(ab) = f(a) f(b) on random complex pairs.

    Sequential observation of two never-knowable properties multiplies
    amplitudes, so an acceptable map must be multiplicative; this filters the
    general polynomial candidates without solving their constraint systems.
    """
    rng = np.random.default_rng(seed)
    # amplitudes carry relative volumes, so their modulus never exceeds one
    radius = np.sqrt(rng.uniform(size=(2, trials)))
    phase = np.exp(2j * np.pi * rng.uniform(size=(2, trials)))
    a, b = radius * phase
    if candidate.real_only:
        a, b = np.real(a) + 0j, np.real(b) + 0j
    dev = np.abs(candidate.apply(a * b) - candidate.apply(a) * candidate.apply(b))
    worst = int(np.argmax(dev))
    max_dev = float(dev[worst])
    return MultiplicativityReport(
        max_deviation=max_dev,
        multiplicative=max_dev < 1e-12,
        witness=None if max_dev < 1e-12 else (complex(a[worst]), complex(b[worst])))


@dataclass(frozen=True)
class UniquenessRow:
    candidate: str
    shape: tuple
    padded_shape: Optional[tuple]
    multiplicative: bool
    report: DofReport

    @property
    def verdict(self) -> bool:
        return self.report.verdict


@dataclass(frozen=True)
class UniquenessReport:
    rows: tuple

    def passing_candidates(self) -> tuple:
        names = sorted({r.candidate for r in self.rows})
        return tuple(n for n in names
                     if all(r.verdict for r in self.rows if r.candidate == n))

    def table(self) -> list:
        out = []
        for r in self.rows:
            shape = f"{r.shape[0]}x{r.shape[1]}"
            if r.padded_shape:
                shape += f" (padded to {r.padded_shape[0]}x{r.padded_shape[1]})"
            out.append((r.candidate, shape, r.report.summary()))
        return out


def evaluate_candidate(candidate: CandidateMap, m: int, mp: int,
                       samples: int = 60, seed: int = 0) -> UniquenessRow:
    """Full pipeline for one candidate and one context shape."""
    # Virtual-value padding (context.pad_virtual_values) widens P' to m.
    padded = (m, m) if m > mp else None
    system = build_constraints(m, max(m, mp), Knowability.NEVER, candidate)
    system = property_independence_conditions(system)
    report = estimate_dof(system, samples=samples, seed=seed)
    mult = verify_multiplicativity(candidate, seed=seed).multiplicative
    return UniquenessRow(candidate=candidate.name, shape=(m, mp),
                         padded_shape=padded, multiplicative=mult, report=report)


def uniqueness_report(mlist: Sequence[int], mplist: Sequence[int],
                      candidates: Sequence[CandidateMap] = DEFAULT_CANDIDATES,
                      samples: int = 60, seed: int = 0) -> UniquenessReport:
    """Candidate-by-shape verdict table; only |a|^2 is expected to pass."""
    rows = []
    for candidate in candidates:
        for m, mp in zip(mlist, mplist):
            rows.append(evaluate_candidate(candidate, m, mp, samples=samples, seed=seed))
    return UniquenessReport(rows=tuple(rows))
