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

The system is one array residual over (..., n_vars) parameter vectors, and
its Jacobian is analytic and batched the same way: each row is differentiated
with respect to the amplitudes and their conjugates (Wirtinger derivatives).
One fused evaluation returns both, sharing the amplitude powers.  Feasibility
is probed from random starts that one Levenberg-Marquardt loop drives down
together, with one evaluation per iteration; the local manifold dimension is
variables minus the numerical rank of the Jacobian at the solutions found,
and each block's freedom is the rank of that block's rows against that
block's variables, sliced from the same matrix.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import Knowability

RESIDUAL_TOL = 1e-10
RANK_TOL = 1e-8
# A solution matrix with an (almost) vanishing entry makes some value
# transition deterministic and would leak the never-knowable value, so the
# feasibility search only accepts solutions clear of that boundary.
DEGENERACY_FLOOR = 1e-3
# Accepted solutions that the DoF vote uses, the first ones in start order.
MAX_SOLUTIONS = 10
# Levenberg-Marquardt: initial damping; a start stops when its largest
# residual falls below LM_RESIDUAL_STOP, when its cost has not halved in
# LM_STALL_ITER iterations, or after LM_MAX_ITER iterations.
LM_DAMPING_START = 1e-3
LM_RESIDUAL_STOP = 1e-14
LM_STALL_ITER = 20
LM_MAX_ITER = 200

MAX_BIVARIATE_DEGREE = 6
MULTIPLICATIVITY_TRIALS = 1000  # random pairs per check, drawn from a fixed seed


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

    def wirtinger(self, z):
        """df/dz elementwise; f is real, so df/dconj(z) is its conjugate."""
        z = np.asarray(z)
        if self.kind == "real":
            return np.real(z)
        if self.kind == "modulus-power":
            return self.gamma * (np.real(z) ** 2 + np.imag(z) ** 2) ** (self.gamma - 1) * np.conj(z)
        # df/dz = (df/dx - i df/dy) / 2, skipping terms whose power drops below 0
        x, y = np.real(z), np.imag(z)
        out = np.zeros_like(z, dtype=complex)
        for m, n, d in self.coefficients:
            if m:
                out = out + 0.5 * d * m * x ** (m - 1) * y ** n
            if n:
                out = out - 0.5j * d * n * x ** m * y ** (n - 1)
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

    @cached_property
    def _layout(self):
        """Index arrays built once per system.  An f row's Jacobian column c
        is entry perm[c] of its d over (a, A) seen as float pairs, times
        sign[c]; norm places d/dA_jk in row norm j; others[j] lists the rows
        other than j; then the independence exponents, also lowered by one
        (a zero exponent's term has coefficient 0 either way)."""
        m, n = self.m, self.m * self.mp
        groups = (np.arange(m), m + np.arange(n))
        parts = ((0, 2.0),) if self.candidate.real_only else ((0, 2.0), (1, -2.0))
        perm = np.concatenate([2 * g + part for g in groups for part, _ in parts])
        sign = np.concatenate([np.full(g.size, s) for g in groups for _, s in parts])
        norm = (np.arange(1, m + 1)[:, None], groups[1].reshape(m, self.mp))
        others = np.array([[i for i in range(m) if i != j] for j in range(m)])
        alpha, beta = np.array(self.alpha, dtype=int), np.array(self.beta, dtype=int)
        return (perm, sign, norm, others, alpha, beta,
                np.maximum(alpha - 1, 0), np.maximum(beta - 1, 0))

    def evaluate(self, x: np.ndarray, jacobian: bool = True):
        """Every row at x and its analytic derivative, batched over leading
        axes: (..., n_vars) -> (..., rows), and (..., rows, n_vars) or None
        when jacobian is False.  Rows are differentiated with respect to a_j,
        A_jk and their conjugates (Wirtinger d and dbar): a real part's column
        is d + dbar, an imaginary part's i(d - dbar), so 2 Re d and -2 Im d
        for the real f rows, whose dbar is conj(d)."""
        a, big = self.unpack(x)
        lead, m, real = a.shape[:-1], self.m, self.candidate.real_only
        f, df = self.candidate.apply, self.candidate.wirtinger
        fa, fbig = f(a), f(big)
        if self.level is Knowability.DECIDED:
            closure = np.sum(fa[..., :, None] * fbig, axis=(-2, -1))
        else:
            w = np.einsum("...j,...jk->...k", a, big)
            closure = np.sum(f(w), axis=-1)
        r = np.empty(lead + (len(self.equations),))
        r[..., 0] = np.sum(fa, axis=-1) - 1.0
        r[..., 1:m + 1] = np.sum(fbig, axis=-1) - 1.0
        r[..., m + 1] = closure - 1.0
        perm, sign, norm, others, alpha, beta, alpha_lo, beta_lo = self._layout
        if self.alpha:
            # sum_k prod_j A_jk^alpha_j conj(A_jk)^beta_j, one term per pair,
            # gathered from the tables of A^n and conj(A)^n (n on axis -3)
            pw = [np.ones_like(big)]
            for _ in range(max(alpha.max(), beta.max())):
                pw.append(pw[-1] * big)
            pw = np.stack(pw, axis=-3)
            cpw, jj = np.conj(pw), np.arange(m)
            pw_alpha, cpw_beta = pw[..., alpha, jj, :], cpw[..., beta, jj, :]
            factors = pw_alpha * cpw_beta
            terms = np.sum(np.prod(factors, axis=-2), axis=-1)
            # the real part alone for a real candidate, else real and
            # imaginary parts interleaved
            r[..., m + 2:] = terms.real if real else np.ascontiguousarray(terms).view(float)
        if not jacobian:
            return r, None

        # d of the f rows over (a, A)
        d_f = np.zeros(lead + (m + 2, m + norm[1].size), dtype=complex)
        dfa, dfbig = df(a), df(big)
        d_f[..., 0, :m] = dfa
        d_f[..., norm[0], norm[1]] = dfbig
        if self.level is Knowability.DECIDED:
            d_f[..., -1, :m] = dfa * np.sum(fbig, axis=-1)
            d_f[..., -1, norm[1]] = fa[..., :, None] * dfbig
        else:
            dw = df(w)
            d_f[..., -1, :m] = np.einsum("...jk,...k->...j", big, dw)
            d_f[..., -1, norm[1]] = a[..., :, None] * dw[..., None, :]
        jac = np.zeros(r.shape + (self.n_vars,))
        jac[..., :m + 2, :] = d_f.view(float)[..., perm] * sign
        if self.alpha:
            # product of the other rows' factors, without dividing by A_jk
            rest = np.prod(factors[..., others, :], axis=-2)
            d = alpha[:, :, None] * pw[..., alpha_lo, jj, :] * cpw_beta * rest
            dbar = beta[:, :, None] * pw_alpha * cpw[..., beta_lo, jj, :] * rest
            # columns of Re A then Im A; the a columns stay 0
            cols = np.stack([d + dbar, 1j * (d - dbar)], axis=-3).reshape(lead + (len(alpha), -1))
            if real:
                jac[..., m + 2:, m:] = cols[..., :norm[1].size].real
            else:
                jac[..., m + 2::2, 2 * m:], jac[..., m + 3::2, 2 * m:] = cols.real, cols.imag
        return r, jac

    def residual(self, x: np.ndarray) -> np.ndarray:
        """Every row at x: (..., n_vars) -> (..., rows)."""
        return self.evaluate(x, jacobian=False)[0]

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Analytic derivative of every row: (..., n_vars) -> (..., rows, n_vars)."""
        return self.evaluate(x)[1]


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


def _ranks(jac: np.ndarray) -> np.ndarray:
    """Numerical rank of each matrix in a (k, rows, cols) stack."""
    s = np.linalg.svd(jac, compute_uv=False)
    return np.sum(s > RANK_TOL, axis=-1)


def _levenberg_marquardt(system: ConstraintSystem, x: np.ndarray):
    """Minimize the squared residual from every start (rows of x) at once.

    Each iteration solves the damped normal equations (J^T J + lam D^2) step
    = -J^T r of every active start in one batched call, with More's scaling D
    (running maximum of the column norms of J) and Nielsen's damping update.
    The residual and Jacobian at the trial points come from one fused
    evaluation; an accepted start keeps both, a rejected one discards them.
    A start leaves the active set once it has converged or stalled.  Returns
    the final points, their residuals and their Jacobians.
    """
    x = np.array(x, dtype=float)
    r, jac = system.evaluate(x)
    cost = 0.5 * np.sum(r ** 2, axis=-1)
    lam = np.full(len(x), LM_DAMPING_START)
    nu = np.full(len(x), 2.0)
    scale = np.zeros_like(x)
    ref_cost, ref_iter = cost.copy(), np.zeros(len(x), dtype=int)
    active = np.max(np.abs(r), axis=-1) >= LM_RESIDUAL_STOP
    for it in range(1, LM_MAX_ITER + 1):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        # while every start is active, read through views instead of copies
        sel = slice(None) if idx.size == len(x) else idx
        J, res, lam_i = jac[sel], r[sel], lam[sel]
        Jt = np.swapaxes(J, -1, -2)
        g = (Jt @ res[..., None])[..., 0]
        hess = Jt @ J
        diag = hess.reshape(idx.size, -1)[:, ::system.n_vars + 1]
        scale[sel] = np.maximum(scale[sel], np.sqrt(diag))
        d2 = np.where(scale[sel] > 0, scale[sel], 1.0) ** 2
        diag += lam_i[:, None] * d2  # hess becomes the damped matrix
        step = np.linalg.solve(hess, -g[..., None])[..., 0]
        x_new = x[sel] + step
        # a step that overflows the residual gives rho = nan and is rejected
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r_new, jac_new = system.evaluate(x_new)
            cost_new = 0.5 * np.sum(r_new ** 2, axis=-1)
            actual = cost[sel] - cost_new
            # the linear model's reduction, simplified with the normal equations
            predicted = 0.5 * (lam_i * np.sum(d2 * step ** 2, axis=-1) - np.sum(g * step, axis=-1))
            rho = actual / predicted
            ok = rho > 0
            shrink = np.maximum(1 / 3, 1 - (2 * rho - 1) ** 3)
        lam[sel] = np.where(ok, lam_i * shrink, lam_i * nu[sel])
        nu[sel] = np.where(ok, 2.0, 2 * nu[sel])
        moved = idx[ok]
        x[moved], r[moved], cost[moved], jac[moved] = x_new[ok], r_new[ok], cost_new[ok], jac_new[ok]
        halved = cost[sel] <= 0.5 * ref_cost[sel]
        ref_cost[sel] = np.where(halved, cost[sel], ref_cost[sel])
        ref_iter[sel] = np.where(halved, it, ref_iter[sel])
        done = ((np.max(np.abs(r[sel]), axis=-1) < LM_RESIDUAL_STOP)
                | (it - ref_iter[sel] >= LM_STALL_ITER))
        active[idx[done]] = False
    return x, r, jac


def estimate_dof(system: ConstraintSystem, samples: int = 60, seed: int = 0) -> DofReport:
    """Search for solutions and measure the freedom they leave.

    All random starts descend the squared residual together
    (_levenberg_marquardt); a start counts as a solution when every residual
    is below RESIDUAL_TOL and the amplitude matrix stays clear of the
    degeneracy floor, and the first MAX_SOLUTIONS in start order are kept.
    Per-block freedom is the block's variable count minus the rank of the
    block's constraint rows with respect to the block's variables, evaluated
    at the solutions found.
    """
    if samples < 1:
        raise ValueError("need at least one start")
    rng = np.random.default_rng(seed)
    x, r, jac = _levenberg_marquardt(system, rng.normal(scale=0.7, size=(samples, system.n_vars)))
    _, big = system.unpack(x)
    accepted = ((np.max(np.abs(r), axis=-1) < RESIDUAL_TOL)
                & (np.min(np.abs(big), axis=(-2, -1)) >= DEGENERACY_FLOOR))
    solutions, jac = x[accepted][:MAX_SOLUTIONS], jac[accepted][:MAX_SOLUTIONS]
    if not len(solutions):
        return DofReport(feasible=False, sample_solutions=(),
                         dof={}, required=system.required_dof, verdict=False)

    n_p = system.n_p_vars
    p_rows = np.array(system.blocks) == "P"
    dof_votes = {"total": system.n_vars - _ranks(jac),
                 "P": n_p - _ranks(jac[:, p_rows, :n_p]),
                 "P'": system.n_pp_vars - _ranks(jac[:, ~p_rows, n_p:])}
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


def verify_multiplicativity(candidate: CandidateMap) -> MultiplicativityReport:
    """Check f(ab) = f(a) f(b) on random complex pairs.

    Sequential observation of two never-knowable properties multiplies
    amplitudes, so an acceptable map must be multiplicative; this filters the
    general polynomial candidates without solving their constraint systems.
    """
    rng = np.random.default_rng(0)
    # amplitudes carry relative volumes, so their modulus never exceeds one
    radius = np.sqrt(rng.uniform(size=(2, MULTIPLICATIVITY_TRIALS)))
    phase = np.exp(2j * np.pi * rng.uniform(size=(2, MULTIPLICATIVITY_TRIALS)))
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
    return UniquenessRow(candidate=candidate.name, shape=(m, mp),
                         padded_shape=padded, report=report)


def uniqueness_report(mlist: Sequence[int], mplist: Sequence[int],
                      candidates: Sequence[CandidateMap] = DEFAULT_CANDIDATES,
                      samples: int = 60, seed: int = 0) -> UniquenessReport:
    """Candidate-by-shape verdict table; only |a|^2 is expected to pass."""
    rows = []
    for candidate in candidates:
        for m, mp in zip(mlist, mplist, strict=True):
            rows.append(evaluate_candidate(candidate, m, mp, samples=samples, seed=seed))
    return UniquenessReport(rows=tuple(rows))
