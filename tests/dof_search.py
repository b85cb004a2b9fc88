"""The float search that once decided the uniqueness table, kept as its oracle.

``epiq.uniqueness`` decides each row in closed form.  This module re-derives
the same rows numerically: the constraint system is one array residual over
(..., n_vars) parameter vectors with an analytic Jacobian, batched the same
way, where each row is differentiated with respect to the amplitudes and
their conjugates (Wirtinger derivatives), and one fused evaluation returns
both, sharing the amplitude powers.  Feasibility is probed from random starts
that one Levenberg-Marquardt loop drives down together, with one evaluation
per iteration; the local manifold dimension is variables minus the numerical
rank of the Jacobian at the solutions found, and each block's freedom is the
rank of that block's rows against that block's variables, sliced from the
same matrix.
"""
from __future__ import annotations

from functools import cache

import numpy as np

from epiq import Knowability
from epiq.uniqueness import DEGENERACY_FLOOR, RESIDUAL_TOL, ConstraintSystem, DofReport

RANK_TOL = 1e-8
# Accepted solutions that the DoF vote uses, the first ones in start order.
MAX_SOLUTIONS = 10
# Levenberg-Marquardt: initial damping; a start stops when its largest
# residual falls below LM_RESIDUAL_STOP, when its cost has not halved in
# LM_STALL_ITER iterations, or after LM_MAX_ITER iterations.
LM_DAMPING_START = 1e-3
LM_RESIDUAL_STOP = 1e-14
LM_STALL_ITER = 20
LM_MAX_ITER = 200


def apply(candidate, z):
    """Evaluate the candidate's f elementwise on an array of amplitudes."""
    z = np.asarray(z)
    if candidate.real_only:
        return np.real(z) ** 2
    return (np.real(z) ** 2 + np.imag(z) ** 2) ** candidate.gamma


def wirtinger(candidate, z):
    """df/dz elementwise; f is real, so df/dconj(z) is its conjugate."""
    z = np.asarray(z)
    if candidate.real_only:
        return np.real(z)
    g = candidate.gamma
    return g * (np.real(z) ** 2 + np.imag(z) ** 2) ** (g - 1) * np.conj(z)


def unpack(system: ConstraintSystem, x):
    """Split real parameter vectors (..., n_vars) into (a, A)."""
    x = np.asarray(x, dtype=float)
    lead, m, mp = x.shape[:-1], system.m, system.mp
    if system.candidate.real_only:
        return x[..., :m] + 0j, x[..., m:].reshape(*lead, m, mp) + 0j
    a = x[..., :m] + 1j * x[..., m:2 * m]
    rest = x[..., 2 * m:]
    half = m * mp
    return a, (rest[..., :half] + 1j * rest[..., half:]).reshape(*lead, m, mp)


@cache
def _layout(system: ConstraintSystem):
    """Index arrays built once per system.  An f row's Jacobian column c
    is entry perm[c] of its d over (a, A) seen as float pairs, times
    sign[c]; norm places d/dA_jk in row norm j; others[j] lists the rows
    other than j; then the independence exponents, also lowered by one
    (a zero exponent's term has coefficient 0 either way)."""
    m, n = system.m, system.m * system.mp
    groups = (np.arange(m), m + np.arange(n))
    parts = ((0, 2.0),) if system.candidate.real_only else ((0, 2.0), (1, -2.0))
    perm = np.concatenate([2 * g + part for g in groups for part, _ in parts])
    sign = np.concatenate([np.full(g.size, s) for g in groups for _, s in parts])
    norm = (np.arange(1, m + 1)[:, None], groups[1].reshape(m, system.mp))
    others = np.array([[i for i in range(m) if i != j] for j in range(m)])
    alpha, beta = np.array(system.alpha, dtype=int), np.array(system.beta, dtype=int)
    return (perm, sign, norm, others, alpha, beta,
            np.maximum(alpha - 1, 0), np.maximum(beta - 1, 0))


def evaluate(system: ConstraintSystem, x):
    """Every row at x and its analytic derivative, batched over leading
    axes: (..., n_vars) -> (..., rows) and (..., rows, n_vars).  Rows are
    differentiated with respect to a_j,
    A_jk and their conjugates (Wirtinger d and dbar): a real part's column
    is d + dbar, an imaginary part's i(d - dbar), so 2 Re d and -2 Im d
    for the real f rows, whose dbar is conj(d)."""
    a, big = unpack(system, x)
    lead, m, real = a.shape[:-1], system.m, system.candidate.real_only
    cand = system.candidate
    fa, fbig = apply(cand, a), apply(cand, big)
    if system.level is Knowability.DECIDED:
        closure = np.sum(fa[..., :, None] * fbig, axis=(-2, -1))
    else:
        w = np.einsum("...j,...jk->...k", a, big)
        closure = np.sum(apply(cand, w), axis=-1)
    r = np.empty(lead + (len(system.equations),))
    r[..., 0] = np.sum(fa, axis=-1) - 1.0
    r[..., 1:m + 1] = np.sum(fbig, axis=-1) - 1.0
    r[..., m + 1] = closure - 1.0
    perm, sign, norm, others, alpha, beta, alpha_lo, beta_lo = _layout(system)
    if system.alpha:
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

    # d of the f rows over (a, A)
    d_f = np.zeros(lead + (m + 2, m + norm[1].size), dtype=complex)
    dfa, dfbig = wirtinger(cand, a), wirtinger(cand, big)
    d_f[..., 0, :m] = dfa
    d_f[..., norm[0], norm[1]] = dfbig
    if system.level is Knowability.DECIDED:
        d_f[..., -1, :m] = dfa * np.sum(fbig, axis=-1)
        d_f[..., -1, norm[1]] = fa[..., :, None] * dfbig
    else:
        dw = wirtinger(cand, w)
        d_f[..., -1, :m] = np.einsum("...jk,...k->...j", big, dw)
        d_f[..., -1, norm[1]] = a[..., :, None] * dw[..., None, :]
    jac = np.zeros(r.shape + (system.n_vars,))
    jac[..., :m + 2, :] = d_f.view(float)[..., perm] * sign
    if system.alpha:
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


def _ranks(jac: np.ndarray) -> np.ndarray:
    """Numerical rank of each matrix in a (k, rows, cols) stack."""
    s = np.linalg.svd(jac, compute_uv=False)
    return np.sum(s > RANK_TOL, axis=-1)


def block_dof(system: ConstraintSystem, jac: np.ndarray) -> dict:
    """Per-block freedom at each of a (k, rows, n_vars) stack of Jacobians:
    a block's variable count minus the rank of its rows against its
    variables, and all variables minus the whole rank."""
    n_p = system.n_p_vars
    p_rows = np.array(system.blocks) == "P"
    return {"total": system.n_vars - _ranks(jac),
            "P": n_p - _ranks(jac[:, p_rows, :n_p]),
            "P'": system.n_pp_vars - _ranks(jac[:, ~p_rows, n_p:])}


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
    r, jac = evaluate(system, x)
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
        try:
            step = np.linalg.solve(hess, -g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.array([_solve_or_nan(h, -gi) for h, gi in zip(hess, g)])
        x_new = x[sel] + step
        # a step that overflows the residual, or the nan step of a singular
        # damped matrix, gives rho = nan and is rejected
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r_new, jac_new = evaluate(system, x_new)
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


def _solve_or_nan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution of a x = b, or nan for an exactly singular a."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.full_like(b, np.nan)


def estimate_dof(system: ConstraintSystem, samples: int = 60, seed: int = 0) -> DofReport:
    """Search for solutions and measure the freedom they leave.

    All random starts descend the squared residual together
    (_levenberg_marquardt); a start counts as a solution when every residual
    is below RESIDUAL_TOL and the amplitude matrix stays clear of the
    degeneracy floor, and the first MAX_SOLUTIONS in start order are kept.
    Per-block freedom (block_dof) is evaluated at the solutions found; the
    typical value of each block is reported.
    """
    if samples < 1:
        raise ValueError("need at least one start")
    rng = np.random.default_rng(seed)
    x, r, jac = _levenberg_marquardt(system, rng.normal(scale=0.7, size=(samples, system.n_vars)))
    _, big = unpack(system, x)
    accepted = ((np.max(np.abs(r), axis=-1) < RESIDUAL_TOL)
                & (np.min(np.abs(big), axis=(-2, -1)) >= DEGENERACY_FLOOR))
    solutions, jac = x[accepted][:MAX_SOLUTIONS], jac[accepted][:MAX_SOLUTIONS]
    if not len(solutions):
        return DofReport(feasible=False, sample_solutions=(),
                         dof={}, required=system.required_dof, verdict=False)

    # the estimate must be stable across solutions; report the typical value
    dof = {k: int(np.median(v)) for k, v in block_dof(system, jac).items()}
    req = system.required_dof
    verdict = (dof["P"] >= req["P"] and dof["P'"] >= req["P'"]
               and dof["total"] >= req["total"])
    return DofReport(feasible=True, sample_solutions=tuple(solutions),
                     dof=dof, required=req, verdict=verdict)
