"""Reference solvers for the same objectives: proximal gradient (plain,
accelerated, spectral-step), ADMM, Chambolle-Pock primal-dual splitting
(quadratic and l1 losses), iteratively reweighted least squares, and the
scaled-lasso alternation for the square-root lasso.

All solvers share the library's normalization ``Phi(x) = ||L x||_{1,2} +
F0(A x)`` with ``F0(z) = ||z - y||^2 / (2 lam)`` for quadratic data fits
and ``||z - y||_{1,2} / lam`` for l1-type fits.
"""

import time

import numpy as np
import scipy.linalg

from .groups import (group_norm_12, group_soft_threshold, group_sq_norms,
                     trivial_groups)
from .linops import IdentityOperator, operator_norm
from .trace import SolverTrace
from .varpro import OuterConfig, QuadraticLoss, VarProProblem, solve_varpro

__all__ = [
    "lq_value", "run_ista", "run_admm", "run_primal_dual", "run_irls",
    "run_scaled_lasso",
]


def run_ista(A, gs, lam, y, step=None, accel="none", iters=1000, x0=None,
             reg_weight=1.0):
    """Proximal gradient descent for ``reg_weight ||x||_{1,2} + F0(A x)``.

    ``accel`` is ``none`` (plain, monotone at ``step <= lam / ||A||^2``),
    ``fista`` (Nesterov momentum) or ``bb`` (safeguarded spectral step).
    """
    y = np.asarray(y, dtype=float).ravel()
    n = A.cols
    if step is None:
        step = lam / operator_norm(A) ** 2
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    z = x.copy()
    t_mom = 1.0
    trace = SolverTrace(method="ista" if accel == "none" else accel)
    t0 = time.perf_counter()
    x_prev = None
    g_prev = None
    cur_step = step

    def objective(xx):
        r = A.apply(xx) - y
        return group_norm_12(xx, gs) * reg_weight + float(r @ r) / (2 * lam)

    for k in range(iters + 1):
        point = z if accel == "fista" else x
        g = A.adjoint(A.apply(point) - y) / lam
        trace.record(k, objective(x), float(np.linalg.norm(g)),
                     time.perf_counter() - t0)
        if k == iters:
            break
        if accel == "bb" and x_prev is not None:
            s = x - x_prev
            dg = g - g_prev
            sy = float(s @ dg)
            if sy > 0 and np.isfinite(sy):
                cur_step = float(np.clip(float(s @ s) / sy, 1e-8 * step,
                                         1e8 * step))
        x_prev, g_prev = x, g
        if accel == "fista":
            x_new = group_soft_threshold(z - step * g, reg_weight * step, gs)
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom ** 2))
            z = x_new + ((t_mom - 1.0) / t_new) * (x_new - x)
            t_mom = t_new
            x = x_new
        else:
            st = cur_step if accel == "bb" else step
            x = group_soft_threshold(x - st * g, reg_weight * st, gs)
    trace.x = x
    return trace


def run_admm(A, L, gs, lam, y, tau=1.0, iters=1000, x0=None):
    """Alternating direction method for ``||L x||_{1,2} + F0(A x)``.

    The x-update system ``(A^T A + lam tau L^T L)`` is factored once and
    reused; the z-update is the blockwise shrinkage by ``1/tau``.  The
    trace's residual column holds the primal residual ``||z - L x||``; the
    dual residual is stored under ``aux``.
    """
    y = np.asarray(y, dtype=float).ravel()
    Ad, Ld = A.to_dense(), L.to_dense()
    n, p = A.cols, L.rows
    M = Ad.T @ Ad + lam * tau * (Ld.T @ Ld)
    chol = scipy.linalg.cho_factor(M)
    aty = Ad.T @ y
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    z = L.apply(x)
    psi = np.zeros(p)
    trace = SolverTrace(method="admm")
    dual_res = []
    t0 = time.perf_counter()
    for k in range(iters + 1):
        r = A.apply(x) - y
        obj = group_norm_12(L.apply(x), gs) + float(r @ r) / (2 * lam)
        primal = float(np.linalg.norm(z - L.apply(x)))
        trace.record(k, obj, primal, time.perf_counter() - t0)
        if k == iters:
            break
        x = scipy.linalg.cho_solve(
            chol, aty + lam * L.adjoint(psi) + lam * tau * L.adjoint(z))
        lx = L.apply(x)
        z_new = group_soft_threshold(lx - psi / tau, 1.0 / tau, gs)
        dual_res.append(tau * float(np.linalg.norm(L.adjoint(z_new - z))))
        z = z_new
        psi = psi + tau * (z - lx)
    trace.x = x
    trace.aux["dual_residual"] = dual_res
    trace.aux["z"] = z
    return trace


def _power_norm_stacked(mats, n_cols, iters=50, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n_cols)
    x /= np.linalg.norm(x)
    val = 0.0
    for _ in range(iters):
        y = sum(M.T @ (M @ x) for M in mats)
        nrm = np.linalg.norm(y)
        if nrm == 0:
            return 0.0
        val = nrm
        x = y / nrm
    return float(np.sqrt(val))


def run_primal_dual(variant, A, L, gs, lam, y, loss_groups=None, sigma=None,
                    tau=None, theta=1.0, iters=1000, x0=None):
    """Chambolle-Pock splitting.

    ``variant="quadratic"`` solves ``||L x||_{1,2} + ||A x - y||^2/(2 lam)``
    with ``K = L``; ``variant="l1"`` solves ``||L x||_{1,2} +
    ||A x - y||_{1,2}/lam`` on the stacked variable ``(x, z)`` with
    ``K = [L, -I, 0; A, 0, -I]``.  Defaults: ``theta = 1`` and
    ``sigma = tau = 0.99 / ||K||`` with the norm from 50 power iterations.
    """
    y = np.asarray(y, dtype=float).ravel()
    Ad, Ld = A.to_dense(), L.to_dense()
    n, p, m = A.cols, L.rows, A.rows
    t0 = time.perf_counter()

    if variant == "quadratic":
        norm_K = operator_norm(L)
        if sigma is None or tau is None:
            sigma = tau = 0.99 / max(norm_K, 1e-12)
        if sigma * tau > 1.0 / norm_K ** 2 + 1e-12:
            raise ValueError("need sigma * tau <= 1 / ||K||^2")
        x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
        xbar = x.copy()
        xi = np.zeros(p)
        M = np.eye(n) + (tau / lam) * (Ad.T @ Ad)
        chol = scipy.linalg.cho_factor(M)
        aty = Ad.T @ y
        trace = SolverTrace(method="primal-dual")
        for k in range(iters + 1):
            r = A.apply(x) - y
            obj = group_norm_12(L.apply(x), gs) + float(r @ r) / (2 * lam)
            trace.record(k, obj, float(np.linalg.norm(x - xbar)),
                         time.perf_counter() - t0)
            if k == iters:
                break
            xi = _project_group_ball(xi + sigma * L.apply(xbar), gs)
            x_new = scipy.linalg.cho_solve(
                chol, (x - tau * L.adjoint(xi)) + (tau / lam) * aty)
            xbar = x_new + theta * (x_new - x)
            x = x_new
        trace.x = x
        return trace

    if variant != "l1":
        raise ValueError(f"unknown variant {variant!r}")
    if loss_groups is None:
        loss_groups = trivial_groups(m)
    norm_K = np.sqrt(_power_norm_stacked([Ld, Ad], n) ** 2 + 1.0)
    if sigma is None or tau is None:
        sigma = tau = 0.99 / norm_K
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    z1 = L.apply(x)
    z2 = A.apply(x) - y
    xb, z1b, z2b = x.copy(), z1.copy(), z2.copy()
    xi1 = np.zeros(p)
    xi2 = np.zeros(m)
    trace = SolverTrace(method="primal-dual-l1")
    for k in range(iters + 1):
        r = A.apply(x) - y
        obj = group_norm_12(L.apply(x), gs) \
            + group_norm_12(r, loss_groups) / lam
        trace.record(k, obj, float(np.linalg.norm(x - xb)),
                     time.perf_counter() - t0)
        if k == iters:
            break
        # dual ascent on K (x,z) = (0, y); prox of the linear conjugate is
        # a shift by sigma * (0, y)
        xi1 = xi1 + sigma * (L.apply(xb) - z1b)
        xi2 = xi2 + sigma * (A.apply(xb) - z2b) - sigma * y
        x_new = x - tau * (L.adjoint(xi1) + A.adjoint(xi2))
        z1_new = group_soft_threshold(z1 + tau * xi1, tau, gs)
        z2_new = group_soft_threshold(z2 + tau * xi2, tau / lam, loss_groups)
        xb = x_new + theta * (x_new - x)
        z1b = z1_new + theta * (z1_new - z1)
        z2b = z2_new + theta * (z2_new - z2)
        x, z1, z2 = x_new, z1_new, z2_new
    trace.x = x
    return trace


def _project_group_ball(xi, gs):
    """Projection onto the unit ball of the dual (max-of-group-norms) norm."""
    if gs.is_trivial:
        return np.clip(xi, -1.0, 1.0)
    norms = np.sqrt(group_sq_norms(xi, gs))
    scale = np.ones(gs.n_groups)
    over = norms > 1.0
    scale[over] = 1.0 / norms[over]
    return xi * scale[gs.group_of]


def lq_value(x, gs, q):
    """``sum_g ||x_g||^q / q``."""
    if not 0.0 < q < 2.0:
        raise ValueError("q must lie in (0, 2)")
    norms = np.sqrt(group_sq_norms(x, gs))
    return float(np.sum(norms ** q)) / q


def run_irls(A, Y, gs, q, mode="equality", lam=None, eps0=1.0, eps_decay=10.0,
             eps_floor=1e-8, iters=200, stall_factor=0.01):
    """Iteratively reweighted least squares for grouped lq recovery.

    ``equality`` mode solves ``min sum_g ||x_g||^q  s.t.  A x = Y`` through
    weighted minimum-norm steps; ``penalized`` adds the quadratic fit with
    weight ``1/(2 lam)``.  Weights are ``(||x_g||^2 + eps)^(q/2 - 1)`` and
    ``eps`` decays by ``eps_decay`` once the iterate stalls
    (``||x+ - x|| < sqrt(eps) * stall_factor``), down to ``eps_floor``.
    """
    if not 0.0 < q <= 2.0:
        raise ValueError("q in (0, 2] required")
    Y = np.asarray(Y, dtype=float)
    squeeze = Y.ndim == 1
    if squeeze:
        Y = Y[:, None]
    Ad = A.to_dense()
    m, n = Ad.shape
    X = np.zeros((n, Y.shape[1]))
    eps = eps0
    trace = SolverTrace(method="irls")
    t0 = time.perf_counter()
    for k in range(iters):
        sq = group_sq_norms(X, gs)
        wg = (sq + eps) ** (q / 2.0 - 1.0)
        wvec = wg[gs.group_of]
        if mode == "equality":
            AW = Ad / wvec[None, :]
            S = AW @ Ad.T
            try:
                T = scipy.linalg.cho_solve(scipy.linalg.cho_factor(S), Y)
            except scipy.linalg.LinAlgError:
                T = np.linalg.lstsq(S, Y, rcond=None)[0]
            X_new = AW.T @ T
            obj = lq_value(X_new, gs, q) * q   # sum ||x_g||^q
        elif mode == "penalized":
            if lam is None:
                raise ValueError("penalized mode needs lam")
            M = Ad.T @ Ad + lam * np.diag(wvec)
            X_new = scipy.linalg.solve(M, Ad.T @ Y, assume_a="pos")
            R = Ad @ X_new - Y
            obj = lq_value(X_new, gs, q) * q + float(np.sum(R * R)) / (2 * lam)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        delta = float(np.linalg.norm(X_new - X))
        X = X_new
        trace.record(k, obj, delta, time.perf_counter() - t0)
        if delta < np.sqrt(eps) * stall_factor:
            if eps <= eps_floor:
                break
            eps = max(eps / eps_decay, eps_floor)
    trace.x = X[:, 0] if squeeze else X
    trace.aux["eps"] = eps
    return trace


def run_scaled_lasso(A, y, lam, outer_iters=20, inner_config=None,
                     eta_tol=1e-12):
    """Alternating scale/lasso iteration for the square-root lasso
    ``||x||_1 + ||A x - y||_2 / (lam sqrt(m))``.

    Each step fixes ``eta_k = ||A x_k - y||`` and solves the lasso with
    data-fit weight ``1 / (2 lam sqrt(m) eta_k)`` using the projected
    solver.  Exact interpolation (``eta = 0``) terminates with a flag.
    """
    y = np.asarray(y, dtype=float).ravel()
    m, n = A.rows, A.cols
    gs = trivial_groups(n)
    inner_config = inner_config or OuterConfig(max_iter=400, grad_tol=1e-11)
    x = np.zeros(n)
    trace = SolverTrace(method="scaled-lasso")
    scale = lam * np.sqrt(m)
    t0 = time.perf_counter()
    etas = []
    for k in range(outer_iters):
        r = A.apply(x) - y
        eta = float(np.linalg.norm(r))
        etas.append(eta)
        obj = float(np.abs(x).sum()) + eta / scale
        trace.record(k, obj, eta, time.perf_counter() - t0)
        if eta < eta_tol:
            trace.flags["interpolated"] = True
            break
        prob = VarProProblem(A, IdentityOperator(n), gs,
                             QuadraticLoss(y=y, lam=scale * eta))
        res = solve_varpro(prob, inner_config)
        x = res.x
    r = A.apply(x) - y
    trace.record(len(etas), float(np.abs(x).sum()) + np.linalg.norm(r) / scale,
                 float(np.linalg.norm(r)), time.perf_counter() - t0)
    trace.x = x
    trace.aux["etas"] = etas
    return trace
