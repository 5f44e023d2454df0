"""Generic smooth minimizers: limited-memory BFGS and safeguarded
Barzilai-Borwein gradient descent.

Both take a callable ``fun(x) -> (value, gradient)``, run a monotone
backtracking line search and record every accepted iterate in a
:class:`~varprox.trace.SolverTrace`.  Non-finite trial values are treated
as line-search rejections, so objectives with restricted domains work.
"""

import time
from dataclasses import dataclass

import numpy as np

from .trace import SolverTrace

__all__ = ["MinimizeConfig", "minimize_lbfgs", "minimize_gd_bb"]


@dataclass
class MinimizeConfig:
    memory: int = 10
    max_iter: int = 500
    grad_tol: float = 1e-8
    ls_max_halvings: int = 50
    ls_sufficient_decrease: float = 1e-4
    ls_backtrack: float = 0.5
    # stop after this many consecutive steps whose decrease sits at the
    # floating-point noise floor of the objective
    stall_rel: float = 1e-14
    stall_patience: int = 5

    def __post_init__(self):
        if self.memory < 1 or self.grad_tol <= 0:
            raise ValueError("memory >= 1 and grad_tol > 0 required")


def _two_loop(g, s_list, y_list, rho_list):
    q = g.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * np.dot(s, q)
        alphas.append(a)
        q -= a * y
    if y_list:
        gamma = np.dot(s_list[-1], y_list[-1]) / np.dot(y_list[-1], y_list[-1])
        q *= gamma
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        b = rho * np.dot(y, q)
        q += (a - b) * s
    return q


def _backtrack(fun, x, f, g, d, cfg):
    """Armijo backtracking; returns (x_new, f_new, g_new, ok)."""
    slope = np.dot(g, d)
    t = 1.0
    for _ in range(cfg.ls_max_halvings):
        xn = x + t * d
        fn, gn = fun(xn)
        if np.isfinite(fn) and fn <= f + cfg.ls_sufficient_decrease * t * slope:
            return xn, fn, gn, True
        t *= cfg.ls_backtrack
    return x, f, g, False


def minimize_lbfgs(fun, x0, cfg=None, method_name="lbfgs"):
    """Limited-memory BFGS with Armijo backtracking.

    Returns ``(x, f, g, trace)``.  The trace objective column is
    nonincreasing; a failed line search stops the run with
    ``trace.flags['line_search_failed'] = True`` and the best iterate kept.
    """
    cfg = cfg or MinimizeConfig()
    x = np.asarray(x0, dtype=float).copy()
    t0 = time.perf_counter()
    f, g = fun(x)
    trace = SolverTrace(method=method_name)
    trace.record(0, f, np.linalg.norm(g), time.perf_counter() - t0)
    s_list, y_list, rho_list = [], [], []
    stalled = 0
    for k in range(1, cfg.max_iter + 1):
        if np.linalg.norm(g) <= cfg.grad_tol:
            break
        d = -_two_loop(g, s_list, y_list, rho_list)
        if np.dot(d, g) > -1e-14 * np.linalg.norm(d) * np.linalg.norm(g):
            d = -g
            s_list, y_list, rho_list = [], [], []
        xn, fn, gn, ok = _backtrack(fun, x, f, g, d, cfg)
        if not ok:
            trace.flags["line_search_failed"] = True
            break
        if f - fn <= cfg.stall_rel * max(abs(f), 1.0):
            stalled += 1
        else:
            stalled = 0
        s = xn - x
        yv = gn - g
        sy = np.dot(s, yv)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(yv):
            s_list.append(s)
            y_list.append(yv)
            rho_list.append(1.0 / sy)
            if len(s_list) > cfg.memory:
                s_list.pop(0)
                y_list.pop(0)
                rho_list.pop(0)
        x, f, g = xn, fn, gn
        trace.record(k, f, np.linalg.norm(g), time.perf_counter() - t0)
        if stalled >= cfg.stall_patience:
            trace.flags["stalled"] = True
            break
    trace.x = x
    return x, f, g, trace


def minimize_gd_bb(fun, x0, cfg=None, method_name="gd-bb"):
    """Gradient descent with a safeguarded Barzilai-Borwein stepsize.

    The BB step seeds a backtracking line search so the run stays monotone.
    Returns ``(x, f, g, trace)``.
    """
    cfg = cfg or MinimizeConfig()
    x = np.asarray(x0, dtype=float).copy()
    t0 = time.perf_counter()
    f, g = fun(x)
    trace = SolverTrace(method=method_name)
    trace.record(0, f, np.linalg.norm(g), time.perf_counter() - t0)
    step = 1.0 / max(np.linalg.norm(g), 1.0)
    x_prev, g_prev = None, None
    stalled = 0
    for k in range(1, cfg.max_iter + 1):
        gnorm = np.linalg.norm(g)
        if gnorm <= cfg.grad_tol:
            break
        if x_prev is not None:
            s = x - x_prev
            yv = g - g_prev
            sy = np.dot(s, yv)
            if sy > 0 and np.isfinite(sy):
                step = float(np.clip(np.dot(s, s) / sy, 1e-12, 1e12))
        d = -step * g
        xn, fn, gn, ok = _backtrack(fun, x, f, g, d, cfg)
        if not ok:
            trace.flags["line_search_failed"] = True
            break
        stalled = stalled + 1 if f - fn <= cfg.stall_rel * max(abs(f), 1.0) else 0
        x_prev, g_prev = x, g
        x, f, g = xn, fn, gn
        trace.record(k, f, np.linalg.norm(g), time.perf_counter() - t0)
        if stalled >= cfg.stall_patience:
            trace.flags["stalled"] = True
            break
    trace.x = x
    return x, f, g, trace
