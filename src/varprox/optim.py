"""Generic smooth minimizers: limited-memory BFGS and safeguarded
Barzilai-Borwein gradient descent.

Both take a callable ``fun(x) -> (value, gradient)``, a step budget
``max_iter`` and a gradient-norm tolerance ``grad_tol``, and run the one
descent loop ``_descend`` (a monotone backtracking line search, a stall
counter, a :class:`~varprox.trace.SolverTrace` of every accepted iterate);
they differ only in the search direction and its update.  Non-finite trial
values are treated as line-search rejections, so objectives with
restricted domains work.  The line search stops before it evaluates a trial
whose predicted decrease ``-t * slope`` is below the rounding error of
``f``, ``NOISE_FLOOR_ULPS * eps * max(|f|, 1)``: no such trial can show a
decrease that is not noise.  An objective that carries a ``certify``
attribute can also end the run on a certificate: ``fun.certify()`` returns
the relative duality gap at the point of the last call of ``fun``, and the
loop asks for it only after an accepted step that lowered ``f`` by at most
``CHECK_REL`` relative, at least ``CHECK_EVALS`` evaluations after the
previous check; a gap at or below ``GAP_TOL`` ends the run.  An objective
that carries a ``hessp`` attribute takes Newton-CG steps instead:
``fun.hessp(p)`` returns the exact Hessian times ``p`` at the point of the
last call of ``fun`` (or None, where it has none), and each direction is
Steihaug's truncated CG on it with an Eisenstat-Walker forcing term and at
most ``CG_STEPS`` products (:func:`_newton_cg`); the line search and the
stop rules stay the same.  Every run ends with one ``trace.stop_reason``
(``converged``, ``certified``, ``noise_floor``, ``stalled``,
``line_search_failed``, ``max_iter`` or ``non_finite_start``, for a start
whose value is not finite, so that no step can be compared with it) and
counts its evaluations and rejected trials.  The line search, the stall
rule, the certificate checks, the Newton-CG budget and the L-BFGS memory
are fixed by the module constants below.
"""

import math
import time

import numpy as np

from .trace import SolverTrace

__all__ = ["minimize_lbfgs", "minimize_gd_bb"]

MEMORY = 10                     # L-BFGS curvature pairs
EPS = np.finfo(float).eps
LS_MAX_HALVINGS = 50
LS_SUFFICIENT_DECREASE = 1e-4   # Armijo constant
LS_BACKTRACK = 0.5
# stop after STALL_PATIENCE consecutive steps whose decrease sits at the
# floating-point noise floor of the objective
STALL_REL = 1e-14
STALL_PATIENCE = 5
# the line search stops, unevaluated, at a trial whose predicted decrease
# -t * slope is below NOISE_FLOOR_ULPS * eps * max(|f|, 1)
NOISE_FLOOR_ULPS = 8
# a run ends on ``certified`` at a relative duality gap of at most GAP_TOL;
# the gap is asked for after an accepted step that lowered f by at most
# CHECK_REL relative, CHECK_EVALS or more evaluations after the last check
GAP_TOL = 1e-6
CHECK_REL = 1e-6
CHECK_EVALS = 3
# the most Hessian products of one Newton-CG direction: 30 group-lasso
# 200x2000 solves took 7.0 s at 20, 4.6-4.8 s at 50 and 4.4 s at 100,
# against 14.5 s with L-BFGS directions (one BLAS thread)
CG_STEPS = 50


class _Memory:
    """The L-BFGS curvature pairs ``(s_i, y_i)``, oldest first, in the
    compact form of Byrd, Nocedal and Schnabel ("Representations of
    quasi-Newton matrices and their use in limited memory methods", Math.
    Program. 1994).

    Pair ``i`` is row ``i`` of ``pairs`` (shape ``(rows, 2, n)``), which
    grows by doubling as pairs arrive, to at most ``MEMORY`` rows.  With
    ``S`` and ``Y`` the stacked ``s_i`` and ``y_i``, three small matrices
    are kept current: ``yy = Y Yᵀ``, ``sy = diag(S Yᵀ)`` and ``rinv``,
    the inverse of ``R = triu(S Yᵀ)``.  The inverse Hessian approximation
    is ``H = γ I + Sᵀ (R⁻ᵀ (D + γ Y Yᵀ) R⁻¹) S - γ Sᵀ R⁻ᵀ Y - γ Yᵀ R⁻¹ S``
    with ``D = diag(sy)`` and ``γ = s·y / y·y`` of the newest pair, the
    matrix the two-loop recursion applies."""

    def __init__(self):
        # R⁻¹ is upper triangular: its lower triangle stays zero, and every
        # other entry of the leading k-by-k blocks is written before it is read
        self.rinv = np.zeros((MEMORY, MEMORY))
        self.yy = np.empty((MEMORY, MEMORY))
        self.sy = np.empty(MEMORY)
        self.clear()

    def clear(self):
        self.k = 0
        self.pairs = None

    def direction(self, g, gnorm):
        """``-H g``, or ``-g`` after a clear when ``-H g`` is not a descent
        direction; ``gnorm`` is ``||g||``."""
        k = self.k
        if not k:
            return -g
        pairs = self.pairs[:k]
        ab = pairs @ g                          # (s_i·g, y_i·g)
        rinv = self.rinv[:k, :k]
        sy = self.sy[:k]
        gamma = sy[-1] / self.yy[k - 1, k - 1]
        c = rinv @ ab[:, 0]
        coef = np.empty((k, 2))     # -H g = coef · (s_i, y_i) - γ g
        coef[:, 0] = rinv.T @ (gamma * (ab[:, 1] - self.yy[:k, :k] @ c) - sy * c)
        coef[:, 1] = gamma * c
        d = coef.ravel() @ pairs.reshape(2 * k, -1)
        d -= gamma * g
        if not _descends(d, g, gnorm):
            self.clear()
            return -g
        return d

    def update(self, s, y):
        """Stores ``(s, y)`` unless its curvature ``s·y`` is at most
        ``1e-12 ||s|| ||y||``; the oldest pair leaves a full memory."""
        sy = s.dot(y)
        yy = y.dot(y)
        if not sy > 1e-12 * math.sqrt(s.dot(s) * yy):
            return
        k = self.k
        if k == MEMORY:
            # the trailing block of R⁻¹ is the inverse of R's trailing block
            k -= 1
            self.pairs[:k] = self.pairs[1:]
            self.rinv[:k, :k] = self.rinv[1:, 1:]
            self.yy[:k, :k] = self.yy[1:, 1:]
            self.sy[:k] = self.sy[1:]
        elif self.pairs is None:
            self.pairs = np.empty((1, 2, s.size))
        elif k == len(self.pairs):
            grown = np.empty((min(2 * k, MEMORY), 2, s.size))
            grown[:k] = self.pairs
            self.pairs = grown
        cross = self.pairs[:k] @ y              # (s_i·y, y_i·y)
        # bordering R by the column (s_i·y) and the corner s·y
        self.rinv[:k, k] = self.rinv[:k, :k] @ cross[:, 0] / -sy
        self.rinv[k, k] = 1.0 / sy
        self.yy[:k, k] = self.yy[k, :k] = cross[:, 1]
        self.yy[k, k] = yy
        self.sy[k] = sy
        self.pairs[k, 0] = s
        self.pairs[k, 1] = y
        self.k = k + 1


def _descends(d, g, gnorm):
    """Whether ``d`` descends at gradient ``g`` (``gnorm = ||g||``) by more
    than rounding, ``d·g < -1e-14 ||d|| ||g||``; a NaN in ``d`` does not."""
    return d.dot(g) < -1e-14 * math.sqrt(d.dot(d)) * gnorm


def _newton_cg(hessp, g, gnorm):
    """Steihaug's truncated conjugate gradients on ``H d = -g`` from
    ``d = 0`` ("The conjugate gradient method and trust regions in large
    scale optimization", SIAM J. Numer. Anal. 1983), ``hessp(p) = H p``.
    CG ends at the Eisenstat-Walker forcing term ("Choosing the forcing
    terms in an inexact Newton method", SIAM J. Sci. Comput. 1996)
    ``||H d + g|| <= min(0.5, sqrt(||g||)) ||g||`` (``forcing``), at a
    direction ``p`` with ``p·H p <= 0`` (``negative_curvature``: ``-g`` at
    the first step, else the iterate so far) or after ``CG_STEPS`` products
    (``budget``).  Returns ``(d, products, ending)``, or None when
    ``hessp`` has no product at this point."""
    tol = min(0.5, math.sqrt(gnorm)) * gnorm
    d = np.zeros_like(g)
    r = g.copy()                # H d + g
    p = -g
    rr = gnorm * gnorm
    for k in range(1, CG_STEPS + 1):
        hp = hessp(p)
        if hp is None:
            return None
        curvature = p.dot(hp)
        if curvature <= 0:
            return (-g if k == 1 else d), k, "negative_curvature"
        step = rr / curvature
        d += step * p
        r += step * hp
        rr, rr_old = r.dot(r), rr
        if math.sqrt(rr) <= tol:
            return d, k, "forcing"
        p = (rr / rr_old) * p - r
    return d, CG_STEPS, "budget"


def _backtrack(fun, x, f, g, d):
    """Armijo backtracking from ``t = 1``.  Returns ``(x_new, f_new, g_new,
    trials, stop)``: ``trials`` evaluations of ``fun``, and ``stop`` None
    for an accepted step, else ``noise_floor`` (the next trial's predicted
    decrease is below the rounding error of ``f``, so it is not evaluated)
    or ``line_search_failed`` (``LS_MAX_HALVINGS`` trials all rejected)."""
    slope = g.dot(d)
    floor = NOISE_FLOOR_ULPS * EPS * max(abs(f), 1.0)
    t = 1.0
    for trial in range(LS_MAX_HALVINGS):
        if -t * slope < floor:
            return x, f, g, trial, "noise_floor"
        xn = x + t * d
        fn, gn = fun(xn)
        if np.isfinite(fn) and fn <= f + LS_SUFFICIENT_DECREASE * t * slope:
            return xn, fn, gn, trial + 1, None
        t *= LS_BACKTRACK
    return x, f, g, LS_MAX_HALVINGS, "line_search_failed"


def _descend(fun, x0, max_iter, grad_tol, method_name, direction, update):
    """The one descent loop: ``direction(g, ||g||)`` gives the search
    direction, the line search accepts a step, ``update(s, y)`` sees the
    step and the gradient change.  Each gradient norm is computed once.
    Returns ``(x, f, g, trace)``.

    Where ``fun`` carries ``hessp``, the direction is :func:`_newton_cg`'s
    at every point where ``hessp`` has a product (``-g`` in its place when
    it does not descend), and ``direction(g, ||g||)`` elsewhere;
    ``update`` sees every step either way.  Each Newton step appends
    ``(products, ending)`` to ``trace.aux["cg_steps"]``, which such a run
    always has and no other run has.

    ``trace.stop_reason`` says why the run ended: ``converged`` (gradient
    norm at most ``grad_tol``), ``certified`` (``fun.certify()``, asked
    after an accepted step as the module docstring says, returned a
    relative duality gap at most ``GAP_TOL``), ``noise_floor`` (the line
    search reached a trial whose predicted decrease is below the rounding
    error of ``f`` before accepting one), ``line_search_failed`` (every
    trial above that floor rejected), ``stalled`` (``STALL_PATIENCE``
    accepted steps in a row at the noise floor), ``max_iter`` (the steps
    ran out above ``grad_tol``) or ``non_finite_start`` (the value at
    ``x0`` is not finite: the run ends there, whatever its gradient).
    ``trace.evals`` counts the calls of ``fun`` and ``trace.backtracks``
    the rejected trials."""
    x = np.asarray(x0, dtype=float).copy()
    t0 = time.perf_counter()
    f, g = fun(x)
    gnorm = math.sqrt(g.dot(g))
    trace = SolverTrace(method=method_name, evals=1)
    trace.record(0, f, gnorm, time.perf_counter() - t0)
    certify = getattr(fun, "certify", None)
    hessp = getattr(fun, "hessp", None)
    if hessp is not None:
        trace.aux["cg_steps"] = newton = []
    if not math.isfinite(f):
        trace.stop_reason = "non_finite_start"
        trace.x = x
        return x, f, g, trace
    stalled = checked = 0
    for k in range(1, max_iter + 1):
        if gnorm <= grad_tol:
            trace.stop_reason = "converged"
            break
        step = None if hessp is None else _newton_cg(hessp, g, gnorm)
        if step is None:
            d = direction(g, gnorm)
        else:
            d, products, ending = step
            newton.append((products, ending))
            if not _descends(d, g, gnorm):
                d = -g
        xn, fn, gn, trials, stop = _backtrack(fun, x, f, g, d)
        trace.evals += trials
        trace.backtracks += trials if stop else trials - 1
        if stop:
            trace.stop_reason = stop
            break
        stalled = stalled + 1 if f - fn <= STALL_REL * max(abs(f), 1.0) else 0
        check = (certify is not None and trace.evals - checked >= CHECK_EVALS
                 and f - fn <= CHECK_REL * max(abs(f), 1.0))
        update(xn - x, gn - g)
        x, f, g = xn, fn, gn
        gnorm = math.sqrt(g.dot(g))
        trace.record(k, f, gnorm, time.perf_counter() - t0)
        if check:
            checked = trace.evals
            if certify() <= GAP_TOL:
                trace.stop_reason = "certified"
                break
        if stalled >= STALL_PATIENCE:
            trace.stop_reason = "stalled"
            break
    else:
        trace.stop_reason = "converged" if gnorm <= grad_tol else "max_iter"
    trace.x = x
    return x, f, g, trace


def minimize_lbfgs(fun, x0, max_iter, grad_tol, method_name="lbfgs"):
    """Limited-memory BFGS with Armijo backtracking; returns
    ``(x, f, g, trace)`` with a nonincreasing trace objective column."""
    memory = _Memory()
    return _descend(fun, x0, max_iter, grad_tol, method_name,
                    memory.direction, memory.update)


def minimize_gd_bb(fun, x0, max_iter, grad_tol, method_name="gd-bb"):
    """Gradient descent with a safeguarded Barzilai-Borwein stepsize.

    The BB step seeds a backtracking line search so the run stays monotone;
    the first step is ``1 / max(||g0||, 1)``.  Returns ``(x, f, g, trace)``.
    """
    step = None

    def direction(g, gnorm):
        nonlocal step
        if step is None:
            step = 1.0 / max(gnorm, 1.0)
        return -step * g

    def update(s, y):
        nonlocal step
        sy = s.dot(y)
        if sy > 0 and np.isfinite(sy):
            step = float(np.clip(s.dot(s) / sy, 1e-12, 1e12))

    return _descend(fun, x0, max_iter, grad_tol, method_name, direction, update)
