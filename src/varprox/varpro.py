"""Projected outer objectives and their gradients, plus the one layout of
the outer blocks and the one quasi-Newton driver that serve every family.

For every problem family the outer function is evaluated by solving the
concave inner dual and reassembling the value from the primal pieces at
the recovered point (the two agree by strong duality, and the primal form
stays valid when entries of the outer variable vanish).  Gradients come
from the envelope formulas:

* quadratic / interpolation loss:  ``grad_g = v_g (1 - ||alpha_g||^2)``
* robust loss:                     plus ``w / lam - lam w ||xi_g||^2``
* two outer factors (lq path):     ``v_g (1 - w_g^2 s_g)``, symmetric in w
* nuclear-norm multitask:          ``v - v s``, ``lam W - xi xi^T W / lam``

Two families carry a duality gap: the group lasso, whose Gap Safe screening
reports it, and TV denoising, whose run stops on it (``certified``).  The
group lasso also carries its exact Hessian-vector product, one more solve
on the factor of its inner system, on which ``lbfgs`` takes Newton-CG
steps.  The product reads ``alpha`` only through the group images
``b_g = A_g alpha_g``: with ``B = [b_g]`` (at most m-by-G, formed once per
outer step) and ``M`` the factored inner matrix it is
``dv (1 - s) + 4 v B^T M^-1 B (v dv)``, two passes over a matrix the group
size times narrower than ``A``.
"""

from dataclasses import dataclass, replace
from functools import partial
from itertools import islice

import numpy as np

from . import inner as inner_mod
from .groups import (GroupStructure, _group_images, _group_spectral_norms,
                     _project_group_ball, extend, group_dots, group_norm_12,
                     group_sq_norms)
from .inner import InnerSolution, InnerSolveError
from .linops import DenseOperator, IdentityOperator, LinearOperator
from .optim import GAP_TOL, minimize_gd_bb, minimize_lbfgs

__all__ = [
    "QuadraticLoss", "RobustLoss", "BasisPursuitLoss", "MultitaskLoss",
    "VarProProblem", "OuterConfig", "VarProResult",
    "eval_f_grad", "eval_f_grad_robust", "eval_lq_option2", "eval_lq_option3",
    "eval_multitask", "solve_varpro", "solve_lq_option2", "nonsmooth_objective",
]


@dataclass(frozen=True)
class QuadraticLoss:
    """``F0(z) = ||z - y||^2 / (2 lam)``."""
    y: np.ndarray
    lam: float


@dataclass(frozen=True)
class RobustLoss:
    """``R2((A x - y)) / lam`` with ``R2`` the group norm over ``loss_groups``.

    For square-root lasso use a single loss group and fold the ``sqrt(m)``
    factor into ``lam``.
    """
    y: np.ndarray
    lam: float
    loss_groups: GroupStructure


@dataclass(frozen=True)
class BasisPursuitLoss:
    """Exact interpolation constraint ``A x = y`` (or ``A X = Y``)."""
    y: np.ndarray


@dataclass(frozen=True)
class MultitaskLoss:
    """Row-sparse multitask with nuclear-norm data fit ``lam ||A X - Y||_*``."""
    Y: np.ndarray
    lam: float


@dataclass
class VarProProblem:
    A: LinearOperator
    L: LinearOperator
    reg_groups: GroupStructure
    loss: object

    def __post_init__(self):
        if self.L.cols != self.A.cols:
            raise ValueError("A and L must share their domain dimension")
        if self.reg_groups.mode == "partition" and self.reg_groups.p != self.L.rows:
            raise ValueError("regularizer groups must partition the range of L")


# a random start draws every entry uniformly from this range
INIT_RANGE = (0.5, 1.5)


@dataclass
class OuterConfig:
    """The outer minimization: the algorithm, its step budget and
    gradient-norm tolerance, and the start (``random`` draws from
    ``INIT_RANGE`` with ``seed``; an array is the whole stacked outer
    variable, ``v`` then ``w`` or row-major ``W``, in place of every start,
    and another length raises ``ValueError`` before any evaluation).  The
    inner solves use the default :class:`~varprox.inner.InnerConfig`.

    ``lbfgs`` runs the descent loop of :mod:`varprox.optim` with Newton-CG
    directions on the exact Hessian for the screened group lasso (the
    quadratic loss with ``L = Id``: lasso, group lasso, Fourier), and
    L-BFGS directions for every other family and wherever that Hessian has
    no factor (a CG inner solve); ``gradient-descent-bb`` runs
    Barzilai-Borwein steps for every family."""
    algorithm: str = "lbfgs"        # lbfgs | gradient-descent-bb
    max_iter: int = 500
    grad_tol: float = 1e-9
    init: str = "random"            # random | ones | an ndarray
    seed: int = 0

    def __post_init__(self):
        if self.grad_tol <= 0:
            raise ValueError("grad_tol > 0 required")
        if self.max_iter < 0:
            raise ValueError("max_iter >= 0 required")
        if self.algorithm not in ("lbfgs", "gradient-descent-bb"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not (isinstance(self.init, np.ndarray)
                or self.init in ("random", "ones")):
            raise ValueError(f"unknown init {self.init!r}: 'random', 'ones' "
                             "or an ndarray")


@dataclass
class VarProResult:
    """One run's answer (see :func:`_minimize`).  ``x`` is 1-D for one
    right-hand side.  The family objects add ``duality_gap``, the relative
    gap of the group lasso's last finite evaluation and of TV denoising's
    returned ``x`` (quadratic loss, ``A = Id``), and the group lasso's
    ``screened`` count.  Only TV denoising stops on its gap."""
    v: np.ndarray
    x: np.ndarray
    objective: float
    trace: object
    inner: InnerSolution
    w: np.ndarray | None = None
    W: np.ndarray | None = None
    duality_gap: float | None = None
    screened: int | None = None


def _require_identity_L(problem, path):
    """``ValueError`` unless ``problem.L``, which ``path`` never reads, is Id."""
    if not isinstance(problem.L, IdentityOperator):
        raise ValueError(f"{path} needs L = Id, got {type(problem.L).__name__}")


def eval_f_grad(problem, v):
    """Outer value and gradient for the quadratic or interpolation loss.

    Returns ``(f, grad, inner)``.  ``f`` is reassembled from the primal
    pieces ``||v||^2/2 + ||u||^2/2 + F0(A x)`` with ``u = vbar * alpha``.
    Interpolation ``A x = y`` needs ``L = Id`` and one right-hand side
    (else ``ValueError``), and solves the two-factor system at ``v w = v``,
    ``lam = 0``; ``||A x - y||_inf`` above ``inner.FEAS_TOL (1 +
    ||y||_inf)`` raises :class:`InnerSolveError`.
    """
    v = np.asarray(v, dtype=float)
    gs = problem.reg_groups
    loss = problem.loss
    if isinstance(loss, QuadraticLoss):
        sol = inner_mod._dispatch_quadratic(problem.A, problem.L, v, gs,
                                            loss.lam, loss.y)
        fit = float(np.sum((problem.A.apply(sol.x) - loss.y) ** 2)) / (2 * loss.lam)
    elif isinstance(loss, BasisPursuitLoss):
        _require_identity_L(problem, "the interpolation loss")
        y = np.asarray(loss.y, dtype=float).ravel()
        if y.size != problem.A.rows:        # an m-by-T y with T > 1
            raise ValueError("the interpolation loss takes one right-hand "
                             f"side, got y of shape {np.shape(loss.y)}")
        sol = inner_mod.solve_two_factor(problem.A, v, gs, 0.0, y)
        tol = inner_mod.FEAS_TOL * (1.0 + np.abs(y).max(initial=0))
        if not sol.kkt_residual <= tol:     # NaN fails too
            raise InnerSolveError(f"infeasible data: residual {sol.kkt_residual:.3e}")
        sol = replace(sol, x=sol.x[:, 0], alpha=sol.alpha[:, 0], xi=sol.xi[:, 0])
        fit = 0.0
    else:
        raise TypeError("eval_f_grad handles quadratic and interpolation losses")
    u = extend(v, gs) * sol.alpha
    f = 0.5 * float(v @ v) + 0.5 * float(u @ u) + fit
    s = group_sq_norms(sol.alpha, gs)
    grad = v * (1.0 - s)
    return f, grad, sol


def eval_f_grad_robust(problem, v, w):
    """Outer value and both gradient blocks for the robust loss."""
    loss = problem.loss
    if not isinstance(loss, RobustLoss):
        raise TypeError("robust loss required")
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    gs, gl, lam = problem.reg_groups, loss.loss_groups, loss.lam
    sol = inner_mod.solve_robust(problem.A, problem.L, v, gs, w, gl, lam, loss.y)
    u = extend(v, gs) * sol.alpha
    z = lam * extend(w, gl) * sol.xi
    f = (0.5 * float(v @ v) + 0.5 * float(u @ u)
         + float(w @ w) / (2 * lam) + float(z @ z) / (2 * lam))
    s = group_sq_norms(sol.alpha, gs)
    t = group_sq_norms(sol.xi, gl)
    grad_v = v * (1.0 - s)
    grad_w = w / lam - lam * w * t
    return f, grad_v, grad_w, sol


def eval_lq_option2(problem, v, w):
    """Value/gradients with two grouped factors kept on the outer problem.

    Represents the grouped l_{2/3} penalty (or its lasso variant) through
    ``x = u * (v w)`` with ``u`` marginalized.  Returns
    ``(f, grad_v, grad_w, sol)`` where ``sol`` is the
    :class:`~varprox.inner.InnerSolution` of
    :func:`~varprox.inner.solve_two_factor`, whose n-by-T ``x`` is the
    recovered point.  Outside the dual domain (interpolation loss with a
    too-degenerate factor: an inner residual above ``1e-6 (1 + max |Y|)``,
    or an inner system with no solution, :class:`InnerSolveError`) it is
    ``+inf`` with ``sol = None``.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    loss = problem.loss
    if not isinstance(loss, (QuadraticLoss, BasisPursuitLoss)):
        raise TypeError("two-factor path needs a quadratic or interpolation loss")
    _require_identity_L(problem, "the two-factor path")
    lam = loss.lam if isinstance(loss, QuadraticLoss) else 0.0
    gs = problem.reg_groups
    vw = v * w
    try:
        sol = inner_mod.solve_two_factor(problem.A, vw, gs, lam, loss.y)
    except InnerSolveError:
        sol = None
    if sol is None or not sol.kkt_residual <= 1e-6 * (1 + np.abs(loss.y).max()):
        bad = np.full_like(v, np.nan)
        return np.inf, bad, bad, None
    s = group_sq_norms(sol.alpha, gs)
    f = 0.5 * float(v @ v) + 0.5 * float(w @ w) + 0.5 * float(vw ** 2 @ s)
    if isinstance(loss, QuadraticLoss):
        r = (problem.A.to_dense() @ sol.x).ravel() - np.ravel(loss.y)
        f += float(r @ r) / (2 * lam)
    grad_v = v * (1.0 - w ** 2 * s)
    grad_w = w * (1.0 - v ** 2 * s)
    return f, grad_v, grad_w, sol


def eval_lq_option3(problem, v):
    """Value/gradient with a single outer factor and a nested group-lasso
    inner problem (three-level program).

    The inner problem ``min_z ||z||_{1,2} + F0(A (v * z))`` is solved by a
    nested projected run; its primal/dual pair gives
    ``grad = v + (<z_g, (A^T alpha)_g>)_g``.  Quadratic losses only.
    """
    loss = problem.loss
    if not isinstance(loss, QuadraticLoss):
        raise TypeError("single-factor path needs a quadratic loss")
    _require_identity_L(problem, "the single-factor path")
    v = np.asarray(v, dtype=float)
    gs = problem.reg_groups
    vbar = extend(v, gs)
    Ad = problem.A.to_dense()
    scaled = DenseOperator(Ad * vbar[None, :])
    sub = VarProProblem(A=scaled, L=IdentityOperator(scaled.cols),
                        reg_groups=gs, loss=QuadraticLoss(y=loss.y, lam=loss.lam))
    res = solve_varpro(sub, OuterConfig(max_iter=400, grad_tol=1e-10,
                                        init="ones"))
    z = res.x
    alpha = res.inner.xi       # equals grad F0 at the inner optimum
    G = problem.A.adjoint(alpha)
    grad = v + group_dots(z, G, gs)
    f = (0.5 * float(v @ v) + group_norm_12(z, gs)
         + float(np.sum((scaled.apply(z) - loss.y) ** 2)) / (2 * loss.lam))
    return f, grad, {"z": z, "alpha": alpha, "x": vbar * z,
                     "nested_grad_norm": res.trace.grad_norms[-1]}


def eval_multitask(problem, v, W):
    """Value and gradients for the nuclear-norm multitask problem."""
    loss = problem.loss
    if not isinstance(loss, MultitaskLoss):
        raise TypeError("multitask loss required")
    _require_identity_L(problem, "the multitask path")
    v = np.asarray(v, dtype=float)
    W = np.asarray(W, dtype=float)
    sol = inner_mod.solve_multitask_nuclear(problem.A, v, W, loss.lam, loss.Y)
    xi = sol.xi
    row_sq = (sol.alpha * sol.alpha).sum(axis=1)
    f = (0.5 * float(v @ v) + 0.5 * float(np.sum((v ** 2) * row_sq))
         + 0.5 * loss.lam * float(np.sum(W * W))
         + float(np.sum((W.T @ xi) ** 2)) / (2 * loss.lam))
    grad_v = v * (1.0 - row_sq)
    grad_W = loss.lam * W - (xi @ (xi.T @ W)) / loss.lam
    return f, grad_v, grad_W, sol


class _GapSafeScreen:
    """Gap Safe screening of the group lasso
    ``P(x) = sum_g ||x_g|| + ||A x - y||^2 / (2 lam)`` (Ndiaye, Fercoq,
    Gramfort, Salmon, "Gap Safe screening rules for sparsity enforcing
    penalties", JMLR 2017).

    ``out`` marks the groups certified zero at the optimum; it only grows.
    Every evaluation, line search trials included, sets their ``v_g = 0``.
    That zeroes their envelope terms and gradient, drops their columns from
    the m-by-m dual assembly, and leaves the L-BFGS memory as it is; each
    recorded objective is the projected objective at the masked point.
    After a finite evaluation at the masked ``v``, the inner dual ``xi``
    divided by ``s = max(1, max_g ||alpha_g||)`` (``alpha = -A^T xi``) is
    dual feasible, with value ``D = -lam ||xi/s||^2 / 2 - <xi/s, y>``.  The
    dual is ``lam``-strongly concave, so the optimal dual point lies within
    ``sqrt(2 gap / lam)`` of it and a group with
    ``||alpha_g|| / s + ||A_g||_2 sqrt(2 gap / lam) < 1`` is zero at the
    optimum.  The primal value at ``x = vbar^2 alpha`` is read off the
    evaluated ``f``, which already holds the data fit: ``||x_g|| =
    v_g^2 ||alpha_g||``, so ``P = f - sum_g v_g^2 (1 - ||alpha_g||)^2 / 2``.
    The gap is floored at the rounding level of ``P`` and ``D``, never at 0:
    near the optimum ``P - D`` rounds to zero or below, and a zero radius
    would screen an active group whose ``||alpha_g||`` rounds below one.

    The screen also gives the exact Hessian (:meth:`hessp`).  It holds the
    point of its last finite evaluation, the masked ``v``, ``alpha``, the
    mask and the solve on the Cholesky factor of the inner system, which it
    takes off the evaluation's ``InnerSolution.solve``, so no recorded
    solution holds a factor.  A product needs ``alpha`` only through its
    group images ``A_g alpha_g``, so the first product after an evaluation
    forms their matrix once for the groups with ``v_g != 0``, one
    ``einsum`` per group size over ``A``'s columns, and every product of
    that outer step is two passes over it.  The screen drops the point,
    with that matrix, when any evaluation starts: no factor outlives the
    next evaluation's start.
    """

    gap = None          # the gap is reported, never a stop

    def __init__(self, problem):
        self.problem = problem
        self.gs = problem.reg_groups
        self.lam = problem.loss.lam
        self.y = np.asarray(problem.loss.y, dtype=float).ravel()
        self.norms = _group_spectral_norms(problem.A, self.gs)
        self.out = np.zeros(self.gs.n_groups, dtype=bool)
        self.rel_gap = None
        self.point = self.images = None

    def mask(self, v):
        return np.where(self.out, 0.0, v)

    def eval_f_grad(self, v):
        """:func:`eval_f_grad` at the masked ``v``; a finite value updates
        the gap and the screened groups, and one whose inner solution has a
        ``solve`` is the point of :meth:`hessp`."""
        self.point = self.images = None
        live = ~self.out
        v = self.mask(v)
        f, grad, sol = eval_f_grad(self.problem, v)
        solve, sol.solve = sol.solve, None
        if not np.isfinite(f):
            return f, grad, sol
        a = np.sqrt(group_sq_norms(sol.alpha, self.gs))
        if solve is not None:
            self.point = (v, sol.alpha, 1.0 - a * a, live, solve)
        s = max(1.0, float(a.max(initial=0.0)))
        primal = f - 0.5 * float(np.sum(v * v * (1.0 - a) ** 2))
        xi = sol.xi / s
        dual = -0.5 * self.lam * float(xi @ xi) - float(xi @ self.y)
        scale = max(abs(primal), abs(dual), 1.0)
        gap = max(primal - dual, 16 * np.finfo(float).eps * scale)
        self.rel_gap = gap / scale
        self.out |= a / s + self.norms * np.sqrt(2 * gap / self.lam) < 1.0
        return f, grad, sol

    def hessp(self, dv):
        """``H dv``, the Hessian of the objective at the point of the last
        finite evaluation, or None when that evaluation kept no factor.

        With ``M = A diag(vbar^2) A^T + lam I`` factored by that
        evaluation, ``alpha`` enters the Hessian only through the group
        images ``b_g = A_g alpha_g``: with ``B = [b_g]`` over the groups
        ``K`` where ``v`` is nonzero (the others add nothing),
        ``H = diag(1 - s) + 4 diag(v) B^T M^-1 B diag(v)``, so
        ``H dv = dv (1 - s) + 4 v B^T M^-1 B (v dv)``, zero on the groups
        the evaluation masked.  ``B`` (m-by-``|K|``, the group size times
        narrower than the columns ``A_K``) is formed at the first product
        after an evaluation and dropped at the next evaluation, so none
        lives through a line search."""
        if self.point is None:
            return None
        v, alpha, one_minus_s, live, solve = self.point
        if self.images is None:
            keep = v != 0
            self.images = (keep, v[keep], _group_images(
                self.problem.A.to_dense(), alpha, self.gs, keep))
        keep, vk, B = self.images
        hdv = dv * one_minus_s
        hdv[keep] += 4.0 * vk * (solve(B @ (vk * dv[keep])) @ B)
        hdv[~live] = 0.0
        return hdv

    def result(self, fields):
        """``v`` and ``x`` zero on the screened groups (the last evaluation
        may have screened groups it still held), the last gap and the
        screened count."""
        fields["x"][self.out[self.gs.group_of]] = 0.0
        return {"v": self.mask(fields["v"]), "duality_gap": self.rel_gap,
                "screened": int(self.out.sum())}


# the most accelerated projected-gradient steps of one TV duality-gap check:
# with 30, the gap of some 12x12x3 runs stays above optim.GAP_TOL long after
# the primal has converged, and their checks cost more than the saved steps.
# A check ends sooner at its first step with a gap at most GAP_TOL
DUAL_STEPS = 80
# a check also ends once its gap, falling at the rate of its last
# DUAL_WINDOW steps, would still be above GAP_TOL after DUAL_STEPS (a gap
# that rose over the window ends it too): on 12x12x3 a failing check has
# stopped falling by step 30 to 40, and a passing one certifies after a
# median of about 25 steps
DUAL_WINDOW = 10


class _ProxDual:
    """Duality gap of TV denoising, the quadratic loss with ``A = Id``:
    ``P(x) = ||L x||_{1,2} + ||x - y||^2 / (2 lam)`` against the dual
    ``D(alpha) = <L^T alpha, y> - lam ||L^T alpha||^2 / 2`` over the unit
    group balls, whose maximizer gives ``x = y - lam L^T alpha``.

    The inner ``alpha`` is a poor dual point: it is defined only up to
    ``ker L^T``, and a group with ``v_g`` near zero can hold
    ``||alpha_g|| > 1``.  So :meth:`gap` projects it group-wise onto the
    unit balls and runs FISTA steps on ``D`` (projected gradient on the
    dual, Chambolle, JMIV 2004; accelerated as in Beck and Teboulle, IEEE
    TIP 2009).  ``grad D = L (y - lam L^T alpha)`` is
    ``lam ||L||^2``-Lipschitz, and ``||L||^2 <= ||L||_1 ||L||_inf`` (8 for
    a 2-D gradient) sets the step.  Both norms of a block-diagonal ``L``
    are those of one block, so they are read off the memoized sparse form
    of the channel block, which the inner solves build anyway.

    Every step's projected point is a dual point, and its ``D`` costs two
    dot products, since its ``L^T`` image is the one the next step needs
    (:meth:`_steps`).  So a check takes the gap at each step and ends at
    the first step whose gap is at most ``optim.GAP_TOL`` (``certified``),
    once the gap cannot get there within ``DUAL_STEPS`` (``stalled``, see
    ``DUAL_WINDOW``), or after ``DUAL_STEPS`` (``budget``).  ``rel_gap``
    is the smallest ``(P - D) / max(|P|, |D|, 1)`` of its steps, with ``P``
    at the inner solution's ``x``, and ``checks`` holds ``(steps, rel_gap,
    ending)`` for each check made.  The descent loop asks for the gap as
    :mod:`varprox.optim` says; a run that never certifies ends as it would
    without the gap, and the result carries the gap of its answer either way.
    """

    hessp = None        # the descent keeps its L-BFGS direction

    def __init__(self, problem):
        self.problem = problem
        self.y = np.asarray(problem.loss.y, dtype=float).ravel()
        S = abs(problem.L.channel_blocks()[1].to_sparse())
        bound = S.sum(axis=0).max(initial=0.0) * S.sum(axis=1).max(initial=0.0)
        self.step = 1.0 / (problem.loss.lam * max(float(bound), 1e-300))
        self.rel_gap = self.at = None
        self.checks = []

    def eval_f_grad(self, v):
        return eval_f_grad(self.problem, v)

    def result(self, fields):
        """The gap of the returned ``inner`` solution."""
        return {"duality_gap": self.gap(fields["inner"])}

    def _value(self, u):
        """``D`` at the dual point whose ``L^T`` image is ``u``."""
        return float(u @ self.y) - 0.5 * self.problem.loss.lam * float(u @ u)

    def _steps(self, alpha):
        """FISTA on ``D`` from ``alpha`` projected onto the unit balls:
        yields ``(nxt, D(nxt))`` at each step, ``nxt`` the step's projected
        point.  A step makes one ``L.apply`` and one ``L.adjoint``: the
        extrapolated point's image ``L^T z`` is formed by linearity from the
        images of the last two points, while ``D`` is always taken at the
        ``L^T`` image of a projected point."""
        prob, y = self.problem, self.y
        L, gs, lam = prob.L, prob.reg_groups, prob.loss.lam
        alpha = z = _project_group_ball(alpha, gs)
        u = uz = L.adjoint(alpha)
        t = 1.0
        while True:
            nxt = _project_group_ball(z + self.step * L.apply(y - lam * uz), gs)
            un = L.adjoint(nxt)
            yield nxt, self._value(un)
            t_nxt = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_nxt
            z = nxt + beta * (nxt - alpha)
            uz = un + beta * (un - u)
            alpha, u, t = nxt, un, t_nxt

    def gap(self, sol):
        """The relative gap at the inner solution ``sol``; kept for the last
        ``sol`` asked about, so asking again costs nothing."""
        if sol is self.at:
            return self.rel_gap
        primal = nonsmooth_objective(self.problem, sol.x)
        gaps, ending = [], "budget"
        steps = islice(self._steps(sol.alpha), DUAL_STEPS)
        for k, (_, dual) in enumerate(steps):
            gap = (primal - dual) / max(abs(primal), abs(dual), 1.0)
            gaps.append(gap)
            if gap <= GAP_TOL:
                ending = "certified"
                break
            if DUAL_WINDOW <= k < DUAL_STEPS - 1 and gap - GAP_TOL > (
                    (DUAL_STEPS - 1 - k) / DUAL_WINDOW
                    * (gaps[k - DUAL_WINDOW] - gap)):
                ending = "stalled"
                break
        self.rel_gap = min(gaps)
        self.checks.append((len(gaps), self.rel_gap, ending))
        self.at = sol
        return self.rel_gap


def _outer(config, rng, starts, envelope):
    """The one outer layout: the blocks of ``starts`` (an ordered ``{name:
    start}`` of one or two) stacked in one vector.  A start is an array, or
    the size of a block drawn as ``config.init`` says (``rng`` draws in
    block order).  Returns ``(theta0, evaluate, split)``: one block's
    ``evaluate`` is ``envelope``; two blocks' hands ``envelope`` the blocks
    in their start shapes and stacks the raveled gradients of its
    ``(f, grad_a, grad_b, sol)``.  ``split(theta)`` gives ``{name: block}``
    in the start shapes.
    """
    array = isinstance(config.init, np.ndarray)
    blocks = {name: start if isinstance(start, np.ndarray)
              else np.ones(start) if array or config.init == "ones"
              else rng.uniform(*INIT_RANGE, start) for name, start in starts.items()}
    theta0 = np.concatenate([b.ravel() for b in blocks.values()])
    if array:
        if config.init.shape != theta0.shape:
            raise ValueError(f"init has shape {config.init.shape}; the stacked "
                             f"start of {', '.join(blocks)} has length {theta0.size}")
        theta0 = config.init.astype(float)
    (a, first), *rest = blocks.items()
    if not rest:
        return theta0, envelope, lambda theta: {a: theta}
    [(b, second)] = rest
    cut, shape = first.size, second.shape

    def evaluate(theta):
        f, grad_a, grad_b, sol = envelope(theta[:cut], theta[cut:].reshape(shape))
        return f, np.concatenate([grad_a, grad_b.ravel()]), sol

    return theta0, evaluate, lambda theta: {
        a: theta[:cut], b: theta[cut:].reshape(shape)}


def _minimize(config, rng, starts, envelope, name, family):
    """The one outer driver: minimize ``envelope`` over the blocks of
    ``starts`` as :func:`_outer` lays them out, and return the one
    :class:`VarProResult`.  An :class:`InnerSolveError` or a non-finite
    value scores ``+inf``.

    ``family`` is None or a family object (:class:`_GapSafeScreen`,
    :class:`_ProxDual`).  A ``family.gap`` that is not None is the
    objective's ``certify``, asked at the last finite evaluation, which is
    the accepted point when the descent loop asks; a ``family.hessp`` that
    is not None is its ``hessp`` under ``lbfgs``, at that same point.  The result holds the
    blocks of the returned ``theta`` and the inner solution of the lowest
    finite value, which is the accepted point unless a rejected trial of
    the line search scored lower; when that is not at ``theta``, or there
    was no finite evaluation, ``theta`` is evaluated once more, so an inner
    failure there raises.  ``x`` is that solution's (1-D for one right-hand
    side, None without one), and ``family.result`` adds its fields.  A
    family with a gap lists its checks in ``trace.aux["gap_checks"]``.
    """
    theta0, evaluate, split = _outer(config, rng, starts, envelope)
    gap = None if family is None else family.gap
    low = low_at = last = None
    f_low = np.inf

    def fun(theta):
        nonlocal low, low_at, f_low, last
        try:
            f, grad, sol = evaluate(theta)
        except InnerSolveError:
            return np.inf, np.zeros_like(theta)
        if not np.isfinite(f):
            return np.inf, np.zeros_like(theta)
        if gap is not None:     # the accepted point's, when certify asks
            last = sol
        if f < f_low:
            low, low_at, f_low = sol, theta, f
        return f, grad

    if gap is not None:
        fun.certify = lambda: gap(last)
    if family is not None and family.hessp and config.algorithm == "lbfgs":
        fun.hessp = family.hessp

    minimize = minimize_lbfgs if config.algorithm == "lbfgs" else minimize_gd_bb
    theta, f, _, trace = minimize(fun, theta0, config.max_iter, config.grad_tol,
                                  method_name=name)
    if low_at is None or not np.array_equal(low_at, theta):
        low = evaluate(theta)[2]
    x = None if low is None else low.x[:, 0] if low.x.shape[1:] == (1,) else low.x
    fields = {"x": x, "inner": low, **split(theta)}
    if family is not None:
        fields.update(family.result(fields))
    if gap is not None:
        trace.aux["gap_checks"] = family.checks
    return VarProResult(objective=f, trace=trace, **fields)


def solve_varpro(problem, config=None):
    """Minimize the projected objective for the configured loss family.

    Dispatches on the loss type: a single grouped factor for quadratic and
    interpolation losses, ``(v, w)`` for robust losses, ``(v, W)`` for the
    multitask problem.  Returns a :class:`VarProResult` whose trace records
    every accepted iterate.  Two quadratic families evaluate through their
    family object: the group lasso (``L = Id``) is screened by
    :class:`_GapSafeScreen`, whose gap is only reported and whose exact
    Hessian gives ``lbfgs`` its Newton-CG steps, and TV denoising
    (``A = Id``) ends on ``certified`` once the gap of :class:`_ProxDual`
    is at most ``optim.GAP_TOL``.  Every evaluation goes through the module
    attribute of its family's envelope (``eval_f_grad``,
    ``eval_f_grad_robust``, ``eval_multitask``).  The inner solves run
    with the default :class:`~varprox.inner.InnerConfig`; each starts from
    scratch, with nothing carried over from the previous evaluation.
    """
    config = config or OuterConfig()
    gs, loss = problem.reg_groups, problem.loss
    quadratic, family = isinstance(loss, QuadraticLoss), None
    if quadratic or isinstance(loss, BasisPursuitLoss):
        prefix, starts = "", {"v": gs.n_groups}
        if quadratic and isinstance(problem.L, IdentityOperator):
            family = _GapSafeScreen(problem)
        elif quadratic and isinstance(problem.A, IdentityOperator):
            family = _ProxDual(problem)
        envelope = family.eval_f_grad if family else partial(eval_f_grad, problem)
    elif isinstance(loss, RobustLoss):
        prefix = "robust-"
        starts = {"v": gs.n_groups, "w": loss.loss_groups.n_groups}
        envelope = partial(eval_f_grad_robust, problem)
    elif isinstance(loss, MultitaskLoss):
        prefix, starts = "multitask-", {"v": problem.A.cols,
                                        "W": np.eye(problem.A.rows)}
        envelope = partial(eval_multitask, problem)
    else:
        raise TypeError(f"unsupported loss {type(loss).__name__}")
    return _minimize(config, np.random.default_rng(config.seed), starts,
                     envelope, "varpro-" + prefix + config.algorithm, family)


def _lq_warm_factors(problem):
    """Closed-form factor magnitudes from a cheap least-squares warm point
    (magnitude roots split evenly across the factors): the two-factor inner
    solution at ``v w = 1``, ``X = A^T (A A^T + lam I)^-1 Y``."""
    loss = problem.loss
    lam = loss.lam if isinstance(loss, QuadraticLoss) else 0.0
    gs = problem.reg_groups
    X = inner_mod.solve_two_factor(problem.A, np.ones(gs.n_groups), gs, lam,
                                   loss.y).x
    norms = np.sqrt(group_sq_norms(X, gs))
    floor = 1e-3 * max(norms.max(initial=0.0), 1e-12)
    base = np.maximum(norms, floor) ** (1.0 / 3.0)
    return np.concatenate([base, base])


def solve_lq_option2(problem, config=None, restarts=1):
    """Minimize the two-outer-factor objective, best result over restarts.

    The first start is the closed-form factor split of a least-squares
    warm point; with ``init = "random"`` the others are seeded draws
    (restarts are the standard remedy for the spurious basins of the
    nonconvex landscape).  A fixed ``init`` takes one start: ``"ones"`` the
    warm split, an array itself.  The result carries the
    :class:`~varprox.inner.InnerSolution` of its answer as ``inner`` and
    ``x`` read from it (1-D for one right-hand side); a start with no
    finite evaluation gives ``x=None``, ``inner=None``, objective ``inf``.
    ``restarts`` below 1 and an ``L`` that is not Id each raise
    ``ValueError`` before any solve.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    config = config or OuterConfig()
    _require_identity_L(problem, "the two-factor path")
    nv = problem.reg_groups.n_groups
    rng = np.random.default_rng(config.seed)
    warm = _lq_warm_factors(problem)
    envelope = partial(eval_lq_option2, problem)
    best = None
    draws = isinstance(config.init, str) and config.init == "random"
    for k in range(restarts if draws else 1):
        starts = {"v": warm[:nv], "w": warm[nv:]} if k == 0 else {"v": nv, "w": nv}
        result = _minimize(config, rng, starts, envelope, "varpro-lq2", None)
        if best is None or result.objective < best.objective:
            best = result
    return best


def nonsmooth_objective(problem, x):
    """Original non-smooth objective at ``x``, a float (cross-solver checks)."""
    x = np.asarray(x, dtype=float).ravel()
    loss = problem.loss
    reg = group_norm_12(problem.L.apply(x), problem.reg_groups)
    if isinstance(loss, QuadraticLoss):
        r = problem.A.apply(x) - loss.y
        return float(reg + float(r @ r) / (2 * loss.lam))
    if isinstance(loss, RobustLoss):
        r = problem.A.apply(x) - loss.y
        return float(reg + group_norm_12(r, loss.loss_groups) / loss.lam)
    if isinstance(loss, BasisPursuitLoss):
        return float(reg)
    raise TypeError(f"unsupported loss {type(loss).__name__}")
