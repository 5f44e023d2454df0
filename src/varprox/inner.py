"""Dual inner solvers.

Every inner problem is the concave dual of one symmetric saddle system in
``(alpha, xi, x)``, validated by the finite-difference gradient tests
upstream::

    d_alpha * alpha  + L x = 0
    d_xi * xi        + A x = y
    L^T alpha + A^T xi     = 0

Only the diagonal pair ``(d_alpha, d_xi)`` changes with the loss:

===============================  ===========  ================
loss                             ``d_alpha``  ``d_xi``
===============================  ===========  ================
quadratic ``||z-y||^2/(2 lam)``  ``-vbar^2``  ``-lam``
robust (variational)             ``vbar^2``   ``lam * wbar^2``
exact interpolation ``A x = y``  ``-vbar^2``  ``0``
===============================  ===========  ================

Every route returns ``(x, alpha, xi)`` with one certificate, the max norm
of the residual rows its recovery formulas leave open (row 1 after ``A =
Id``, row 3 after ``x`` first, row 2 after ``L = Id``, all three, ``_kkt``,
with no elimination), after one of four eliminations:

* none, ``_saddle_route``: the full system, sparse, by SuperLU, with
  ``|d_alpha|`` floored (the general quadratic route, TV inpainting), on a
  layout assembled once per ``(A, L)`` whose two diagonal blocks each
  solve refills;
* ``A = Id``, ``_prox_route``: ``xi = -L^T alpha``, ``x = y - d_xi xi`` and
  a sparse p-by-p system in ``alpha`` (TV denoising, robust prox);
* ``x`` first, ``_from_x_route``: ``alpha`` and ``xi`` from rows 1 and 2
  (CG on the general route's reduced system, and Woodbury);
* ``L = Id``, ``_from_xi_route``: ``alpha`` and ``x`` from ``xi``, which
  solves ``(A diag(d) A^T - d_xi) xi = -y``, ``d = -d_alpha`` (the group
  dual, the two-factor path and interpolation, the robust dual with
  ``d_xi = lam wbar^2``, and multitask with ``d_xi = -W W^T / lam``).

``_dispatch_quadratic`` picks the quadratic route from the problem's
structure; each route owns its value-dependent fallbacks.

Direct factorizations by default, conjugate gradients on a positive
definite reduced form when requested (and by ``auto`` on an m-by-m dual
above ``DIRECT_SIZE_LIMIT`` unknowns).  Every positive definite system but
a band goes through ``_psd_solve``; a dense one is factored by LAPACK
``dpotrf``/``dpotrs`` called directly (``cholesky_factor``,
``cholesky_solve``), without the per-call wrapper of
``scipy.linalg.cho_factor``, which costs more than the factorization at
m <= 32.  The m-by-m dual system ``A diag(d) A^T + diag(shift)`` (group
lasso, overlapping groups, multitask, the two-factor path and the robust
dual) has one assembler, ``_dual_matrix``, which forms ``B B^T`` by BLAS
``syrk`` from the columns with ``d > 0`` only (the group lasso's screened
groups have ``v_g = 0``); ``_dual_solve`` adds its matrix-free CG.  A
factor is used once and dropped, but for one: ``solve_grouplasso_dual``
returns the solve on the upper Cholesky factor of its dense system as
``InnerSolution.solve``, which the group lasso's exact Hessian-vector
products reuse until its next evaluation starts.

The ``A = Id`` system ``diag(d) + lam L diag(s) L^T`` is a band matrix
once its rows are renumbered in reverse Cuthill-McKee order.
``_prox_solve`` assembles it on the band layout memoized on ``L``
(:class:`~varprox.linops.CogramPattern`), which ``_band_solve`` factors by
LAPACK ``dpbtrf``/``dpbtrs``, whose per-call cost at these sizes is a small
fraction of a general sparse factorization's ordering and symbolic
analysis.  A band wider than ``linops.BAND_ENTRIES`` entries (a square
image block from 128 by 128) grows faster in time and memory than
SuperLU's fill, so that system, like a band that fails to factor even
after the jitter, is formed from ``L.to_sparse()`` and solved by
``_psd_solve`` on SuperLU (``_spd_factor``).  A multichannel gradient is
block diagonal over the channels and the TV groups tie every pixel's
channels together, so ``d`` and ``s`` repeat per channel: then one
channel's 2hw-by-2hw block is factored and solved for ``C`` right-hand
sides.  Any other ``L``, or weights that differ by channel, factor the
whole system, whose band is as narrow as one block's.
"""

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .groups import GroupStructure, extend
from .linops import BlockExtractOperator, IdentityOperator

__all__ = [
    "InnerConfig", "InnerSolution", "InnerSolveError",
    "solve_quadratic_general", "solve_grouplasso_dual", "solve_analysis_prox",
    "solve_overlap_woodbury", "solve_robust", "solve_multitask_nuclear",
    "solve_two_factor", "cholesky_factor", "cholesky_solve",
]


class InnerSolveError(RuntimeError):
    """Raised when an inner linear system cannot be solved reliably."""


CG_TOL = 1e-10                  # relative residual that ends a CG run
CG_STEPS_PER_UNKNOWN = 10       # CG step budget: this many per unknown
DIRECT_SIZE_LIMIT = 2000        # ``auto`` factors up to this many unknowns
ZERO_THRESHOLD = 1e-8           # a ``vbar`` entry below this * max is zero
JITTER = 1e-12                  # relative diagonal shift of a retried Cholesky
FEAS_TOL = 1e-8                 # relative ``||A x - y||_inf`` of interpolation


@dataclass
class InnerConfig:
    """The inner solve method, ``auto``, ``direct`` or ``cg``, read by the
    CG paths of ``solve_grouplasso_dual`` and ``solve_overlap_woodbury``
    (``auto``: CG above ``DIRECT_SIZE_LIMIT`` unknowns) and of
    ``solve_quadratic_general`` (``auto``: never, its sparse saddle system
    is factored at every size).  ``solve_analysis_prox`` rejects ``cg``
    with ``ValueError``; the other routes always factor."""

    method: str = "auto"

    def __post_init__(self):
        if self.method not in ("auto", "direct", "cg"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass
class InnerSolution:
    """Primal/dual solution of one inner maximization.

    ``kkt_residual`` is the max norm over the stationarity equations;
    ``system_size`` records the dimension of the linear system solved.
    ``solve(b)`` solves ``M z = b`` on the upper Cholesky factor of the
    group dual's ``M`` (the jittered one after a retry); it is None after
    CG, the ``_sym_solve`` fallback and on every other route.
    """

    x: np.ndarray
    alpha: np.ndarray
    xi: np.ndarray
    kkt_residual: float
    system_size: int
    method: str
    solve: object


DEFAULT = InnerConfig()


def _cg(matvec, b):
    """Plain conjugate gradients for SPD systems from zero, to the relative
    residual ``CG_TOL``; raises :class:`InnerSolveError` when
    ``CG_STEPS_PER_UNKNOWN`` steps per unknown do not converge."""
    b = np.asarray(b, dtype=float)
    n = b.size
    x = np.zeros(n)
    r = b - matvec(x)
    p = r.copy()
    rs = np.dot(r, r)
    bnorm = max(np.linalg.norm(b), 1e-300)
    for _ in range(CG_STEPS_PER_UNKNOWN * n):
        if np.sqrt(rs) <= CG_TOL * bnorm:
            return x
        ap = matvec(p)
        alpha = rs / np.dot(p, ap)
        x += alpha * p
        r -= alpha * ap
        rs_new = np.dot(r, r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    if np.sqrt(rs) <= CG_TOL * bnorm:
        return x
    raise InnerSolveError(f"CG did not converge (relres={np.sqrt(rs) / bnorm:.3e})")


def _spd_factor(M):
    """SuperLU factorization of a symmetric CSC matrix, or ``None`` where a
    Cholesky factorization would fail.

    Symmetric mode with diagonal pivots makes SuperLU an ``L D L^T``
    factorization: it is accepted only when no row was swapped and every
    pivot (the diagonal of ``U``) is positive.
    """
    try:
        lu = scipy.sparse.linalg.splu(M, permc_spec="MMD_AT_PLUS_A",
                                      diag_pivot_thresh=0,
                                      options=dict(SymmetricMode=True))
    except RuntimeError:            # "Factor is exactly singular"
        return None
    if np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0):
        return lu
    return None


def cholesky_factor(M, overwrite=False):
    """Upper Cholesky factor of a dense ``M`` by LAPACK ``dpotrf``, or
    ``None`` where it fails (a leading minor is not positive).

    These are the calls ``scipy.linalg.cho_factor`` makes, without its
    per-call wrapper; the strict lower triangle is left as it was.  The
    routine is looked up at call time, so it can be wrapped from outside.
    """
    c, info = scipy.linalg.lapack.dpotrf(M, lower=False, clean=False,
                                         overwrite_a=overwrite)
    if info > 0:
        return None
    if info < 0:
        raise ValueError(f"dpotrf: illegal value in argument {-info}")
    return c


def cholesky_solve(fac, b):
    """Solve ``M z = b`` (``b`` 1-D or 2-D) from
    ``fac = cholesky_factor(M)`` by LAPACK ``dpotrs``, as
    ``scipy.linalg.cho_solve`` does."""
    z, info = scipy.linalg.lapack.dpotrs(fac, b, lower=False)
    if info != 0:
        raise ValueError(f"dpotrs: illegal value in argument {-info}")
    return z


def _psd_solve(M, b, what):
    """The one solve of a positive (semi)definite ``M z = b``, with ``M`` a
    dense array or a symmetric CSC matrix: Cholesky (:func:`_spd_factor`
    for sparse ``M``), then the same after a relative diagonal ``JITTER``,
    then the dense :func:`_sym_solve`.  Returns ``(z, fac)``: ``fac`` is
    the upper Cholesky factor of a dense ``M`` that ``z`` came from (the
    jittered one after a retry), None for a sparse ``M`` or the fallback.

    These systems lose rank exactly on the kernel of the adjoint factor,
    where the recovered primal is insensitive to the dual component, so the
    jittered factorization returns a valid maximizer.  The stationarity
    residual is always re-checked by the caller.  :func:`_band_solve` makes
    the first two steps on the band systems of the ``A = Id`` routes.
    """
    dense = isinstance(M, np.ndarray)   # issparse's ABC check would grow caches
    fac = cholesky_factor(M) if dense else _spd_factor(M)
    if fac is None:
        p = M.shape[0]
        eps = _jitter(M.diagonal())
        if dense:       # the jittered copy is the factorization's to overwrite
            fac = cholesky_factor(M + eps * np.eye(p), overwrite=True)
        else:
            fac = _spd_factor(M + eps * scipy.sparse.eye_array(p, format="csc"))
    if fac is None:
        return _sym_solve(M if dense else M.toarray(), b, what), None
    if dense:
        return cholesky_solve(fac, b), fac
    return fac.solve(b), None


def _jitter(diagonal):
    """The diagonal shift of a retried Cholesky: ``JITTER`` times the
    largest diagonal magnitude."""
    return JITTER * max(float(np.abs(diagonal).max(initial=0.0)), 1e-300)


def _band_solve(pattern, s, d, lam, b):
    """Solve ``(diag(d) + lam A diag(s) A^T) z = b``, ``b`` 1-D or one column
    per right-hand side, on the band layout of
    :class:`~varprox.linops.CogramPattern` ``pattern`` of ``A``: LAPACK
    ``dpbtrf``, then the same after a relative diagonal ``JITTER``, as in
    :func:`_psd_solve`; one ``dpbtrs`` solves every right-hand side in the
    order ``pattern.perm``.  Each factorization overwrites its band, so the
    retry assembles it again.  Returns ``None`` when both fail.
    """
    lapack = scipy.linalg.lapack     # looked up at call time, to be wrapped
    fac, info = lapack.dpbtrf(pattern.band(s, d, lam), overwrite_ab=1)
    if info > 0:
        ab = pattern.band(s, d, lam)
        ab[-1] += _jitter(ab[-1])
        fac, info = lapack.dpbtrf(ab, overwrite_ab=1)
    if info < 0:
        raise ValueError(f"dpbtrf: illegal value in argument {-info}")
    if info > 0:
        return None
    zp, info = lapack.dpbtrs(fac, b[pattern.perm], overwrite_b=1)
    if info != 0:
        raise ValueError(f"dpbtrs: illegal value in argument {-info}")
    z = np.empty_like(zp)
    z[pattern.perm] = zp
    return z


def _dual_matrix(A, d, shift):
    """Dense ``A diag(d) A^T + diag(shift)`` for ``d >= 0`` and a scalar or
    length-m array ``shift``: ``B B^T`` with ``B = A_K diag(sqrt(d_K))``
    over the columns ``K`` where ``d`` is nonzero (BLAS ``syrk``, half the
    flops of a general product, and its cost scales with ``|K|``: a
    screened or vanished group adds nothing), the shift added in place on
    the diagonal.  ``B`` is the one m-by-|K| temporary: with a zero in
    ``d`` it is gathered by ``np.compress`` and scaled in place, otherwise
    formed in one pass (a gather of every column would only add a copy)."""
    Ad = A.to_dense()
    if np.count_nonzero(d) == d.size:
        B = Ad * np.sqrt(d)
    else:
        keep = d != 0
        B = np.compress(keep, Ad, axis=1)
        B *= np.sqrt(d[keep])
    M = B @ B.T
    if isinstance(shift, np.ndarray) or shift:     # a scalar 0 adds nothing
        M.flat[:: M.shape[0] + 1] += shift
    return M


def _dual_solve(A, d, shift, b, cfg, what):
    """Solve ``(A diag(d) A^T + shift I) z = b`` for one right-hand side:
    matrix-free CG when ``cfg`` asks for it at size ``m``, otherwise one
    :func:`_psd_solve` of :func:`_dual_matrix`.  Returns ``(z, method,
    fac)``, ``fac`` the dense factor of :func:`_psd_solve` (None after CG)."""
    if cfg.method == "cg" or (cfg.method == "auto"
                              and A.rows > DIRECT_SIZE_LIMIT):
        def matvec(z):
            return A.apply(d * A.adjoint(z)) + shift * z

        return _cg(matvec, b), "cg", None
    z, fac = _psd_solve(_dual_matrix(A, d, shift), b, what)
    return z, "direct", fac


def _prox_solve(L, d, s, lam, b, what):
    """Solve ``(diag(d) + lam L diag(s) L^T) z = b``: :func:`_band_solve` on
    the memoized layout of ``L`` when it is ``banded``; a band too wide or
    that fails to factor is formed from ``L.to_sparse()`` and solved by
    :func:`_psd_solve`.  When ``L`` is ``C`` equal diagonal blocks and
    ``d``, ``s`` repeat across them, the system is ``C`` copies of one
    block: factor that block once and solve for the ``C`` slices of ``b`` as
    right-hand sides."""
    C, B = L.channel_blocks()
    dc, sc = d.reshape(C, -1), s.reshape(C, -1)
    block = C > 1 and (dc == dc[0]).all() and (sc == sc[0]).all()
    if block:
        L, d, s, b = B, dc[0], sc[0], b.reshape(C, -1).T
    pattern = L.cogram_pattern()
    z = _band_solve(pattern, s, d, lam, b) if pattern.banded else None
    if z is None:
        S = L.to_sparse()
        M = lam * (S * s) @ S.T + scipy.sparse.diags_array(d)
        z = _psd_solve(M.T, b, what)[0]     # symmetric: the CSC of its CSR
    return z.T.ravel() if block else z


def _sym_solve(M, b, what):
    """Symmetric-indefinite solve with a least-squares fallback.

    Ill-conditioning warnings are suppressed: accuracy is certified by the
    stationarity residual the callers attach to every solution.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            sol = scipy.linalg.solve(M, b, assume_a="sym", check_finite=False)
        if np.all(np.isfinite(sol)):
            return sol
    except (scipy.linalg.LinAlgError, ValueError):
        pass
    sol = scipy.linalg.lstsq(M, b, check_finite=False, lapack_driver="gelsd")[0]
    if not np.all(np.isfinite(sol)):
        raise InnerSolveError(f"{what}: factorization produced non-finite values")
    return sol


def _vbar(v, gs):
    if not isinstance(gs, GroupStructure):
        raise TypeError("group structure required")
    return extend(np.asarray(v, dtype=float), gs)


def _kkt(A, L, d_alpha, d_xi, y, x, alpha, xi):
    """Max norm of the saddle system's residual at ``(alpha, xi, x)``;
    ``d_xi`` may be a scalar."""
    return _max_norm(d_alpha * alpha + L.apply(x), d_xi * xi + A.apply(x) - y,
                     L.adjoint(alpha) + A.adjoint(xi))


def _max_norm(*rows):
    """The largest magnitude over the residual ``rows``."""
    return float(max(np.abs(r).max(initial=0) for r in rows))


def _saddle_layout(A, L):
    """The CSC saddle matrix of ``A`` and ``L`` with identity diagonal
    blocks, and the positions in its ``data`` of those two diagonals, in
    row order.  Only the diagonals change between solves, so the layout is
    memoized on ``L`` for the last ``A`` it met; a diagonal entry keeps its
    position where a solve's value is 0."""
    memo = getattr(L, "_saddle_layout", None)
    if memo is None or memo[0] is not A:
        p, m = L.rows, A.rows
        Ls, As = L.to_sparse(), A.to_sparse()
        M = scipy.sparse.block_array(
            [[scipy.sparse.eye_array(p), None, Ls],
             [None, scipy.sparse.eye_array(m), As],
             [Ls.T, As.T, None]], format="csc")
        col = np.repeat(np.arange(M.shape[1]), np.diff(M.indptr))
        diag = np.flatnonzero((M.indices == col) & (col < p + m))
        memo = L._saddle_layout = (A, M, diag)
    return memo[1], memo[2]


def _saddle_route(A, L, d_alpha, d_xi, y):
    """No elimination: the full system on the memoized layout of
    :func:`_saddle_layout`, its two diagonal blocks refilled, factored by
    SuperLU (by the dense :func:`_sym_solve` where SuperLU finds it exactly
    singular).  A zero in ``d_alpha`` frees ``alpha`` in the kernel of
    ``L^T`` on its rows (a divergence-free cycle of a TV gradient), so the
    factored ``|d_alpha|`` has a symmetric quasidefinite floor,
    ``_jitter(d_alpha)`` on its block's sign; the certificate takes the
    true ``d_alpha``."""
    p, m = L.rows, A.rows
    sign = -1.0 if d_alpha.min(initial=0.0) < 0 else 1.0
    M, diag = _saddle_layout(A, L)
    M.data[diag[:p]] = sign * np.maximum(np.abs(d_alpha), _jitter(d_alpha))
    M.data[diag[p:]] = d_xi
    rhs = np.concatenate([np.zeros(p), y, np.zeros(A.cols)])
    try:
        sol = scipy.sparse.linalg.splu(M).solve(rhs)
    except RuntimeError:            # "Factor is exactly singular"
        sol = _sym_solve(M.toarray(), rhs, "saddle system")
    alpha, xi, x = sol[:p], sol[p:p + m], sol[p + m:]
    res = _kkt(A, L, d_alpha, d_xi, y, x, alpha, xi)
    return InnerSolution(x, alpha, xi, res, M.shape[0], "direct-extended", None)


def _prox_route(L, vbar, lam, s, y, sign, what):
    """``A = Id`` with ``(d_alpha, d_xi) = sign * (vbar^2, lam s)``:
    ``alpha`` solves ``(diag(vbar^2) + lam L diag(s) L^T) alpha = -sign L y``
    by :func:`_prox_solve`, then ``xi = -L^T alpha`` and
    ``x = y - d_xi xi``.  Those two recoveries zero rows 3 and 2, so the
    certificate is row 1, ``d_alpha alpha + L x``."""
    d = vbar ** 2
    alpha = _prox_solve(L, d, s, lam, -sign * L.apply(y), what)
    xi = -L.adjoint(alpha)
    d_alpha, d_xi = sign * d, sign * lam * s
    x = y - d_xi * xi
    res = _max_norm(d_alpha * alpha + L.apply(x))
    return InnerSolution(x, alpha, xi, res, system_size=L.rows,
                         method="sparse-direct", solve=None)


def _from_x_route(A, L, d_alpha, d_xi, y, x, size, method):
    """``x`` solved first: ``alpha = -L x / d_alpha`` and
    ``xi = (y - A x) / d_xi`` zero rows 1 and 2, so the certificate is
    row 3, ``L^T alpha + A^T xi``."""
    alpha = -L.apply(x) / d_alpha
    xi = (y - A.apply(x)) / d_xi
    res = _max_norm(L.adjoint(alpha) + A.adjoint(xi))
    return InnerSolution(x, alpha, xi, res, size, method, None)


def _from_xi_route(A, d, xi, d_xi_xi, y, method):
    """``L = Id``, ``d_alpha = -d``, ``xi`` solved first (one or T columns):
    ``alpha = -A^T xi`` and ``x = d alpha`` zero rows 1 and 3; the
    certificate is row 2, whose ``d_xi xi`` the caller forms."""
    alpha = -A.adjoint(xi)
    x = d * alpha
    res = float(np.abs(d_xi_xi + A.apply(x) - y).max(initial=0))
    return InnerSolution(x, alpha, xi, res, A.rows, method, None)


def _dispatch_quadratic(A, L, v, gs, lam, y):
    """The quadratic-loss route for the problem's structure: Woodbury when
    ``L`` extracts overlapping groups and ``gs`` is their lifted partition,
    the group dual for ``L = Id``, the denoising prox for ``A = Id``, the
    general route otherwise."""
    if isinstance(L, BlockExtractOperator) and L.source_groups.mode == "overlapping":
        sizes = L.source_groups.sizes     # lifted: one block per group, in order
        if np.array_equal(gs.group_of, np.repeat(np.arange(sizes.size), sizes)):
            return solve_overlap_woodbury(A, L.source_groups, v, lam, y)
    if isinstance(L, IdentityOperator):
        return solve_grouplasso_dual(A, v, gs, lam, y)
    if isinstance(A, IdentityOperator):
        return solve_analysis_prox(L, v, gs, lam, y)
    return solve_quadratic_general(A, L, v, gs, lam, y)


def solve_quadratic_general(A, L, v, gs, lam, y, cfg=DEFAULT):
    """Inner solve for the quadratic loss and a general analysis operator:
    :func:`_saddle_route`, at every size and for any ``vbar``.  Only
    ``method="cg"`` runs matrix-free CG on the reduced system
    ``(A^T A + lam L^T diag(1/vbar^2) L) x = A^T y``, where no ``vbar``
    entry is below ``ZERO_THRESHOLD`` times the largest."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    y = np.asarray(y, dtype=float).ravel()
    vbar = np.abs(_vbar(v, gs))
    if cfg.method != "cg" or not vbar.min() > ZERO_THRESHOLD * vbar.max():
        return _saddle_route(A, L, -vbar ** 2, -lam, y)
    inv_v2 = 1.0 / vbar ** 2
    x = _cg(lambda z: A.adjoint(A.apply(z))
            + lam * L.adjoint(inv_v2 * L.apply(z)), A.adjoint(y))
    return _from_x_route(A, L, -vbar ** 2, -lam, y, x, A.cols, "cg")


def solve_grouplasso_dual(A, v, gs, lam, y, cfg=DEFAULT):
    """Group-lasso specialization (``L = Id``): one m-by-m SPD solve of
    ``M xi = -y``, ``M = A diag(vbar^2) A^T + lam I``.  Its ``solve`` is
    the solve on the factor of ``M`` it solved with."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    y = np.asarray(y, dtype=float).ravel()
    vbar = _vbar(v, gs)
    d = vbar ** 2
    g, method, fac = _dual_solve(A, d, lam, -y, cfg, "group dual system")
    sol = _from_xi_route(A, d, g, -lam * g, y, method)
    sol.solve = None if fac is None else partial(cholesky_solve, fac)
    return sol


def solve_two_factor(A, vw, gs, lam, Y):
    """The group dual at ``vbar = extend(v w)`` for every column of ``Y`` (the
    ``x = u (v w)`` path): one factored solve of ``(A diag(vwbar^2) A^T +
    lam I) xi = -Y``, ``lam = 0`` for exact interpolation; 2-D results.
    At ``lam = 0`` with every ``vw`` zero the matrix is zero, so a nonzero
    ``Y`` has no solution and raises :class:`InnerSolveError` unfactored
    (a jittered Cholesky of the zero matrix would return NaN)."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    Y = np.asarray(Y, dtype=float).reshape(len(Y), -1)
    d = _vbar(vw, gs) ** 2
    if not lam and not np.count_nonzero(d) and Y.any():
        raise InnerSolveError("two-factor inner system: the zero matrix at "
                              "vw = 0 and lam = 0, with a nonzero right-hand side")
    xi, _ = _psd_solve(_dual_matrix(A, d, lam), -Y, "two-factor inner system")
    return _from_xi_route(A, d[:, None], xi, -lam * xi, Y, "direct")


def solve_analysis_prox(L, v, gs, lam, y, cfg=DEFAULT):
    """Denoising specialization (``A = Id``): one sparse p-by-p SPD solve of
    ``(diag(vbar^2) + lam L L^T) alpha = L y``; for a multichannel gradient
    with channel-tied groups, one factored 2hw-by-2hw channel block solved
    for every channel (see ``_prox_solve``)."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if cfg.method == "cg":
        raise ValueError("solve_analysis_prox: method 'cg' is not supported, "
                         "this route always factors its system; use 'auto' "
                         "or 'direct'")
    y = np.asarray(y, dtype=float).ravel()
    return _prox_route(L, _vbar(v, gs), lam, np.ones(L.cols), y, -1.0,
                       "analysis prox system")


def solve_overlap_woodbury(A, ogroups, v, lam, y, cfg=DEFAULT):
    """Overlapping-group solve through the m-by-m inverted system.

    Valid when the groups span the index set and the diagonal
    ``W_ii = sum_{g contains i} w_g^2 / v_g^2`` is finite (a zero or tiny
    ``v_g`` makes it infinite); otherwise falls back to the general route on
    the lifted extractor.  ``W`` makes the n-by-n reduced system
    ``(A^T A + lam W) x = A^T y`` invertible in closed form: one m-by-m
    solve of ``(A W^-1 A^T + lam I) z = y``, then ``x = W^-1 A^T z``.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if ogroups.mode != "overlapping":
        raise ValueError("overlapping group structure required")
    v = np.asarray(v, dtype=float)
    L = BlockExtractOperator(ogroups, A.cols)
    wdiag = np.zeros(A.cols)
    with np.errstate(all="ignore"):     # a non-finite W falls back below
        for g, wg, vg in zip(ogroups.groups, L.block_weights, v):
            wdiag[g] += wg ** 2 / vg ** 2
    if not (np.isfinite(wdiag).all() and ogroups.spans()):
        return solve_quadratic_general(A, L, v, L.lifted_partition(), lam, y,
                                       cfg)
    y = np.asarray(y, dtype=float).ravel()
    z, _, _ = _dual_solve(A, 1.0 / wdiag, lam, y, cfg, "woodbury system")
    x = A.adjoint(z) / wdiag
    # the lifted partition's blocks are the groups in order: extend is repeat
    return _from_x_route(A, L, -np.repeat(v, ogroups.sizes) ** 2, -lam, y, x,
                         A.rows, "woodbury")


def solve_robust(A, L, v, gs_reg, w, gs_loss, lam, y):
    """Inner solve with both regularizer and loss in quadratic variational
    form, for ``A = Id`` or ``L = Id``; any other pair raises ``ValueError``.

    ``A = Id`` (grouped TV with an l1-type loss): the sparse p-by-p
    elimination ``(diag(vbar^2) + lam L diag(wbar^2) L^T) alpha = -L y``,
    factored as one 2hw-by-2hw channel block when ``L`` is a multichannel
    gradient and both weights repeat per channel (see ``_prox_solve``).
    ``L = Id`` (square-root lasso): the m-by-m dual
    ``(A diag(vbar^2) A^T + lam diag(wbar^2)) xi = y``, then
    ``alpha = -A^T xi`` and ``x = -vbar^2 alpha``.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if not isinstance(L, IdentityOperator) and not isinstance(A, IdentityOperator):
        raise ValueError("solve_robust needs A = Id or L = Id")
    y = np.asarray(y, dtype=float).ravel()
    vbar = _vbar(v, gs_reg)
    wbar = _vbar(w, gs_loss)
    if isinstance(A, IdentityOperator):
        return _prox_route(L, vbar, lam, wbar ** 2, y, 1.0,
                           "robust prox system")
    d, shift = vbar ** 2, lam * wbar ** 2
    xi, _ = _psd_solve(_dual_matrix(A, d, shift), y, "robust dual system")
    return _from_xi_route(A, -d, xi, shift * xi, y, "direct")


def solve_multitask_nuclear(A, v, W, lam, Y):
    """Row-sparse multitask inner solve with a nuclear-norm loss factor.

    The ``L = Id`` elimination with the matrix ``d_xi = -W W^T / lam``:
    solves ``(A diag(v^2) A^T + W W^T / lam) xi = -Y`` column-wise, then
    ``alpha = -A^T xi`` and ``X = diag(v^2) alpha``.  A vanishing ``W``
    makes the system rank-deficient, which ``_psd_solve`` absorbs.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    v = np.asarray(v, dtype=float)
    W = np.asarray(W, dtype=float)
    Y = np.asarray(Y, dtype=float).reshape(len(Y), -1)
    d = v ** 2
    S = (W @ W.T) / lam
    xi, _ = _psd_solve(_dual_matrix(A, d, 0.0) + S, -Y, "multitask system")
    return _from_xi_route(A, d[:, None], xi, -S @ xi, Y, "direct")
