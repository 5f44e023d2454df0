import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from varprox import inner, linops
from varprox.groups import GroupStructure, contiguous_groups, extend, trivial_groups
from varprox.inner import (InnerConfig, InnerSolveError, solve_analysis_prox,
                           solve_grouplasso_dual, solve_multitask_nuclear,
                           solve_overlap_woodbury, solve_quadratic_general,
                           solve_robust, solve_two_factor)
from varprox.linops import (BlockExtractOperator, Grad2DOperator,
                            LinearOperator, block_extract, dense, grad2d,
                            identity, tv_group_structure)
from varprox.problems import make_inpainting_mask, pixel_channel_groups
from varprox.varpro import (BasisPursuitLoss, OuterConfig, QuadraticLoss,
                            VarProProblem, eval_f_grad, solve_varpro)


def test_one_dim_lasso_oracle():
    # soft threshold ST(2, 1) = 1, so x = 1 with xi = -1, alpha = 1
    A = dense([[1.0]])
    sol = solve_quadratic_general(A, identity(1), np.array([1.0]),
                                  trivial_groups(1), 1.0, np.array([2.0]))
    assert sol.x[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.xi[0] == pytest.approx(-1.0, abs=1e-12)
    assert sol.alpha[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.kkt_residual < 1e-12


def test_zero_data_gives_zero_solution(rng):
    A = dense(rng.standard_normal((5, 8)))
    L = dense(rng.standard_normal((6, 8)))
    gs = contiguous_groups(6, 2)
    sol = solve_quadratic_general(A, L, rng.uniform(0.5, 1.5, 3), gs, 0.7,
                                  np.zeros(5))
    assert np.allclose(sol.x, 0.0, atol=1e-12)
    assert np.allclose(sol.alpha, 0.0, atol=1e-12)
    assert np.allclose(sol.xi, 0.0, atol=1e-12)


def test_direct_vs_cg_agree(rng):
    n, m, p = 20, 12, 14
    A = dense(rng.standard_normal((m, n)) / 3)
    L = dense(rng.standard_normal((p, n)) / 3)
    gs = contiguous_groups(p, 2)
    v = rng.uniform(0.5, 1.5, gs.n_groups)
    y = rng.standard_normal(m)
    d = solve_quadratic_general(A, L, v, gs, 0.6, y, InnerConfig(method="direct"))
    c = solve_quadratic_general(A, L, v, gs, 0.6, y, InnerConfig(method="cg"))
    assert np.abs(d.x - c.x).max() < 1e-8
    assert d.kkt_residual < 1e-8 and c.kkt_residual < 1e-8


def test_extended_path_handles_zero_v(rng):
    n, m, p = 8, 5, 6
    A = dense(rng.standard_normal((m, n)))
    L = dense(rng.standard_normal((p, n)))
    gs = contiguous_groups(p, 2)
    v = np.array([1.0, 0.0, 1.3])
    y = rng.standard_normal(m)
    sol = solve_quadratic_general(A, L, v, gs, 0.5, y)
    assert sol.method == "direct-extended"
    assert sol.kkt_residual < 1e-8
    # constrained rows are annihilated
    assert np.abs(L.apply(sol.x)[2:4]).max() < 1e-8


def _constrained_reference(A, L, vbar, lam, y, zero):
    """``argmin ||A x - y||^2 / (2 lam) + ||(L x / vbar)_K||^2 / 2`` subject
    to ``L x = 0`` on the rows ``zero``, ``K`` the others: the quadratic
    inner ``x`` when ``vbar`` vanishes on ``zero``, by a dense null-space
    solve."""
    Ld, Ad = L.to_sparse().toarray(), A.to_sparse().toarray()
    N = scipy.linalg.null_space(Ld[zero])
    C = Ld[~zero] / vbar[~zero, None]
    H = N.T @ (Ad.T @ Ad / lam + C.T @ C) @ N
    return N @ np.linalg.solve(H, N.T @ (Ad.T @ y) / lam)


@pytest.mark.parametrize("case", ["zero-block", "tiny-block", "all-zero"])
def test_inpainting_with_vanishing_groups_solves_the_sparse_saddle_system(
        monkeypatch, case):
    # tv-inpaint with a 2x2 pixel block whose v_g are exactly 0 (then alpha
    # can circulate around the block's four inner edges, so the unfloored
    # saddle matrix is singular), at 1e-10 of the largest, or v = 0
    h, w, c, lam = 8, 8, 3, 0.2
    L, gs = grad2d(h, w, c), tv_group_structure(h, w, c)
    A = make_inpainting_mask(h, w, 0.3, seed=2, channels=c)
    block = [2 * w + 2, 2 * w + 3, 3 * w + 2, 3 * w + 3]   # one group per pixel
    dense_solves = []
    sym_solve = inner._sym_solve

    def spy(M, b, what):
        dense_solves.append(M.shape)
        return sym_solve(M, b, what)

    def refuse(self):
        raise AssertionError("the saddle route formed a dense operator")

    for seed in range(3):
        rng = np.random.default_rng(seed)
        y = rng.uniform(0, 1, A.rows)
        v = rng.uniform(0.5, 1.5, gs.n_groups)
        v[block] = 1e-10 * v.max() if case == "tiny-block" else 0.0
        if case == "all-zero":
            v[:] = 0.0
        vbar = extend(v, gs)
        zero = vbar < 1e-8
        ref = _constrained_reference(A, L, vbar, lam, y, zero)
        if case == "zero-block" and seed == 0:
            M = _saddle_matrix(A, L, -vbar ** 2, -lam)
            assert np.linalg.matrix_rank(M) < M.shape[0]
        with monkeypatch.context() as patch:
            patch.setattr(inner, "_sym_solve", spy)
            patch.setattr(LinearOperator, "to_dense", refuse)
            patch.setattr(LinearOperator, "gram", refuse)
            sol = solve_quadratic_general(A, L, v, gs, lam, y)
        kkt = inner._kkt(A, L, -vbar ** 2, -lam, y, sol.x, sol.alpha, sol.xi)
        assert sol.kkt_residual == kkt <= 1e-9
        assert np.abs(sol.x - ref).max() <= 1e-8
        assert (sol.method, sol.system_size) == ("direct-extended",
                                                 L.rows + A.rows + A.cols)
    if case != "all-zero":
        assert dense_solves == []


def test_grouplasso_dual_one_dim():
    A = dense([[1.0]])
    sol = solve_grouplasso_dual(A, np.array([1.0]), trivial_groups(1), 1.0,
                                np.array([2.0]))
    assert sol.xi[0] == pytest.approx(-1.0, abs=1e-12)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-12)


def test_grouplasso_dual_v_zero():
    A = dense([[2.0, 1.0]])
    y = np.array([3.0])
    sol = solve_grouplasso_dual(A, np.zeros(2), trivial_groups(2), 0.5, y)
    assert np.allclose(sol.xi, -y / 0.5)
    assert np.allclose(sol.x, 0.0)


def test_grouplasso_dual_matches_general(rng):
    m, n = 10, 40
    A = dense(rng.standard_normal((m, n)) / 3)
    gs = contiguous_groups(n, 4)
    v = rng.uniform(0.5, 1.5, gs.n_groups)
    y = rng.standard_normal(m)
    a = solve_grouplasso_dual(A, v, gs, 0.4, y)
    b = solve_quadratic_general(A, identity(n), v, gs, 0.4, y)
    assert np.abs(a.x - b.x).max() < 1e-9
    assert np.abs(a.alpha - b.alpha).max() < 1e-9


def test_group_dual_solution_carries_the_solve_on_its_factor(monkeypatch, rng):
    # solve(b) solves M = A diag(vbar^2) A^T + lam I for one or several
    # right-hand sides; CG and the symmetric-indefinite fallback factor
    # nothing and carry no solve
    m, n, lam = 10, 40, 0.4
    Ad = rng.standard_normal((m, n)) / 3
    gs = contiguous_groups(n, 4)
    v = rng.uniform(0.5, 1.5, gs.n_groups)
    v[2] = 0.0
    y, b = rng.standard_normal(m), rng.standard_normal((m, 3))
    sol = solve_grouplasso_dual(dense(Ad), v, gs, lam, y)
    M = (Ad * extend(v, gs) ** 2) @ Ad.T + lam * np.eye(m)
    for rhs in (b[:, 0], b):
        ref = np.linalg.solve(M, rhs)
        assert np.linalg.norm(sol.solve(rhs) - ref) <= 1e-10 * np.linalg.norm(ref)
    cg = solve_grouplasso_dual(dense(Ad), v, gs, lam, y, InnerConfig(method="cg"))
    assert cg.method == "cg" and cg.solve is None
    monkeypatch.setattr(inner, "cholesky_factor", lambda M, overwrite=False: None)
    fallback = solve_grouplasso_dual(dense(Ad), v, gs, lam, y)
    assert fallback.solve is None
    assert np.abs(fallback.x - sol.x).max() < 1e-9


def test_analysis_prox_one_dim():
    sol = solve_analysis_prox(identity(1), np.array([1.0]), trivial_groups(1),
                              1.0, np.array([2.0]))
    assert sol.alpha[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-12)


def test_analysis_prox_zero_data():
    L = grad2d(3, 3)
    gs = tv_group_structure(3, 3)
    sol = solve_analysis_prox(L, np.ones(9), gs, 0.5, np.zeros(9))
    assert np.allclose(sol.alpha, 0.0) and np.allclose(sol.x, 0.0)


def test_analysis_prox_matches_general_tv(rng):
    L = grad2d(8, 8)
    gs = tv_group_structure(8, 8)
    v = rng.uniform(0.5, 1.5, gs.n_groups)
    y = rng.uniform(0, 1, 64)
    a = solve_analysis_prox(L, v, gs, 0.3, y)
    b = solve_quadratic_general(identity(64), L, v, gs, 0.3, y)
    assert np.abs(a.x - b.x).max() < 1e-9
    assert a.kkt_residual < 1e-8 and b.kkt_residual < 1e-8


def _tv_case(rng, h=5, w=4, c=3):
    n = h * w * c
    L = grad2d(h, w, c)
    gs = tv_group_structure(h, w, c)
    gl = pixel_channel_groups(h * w, c)
    v = rng.uniform(0.5, 1.5, gs.n_groups)
    wl = rng.uniform(0.5, 1.5, gl.n_groups)
    return n, L, gs, gl, v, wl, rng.uniform(0, 1, n)


def _robust_saddle(L, n, v, gs, wl, gl, lam, y):
    """The robust inner solution on the dense full saddle system, the
    reference of the sparse ``A = Id`` route."""
    return inner._saddle_route(dense(np.eye(n)), L, extend(v, gs) ** 2,
                               lam * extend(wl, gl) ** 2, y)


def test_identity_routes_factor_sparse_without_densifying(monkeypatch, rng):
    def refuse(self):
        raise AssertionError("the A = Id routes must not densify L")

    monkeypatch.setattr(Grad2DOperator, "_densify", refuse)
    n, L, gs, gl, v, wl, y = _tv_case(rng)
    a = solve_analysis_prox(L, v, gs, 0.3, y)
    b = solve_robust(identity(n), L, v, gs, wl, gl, 0.9, y)
    assert a.method == b.method == "sparse-direct"
    assert a.system_size == b.system_size == L.rows
    assert a.kkt_residual < 1e-12 and b.kkt_residual < 1e-12


def test_identity_routes_reject_cg(monkeypatch, rng):
    # solve_analysis_prox is the one route that takes a config without
    # having a CG path; the other factoring routes take no config
    _, L, gs, _, v, _, y = _tv_case(rng)
    with pytest.raises(ValueError, match="solve_analysis_prox"):
        solve_analysis_prox(L, v, gs, 0.3, y, InnerConfig(method="cg"))
    monkeypatch.setattr(inner, "DIRECT_SIZE_LIMIT", 1)
    for method in ("auto", "direct"):
        cfg = InnerConfig(method=method)
        assert solve_analysis_prox(L, v, gs, 0.3, y, cfg).method == "sparse-direct"


def _spy_band_factor(monkeypatch):
    """Records ``(order, factored)`` for every band Cholesky ``dpbtrf``."""
    calls = []
    dpbtrf = scipy.linalg.lapack.dpbtrf

    def spy(ab, **kwargs):
        c, info = dpbtrf(ab, **kwargs)
        calls.append((ab.shape[1], info == 0))
        return c, info

    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", spy)
    return calls


@pytest.mark.parametrize("zeros", ["some", "all"])
def test_identity_routes_zero_v_take_the_jitter_retry(monkeypatch, rng, zeros):
    calls = _spy_band_factor(monkeypatch)
    h, w = 5, 4
    n, L, gs, gl, v, wl, y = _tv_case(rng, h, w)
    if zeros == "all":
        v[:] = 0.0
    else:
        v[[3, 7]] = 0.0
        v[-w:] = 0.0          # last image row: zero rows of L (Neumann)
    a = solve_analysis_prox(L, v, gs, 0.3, y)
    assert [ok for _, ok in calls] == [False, True]
    ref = solve_quadratic_general(identity(n), L, v, gs, 0.3, y)
    assert np.abs(a.x - ref.x).max() < 1e-9
    assert a.kkt_residual < 1e-8
    calls.clear()
    b = solve_robust(identity(n), L, v, gs, wl, gl, 0.9, y)
    assert [ok for _, ok in calls] == [False, True]
    ref = _robust_saddle(L, n, v, gs, wl, gl, 0.9, y)
    assert np.abs(b.x - ref.x).max() < 1e-9
    assert b.kkt_residual < 1e-8


def _identity_routes(L, n, gs, gl, v, wl, y):
    return (solve_analysis_prox(L, v, gs, 0.3, y),
            solve_robust(identity(n), L, v, gs, wl, gl, 0.9, y))


@pytest.mark.parametrize("zeros", ["none", "some"])
def test_identity_routes_factor_one_channel_block(monkeypatch, rng, zeros):
    h, w, c = 5, 4, 3
    n, L, gs, gl, v, wl, y = _tv_case(rng, h, w, c)
    if zeros == "some":
        v[[3, 7]] = 0.0
    calls = _spy_band_factor(monkeypatch)
    block = _identity_routes(L, n, gs, gl, v, wl, y)
    # one 2hw-by-2hw factorization per solve, plus the jittered retry when
    # zero v_g leave every block singular
    tries = 1 if zeros == "none" else 2
    assert [size for size, _ in calls] == [2 * h * w] * (2 * tries)
    calls.clear()
    monkeypatch.setattr(L, "channel_blocks", lambda: (1, L))
    full = _identity_routes(L, n, gs, gl, v, wl, y)
    assert [size for size, _ in calls] == [L.rows] * (2 * tries)
    for b, f in zip(block, full):
        assert (b.method, b.system_size) == (f.method, f.system_size)
        assert np.abs(b.x - f.x).max() < 1e-10
        assert b.kkt_residual < 1e-10 and f.kkt_residual < 1e-10
        if zeros == "none":     # otherwise alpha is free in the kernel
            assert np.abs(b.alpha - f.alpha).max() < 1e-10


def test_identity_routes_band_that_fails_twice_is_solved_by_superlu(
        monkeypatch, rng):
    n, L, gs, gl, v, wl, y = _tv_case(rng)
    full = (solve_quadratic_general(identity(n), L, v, gs, 0.3, y),
            _robust_saddle(L, n, v, gs, wl, gl, 0.9, y))
    calls = []
    spd_factor = inner._spd_factor

    def spy(M):
        lu = spd_factor(M)
        calls.append((M.shape[0], lu is not None))
        return lu

    # every band Cholesky reports a leading minor that is not positive
    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", lambda ab, **kw: (ab, 1))
    monkeypatch.setattr(inner, "_spd_factor", spy)
    for b, f in zip(_identity_routes(L, n, gs, gl, v, wl, y), full):
        assert b.method == "sparse-direct"
        assert np.abs(b.x - f.x).max() < 1e-10
        assert b.kkt_residual < 1e-10
    block = L.rows // L.channels
    assert calls == [(block, True)] * 2


@pytest.mark.parametrize("differ", ["v", "w"])
def test_identity_routes_per_channel_weights_factor_the_full_system(
        monkeypatch, rng, differ):
    n, L, gs, gl, v, wl, y = _tv_case(rng)
    if differ == "v":       # one group per row of L: vbar differs by channel
        gs = trivial_groups(L.rows)
        v = rng.uniform(0.5, 1.5, L.rows)
    else:
        gl = trivial_groups(n)
        wl = rng.uniform(0.5, 1.5, n)
    calls = _spy_band_factor(monkeypatch)
    b = solve_robust(identity(n), L, v, gs, wl, gl, 0.9, y)
    assert calls == [(L.rows, True)]
    ref = _robust_saddle(L, n, v, gs, wl, gl, 0.9, y)
    assert np.abs(b.x - ref.x).max() < 1e-9
    assert b.kkt_residual < 1e-10
    if differ == "v":
        calls.clear()
        a = solve_analysis_prox(L, v, gs, 0.3, y)
        assert calls == [(L.rows, True)]
        ref = solve_quadratic_general(identity(n), L, v, gs, 0.3, y)
        assert np.abs(a.x - ref.x).max() < 1e-9
        assert a.kkt_residual < 1e-10


def test_identity_routes_single_channel_take_the_full_pattern(monkeypatch, rng):
    n, L, gs, gl, v, wl, y = _tv_case(rng, c=1)
    assert L.channel_blocks() == (1, L)
    rhs = []
    band_solve = inner._band_solve

    def spy(pattern, s, d, lam, b):
        rhs.append(b.shape)
        return band_solve(pattern, s, d, lam, b)

    monkeypatch.setattr(inner, "_band_solve", spy)
    a, b = _identity_routes(L, n, gs, gl, v, wl, y)
    assert rhs == [(L.rows,)] * 2
    assert a.kkt_residual < 1e-10 and b.kkt_residual < 1e-10


def test_identity_routes_past_the_band_limit_factor_by_superlu(monkeypatch, rng):
    # no band is small enough, so every system is formed from the sparse
    # operator and factored by SuperLU, on the same channel blocks
    monkeypatch.setattr(linops, "BAND_ENTRIES", 0)
    calls = []
    spd_factor = inner._spd_factor

    def spy(M):
        lu = spd_factor(M)
        calls.append((M.shape[0], lu is not None))
        return lu

    monkeypatch.setattr(inner, "_spd_factor", spy)
    h, w, c = 5, 4, 3
    block = 2 * h * w
    n, L, gs, gl, v, wl, y = _tv_case(rng, h, w, c)
    for zeros in ("none", "some"):
        if zeros == "some":
            v[[3, 7]] = 0.0
        ref = (solve_quadratic_general(dense(np.eye(n)), L, v, gs, 0.3, y),
               _robust_saddle(L, n, v, gs, wl, gl, 0.9, y))
        calls.clear()
        for b, f in zip(_identity_routes(L, n, gs, gl, v, wl, y), ref):
            assert b.method == "sparse-direct"
            assert np.abs(b.x - f.x).max() < 1e-9
            assert b.kkt_residual < 1e-8
        tries = [True] if zeros == "none" else [False, True]
        assert calls == [(block, ok) for ok in tries] * 2
    assert not L.channel_blocks()[1].cogram_pattern().banded
    # a factorization that always fails ends in the dense solve
    sizes = []
    sym_solve = inner._sym_solve

    def sym_spy(M, b, what):
        sizes.append(M.shape)
        return sym_solve(M, b, what)

    monkeypatch.setattr(inner, "_spd_factor", lambda M: None)
    monkeypatch.setattr(inner, "_sym_solve", sym_spy)
    for b, f in zip(_identity_routes(L, n, gs, gl, v, wl, y), ref):
        assert np.abs(b.x - f.x).max() < 1e-9
    assert sizes == [(block, block)] * 2


def test_woodbury_diagonal_formula():
    ogs = GroupStructure([[0, 1], [1, 2]], p=3, mode="overlapping")
    L = block_extract(ogs, 3)
    # W_ii = sum over containing groups of n_g / v_g^2 at v = 1
    v = np.ones(2)
    wdiag = np.zeros(3)
    for g, wg, vg in zip(ogs.groups, L.block_weights, v):
        wdiag[g] += wg ** 2 / vg ** 2
    assert np.allclose(wdiag, [2.0, 4.0, 2.0])


def test_woodbury_non_overlapping_reduces_to_group_dual(rng):
    n, m = 12, 6
    ogs = GroupStructure([[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]],
                         p=n, mode="overlapping")
    A = dense(rng.standard_normal((m, n)) / 2)
    v = rng.uniform(0.5, 1.5, 4)
    y = rng.standard_normal(m)
    w = solve_overlap_woodbury(A, ogs, v, 0.8, y)
    # every block has weight sqrt(3), which scales v by 1 / sqrt(3)
    gs = GroupStructure([[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]], p=n)
    g = solve_grouplasso_dual(A, v / np.sqrt(3.0), gs, 0.8, y)
    assert np.abs(w.x - g.x).max() < 1e-9


def test_woodbury_matches_dense_and_system_size(rng):
    n, m = 300, 30
    blocks, start = [], 0
    while True:
        size = int(rng.integers(2, 8))
        stop = min(start + size, n)
        blocks.append(list(range(start, stop)))
        if stop >= n:
            break
        start = stop - 1
    ogs = GroupStructure(blocks, p=n, mode="overlapping")
    A = dense(rng.standard_normal((m, n)) / np.sqrt(m))
    L = block_extract(ogs, n)
    v = rng.uniform(0.5, 1.5, len(blocks))
    y = rng.standard_normal(m)
    w = solve_overlap_woodbury(A, ogs, v, 0.5, y)
    d = solve_quadratic_general(A, L, v, L.lifted_partition(), 0.5, y)
    assert w.system_size == m          # m-by-m factorization, not n-by-n
    assert d.system_size == L.rows + m + n
    assert np.abs(w.x - d.x).max() < 1e-8


def test_woodbury_zero_v_falls_back(rng):
    ogs = GroupStructure([[0, 1], [1, 2]], p=3, mode="overlapping")
    A = dense(rng.standard_normal((2, 3)))
    v = np.array([1.0, 0.0])
    sol = solve_overlap_woodbury(A, ogs, v, 0.5, rng.standard_normal(2))
    assert sol.method == "direct-extended"
    assert sol.kkt_residual < 1e-8


@pytest.mark.parametrize("tiny", [1e-170, 1e-160])
def test_woodbury_tiny_v_falls_back(rng, tiny):
    # v_g^2 underflows to zero (1e-170) or w_g^2 / v_g^2 overflows (1e-160):
    # W is not finite, and the Woodbury solve would return a NaN certificate
    ogs = _overlap_windows(12)
    A = dense(rng.standard_normal((5, 12)))
    L = block_extract(ogs, 12)
    v, y = rng.uniform(0.5, 1.5, ogs.n_groups), rng.standard_normal(5)
    v[2] = tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = solve_overlap_woodbury(A, ogs, v, 0.5, y)
    ref = solve_quadratic_general(A, L, v, L.lifted_partition(), 0.5, y)
    assert sol.method == ref.method == "direct-extended"
    assert np.array_equal(sol.x, ref.x) and sol.kkt_residual < 1e-10


def test_woodbury_groups_that_do_not_span_fall_back(rng):
    # index 3 is in no group, so W has a zero diagonal entry
    ogs = GroupStructure([[0, 1], [1, 2]], p=4, mode="overlapping")
    A = dense(rng.standard_normal((3, 4)))
    L = block_extract(ogs, 4)
    v, y = np.array([0.8, 1.3]), rng.standard_normal(3)
    sol = solve_overlap_woodbury(A, ogs, v, 0.5, y)
    ref = solve_quadratic_general(A, L, v, L.lifted_partition(), 0.5, y)
    assert sol.method == ref.method == "direct-extended"
    assert np.array_equal(sol.x, ref.x)


def test_woodbury_builds_no_lifted_partition(monkeypatch, rng):
    ogs = GroupStructure([[0, 1, 2], [2, 3], [3, 4, 5]], p=6, mode="overlapping")
    A = dense(rng.standard_normal((4, 6)))
    L = block_extract(ogs, 6)
    v, y = np.array([0.8, 1.3, 0.6]), rng.standard_normal(4)
    ref = solve_quadratic_general(A, L, v, L.lifted_partition(), 0.5, y)

    def no_partition(self):
        raise AssertionError("lifted_partition built on the Woodbury path")

    monkeypatch.setattr(BlockExtractOperator, "lifted_partition", no_partition)
    sol = solve_overlap_woodbury(A, ogs, v, 0.5, y)
    assert sol.method == "woodbury"
    assert sol.kkt_residual < 1e-10
    assert np.abs(sol.x - ref.x).max() < 1e-10


def test_robust_zero_data(rng):
    m = 6
    A = dense(rng.standard_normal((m, 5)))
    L = identity(5)
    sol = solve_robust(A, L, np.ones(5), trivial_groups(5), np.ones(m),
                       trivial_groups(m), 0.7, np.zeros(m))
    assert np.allclose(sol.x, 0.0, atol=1e-10)
    assert np.allclose(sol.alpha, 0.0, atol=1e-10)
    assert np.allclose(sol.xi, 0.0, atol=1e-10)


def test_robust_identity_remark_path_matches_saddle(rng):
    # A = Id uses the p-by-p elimination; compare against the full saddle
    n = 12
    L = grad2d(4, 3)
    gs = tv_group_structure(4, 3)
    gl = trivial_groups(n)
    v = rng.uniform(0.5, 1.5, gs.n_groups)
    w = rng.uniform(0.5, 1.5, n)
    y = rng.uniform(0, 1, n)
    fast = solve_robust(identity(n), L, v, gs, w, gl, 0.9, y)
    slow = _robust_saddle(L, n, v, gs, w, gl, 0.9, y)
    assert np.abs(fast.x - slow.x).max() < 1e-9
    assert fast.kkt_residual < 1e-9 and slow.kkt_residual < 1e-9


@pytest.mark.parametrize("zeros", ["none", "v", "w"])
def test_robust_dual_matches_the_saddle_system(rng, zeros):
    # L = Id (square-root lasso and per-row loss groups): the m-by-m dual
    # gives the dense full saddle system's answer, also where a zero v_g or
    # w_g leaves the dual matrix singular and the jittered retry factors it
    for t in range(5):
        m, n = 6, 15
        A = dense(rng.standard_normal((m, n)) / 2)
        gs = contiguous_groups(n, 3)
        gl = GroupStructure([range(m)], p=m) if t % 2 else trivial_groups(m)
        v = rng.uniform(0.5, 1.5, gs.n_groups)
        w = rng.uniform(0.5, 1.5, gl.n_groups)
        if zeros == "v":
            v[[0, 3]] = 0.0
        elif zeros == "w":
            w[0] = 0.0
        y = rng.standard_normal(m)
        sol = solve_robust(A, identity(n), v, gs, w, gl, 0.7, y)
        d_alpha, d_xi = extend(v, gs) ** 2, 0.7 * extend(w, gl) ** 2
        ref = inner._saddle_route(A, identity(n), d_alpha, d_xi, y)
        assert (sol.method, sol.system_size) == ("direct", m)
        assert np.abs(sol.x - ref.x).max() < 1e-9
        assert sol.kkt_residual < 1e-9
        assert sol.kkt_residual == inner._kkt(A, identity(n), d_alpha, d_xi, y,
                                              sol.x, sol.alpha, sol.xi)


def _interpolate(A, v, y):
    """The single-factor interpolation inner solution (``L = Id``, one
    group per variable) at ``v``, as ``eval_f_grad`` solves it."""
    n = A.cols
    prob = VarProProblem(A, identity(n), trivial_groups(n), BasisPursuitLoss(y=y))
    return eval_f_grad(prob, v)[2]


def test_basis_pursuit_two_variable_oracle():
    # max_c (-c^2 + 2c) over the symmetric dual gives alpha = (1,1), x = (1,1)
    A = dense([[1.0, 1.0]])
    sol = _interpolate(A, np.ones(2), np.array([2.0]))
    assert np.allclose(sol.alpha, [1.0, 1.0], atol=1e-10)
    assert np.allclose(sol.x, [1.0, 1.0], atol=1e-10)
    psi = -0.5 * np.sum(sol.alpha ** 2) + sol.alpha @ sol.x
    assert psi == pytest.approx(1.0, abs=1e-10)


def test_basis_pursuit_huge_v_gives_min_norm(rng):
    m, n = 3, 7
    A = dense(rng.standard_normal((m, n)))
    y = rng.standard_normal(m)
    sol = _interpolate(A, np.full(n, 1e4), y)
    x_mn, *_ = np.linalg.lstsq(A.to_dense(), y, rcond=None)
    assert np.abs(sol.x - x_mn).max() < 1e-8


def test_basis_pursuit_zero_data(rng):
    A = dense(rng.standard_normal((3, 6)))
    sol = _interpolate(A, np.ones(6), np.zeros(3))
    assert np.allclose(sol.x, 0.0, atol=1e-10)
    assert np.allclose(sol.alpha, 0.0, atol=1e-10)


def test_basis_pursuit_infeasible_raises():
    A = dense([[1.0, 0.0], [1.0, 0.0]])      # rank 1, inconsistent y
    with pytest.raises(InnerSolveError):
        _interpolate(A, np.ones(2), np.array([1.0, 2.0]))


def test_multitask_zero_data(rng):
    A = dense(rng.standard_normal((4, 6)))
    sol = solve_multitask_nuclear(A, np.ones(6), np.eye(4), 0.5,
                                  np.zeros((4, 3)))
    assert np.allclose(sol.alpha, 0.0)
    assert np.allclose(sol.x, 0.0)


def test_multitask_reduces_to_group_dual(rng):
    # W = Id, T = 1: system (A diag(v^2) A^T + Id/lam) alpha = -y matches the
    # group dual with the reciprocal regularization weight
    m, n = 5, 9
    A = dense(rng.standard_normal((m, n)))
    v = rng.uniform(0.5, 1.5, n)
    y = rng.standard_normal(m)
    lam = 0.7
    mt = solve_multitask_nuclear(A, v, np.eye(m), lam, y[:, None])
    gd = solve_grouplasso_dual(A, v, trivial_groups(n), 1.0 / lam, y)
    assert np.abs(mt.xi[:, 0] - gd.xi).max() < 1e-10


def test_multitask_residual(rng):
    m, n, T = 5, 8, 3
    A = dense(rng.standard_normal((m, n)))
    v = rng.uniform(0.5, 1.5, n)
    W = rng.standard_normal((m, m)) / 3
    Y = rng.standard_normal((m, T))
    sol = solve_multitask_nuclear(A, v, W, 0.9, Y)
    assert sol.kkt_residual < 1e-10


def test_strong_duality_random_instances(rng):
    # phi at the returned dual point equals the primal value at the
    # recovered point to high accuracy when v is fully supported
    for t in range(10):
        n, m, p = 10, 7, 8
        A = dense(rng.standard_normal((m, n)) / 2)
        L = dense(rng.standard_normal((p, n)) / 2)
        gs = contiguous_groups(p, 2)
        v = rng.uniform(0.5, 1.5, gs.n_groups)
        y = rng.standard_normal(m)
        lam = 0.6
        sol = solve_quadratic_general(A, L, v, gs, lam, y)
        vbar = extend(v, gs)
        phi = (-0.5 * np.sum((vbar * sol.alpha) ** 2)
               - 0.5 * lam * np.sum(sol.xi ** 2) - sol.xi @ y)
        u = vbar * sol.alpha
        primal = 0.5 * u @ u + np.sum((A.apply(sol.x) - y) ** 2) / (2 * lam)
        assert abs(phi - primal) < 1e-8


def test_kkt_residuals_below_tolerance(rng):
    for t in range(10):
        n, m, p = 12, 8, 10
        A = dense(rng.standard_normal((m, n)) / 2)
        L = dense(rng.standard_normal((p, n)) / 2)
        gs = contiguous_groups(p, 5)
        v = rng.uniform(0.3, 1.5, gs.n_groups)
        sol = solve_quadratic_general(A, L, v, gs, 0.5, rng.standard_normal(m))
        assert sol.kkt_residual < 1e-8


@pytest.mark.parametrize("route", ["quadratic", "robust", "basis-pursuit"])
def test_saddle_routes_on_a_non_square_gradient_instance(monkeypatch, rng, route):
    # at m != n != p the degenerate quadratic route assembles the full saddle
    # system; the robust and interpolation families refuse an L that is not
    # the identity when A is not either, before any solve
    h, w, m = 3, 4, 7
    L = grad2d(h, w)
    gs = tv_group_structure(h, w)
    n, p = L.cols, L.rows
    assert len({m, n, p}) == 3
    A = dense(rng.standard_normal((m, n)) / 2)
    v = rng.uniform(0.5, 1.5, gs.n_groups)
    if route == "quadratic":
        v[[1, 5]] = 0.0
        sol = solve_quadratic_general(A, L, v, gs, 0.6, rng.standard_normal(m))
        assert sol.method == "direct-extended"
        assert sol.kkt_residual < 1e-9
        assert sol.system_size == p + m + n
        return

    def refuse(*args):
        raise AssertionError("a refused problem reached a solve")

    for name in ("_saddle_route", "_psd_solve", "_prox_solve"):
        monkeypatch.setattr(inner, name, refuse)
    if route == "robust":
        with pytest.raises(ValueError, match="A = Id or L = Id"):
            solve_robust(A, L, v, gs, rng.uniform(0.5, 1.5, m),
                         trivial_groups(m), 0.6, rng.standard_normal(m))
    else:
        prob = VarProProblem(A, L, gs, BasisPursuitLoss(
            y=A.apply(rng.standard_normal(n))))
        with pytest.raises(ValueError, match="L = Id"):
            eval_f_grad(prob, v)


@pytest.mark.parametrize("route", ["solve_quadratic_general",
                                   "solve_grouplasso_dual",
                                   "solve_overlap_woodbury"])
def test_cg_non_convergence_raises(monkeypatch, rng, route):
    n, m = 12, 6
    monkeypatch.setattr(inner, "CG_STEPS_PER_UNKNOWN", 0)
    cfg = InnerConfig(method="cg")
    A = dense(rng.standard_normal((m, n)))
    y = rng.standard_normal(m)
    with pytest.raises(InnerSolveError, match="CG did not converge"):
        if route == "solve_quadratic_general":
            L = dense(rng.standard_normal((n, n)))
            gs = contiguous_groups(n, 3)
            solve_quadratic_general(A, L, rng.uniform(0.5, 1.5, gs.n_groups),
                                    gs, 0.5, y, cfg)
        elif route == "solve_grouplasso_dual":
            gs = contiguous_groups(n, 3)
            solve_grouplasso_dual(A, rng.uniform(0.5, 1.5, gs.n_groups), gs,
                                  0.5, y, cfg)
        else:
            ogs = GroupStructure([list(range(k, k + 4)) for k in range(0, 9, 2)],
                                 p=n, mode="overlapping")
            solve_overlap_woodbury(A, ogs, rng.uniform(0.5, 1.5, ogs.n_groups),
                                   0.5, y, cfg)


@pytest.mark.parametrize("bad", [dict(method="lu"), dict(method="CG"),
                                 dict(method=""), dict(method=None)])
def test_inner_config_rejects_bad_knobs(bad):
    with pytest.raises(ValueError):
        InnerConfig(**bad)


def _overlap_windows(n, size=3, stride=2):
    starts = list(range(0, n - size + 1, stride))
    if starts[-1] + size < n:
        starts.append(n - size)
    return GroupStructure([list(range(k, k + size)) for k in starts], p=n,
                          mode="overlapping")


@pytest.mark.parametrize("route", ["prox", "woodbury", "general-cg"])
def test_each_certificate_sees_an_inexact_solve(monkeypatch, rng, route):
    # each elimination forms only the rows its recovery leaves open: row 1
    # after the A = Id prox solve, row 3 after an x-first solve.  A solve
    # off by a factor 1 + 1e-6 must show in the certificate
    if route == "prox":
        L, gs = grad2d(3, 4), tv_group_structure(3, 4)
        v, y = rng.uniform(0.5, 1.5, gs.n_groups), rng.uniform(0, 1, 12)
        name, solve = "_prox_solve", lambda: solve_analysis_prox(L, v, gs, 0.5, y)
    else:
        ogs = _overlap_windows(12)
        A = dense(rng.standard_normal((5, 12)))
        v, y = rng.uniform(0.5, 1.5, ogs.n_groups), rng.standard_normal(5)
        if route == "woodbury":
            name, solve = "_dual_solve", lambda: solve_overlap_woodbury(
                A, ogs, v, 0.5, y)
        else:
            L = block_extract(ogs, 12)
            name, solve = "_cg", lambda: solve_quadratic_general(
                A, L, v, L.lifted_partition(), 0.5, y, InnerConfig(method="cg"))
    assert solve().kkt_residual < 1e-9       # CG stops at a relative 1e-10
    exact = getattr(inner, name)

    def perturbed(*args):
        out = exact(*args)
        if isinstance(out, tuple):          # _dual_solve: (solution, method)
            return (out[0] * (1 + 1e-6), *out[1:])
        return out * (1 + 1e-6)

    monkeypatch.setattr(inner, name, perturbed)
    assert solve().kkt_residual > 1e-8


ROUTES = ["grouplasso-direct", "grouplasso-cg", "woodbury-direct",
          "woodbury-cg", "analysis-prox", "general-cg"]


@settings(deadline=None, max_examples=60)
@given(route=st.sampled_from(ROUTES), seed=st.integers(0, 2 ** 32 - 1),
       lam=st.floats(0.1, 2.0), data=st.data())
def test_dispatch_routes_match_general_direct(route, seed, lam, data):
    # every specialized route, and CG on the general one, equals the direct
    # reduced solve of solve_quadratic_general (criterion 9's bounds)
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    n = int(rng.integers(max(m, 4), 13))
    A = dense(rng.standard_normal((m, n)) / np.sqrt(m))
    y = rng.standard_normal(m)
    method = route.rsplit("-", 1)[-1]
    cfg = InnerConfig(method=method if method in ("direct", "cg") else "auto")
    if route.startswith("grouplasso"):
        gs = contiguous_groups(n, 2 - n % 2)
        L, ref_gs = identity(n), gs
    elif route.startswith("woodbury"):
        ogs = _overlap_windows(n)
        L = block_extract(ogs, n)
        ref_gs = L.lifted_partition()
        gs = ogs
    elif route == "analysis-prox":
        h, w = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        n, L = h * w, grad2d(h, w)
        A, y = identity(n), rng.uniform(0, 1, n)
        gs = ref_gs = tv_group_structure(h, w)
    else:
        p = n + 2 - n % 2
        L = dense(rng.standard_normal((p, n)) / np.sqrt(n))
        gs = ref_gs = contiguous_groups(p, 2)
    v = np.array(data.draw(st.lists(st.floats(0.5, 1.5), min_size=gs.n_groups,
                                    max_size=gs.n_groups)))
    if route.startswith("grouplasso"):
        sol = solve_grouplasso_dual(A, v, gs, lam, y, cfg)
    elif route.startswith("woodbury"):
        sol = solve_overlap_woodbury(A, ogs, v, lam, y, cfg)
    elif route == "analysis-prox":
        sol = solve_analysis_prox(L, v, gs, lam, y, cfg)
    else:
        sol = solve_quadratic_general(A, L, v, gs, lam, y, cfg)
    ref = solve_quadratic_general(A, L, v, ref_gs, lam, y,
                                  InnerConfig(method="direct"))
    assert ref.method == "direct-extended"
    family = route.split("-")[0]
    assert sol.method == {"woodbury": "woodbury",
                          "analysis": "sparse-direct"}.get(family, method)
    assert np.abs(sol.x - ref.x).max() < 1e-8
    assert sol.kkt_residual < 1e-8 and ref.kkt_residual < 1e-8


def _caller_weights(rng, caller, n):
    # the d and shift each caller of inner._dual_matrix passes
    gs = contiguous_groups(n, 2)
    v = rng.uniform(0.5, 1.5, gs.n_groups)
    v[1] = 0.0
    if caller == "group-dual":
        return extend(v, gs) ** 2, 0.7
    if caller == "woodbury":
        L = block_extract(_overlap_windows(n), n)
        v = rng.uniform(0.5, 1.5, len(L.block_weights))
        wdiag = np.zeros(n)
        for g, wg, vg in zip(L.source_groups.groups, L.block_weights, v):
            wdiag[g] += wg ** 2 / vg ** 2
        return 1.0 / wdiag, 0.7
    if caller == "multitask":
        return rng.uniform(0.5, 1.5, n) ** 2, 0.0
    w = rng.uniform(0.5, 1.5, gs.n_groups)
    return extend(v * w, gs) ** 2, 0.0     # two-factor, interpolation loss


@pytest.mark.parametrize("caller", ["group-dual", "woodbury", "multitask",
                                    "two-factor"])
def test_dual_matrix_is_the_symmetric_weighted_gram(rng, caller):
    m, n = 7, 12
    Ad = rng.standard_normal((m, n))
    d, shift = _caller_weights(rng, caller, n)
    ref = Ad @ np.diag(d) @ Ad.T + shift * np.eye(m)
    M = inner._dual_matrix(dense(Ad), d, shift)
    assert np.abs(M - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(M, M.T)
    if caller == "multitask":
        W = rng.standard_normal((m, m)) / 3
        Y = rng.standard_normal((m, 2))
        sol = solve_multitask_nuclear(dense(Ad), np.sqrt(d), W, 0.9, Y)
        assert np.abs((ref + W @ W.T / 0.9) @ sol.xi + Y).max() < 1e-10


def test_dual_matrix_zero_weights_and_no_shift(rng):
    Ad = rng.standard_normal((5, 8))
    d = np.zeros(8)
    d[[1, 4]] = [2.0, 0.5]
    M = inner._dual_matrix(dense(Ad), d, 0.0)
    ref = Ad[:, [1, 4]] @ np.diag([2.0, 0.5]) @ Ad[:, [1, 4]].T
    assert np.abs(M - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(M, M.T)
    assert not inner._dual_matrix(dense(Ad), np.zeros(8), 0.0).any()


def test_dual_matrix_drops_zero_columns_without_moving_the_sum(rng):
    # the zero-weight columns (screened groups) leave the syrk product;
    # the kept ones give the full assembly that includes them all
    m, n = 20, 60
    Ad = rng.standard_normal((m, n))
    gs = contiguous_groups(n, 3)
    v = rng.uniform(0.5, 1.5, gs.n_groups) * (rng.random(gs.n_groups) > 0.6)
    d = extend(v, gs) ** 2
    assert 0 < np.count_nonzero(d) < n
    B = Ad * np.sqrt(d)
    full = B @ B.T + 0.3 * np.eye(m)
    M = inner._dual_matrix(dense(Ad), d, 0.3)
    assert np.abs(M - full).max() <= 1e-13 * np.abs(full).max()
    assert np.array_equal(M, M.T)


@pytest.mark.parametrize("method", ["direct", "cg"])
def test_grouplasso_certificate_equals_the_full_kkt(method):
    # the group dual reports only -lam g + A x - y; the other two rows of the
    # full certificate vanish, so both must agree to the last bit
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 9)), 2 * int(rng.integers(2, 9))
        A = dense(rng.standard_normal((m, n)))
        gs = contiguous_groups(n, 2)
        v = rng.uniform(0.0, 2.0, gs.n_groups) * (rng.random(gs.n_groups) > 0.3)
        y, lam = rng.standard_normal(m), float(rng.uniform(0.1, 2.0))
        sol = solve_grouplasso_dual(A, v, gs, lam, y, InnerConfig(method=method))
        full = inner._kkt(A, identity(n), -extend(v, gs) ** 2, -lam, y, sol.x,
                          sol.alpha, sol.xi)
        assert sol.kkt_residual == full


@pytest.mark.parametrize("loss", ["quadratic", "robust"])
def test_prox_certificate_equals_the_full_kkt(loss):
    # the A = Id route reports rows 1 and 2 only: its xi = -L^T alpha zeroes
    # row 3 exactly, so the full certificate agrees to the last bit, on
    # tv-denoise (grayscale and 3-channel) and tv-l1 instances
    for seed, (h, w, c) in enumerate([(5, 7, 1), (4, 6, 3), (6, 6, 3)]):
        rng = np.random.default_rng(seed)
        n = h * w * c
        L, gs = grad2d(h, w, c), tv_group_structure(h, w, c)
        v = rng.uniform(0.0, 1.5, gs.n_groups)
        y, lam = rng.uniform(0, 1, n), float(rng.uniform(0.1, 1.0))
        vbar = extend(v, gs)
        if loss == "quadratic":
            sol = solve_analysis_prox(L, v, gs, lam, y)
            d_alpha, d_xi = -vbar ** 2, -lam
        else:
            gl = pixel_channel_groups(h * w, c)
            wl = rng.uniform(0.5, 1.5, gl.n_groups)
            sol = solve_robust(identity(n), L, v, gs, wl, gl, lam, y)
            d_alpha, d_xi = vbar ** 2, lam * extend(wl, gl) ** 2
        full = inner._kkt(identity(n), L, d_alpha, d_xi, y, sol.x,
                          sol.alpha, sol.xi)
        assert sol.kkt_residual == full > 0


# (d_alpha, d_xi) of the one saddle system, per loss, from vbar, wbar, lam
CONVENTIONS = {
    "quadratic": lambda vbar, wbar, lam: (-vbar ** 2, -lam),
    "robust": lambda vbar, wbar, lam: (vbar ** 2, lam * wbar ** 2),
    "interpolation": lambda vbar, wbar, lam: (-vbar ** 2, 0.0),
}


def _saddle_matrix(A, L, d_alpha, d_xi):
    """Dense ``[[diag d_alpha, 0, L], [0, D_xi, A], [L^T, A^T, 0]]``, with
    ``D_xi = d_xi`` for a matrix ``d_xi`` (multitask), else ``diag d_xi``."""
    Ld, Ad = L.to_dense(), A.to_dense()
    (p, n), m = Ld.shape, A.rows
    D_xi = d_xi if np.ndim(d_xi) == 2 else np.diag(np.broadcast_to(d_xi, m))
    return np.block([
        [np.diag(d_alpha), np.zeros((p, m)), Ld],
        [np.zeros((m, p)), D_xi, Ad],
        [Ld.T, Ad.T, np.zeros((n, n))]])


SADDLE_ROUTES = ["general-direct", "general-cg", "general-degenerate",
                 "group-dual", "analysis-prox", "woodbury", "robust-identity",
                 "robust-dual", "two-factor-quadratic-1", "two-factor-quadratic-3",
                 "two-factor-interpolation-1", "two-factor-interpolation-3",
                 "multitask"]


@pytest.mark.parametrize("route", SADDLE_ROUTES)
def test_every_route_solves_the_saddle_system_of_its_loss(rng, route):
    # the table above, checked against each route's (alpha, xi, x) through
    # the dense matrix, independently of inner._kkt
    m, n, lam = 5, 8, 0.7
    A = dense(rng.standard_normal((m, n)) / 2)
    L, gs = dense(rng.standard_normal((6, n)) / 2), contiguous_groups(6, 2)
    y = rng.standard_normal(m)
    gl, wl = trivial_groups(m), rng.uniform(0.5, 1.5, m)
    if route in ("group-dual", "robust-dual") or route.startswith("two"):
        L, gs = identity(n), contiguous_groups(n, 2)
    elif route == "multitask":
        L, gs = identity(n), trivial_groups(n)
    elif route == "woodbury":
        ogs = _overlap_windows(n)
        L = block_extract(ogs, n)
        gs = L.lifted_partition()
    elif route in ("robust-identity", "analysis-prox"):
        L, gs = grad2d(2, 4), tv_group_structure(2, 4)
        A, y = identity(n), rng.uniform(0, 1, n)
        gl, wl = trivial_groups(n), rng.uniform(0.5, 1.5, n)
    v = rng.uniform(0.5, 1.5, gs.n_groups)
    if route == "general-degenerate":
        v[1] = 0.0
    loss, vbar = "quadratic", extend(v, gs)
    if route.startswith("general"):
        method = route.split("-")[1]
        cfg = InnerConfig(method="auto" if method == "degenerate" else method)
        sol = solve_quadratic_general(A, L, v, gs, lam, y, cfg)
        assert sol.method == {"cg": "cg"}.get(method, "direct-extended")
    elif route == "group-dual":
        sol = solve_grouplasso_dual(A, v, gs, lam, y)
    elif route == "analysis-prox":
        sol = solve_analysis_prox(L, v, gs, lam, y)
    elif route == "woodbury":
        sol = solve_overlap_woodbury(A, ogs, v, lam, y)
        assert sol.method == "woodbury"
    elif route.startswith("robust"):
        loss = "robust"
        sol = solve_robust(A, L, v, gs, wl, gl, lam, y)
    elif route.startswith("two"):
        loss, T = route.split("-")[2], int(route[-1])
        y = rng.standard_normal((m, T))
        vw = v * rng.uniform(0.5, 1.5, gs.n_groups)
        vbar = extend(vw, gs)
        shift = lam if loss == "quadratic" else 0.0
        sol = solve_two_factor(A, vw, gs, shift, y)
    else:
        W = rng.standard_normal((m, m)) / 3
        y = rng.standard_normal((m, 3))
        sol = solve_multitask_nuclear(A, v, W, lam, y)
    d_alpha, d_xi = CONVENTIONS[loss](vbar, extend(wl, gl), lam)
    if route == "multitask":
        d_xi = -W @ W.T / lam
    M = _saddle_matrix(A, L, d_alpha, d_xi)
    z = np.concatenate([sol.alpha, sol.xi, sol.x])
    cols = y.shape[1:]
    rhs = np.concatenate([np.zeros((L.rows, *cols)), y, np.zeros((n, *cols))])
    res = np.abs(M @ z - rhs).max()
    assert res <= 1e-9
    assert abs(res - sol.kkt_residual) <= 1e-12
    # only the group dual's solution carries the solve on its factor
    assert (sol.solve is None) == (route != "group-dual")


LAM_ROUTES = ["solve_quadratic_general", "solve_grouplasso_dual",
              "solve_analysis_prox", "solve_overlap_woodbury", "solve_robust",
              "solve_multitask_nuclear", "solve_two_factor"]


@pytest.mark.parametrize("route,lam", [
    (route, lam) for route in LAM_ROUTES for lam in (0.0, -0.5)
    if (route, lam) != ("solve_two_factor", 0.0)])   # 0 is interpolation
def test_routes_reject_a_lam_without_a_concave_dual(rng, route, lam):
    m, n = 4, 6
    A, y = dense(rng.standard_normal((m, n))), rng.standard_normal(m)
    gs = contiguous_groups(n, 2)
    v = rng.uniform(0.5, 1.5, gs.n_groups)
    calls = {
        "solve_quadratic_general":
            lambda: solve_quadratic_general(A, identity(n), v, gs, lam, y),
        "solve_grouplasso_dual": lambda: solve_grouplasso_dual(A, v, gs, lam, y),
        "solve_analysis_prox": lambda: solve_analysis_prox(
            grad2d(2, 3), np.ones(6), tv_group_structure(2, 3), lam, np.ones(n)),
        "solve_overlap_woodbury": lambda: solve_overlap_woodbury(
            A, _overlap_windows(n), np.ones(3), lam, y),
        "solve_robust": lambda: solve_robust(A, identity(n), v, gs, np.ones(m),
                                             trivial_groups(m), lam, y),
        "solve_multitask_nuclear":
            lambda: solve_multitask_nuclear(A, np.ones(n), np.eye(m), lam, y),
        "solve_two_factor": lambda: solve_two_factor(A, v, gs, lam, y),
    }
    with pytest.raises(ValueError, match="lam must be"):
        calls[route]()


def test_saddle_layout_is_assembled_once_per_operator_pair(monkeypatch):
    # tv-inpaint refills the two diagonal blocks of one memoized layout at
    # every evaluation, and SuperLU gets the matrix a fresh assembly gives:
    # the answers are bitwise those of operators that never solved before
    h, w, c, lam = 6, 6, 3, 0.2
    assemblies = []
    block_array = scipy.sparse.block_array

    def spy(*args, **kwargs):
        assemblies.append(args)
        return block_array(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse, "block_array", spy)
    L, gs = grad2d(h, w, c), tv_group_structure(h, w, c)
    A = make_inpainting_mask(h, w, 0.3, seed=2, channels=c)
    rng = np.random.default_rng(0)
    for k in range(4):
        v, y = rng.uniform(0.5, 1.5, gs.n_groups), rng.uniform(0, 1, A.rows)
        v[:k] = 0.0
        sol = solve_quadratic_general(A, L, v, gs, lam, y)
        fresh = solve_quadratic_general(
            make_inpainting_mask(h, w, 0.3, seed=2, channels=c),
            grad2d(h, w, c), v, gs, lam, y)
        for name in ("x", "alpha", "xi", "kkt_residual"):
            assert np.array_equal(getattr(sol, name), getattr(fresh, name))
    assert len(assemblies) == 1 + 4
    assemblies.clear()
    res = solve_varpro(VarProProblem(A, L, gs, QuadraticLoss(y=y, lam=lam)),
                       OuterConfig(max_iter=20))
    assert res.trace.evals > 1 and assemblies == []
