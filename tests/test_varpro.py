import configparser
import warnings
import weakref

import numpy as np
import pytest

from conftest import fd_gradient
from varprox import cli, inner, optim, varpro
from varprox.groups import (GroupStructure, _project_group_ball,
                            contiguous_groups, extend, group_sq_norms,
                            trivial_groups)
from varprox.inner import solve_quadratic_general
from varprox.linops import (block_extract, dense, grad2d, identity,
                            operator_norm, tv_group_structure)
from varprox.optim import GAP_TOL
from varprox.problems import gen_gaussian_instance, lambda_max, pixel_channel_groups
from varprox.baselines import lq_value, run_ista, run_primal_dual
from varprox.varpro import (BasisPursuitLoss, MultitaskLoss, OuterConfig,
                            QuadraticLoss, RobustLoss, VarProProblem,
                            eval_f_grad, eval_f_grad_robust, eval_lq_option2,
                            eval_lq_option3, eval_multitask,
                            nonsmooth_objective, solve_lq_option2,
                            solve_varpro)


def _lasso_1d(lam=1.0, y=2.0):
    return VarProProblem(dense([[1.0]]), identity(1), trivial_groups(1),
                         QuadraticLoss(y=np.array([y]), lam=lam))


def test_eval_one_dim_stationary():
    prob = _lasso_1d()
    f, g, sol = eval_f_grad(prob, np.array([1.0]))
    # v = 1 is stationary: the lasso solution is x = 1 with eta = |x| = 1
    assert g[0] == pytest.approx(0.0, abs=1e-12)
    assert f == pytest.approx(1.5, abs=1e-12)      # equals Phi(x*) = 1 + 1/2
    assert sol.x[0] == pytest.approx(1.0, abs=1e-12)


def test_eval_at_zero_v(rng):
    n, m, p = 8, 5, 6
    A = dense(rng.standard_normal((m, n)))
    L = dense(rng.standard_normal((p, n)))
    gs = contiguous_groups(p, 2)
    prob = VarProProblem(A, L, gs, QuadraticLoss(y=rng.standard_normal(m), lam=0.8))
    f, g, sol = eval_f_grad(prob, np.zeros(gs.n_groups))
    assert np.allclose(g, 0.0)
    # f equals the data fit minimized over the kernel of L
    assert np.abs(L.apply(sol.x)).max() < 1e-8


def test_quadratic_gradient_finite_differences(rng):
    n, m, p = 15, 10, 12
    A = dense(rng.standard_normal((m, n)) / 3)
    L = dense(rng.standard_normal((p, n)) / 3)
    gs = contiguous_groups(p, 3)
    prob = VarProProblem(A, L, gs, QuadraticLoss(y=rng.standard_normal(m), lam=0.7))
    v = rng.uniform(0.7, 1.3, gs.n_groups)
    f, g, _ = eval_f_grad(prob, v)
    gfd = fd_gradient(lambda vv: eval_f_grad(prob, vv)[0], v)
    assert np.abs(g - gfd).max() / np.abs(gfd).max() < 1e-6


@pytest.mark.parametrize("regroup", ["lifted", "other", "trivial"])
def test_overlapping_extractor_takes_woodbury_only_on_its_lifted_partition(
        rng, regroup):
    # Woodbury extends v over the extractor's own blocks, so regularizer
    # groups of any other shape make a general analysis problem
    n, m, lam = 6, 4, 0.5
    ogs = GroupStructure([[0, 1, 2], [2, 3, 4], [4, 5]], p=n, mode="overlapping")
    L = block_extract(ogs, n)
    gs = {"lifted": L.lifted_partition(),
          "other": GroupStructure([[0, 1], [2, 3, 4], [5, 6, 7]], p=L.rows),
          "trivial": trivial_groups(L.rows)}[regroup]
    A = dense(rng.standard_normal((m, n)))
    y = rng.standard_normal(m)
    v = rng.uniform(0.5, 1.5, gs.n_groups)
    _, _, sol = eval_f_grad(VarProProblem(A, L, gs, QuadraticLoss(y, lam)), v)
    ref = solve_quadratic_general(A, L, v, gs, lam, y)
    assert sol.method == ("woodbury" if regroup == "lifted" else "direct-extended")
    assert np.abs(sol.x - ref.x).max() < 1e-10


def test_robust_zero_data_gradients(rng):
    m, n = 6, 5
    A = dense(rng.standard_normal((m, n)))
    gl = trivial_groups(m)
    lam = 0.8
    prob = VarProProblem(A, identity(n), trivial_groups(n),
                         RobustLoss(y=np.zeros(m), lam=lam, loss_groups=gl))
    v = rng.uniform(0.5, 1.5, n)
    w = rng.uniform(0.5, 1.5, m)
    f, gv, gw, _ = eval_f_grad_robust(prob, v, w)
    assert np.allclose(gv, v, atol=1e-10)
    assert np.allclose(gw, w / lam, atol=1e-10)


def test_robust_sqrt_lasso_fd(rng):
    m, n = 4, 3
    A = dense(rng.standard_normal((m, n)))
    gl = GroupStructure([range(m)], p=m)
    prob = VarProProblem(A, identity(n), trivial_groups(n),
                         RobustLoss(y=rng.standard_normal(m),
                                    lam=0.6 * np.sqrt(m), loss_groups=gl))
    v = rng.uniform(0.7, 1.3, n)
    w = rng.uniform(0.7, 1.3, 1)
    _, gv, gw, _ = eval_f_grad_robust(prob, v, w)
    gvfd = fd_gradient(lambda z: eval_f_grad_robust(prob, z, w)[0], v)
    gwfd = fd_gradient(lambda z: eval_f_grad_robust(prob, v, z)[0], w)
    assert np.abs(gv - gvfd).max() / np.abs(gvfd).max() < 1e-6
    assert np.abs(gw - gwfd).max() / np.abs(gwfd).max() < 1e-6


def test_robust_tvl1_fd(rng):
    h, w_, c = 4, 4, 3
    n = h * w_ * c
    L = grad2d(h, w_, c)
    gs = tv_group_structure(h, w_, c)
    gl = pixel_channel_groups(h * w_, c)
    prob = VarProProblem(identity(n), L, gs,
                         RobustLoss(y=rng.uniform(0, 1, n), lam=0.8,
                                    loss_groups=gl))
    v = rng.uniform(0.7, 1.3, gs.n_groups)
    w = rng.uniform(0.7, 1.3, gl.n_groups)
    _, gv, gw, _ = eval_f_grad_robust(prob, v, w)
    gvfd = fd_gradient(lambda z: eval_f_grad_robust(prob, z, w)[0], v)
    gwfd = fd_gradient(lambda z: eval_f_grad_robust(prob, v, z)[0], w)
    assert np.abs(gv - gvfd).max() / np.abs(gvfd).max() < 1e-6
    assert np.abs(gw - gwfd).max() / np.abs(gwfd).max() < 1e-6


def test_option2_decoupled_at_zero_w(rng):
    m, n = 6, 8
    A = dense(rng.standard_normal((m, n)))
    prob = VarProProblem(A, identity(n), trivial_groups(n),
                         QuadraticLoss(y=rng.standard_normal(m), lam=0.5))
    v = rng.uniform(0.5, 1.5, n)
    f, gv, gw, _ = eval_lq_option2(prob, v, np.zeros(n))
    assert np.allclose(gv, v, atol=1e-12)


def test_option2_fd_and_symmetry(rng):
    m, n = 7, 10
    A = dense(rng.standard_normal((m, n)) / 2)
    prob = VarProProblem(A, identity(n), trivial_groups(n),
                         QuadraticLoss(y=rng.standard_normal(m), lam=0.5))
    v = rng.uniform(0.7, 1.3, n)
    w = rng.uniform(0.7, 1.3, n)
    f, gv, gw, _ = eval_lq_option2(prob, v, w)
    gvfd = fd_gradient(lambda z: eval_lq_option2(prob, z, w)[0], v)
    gwfd = fd_gradient(lambda z: eval_lq_option2(prob, v, z)[0], w)
    assert np.abs(gv - gvfd).max() / np.abs(gvfd).max() < 1e-6
    assert np.abs(gw - gwfd).max() / np.abs(gwfd).max() < 1e-6
    # dependence through squares only
    assert eval_lq_option2(prob, -v, w)[0] == pytest.approx(f, abs=1e-12)
    assert eval_lq_option2(prob, v, -w)[0] == pytest.approx(f, abs=1e-12)


def test_option2_interpolation_at_zero_v_is_infinite(rng):
    # A diag(0) A^T is the zero matrix: a nonzero y has no inner solution,
    # which is outside the dual domain, not a value
    m, n = 6, 8
    prob = VarProProblem(dense(rng.standard_normal((m, n))), identity(n),
                         trivial_groups(n),
                         BasisPursuitLoss(y=rng.standard_normal(m)))
    with np.errstate(all="ignore"):
        f, gv, gw, sol = eval_lq_option2(prob, np.zeros(n), np.ones(n))
    assert f == np.inf and sol is None
    assert np.isnan(gv).all() and np.isnan(gw).all()


def test_option2_refuses_the_zero_system_before_factoring_it(rng):
    # the zero matrix is refused unfactored, so no NaN is computed and no
    # floating-point warning is raised on the way to +inf
    m, n = 6, 8
    prob = VarProProblem(dense(rng.standard_normal((m, n))), identity(n),
                         trivial_groups(n),
                         BasisPursuitLoss(y=rng.standard_normal(m)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        f, gv, gw, sol = eval_lq_option2(prob, np.zeros(n), np.ones(n))
    assert f == np.inf and sol is None
    assert np.isnan(gv).all() and np.isnan(gw).all()


def test_option2_is_the_group_dual_at_the_product_factor(rng):
    # with L = Id the two-factor inner problem is the single-factor one at
    # u = v w, so only the outer penalty terms differ
    m, n = 6, 12
    gs = contiguous_groups(n, 3)
    prob = VarProProblem(dense(rng.standard_normal((m, n)) / 2), identity(n),
                         gs, QuadraticLoss(y=rng.standard_normal(m), lam=0.4))
    v, w = rng.uniform(0.5, 1.5, (2, gs.n_groups))
    u = v * w
    f2, _, _, sol2 = eval_lq_option2(prob, v, w)
    f1, _, sol = eval_f_grad(prob, u)
    expected = 0.5 * (v @ v + w @ w - u @ u) + f1
    assert f2 == pytest.approx(expected, rel=1e-12)
    assert np.abs(sol2.x.ravel() - sol.x).max() <= 1e-12


def _l23_instance(seed):
    inst = gen_gaussian_instance(12, 30, s=6, group_size=3, noise_std=0.05,
                                 seed=seed)
    lam = 0.1 * lambda_max(inst.A, inst.y, "group-lasso", inst.groups)
    return VarProProblem(inst.A, identity(30), inst.groups,
                         QuadraticLoss(y=inst.y, lam=lam))


def _l23_objective(prob, x):
    r = prob.A.apply(x) - prob.loss.y
    return (lq_value(group_sq_norms(x, prob.reg_groups), 2 / 3)
            + float(r @ r) / (2 * prob.loss.lam))


@pytest.mark.parametrize("seed", range(5))
def test_option2_value_bounds_the_l23_objective(seed):
    # sum_g ||x_g||^(2/3) / (2/3) is the least (||u||^2 + ||v||^2 + ||w||^2)/2
    # over the splits x = u * (v w), so every evaluation lies above the
    # l_{2/3} objective at its own x
    prob = _l23_instance(seed)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        v, w = rng.uniform(0.2, 2.0, (2, prob.reg_groups.n_groups))
        f, _, _, sol = eval_lq_option2(prob, v, w)
        assert f >= _l23_objective(prob, sol.x.ravel())


@pytest.mark.parametrize("seed", range(5))
def test_option2_value_equals_the_l23_objective_at_its_answer(seed):
    # at a stationary (v, w) the split of x is the balanced one, where the
    # variational form attains the l_{2/3} penalty
    prob = _l23_instance(seed)
    res = solve_lq_option2(prob, OuterConfig(max_iter=600, grad_tol=1e-10))
    assert res.objective == pytest.approx(_l23_objective(prob, res.x),
                                          rel=1e-10)


@pytest.mark.parametrize("T", [1, 3])
def test_lq_option2_result_carries_its_inner_solution(T):
    inst = gen_gaussian_instance(24, 64, 8, T=T, seed=0)
    prob = VarProProblem(inst.A, identity(64), inst.groups,
                         BasisPursuitLoss(y=inst.y))
    res = solve_lq_option2(prob, OuterConfig(max_iter=600, grad_tol=1e-10))
    assert isinstance(res.inner, varpro.InnerSolution)
    assert res.x.shape == np.shape(inst.x_true)
    assert np.array_equal(res.inner.x.reshape(res.x.shape), res.x)
    assert res.inner.kkt_residual <= 1e-6 * (1 + np.abs(inst.y).max())


@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("T", [1, 3])
def test_lq_warm_factors_split_the_least_squares_point(rng, lam, T):
    m, n = 8, 20
    gs = contiguous_groups(n, 4)
    Ad = rng.standard_normal((m, n))
    Ad[:, gs.groups[0]] = 0.0       # a zero group: the floor sets its factor
    Y = rng.standard_normal((m, T)).squeeze()
    loss = QuadraticLoss(y=Y, lam=lam) if lam else BasisPursuitLoss(y=Y)
    prob = VarProProblem(dense(Ad), identity(n), gs, loss)
    C = Ad @ Ad.T + lam * np.eye(m)
    X = Ad.T @ np.linalg.lstsq(C, Y.reshape(m, -1), rcond=None)[0]
    norms = np.sqrt(group_sq_norms(X, gs))
    base = np.maximum(norms, 1e-3 * norms.max()) ** (1.0 / 3.0)
    warm = varpro._lq_warm_factors(prob)
    assert np.abs(warm - np.concatenate([base, base])).max() <= 1e-10


def test_option3_zero_v(rng):
    m, n = 5, 6
    A = dense(rng.standard_normal((m, n)))
    y = rng.standard_normal(m)
    prob = VarProProblem(A, identity(n), trivial_groups(n),
                         QuadraticLoss(y=y, lam=0.6))
    f, g, aux = eval_lq_option3(prob, np.zeros(n))
    assert np.allclose(g, 0.0, atol=1e-10)
    assert f == pytest.approx(float(y @ y) / (2 * 0.6), rel=1e-9)


def test_option3_matches_option2_marginalized_1d(rng):
    A = dense([[0.9]])
    prob = VarProProblem(A, identity(1), trivial_groups(1),
                         QuadraticLoss(y=np.array([1.4]), lam=0.5))
    v = np.array([0.8])
    f3, _, _ = eval_lq_option3(prob, v)
    # marginalize the two-factor objective over w by scalar minimization
    import scipy.optimize
    res = scipy.optimize.minimize_scalar(
        lambda w: eval_lq_option2(prob, v, np.array([w]))[0],
        bounds=(1e-4, 5.0), method="bounded",
        options={"xatol": 1e-12})
    assert f3 == pytest.approx(res.fun, abs=1e-6)


def test_option3_fd(rng):
    m, n = 6, 8
    A = dense(rng.standard_normal((m, n)) / 2)
    prob = VarProProblem(A, identity(n), trivial_groups(n),
                         QuadraticLoss(y=rng.standard_normal(m), lam=0.7))
    v = rng.uniform(0.8, 1.2, n)
    f, g, _ = eval_lq_option3(prob, v)
    gfd = fd_gradient(lambda z: eval_lq_option3(prob, z)[0], v)
    assert np.abs(g - gfd).max() / np.abs(gfd).max() < 1e-6


def test_multitask_zero_data_gradients(rng):
    m, n, T = 4, 6, 2
    A = dense(rng.standard_normal((m, n)))
    lam = 0.9
    prob = VarProProblem(A, identity(n), trivial_groups(n),
                         MultitaskLoss(Y=np.zeros((m, T)), lam=lam))
    v = rng.uniform(0.5, 1.5, n)
    W = rng.standard_normal((m, m))
    f, gv, gW, _ = eval_multitask(prob, v, W)
    assert np.allclose(gv, v)
    assert np.allclose(gW, lam * W)


def test_multitask_fd(rng):
    m, n, T = 4, 6, 2
    A = dense(rng.standard_normal((m, n)) / 2)
    prob = VarProProblem(A, identity(n), trivial_groups(n),
                         MultitaskLoss(Y=rng.standard_normal((m, T)), lam=0.8))
    v = rng.uniform(0.7, 1.3, n)
    W = np.eye(m) + 0.1 * rng.standard_normal((m, m))
    f, gv, gW, _ = eval_multitask(prob, v, W)
    gvfd = fd_gradient(lambda z: eval_multitask(prob, z, W)[0], v)
    assert np.abs(gv - gvfd).max() / np.abs(gvfd).max() < 1e-6
    h = 1e-5
    gWfd = np.zeros_like(W)
    for i in range(m):
        for j in range(m):
            E = np.zeros_like(W)
            E[i, j] = h
            gWfd[i, j] = (eval_multitask(prob, v, W + E)[0]
                          - eval_multitask(prob, v, W - E)[0]) / (2 * h)
    assert np.abs(gW - gWfd).max() / np.abs(gWfd).max() < 1e-6


def test_multitask_degenerate_W_floor(rng):
    m, n = 4, 5
    A = dense(rng.standard_normal((m, n)))
    prob = VarProProblem(A, identity(n), trivial_groups(n),
                         MultitaskLoss(Y=rng.standard_normal((m, 2)), lam=0.8))
    v = rng.uniform(0.7, 1.3, n)
    f0, gv0, gW0, _ = eval_multitask(prob, v, np.zeros((m, m)))
    # compare against an epsilon-perturbed loss factor
    f1, gv1, gW1, _ = eval_multitask(prob, v, 1e-5 * np.eye(m))
    assert abs(f0 - f1) < 1e-3 * max(1.0, abs(f0))


def test_lbfgs_quadratic_sanity(rng):
    from varprox.optim import minimize_lbfgs
    n = 12
    a = rng.standard_normal(n)

    def fun(v):
        return 0.5 * float((v - a) @ (v - a)), v - a

    x, f, g, trace = minimize_lbfgs(fun, np.zeros(n), n + 5, 1e-12)
    assert np.abs(x - a).max() < 1e-10
    assert trace.n_records <= n + 6


@pytest.mark.parametrize("method", ["lbfgs", "gd-bb"])
def test_descent_flags_max_iter_only_without_convergence(method):
    from varprox.optim import minimize_gd_bb, minimize_lbfgs
    minimize = minimize_lbfgs if method == "lbfgs" else minimize_gd_bb
    h = np.linspace(1.0, 10.0, 8)

    def fun(v):
        return 0.5 * float(h @ (v - 1.0) ** 2), h * (v - 1.0)

    _, _, g, trace = minimize(fun, np.zeros(8), 2, 1e-8)
    assert np.linalg.norm(g) > 1e-3
    assert trace.stop_reason == "max_iter" and trace.flags == {}
    _, _, g, trace = minimize(fun, np.zeros(8), 500, 1e-6)
    assert np.linalg.norm(g) <= 1e-6
    assert trace.stop_reason == "converged" and trace.flags == {}


def test_descent_converging_on_the_last_step_sets_no_flag():
    from varprox.optim import minimize_lbfgs

    def fun(v):     # the first step, -g at t = 1, lands on the minimizer
        return 0.5 * float((v - 1.0) @ (v - 1.0)), v - 1.0

    # the one allowed step converges: the run is not marked max_iter
    _, _, g, trace = minimize_lbfgs(fun, np.zeros(8), 1, 1e-8)
    assert not g.any()
    assert trace.stop_reason == "converged" and trace.evals == 2


def test_lbfgs_one_dim_lasso_from_two():
    prob = _lasso_1d()
    cfg = OuterConfig(max_iter=200, grad_tol=1e-10, init=np.array([2.0]))
    res = solve_varpro(prob, cfg)
    assert res.trace.grad_norms[-1] < 1e-10
    assert res.x[0] == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("bad", [dict(init="zeros"), dict(init=[1.0]),
                                 dict(algorithm="newton"), dict(max_iter=-1)])
def test_outer_config_rejects_unknown_values(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        OuterConfig(**bad)
    OuterConfig(init=np.ones(2), algorithm="gradient-descent-bb")


def test_group_lasso_matches_long_fista(rng):
    inst = gen_gaussian_instance(20, 60, s=9, group_size=3, noise_std=0.05, seed=3)
    lam = 0.1 * lambda_max(inst.A, inst.y, "group-lasso", inst.groups)
    prob = VarProProblem(inst.A, inst.L, inst.groups, QuadraticLoss(y=inst.y, lam=lam))
    res = solve_varpro(prob, OuterConfig(max_iter=800, grad_tol=1e-12, seed=0))
    oracle = run_ista(inst.A, inst.groups, lam, inst.y, accel="fista",
                      iters=100000)
    f_vp = nonsmooth_objective(prob, res.x)
    f_or = nonsmooth_objective(prob, oracle.x)
    assert abs(f_vp - f_or) / abs(f_or) < 1e-6


def test_sign_symmetry(rng):
    n, m = 10, 6
    A = dense(rng.standard_normal((m, n)))
    prob = VarProProblem(A, identity(n), trivial_groups(n),
                         QuadraticLoss(y=rng.standard_normal(m), lam=0.5))
    v = rng.uniform(0.5, 1.5, n)
    f0 = eval_f_grad(prob, v)[0]
    assert abs(eval_f_grad(prob, -v)[0] - f0) < 1e-12
    assert abs(eval_f_grad(prob, np.abs(v))[0] - f0) < 1e-12


def test_stationarity_alpha_norms(rng):
    inst = gen_gaussian_instance(15, 30, s=6, group_size=3, noise_std=0.1, seed=2)
    lam = 0.2 * lambda_max(inst.A, inst.y, "group-lasso", inst.groups)
    prob = VarProProblem(inst.A, inst.L, inst.groups, QuadraticLoss(y=inst.y, lam=lam))
    res = solve_varpro(prob, OuterConfig(max_iter=800, grad_tol=1e-9, seed=0))
    assert res.trace.grad_norms[-1] < 1e-8
    s = group_sq_norms(res.inner.alpha, inst.groups)
    live = np.abs(res.v) > 1e-3 * np.abs(res.v).max()
    assert np.abs(s[live] - 1.0).max() < 1e-6


def test_bilevel_consistency(rng):
    # f(v) evaluated through the dual equals G(u(v), v) computed from an
    # independent equality-constrained least-squares solve
    n, m, p = 10, 7, 8
    A = dense(rng.standard_normal((m, n)) / 2)
    L = dense(rng.standard_normal((p, n)) / 2)
    gs = contiguous_groups(p, 2)
    lam = 0.6
    y = rng.standard_normal(m)
    prob = VarProProblem(A, L, gs, QuadraticLoss(y=y, lam=lam))
    v = rng.uniform(0.5, 1.5, gs.n_groups)
    f, _, sol = eval_f_grad(prob, v)
    u = extend(v, gs) * sol.alpha
    # min F0(A x) subject to L x = u * v, via stacked least squares KKT
    target = u * extend(v, gs)
    Ad, Ld = A.to_dense(), L.to_dense()
    K = np.block([[Ad.T @ Ad / lam, Ld.T], [Ld, np.zeros((p, p))]])
    rhs = np.concatenate([Ad.T @ y / lam, target])
    sol2 = np.linalg.lstsq(K, rhs, rcond=None)[0]
    x2 = sol2[:n]
    G = (0.5 * u @ u + 0.5 * v @ v
         + np.sum((Ad @ x2 - y) ** 2) / (2 * lam))
    assert abs(f - G) < 1e-8


def test_objective_equivalence_at_stationary_point(rng):
    inst = gen_gaussian_instance(12, 24, s=4, group_size=2, noise_std=0.1, seed=4)
    lam = 0.15 * lambda_max(inst.A, inst.y, "group-lasso", inst.groups)
    prob = VarProProblem(inst.A, inst.L, inst.groups, QuadraticLoss(y=inst.y, lam=lam))
    res = solve_varpro(prob, OuterConfig(max_iter=800, grad_tol=1e-10, seed=0))
    assert abs(res.objective - nonsmooth_objective(prob, res.x)) \
        <= 1e-6 * max(1.0, res.objective)


def test_trace_monotone(rng):
    inst = gen_gaussian_instance(15, 30, s=4, group_size=1, noise_std=0.1, seed=6)
    lam = 0.2 * lambda_max(inst.A, inst.y, "lasso")
    prob = VarProProblem(inst.A, inst.L, inst.groups, QuadraticLoss(y=inst.y, lam=lam))
    res = solve_varpro(prob, OuterConfig(max_iter=300, grad_tol=1e-11, seed=0))
    obj = np.asarray(res.trace.objectives)
    assert np.all(np.diff(obj) <= 1e-12)


def test_basis_pursuit_gradient_fd(rng):
    m, n = 4, 8
    A = dense(rng.standard_normal((m, n)))
    x_true = np.zeros(n)
    x_true[[1, 5]] = [1.0, -2.0]
    prob = VarProProblem(A, identity(n), trivial_groups(n),
                         BasisPursuitLoss(y=A.apply(x_true)))
    v = rng.uniform(0.7, 1.3, n)
    f, g, _ = eval_f_grad(prob, v)
    gfd = fd_gradient(lambda z: eval_f_grad(prob, z)[0], v)
    assert np.abs(g - gfd).max() / np.abs(gfd).max() < 1e-6


def test_gd_bb_driver(rng):
    inst = gen_gaussian_instance(12, 24, s=3, group_size=1, noise_std=0.1, seed=9)
    lam = 0.2 * lambda_max(inst.A, inst.y, "lasso")
    prob = VarProProblem(inst.A, inst.L, inst.groups,
                         QuadraticLoss(y=inst.y, lam=lam))
    res_bb = solve_varpro(prob, OuterConfig(algorithm="gradient-descent-bb",
                                            max_iter=2000, grad_tol=1e-9, seed=0))
    res_lb = solve_varpro(prob, OuterConfig(max_iter=800, grad_tol=1e-11, seed=0))
    assert abs(nonsmooth_objective(prob, res_bb.x)
               - nonsmooth_objective(prob, res_lb.x)) < 1e-5
    obj = np.asarray(res_bb.trace.objectives)
    assert np.all(np.diff(obj) <= 1e-12)     # safeguarded: stays monotone


def _image_problem(family, side, seed=0):
    """The ``varprox run`` image problem of a side-by-side 3-channel image."""
    section = configparser.ConfigParser()
    section.read_dict({"problem": {"family": family, "height": str(side),
                                   "width": str(side), "channels": "3",
                                   "seed": str(seed)}})
    return cli.build_problem(section["problem"])[0]


def _tv_inpaint_8x8x3():
    return _image_problem("tv-inpaint", 8)


def test_result_is_the_solution_at_the_returned_point(monkeypatch):
    # the first trial step is finite and rejected, every later one is
    # infinite: the run ends on a failed line search after the last finite
    # evaluation was a trial point the search rejected
    prob = _tv_inpaint_8x8x3()
    calls = 0

    def rejecting(problem, v):
        nonlocal calls
        calls += 1
        f, grad, sol = eval_f_grad(problem, v)
        if calls == 2:
            f += 1e3
        elif calls > 2:
            f = np.inf
        return f, grad, sol

    monkeypatch.setattr(varpro, "eval_f_grad", rejecting)
    res = solve_varpro(prob, OuterConfig())
    assert res.trace.stop_reason == "line_search_failed"
    assert res.trace.n_records == 1 and calls == res.trace.evals
    monkeypatch.undo()
    assert nonsmooth_objective(prob, res.x) <= res.objective * (1 + 1e-12)
    f, _, sol = eval_f_grad(prob, res.v)
    assert f == res.objective and np.array_equal(res.x, sol.x)


@pytest.mark.parametrize("ulps_below, final_evals", [(1, 1), (0, 0)])
def test_final_evaluation_only_below_a_rejected_trial(monkeypatch, ulps_below,
                                                      final_evals):
    # the first trial scores at most one ulp below the start, too little for
    # the Armijo test, and every later one is infinite.  A trial below the
    # start holds the lowest finite value, so the returned start is
    # evaluated once more; a trial that ties the start does not displace it
    prob = _tv_inpaint_8x8x3()
    calls, f0 = 0, None

    def rejected_trial(problem, v):
        nonlocal calls, f0
        calls += 1
        f, grad, sol = eval_f_grad(problem, v)
        if calls == 1:
            f0 = f
        elif calls == 2:
            f = np.nextafter(f0, -np.inf) if ulps_below else f0
        else:
            f = np.inf
        return f, grad, sol

    monkeypatch.setattr(varpro, "eval_f_grad", rejected_trial)
    res = solve_varpro(prob, OuterConfig())
    assert res.trace.stop_reason == "line_search_failed"
    assert res.trace.n_records == 1 and res.trace.backtracks == res.trace.evals - 1
    assert calls == res.trace.evals + final_evals
    monkeypatch.undo()
    f, _, sol = eval_f_grad(prob, res.v)
    assert f == f0 == res.objective and np.array_equal(res.x, sol.x)


def test_tv_inpaint_ends_on_the_noise_floor_without_a_final_evaluation(
        monkeypatch):
    # from the 21st evaluation on every trial scores above the lowest value
    # so far, so the line search halves until the next trial would sit
    # under the noise floor: the last finite evaluations are rejected
    # trials, and the solution of the accepted point is returned without
    # evaluating it again
    prob = _tv_inpaint_8x8x3()
    values = []

    def rejecting(problem, v):
        f, grad, sol = eval_f_grad(problem, v)
        if len(values) >= 20:
            f = min(values) + 1.0
        values.append(f)
        return f, grad, sol

    monkeypatch.setattr(varpro, "eval_f_grad", rejecting)
    res = solve_varpro(prob, OuterConfig())
    assert res.trace.stop_reason == "noise_floor"
    assert len(values) == res.trace.evals > 21
    assert values[-1] > res.objective == min(values)
    assert res.trace.backtracks >= res.trace.evals - 20
    monkeypatch.undo()
    _, _, sol = eval_f_grad(prob, res.v)
    assert np.array_equal(res.x, sol.x)


@pytest.mark.parametrize("route", ["solve_robust", "solve_multitask_nuclear",
                                   "solve_grouplasso_dual", "solve_two_factor"])
def test_inner_failure_at_every_point_raises(monkeypatch, rng, route):
    # no evaluation succeeds, so no inner solution exists to report
    from varprox import inner
    from varprox.inner import InnerSolveError

    def fail(*args, **kwargs):
        raise InnerSolveError("injected inner failure")

    monkeypatch.setattr(inner, route, fail)
    m, n = 4, 5
    if route == "solve_robust":
        loss = RobustLoss(y=rng.standard_normal(m), lam=0.8,
                          loss_groups=trivial_groups(m))
    elif route == "solve_multitask_nuclear":
        loss = MultitaskLoss(Y=rng.standard_normal((m, 2)), lam=0.8)
    elif route == "solve_grouplasso_dual":
        loss = QuadraticLoss(y=rng.standard_normal(m), lam=0.8)
    else:
        loss = BasisPursuitLoss(y=rng.standard_normal(m))
    prob = VarProProblem(dense(rng.standard_normal((m, n))), identity(n),
                         trivial_groups(n), loss)
    with pytest.raises(InnerSolveError, match="injected"):
        solve_varpro(prob, OuterConfig(max_iter=5))


def _screened_group_lasso(seed):
    inst = gen_gaussian_instance(20, 60, s=9, group_size=3, noise_std=0.05,
                                 seed=seed)
    lam = 0.1 * lambda_max(inst.A, inst.y, "group-lasso", inst.groups)
    return inst, VarProProblem(inst.A, inst.L, inst.groups,
                               QuadraticLoss(y=inst.y, lam=lam))


@pytest.mark.parametrize("seed", range(5))
def test_gap_safe_screening_is_safe(monkeypatch, seed):
    # every group an evaluation saw screened (v_g = 0) is zero in a long
    # FISTA reference, and the answer keeps criterion 2's concordance
    from varprox import varpro
    inst, prob = _screened_group_lasso(seed)
    seen = np.zeros(inst.groups.n_groups, dtype=bool)
    original = varpro.eval_f_grad

    def spy(problem, v, *args, **kwargs):
        seen[np.asarray(v) == 0.0] = True
        return original(problem, v, *args, **kwargs)

    monkeypatch.setattr(varpro, "eval_f_grad", spy)
    res = solve_varpro(prob, OuterConfig(max_iter=500, grad_tol=1e-9, seed=seed))
    oracle = run_ista(inst.A, inst.groups, prob.loss.lam, inst.y,
                      accel="fista", iters=20000)
    norms = np.sqrt(group_sq_norms(oracle.x, inst.groups))
    assert seen.any()
    assert norms[seen].max() <= 1e-8
    out = res.v == 0.0
    assert res.screened == int(out.sum()) and not (seen & ~out).any()
    assert not res.x[extend(out, inst.groups) > 0].any()
    f_vp = nonsmooth_objective(prob, res.x)
    f_or = nonsmooth_objective(prob, oracle.x)
    assert abs(f_vp - f_or) <= 1e-5 * abs(f_or)
    assert 0.0 < res.duality_gap < 1e-5


def test_gap_safe_screening_keeps_a_group_active_at_rounding_level():
    # the fourth lq3 draw of criterion 1 (default_rng(11)): at v + h e_0
    # the nested group lasso converges until P - D rounds to zero, and a
    # gap floored at 0 rather than at the rounding level screened group 4
    # (z_4 = 0.13 at the optimum), breaking the finite-difference gradient
    rng = np.random.default_rng(11)
    for _ in range(4):
        A = dense(rng.standard_normal((5, 6)) / 2)
        y = rng.standard_normal(5)
        v = rng.uniform(0.8, 1.2, 6)
    prob = VarProProblem(A, identity(6), trivial_groups(6),
                         QuadraticLoss(y=y, lam=0.7))
    bumped = v.copy()
    bumped[0] += 1e-5
    z = eval_lq_option3(prob, bumped)[2]["z"]
    assert z[4] == pytest.approx(0.1306, abs=1e-3)
    _, g, _ = eval_lq_option3(prob, v)
    gfd = fd_gradient(lambda zz: eval_lq_option3(prob, zz)[0], v)
    assert np.abs(g - gfd).max() / np.abs(gfd).max() < 1e-5


def test_only_the_group_lasso_and_tv_denoising_report_a_gap(rng):
    _, prob = _screened_group_lasso(0)
    res = solve_varpro(prob, OuterConfig(max_iter=50, seed=0))
    assert isinstance(res.duality_gap, float) and isinstance(res.screened, int)
    res = solve_varpro(_image_problem("tv-denoise", 4),
                       OuterConfig(max_iter=20, seed=0))
    assert isinstance(res.duality_gap, float) and res.screened is None
    m, n = 4, 8
    A = dense(rng.standard_normal((m, n)))
    x_true = np.zeros(n)
    x_true[[1, 5]] = [1.0, -2.0]
    others = [
        VarProProblem(A, identity(n), trivial_groups(n),
                      BasisPursuitLoss(y=A.apply(x_true))),
        VarProProblem(A, identity(n), trivial_groups(n),
                      RobustLoss(y=rng.standard_normal(m), lam=0.8,
                                 loss_groups=trivial_groups(m))),
        VarProProblem(A, identity(n), trivial_groups(n),
                      MultitaskLoss(Y=rng.standard_normal((m, 2)), lam=0.8)),
        VarProProblem(A, dense(rng.standard_normal((6, n))),
                      contiguous_groups(6, 2),
                      QuadraticLoss(y=rng.standard_normal(m), lam=0.8)),
    ]
    for prob in others:
        res = solve_varpro(prob, OuterConfig(max_iter=20, seed=0))
        assert res.duality_gap is None and res.screened is None


def _family_problems():
    """``{envelope name: (problem, solver)}``, one small problem per family;
    the solver takes ``(problem, config)``."""
    rng = np.random.default_rng(3)
    m, n = 6, 10
    A = dense(rng.standard_normal((m, n)))
    inst = gen_gaussian_instance(8, 20, 3, seed=0)
    return {
        "eval_f_grad": (_screened_group_lasso(1)[1], solve_varpro),
        "eval_f_grad_robust": (
            VarProProblem(A, identity(n), trivial_groups(n),
                          RobustLoss(y=rng.standard_normal(m), lam=0.8,
                                     loss_groups=trivial_groups(m))),
            solve_varpro),
        "eval_multitask": (
            VarProProblem(A, identity(n), trivial_groups(n),
                          MultitaskLoss(Y=rng.standard_normal((m, 2)), lam=0.8)),
            solve_varpro),
        "eval_lq_option2": (
            VarProProblem(inst.A, identity(20), inst.groups,
                          BasisPursuitLoss(y=inst.y)),
            solve_lq_option2),
    }


def _recorded_starts(monkeypatch):
    """Make ``varpro.minimize_lbfgs`` record a copy of each start it gets."""
    starts, original = [], varpro.minimize_lbfgs

    def recording(fun, x0, *args, **kwargs):
        starts.append(np.array(x0))
        return original(fun, x0, *args, **kwargs)

    monkeypatch.setattr(varpro, "minimize_lbfgs", recording)
    return starts


def test_every_evaluation_goes_through_the_module_eval_f_grad(monkeypatch):
    # the benchmark counts evaluations by wrapping the module's envelope of
    # each family (varpro.eval_f_grad, eval_f_grad_robust, eval_multitask,
    # eval_lq_option2): each call of the optimizer's objective, screened or
    # not, must reach it once
    original_lbfgs = varpro.minimize_lbfgs
    for name, (prob, solve) in _family_problems().items():
        calls = {"eval": 0, "fun": 0}
        original_eval = getattr(varpro, name)

        def counted_eval(*args, **kwargs):
            calls["eval"] += 1
            return original_eval(*args, **kwargs)

        def counted_lbfgs(fun, *args, **kwargs):
            def counted_fun(x):
                calls["fun"] += 1
                return fun(x)
            return original_lbfgs(counted_fun, *args, **kwargs)

        monkeypatch.setattr(varpro, name, counted_eval)
        monkeypatch.setattr(varpro, "minimize_lbfgs", counted_lbfgs)
        res = solve(prob, OuterConfig(max_iter=500, grad_tol=1e-9, seed=1))
        if name == "eval_f_grad":
            assert res.screened > 0
        assert calls["eval"] == calls["fun"] > 0, name
        monkeypatch.undo()


@pytest.mark.parametrize("name", ["eval_f_grad", "eval_f_grad_robust",
                                  "eval_multitask", "eval_lq_option2"])
def test_an_array_init_is_the_whole_stacked_start(monkeypatch, name):
    # v, then w or the row-major W: the one start of every family, in place
    # of the two-factor warm split too; another length is refused before
    # the first evaluation, naming both lengths
    prob, solve = _family_problems()[name]
    size = {"eval_f_grad": prob.reg_groups.n_groups,
            "eval_f_grad_robust": 10 + 6, "eval_multitask": 10 + 6 * 6,
            "eval_lq_option2": 2 * 20}[name]
    init = np.random.default_rng(5).uniform(0.5, 1.5, size)
    if name == "eval_multitask":
        init[10:] = np.eye(6).ravel() + 0.1
    starts = _recorded_starts(monkeypatch)
    res = solve(prob, OuterConfig(max_iter=20, init=init))
    assert np.isfinite(res.objective)
    assert len(starts) == 1 and np.array_equal(starts[0], init)
    calls = []
    monkeypatch.setattr(varpro, name, lambda *args: calls.append(1))
    for bad in (init[:7], np.concatenate([init, init])):
        with pytest.raises(ValueError, match=rf"\({bad.size},\).*length {size}"):
            solve(prob, OuterConfig(init=bad))
    assert calls == [] and len(starts) == 1


def test_lq_restarts_start_at_the_warm_split_then_at_seeded_draws(monkeypatch):
    prob, _ = _family_problems()["eval_lq_option2"]
    nv = prob.reg_groups.n_groups
    starts = _recorded_starts(monkeypatch)
    config = OuterConfig(max_iter=20, seed=4)
    solve_lq_option2(prob, config, restarts=3)
    rng = np.random.default_rng(config.seed)
    draws = [np.concatenate([rng.uniform(*varpro.INIT_RANGE, nv),
                             rng.uniform(*varpro.INIT_RANGE, nv)])
             for _ in range(2)]
    assert len(starts) == 3
    assert np.array_equal(starts[0], varpro._lq_warm_factors(prob))
    assert np.array_equal(starts[1], draws[0])
    assert np.array_equal(starts[2], draws[1])


@pytest.mark.parametrize("restarts", [0, -2])
def test_lq_rejects_fewer_than_one_restart_before_any_work(monkeypatch,
                                                           restarts):
    prob, _ = _family_problems()["eval_lq_option2"]
    calls = []
    monkeypatch.setattr(varpro, "_lq_warm_factors",
                        lambda *a: calls.append("warm"))
    monkeypatch.setattr(varpro, "eval_lq_option2",
                        lambda *a: calls.append("eval"))
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        solve_lq_option2(prob, OuterConfig(max_iter=20, init="random"),
                         restarts=restarts)
    assert calls == []


@pytest.mark.parametrize("init", ["ones", "array"])
def test_a_fixed_lq_init_takes_one_start_whatever_the_restarts(monkeypatch, init):
    # only "random" redraws, so further starts at a fixed init would repeat
    # the first solve
    prob, _ = _family_problems()["eval_lq_option2"]
    if init == "array":
        init = np.full(2 * prob.reg_groups.n_groups, 0.9)
    starts = _recorded_starts(monkeypatch)
    calls, original = [], varpro.eval_lq_option2

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(varpro, "eval_lq_option2", counted)
    evals = []
    for restarts in (1, 3):
        calls.clear()
        solve_lq_option2(prob, OuterConfig(max_iter=20, init=init),
                         restarts=restarts)
        evals.append(len(calls))
    assert evals[0] == evals[1] > 0
    assert len(starts) == 2 and np.array_equal(starts[0], starts[1])


def test_group_spectral_norms_match_the_dense_two_norm(rng):
    # mixed sizes, shuffled indices and more than one batch of one size
    from varprox.groups import GroupStructure
    from varprox.groups import _group_spectral_norms
    n = 300
    perm = rng.permutation(n)
    cuts = np.cumsum([2] * 70 + [3] * 40 + [5] * 8)
    groups = np.split(perm, cuts[:-1])
    gs = GroupStructure(groups, p=n)
    Ad = rng.standard_normal((9, n))
    ref = [np.linalg.norm(Ad[:, g], 2) for g in gs.groups]
    assert np.abs(_group_spectral_norms(dense(Ad), gs) - ref).max() < 1e-12
    cols = np.sqrt((Ad * Ad).sum(axis=0))
    assert np.abs(_group_spectral_norms(dense(Ad), trivial_groups(n))
                  - cols).max() < 1e-12


def _tv_denoise(h, w, c, seed):
    rng = np.random.default_rng(seed)
    n = h * w * c
    return VarProProblem(identity(n), grad2d(h, w, c),
                         tv_group_structure(h, w, c),
                         QuadraticLoss(y=rng.uniform(0, 1, n), lam=0.3)), rng


@pytest.mark.parametrize("channels", [1, 3])
def test_tv_dual_is_a_lower_bound_on_the_primal(channels):
    # weak duality: D at any point of the unit group balls is at most P at
    # any x, and the gap at the inner solution of a random v is nonnegative
    prob, rng = _tv_denoise(5, 6, channels, channels)
    dual = varpro._ProxDual(prob)
    for _ in range(10):
        z = _project_group_ball(3 * rng.standard_normal(prob.L.rows),
                                prob.reg_groups)
        x = rng.uniform(-1, 2, prob.L.cols)
        assert dual._value(prob.L.adjoint(z)) <= nonsmooth_objective(prob, x)
        v = rng.uniform(0.0, 2.0, prob.reg_groups.n_groups)
        sol = eval_f_grad(prob, v)[2]
        gap = dual.gap(sol)
        assert gap >= 0 and gap == dual.rel_gap and dual.at is sol


def test_the_dual_step_bound_is_above_the_squared_norm():
    # ||L||_1 ||L||_inf, which sets the dual step 1 / (lam ||L||_1 ||L||_inf),
    # is at least the power-iteration ||L||_2^2: exactly 8 for a 2-D
    # gradient, grayscale or 3-channel, and above it for a random sparse L
    rng = np.random.default_rng(4)
    M = rng.standard_normal((12, 9)) * (rng.random((12, 9)) < 0.3)
    lam = 0.4
    for L, gs, exact in [(grad2d(6, 7), tv_group_structure(6, 7), True),
                         (grad2d(5, 5, 3), tv_group_structure(5, 5, 3), True),
                         (dense(M), contiguous_groups(12, 2), False)]:
        prob = VarProProblem(identity(L.cols), L, gs,
                             QuadraticLoss(y=np.zeros(L.cols), lam=lam))
        bound = 1.0 / (lam * varpro._ProxDual(prob).step)
        assert bound >= operator_norm(L) ** 2
        if exact:
            assert bound == pytest.approx(8.0, rel=1e-14)


def test_tv_denoising_stops_on_a_certified_gap():
    # an 8x8x3 run ends on the certificate, and its answer is within 1e-6
    # of a long primal-dual run
    prob = _image_problem("tv-denoise", 8)
    res = solve_varpro(prob, OuterConfig())
    assert res.trace.stop_reason == "certified"
    assert 0.0 <= res.duality_gap <= GAP_TOL
    ref = min(run_primal_dual("quadratic", prob.A, prob.L, prob.reg_groups,
                              prob.loss.lam, prob.loss.y,
                              iters=30000).objectives)
    assert abs(nonsmooth_objective(prob, res.x) - ref) <= 1e-6 * abs(ref)


def test_a_tv_run_that_cannot_certify_ends_as_without_the_certificate(
        monkeypatch):
    # three steps are too few for the gap; the run still reports the gap of
    # its answer.  With a gap that never certifies, a full run takes the
    # stop and the evaluations it took before the certificate existed
    prob = _image_problem("tv-denoise", 8)
    res = solve_varpro(prob, OuterConfig(max_iter=3))
    assert res.trace.stop_reason == "max_iter" and res.trace.n_records == 4
    assert res.duality_gap > GAP_TOL
    monkeypatch.setattr(varpro._ProxDual, "gap", lambda self, sol: np.inf)
    res = solve_varpro(prob, OuterConfig())
    assert res.trace.stop_reason == "stalled" and res.trace.evals == 93


def _check_gaps(dual, sol, steps=varpro.DUAL_STEPS):
    """The relative gap of each of the first ``steps`` dual steps from
    ``sol``."""
    primal = nonsmooth_objective(dual.problem, sol.x)
    return [(primal - value) / max(abs(primal), abs(value), 1.0)
            for _, (_, value) in zip(range(steps), dual._steps(sol.alpha))]


def test_each_dual_step_value_is_the_dual_at_its_projected_point():
    # the value taken at each step is D of that step's projected point, not
    # of the extrapolated point whose L^T image is tracked by linearity
    prob, rng = _tv_denoise(5, 6, 3, 0)
    dual = varpro._ProxDual(prob)
    v = rng.uniform(0.0, 2.0, prob.reg_groups.n_groups)
    alpha = eval_f_grad(prob, v)[2].alpha
    steps = zip(range(varpro.DUAL_STEPS), dual._steps(alpha))
    for _, (nxt, value) in steps:
        assert group_sq_norms(nxt, prob.reg_groups).max() <= 1.0 + 1e-12
        assert value == pytest.approx(dual._value(prob.L.adjoint(nxt)),
                                      rel=1e-12)


def test_a_gap_check_ends_at_its_first_certifying_step(monkeypatch):
    # near the optimum the check returns the gap of the first step at most
    # GAP_TOL, after one L^T per step and one for the start
    prob, _ = _tv_denoise(5, 6, 3, 3)
    sol = solve_varpro(prob, OuterConfig()).inner
    dual = varpro._ProxDual(prob)
    gaps = _check_gaps(dual, sol)
    first = next(k for k, gap in enumerate(gaps) if gap <= GAP_TOL)
    assert first > 0
    adjoint, calls = prob.L.adjoint, []
    monkeypatch.setattr(prob.L, "adjoint",
                        lambda z: calls.append(1) or adjoint(z))
    assert dual.gap(sol) == gaps[first]
    assert len(calls) == first + 2
    assert dual.checks == [(first + 1, gaps[first], "certified")]


def test_a_gap_check_far_from_the_optimum_ends_on_a_stall():
    # at a random v the gap cannot reach GAP_TOL: the check ends before
    # DUAL_STEPS, once the rate of its last DUAL_WINDOW steps is too slow,
    # and reports the smallest gap of its steps
    prob, rng = _tv_denoise(5, 6, 3, 1)
    dual = varpro._ProxDual(prob)
    v = rng.uniform(0.0, 2.0, prob.reg_groups.n_groups)
    sol = eval_f_grad(prob, v)[2]
    gap = dual.gap(sol)
    [(steps, reported, ending)] = dual.checks
    assert ending == "stalled" and varpro.DUAL_WINDOW < steps < varpro.DUAL_STEPS
    gaps = _check_gaps(dual, sol, steps)
    assert gap == reported == min(gaps) >= 0.0
    k = steps - 1
    assert gaps[k] - GAP_TOL > ((varpro.DUAL_STEPS - 1 - k) / varpro.DUAL_WINDOW
                                * (gaps[k - varpro.DUAL_WINDOW] - gaps[k]))


def test_a_gap_check_whose_gap_rose_over_the_window_ends(monkeypatch):
    # a gap that falls for five steps and then rises back to its start by
    # step DUAL_WINDOW ends the check there, which reports the smallest gap
    # of its steps, not the last one
    prob, rng = _tv_denoise(5, 6, 3, 2)
    dual = varpro._ProxDual(prob)
    sol = eval_f_grad(prob, rng.uniform(0.0, 2.0, prob.reg_groups.n_groups))[2]
    primal = nonsmooth_objective(prob, sol.x)
    assert primal > 1.0     # so each gap below is relative to the primal
    gaps = [1e-3 * (1.0 + 0.01 * (k - 5) ** 2) for k in range(varpro.DUAL_STEPS)]
    monkeypatch.setattr(dual, "_steps", lambda alpha: (
        (None, primal * (1.0 - gap)) for gap in gaps))
    assert dual.gap(sol) == pytest.approx(1e-3, rel=1e-9)
    assert dual.checks == [(varpro.DUAL_WINDOW + 1, dual.rel_gap, "stalled")]


@pytest.mark.parametrize("seed", range(5))
def test_tv_denoising_at_12x12x3_certifies(seed):
    # the early exits of the gap checks keep every benchmark-sized run
    # certified; the trace lists each check
    res = solve_varpro(_image_problem("tv-denoise", 12, seed),
                       OuterConfig(max_iter=500, grad_tol=1e-9, seed=seed))
    assert res.trace.stop_reason == "certified"
    assert 0.0 <= res.duality_gap <= GAP_TOL
    checks = res.trace.aux["gap_checks"]
    assert checks[-1][1:] == (res.duality_gap, "certified")
    assert all(1 <= steps <= varpro.DUAL_STEPS for steps, _, _ in checks)


@pytest.mark.parametrize("name, stop, evals", [
    ("tv-inpaint", "stalled", 44), ("tv-l1", "noise_floor", 22),
    ("group-lasso", "noise_floor", 10), ("sqrt-lasso", "noise_floor", 104),
    ("eval_multitask", "max_iter", 595),
    ("overlap-group-lasso", "noise_floor", 89),
    ("eval_lq_option2", "noise_floor", 23)])
def test_families_without_the_tv_certificate_keep_their_stops(name, stop,
                                                              evals):
    # no route but the quadratic A = Id one reaches the TV certificate: the
    # stops and evaluation counts are those of the runs before it existed,
    # and of the outer layout before the family objects, as the rounding of
    # the compact L-BFGS direction left them (seed 0, L-BFGS; one
    # solve_lq_option2 start).  The group lasso takes Newton-CG steps on
    # its exact Hessian since, and its count fell from 33 to 10
    solve = solve_varpro
    if name.startswith("eval"):
        prob, solve = _family_problems()[name]
    elif name == "group-lasso":
        prob = _screened_group_lasso(0)[1]
    elif name.startswith("tv"):
        prob = _image_problem(name, 8 if name == "tv-inpaint" else 6)
    else:                   # varprox run's defaults: 30x100 and 30x300
        section = configparser.ConfigParser()
        section.read_dict({"problem": {"family": name}})
        prob = cli.build_problem(section["problem"])[0]
    res = solve(prob, OuterConfig())
    assert res.trace.stop_reason == stop and res.trace.evals == evals


def test_sqrt_lasso_solves_every_evaluation_on_the_m_by_m_dual(monkeypatch):
    # the sqrt-lasso family of varprox run has L = Id: each inner solve is
    # the m-by-m robust dual, never the dense full saddle system
    from varprox import inner

    def refuse(*args):
        raise AssertionError("the full saddle system was assembled")

    monkeypatch.setattr(inner, "_saddle_route", refuse)
    section = configparser.ConfigParser()
    section.read_dict({"problem": {"family": "sqrt-lasso", "m": "30",
                                   "n": "100"}})
    prob = cli.build_problem(section["problem"])[0]
    sizes = []
    solve_robust = inner.solve_robust

    def spy(*args):
        sol = solve_robust(*args)
        sizes.append(sol.system_size)
        return sol

    monkeypatch.setattr(inner, "solve_robust", spy)
    res = solve_varpro(prob, OuterConfig())
    assert len(sizes) >= res.trace.evals > 1 and set(sizes) == {30}
    assert res.inner.system_size == 30 and res.inner.method == "direct"
    assert res.inner.kkt_residual < 1e-10


def _scaled_identity_problem(entry, rng):
    """An ``L = 3 I`` problem for ``entry``, and the call that evaluates it."""
    m, n = 4, 6
    A, L = dense(rng.standard_normal((m, n))), dense(3.0 * np.eye(n))
    gs = trivial_groups(n)
    v, y = rng.uniform(0.5, 1.5, n), rng.standard_normal(m)
    if entry == "eval_multitask":
        prob = VarProProblem(A, L, gs, MultitaskLoss(Y=y[:, None], lam=0.8))
        return lambda: eval_multitask(prob, v, np.eye(m))
    if entry == "eval_lq_option3":
        prob = VarProProblem(A, L, gs, QuadraticLoss(y=y, lam=0.8))
        return lambda: eval_lq_option3(prob, v)
    if entry == "eval_f_grad":
        prob = VarProProblem(A, L, gs, BasisPursuitLoss(y=y))
        return lambda: eval_f_grad(prob, v)
    prob = VarProProblem(A, L, gs, QuadraticLoss(y=y, lam=0.8))
    if entry == "eval_lq_option2":
        return lambda: eval_lq_option2(prob, v, v)
    return lambda: solve_lq_option2(prob, OuterConfig(max_iter=5))


@pytest.mark.parametrize("entry", ["eval_lq_option2", "solve_lq_option2",
                                   "eval_lq_option3", "eval_multitask",
                                   "eval_f_grad"])
def test_paths_that_assume_l_is_the_identity_reject_another_l(rng, entry):
    # these paths never read L, so with L = 3 I they would solve the L = Id
    # problem and report its answer as that of the problem asked
    with pytest.raises(ValueError, match="needs L = Id"):
        _scaled_identity_problem(entry, rng)()


def _count_two_factor_solves(monkeypatch):
    calls = []
    solve_two_factor = varpro.inner_mod.solve_two_factor

    def spy(*args):
        calls.append(args)
        return solve_two_factor(*args)

    monkeypatch.setattr(varpro.inner_mod, "solve_two_factor", spy)
    return calls


def test_solve_lq_option2_refuses_another_l_before_any_solve(monkeypatch, rng):
    # the warm start would otherwise solve the L = Id system first
    calls = _count_two_factor_solves(monkeypatch)
    with pytest.raises(ValueError, match="needs L = Id"):
        _scaled_identity_problem("solve_lq_option2", rng)()
    assert calls == []


def test_interpolation_refuses_several_right_hand_sides(monkeypatch, rng):
    # one column of y is the single-factor path's only shape: two columns
    # are a ValueError before any solve, from eval_f_grad and solve_varpro
    m, n = 4, 8
    A = dense(rng.standard_normal((m, n)))
    Y = A.to_dense() @ rng.standard_normal((n, 2))
    prob = VarProProblem(A, identity(n), trivial_groups(n), BasisPursuitLoss(y=Y))
    calls = _count_two_factor_solves(monkeypatch)
    with pytest.raises(ValueError, match="one right-hand side"):
        eval_f_grad(prob, np.ones(n))
    with pytest.raises(ValueError, match="one right-hand side"):
        solve_varpro(prob, OuterConfig(max_iter=5))
    assert calls == []
    # the column shape of one right-hand side still solves
    one = VarProProblem(A, identity(n), trivial_groups(n),
                        BasisPursuitLoss(y=Y[:, :1]))
    f, _, sol = eval_f_grad(one, np.ones(n))
    assert np.isfinite(f) and np.abs(A.apply(sol.x) - Y[:, 0]).max() < 1e-8


def _run_problem(family, **values):
    section = configparser.ConfigParser()
    section.read_dict({"problem": {"family": family, **values}})
    return cli.build_problem(section["problem"])[0]


def _check_hessp(prob, screen_at, rng, trials=10):
    # H dv at random v against central differences of the gradient with the
    # evaluation's mask held fixed, zero rows and columns on the masked
    # groups, and the product's group images B = [A_g alpha_g] over the
    # groups with v_g != 0 (every other trial zeroes one live v_g); first
    # screened at screen_at unless it is None
    gs, Ad, h = prob.reg_groups, prob.A.to_dense(), 1e-6
    screen = varpro._GapSafeScreen(prob)
    if screen_at is not None:
        screen.eval_f_grad(screen_at)       # the gap screens groups here
        assert 0 < screen.out.sum() < gs.n_groups
    for k in range(trials):
        live = ~screen.out
        v = rng.uniform(0.5, 1.5, gs.n_groups)
        if k % 2:
            v[rng.choice(np.flatnonzero(live))] = 0.0
        screen.eval_f_grad(v)
        dv = rng.standard_normal(gs.n_groups)
        hdv = screen.hessp(dv)

        def grad(u):
            return np.where(live, eval_f_grad(prob, np.where(live, u, 0.0))[1],
                            0.0)

        fd = (grad(v + h * dv) - grad(v - h * dv)) / (2 * h)
        assert np.linalg.norm(hdv - fd) <= 1e-8 * np.linalg.norm(fd)
        assert not hdv[~live].any()
        assert not screen.hessp(np.where(live, 0.0, dv)).any()
        alpha = screen.point[1]
        images = np.stack([Ad[:, g] @ alpha[g] for g in gs.groups], 1)
        keep = (v != 0) & live
        assert np.array_equal(screen.images[0], keep)
        np.testing.assert_allclose(screen.images[2], images[:, keep],
                                   rtol=1e-12, atol=1e-12)
    return screen


def test_group_lasso_hessp_matches_central_differences(rng):
    # criterion 2's 20x60 group lasso at random v, first unscreened, then
    # once screening at the optimum has removed groups
    _, prob = _screened_group_lasso(0)
    answer = solve_varpro(prob, OuterConfig())
    _check_hessp(prob, None, rng)
    screen = _check_hessp(prob, answer.v, rng)
    assert screen.out.sum() >= prob.reg_groups.n_groups // 2


@pytest.mark.parametrize("partition", ["mixed", "singletons"])
def test_group_image_hessp_matches_central_differences(rng, partition):
    # group sizes 1, 2, 3 and 5 over shuffled indices, so no size's columns
    # are in group order, or singleton groups, where B is as wide as A_K;
    # unscreened, then screened at the optimum
    m, n = 20, 44
    if partition == "mixed":
        sizes = np.tile([1, 2, 3, 5], 4)
        gs = GroupStructure(np.split(rng.permutation(n), np.cumsum(sizes)[:-1]))
    else:
        gs = trivial_groups(n)
    A = dense(rng.standard_normal((m, n)))
    x = np.zeros(n)
    for g in gs.groups[1:4]:
        x[g] = rng.standard_normal(g.size)
    y = A.apply(x) + 0.05 * rng.standard_normal(m)
    lam = 0.1 * lambda_max(A, y, "group-lasso", gs)
    prob = VarProProblem(A, identity(n), gs, QuadraticLoss(y=y, lam=lam))
    answer = solve_varpro(prob, OuterConfig())
    _check_hessp(prob, None, rng)
    _check_hessp(prob, answer.v, rng)


def test_no_factor_or_gather_outlives_the_next_evaluation(monkeypatch):
    # each evaluation's Cholesky factor and the group images B of hessp
    # are dead when the next evaluation starts, so none lives through a
    # line search, and the result holds none (no gc.collect: reference
    # counts alone)
    _, prob = _screened_group_lasso(0)
    refs, gathers, alive = [], [], []
    factor, hessp = inner.cholesky_factor, varpro._GapSafeScreen.hessp

    def recorded_factor(*args, **kwargs):
        fac = factor(*args, **kwargs)
        if fac is not None:
            refs.append(weakref.ref(fac))
        return fac

    def recorded_hessp(self, dv):
        out = hessp(self, dv)
        gathers.append(weakref.ref(self.images[2]))
        return out

    def spy(problem, v):
        alive.append(sum(ref() is not None for ref in refs + gathers))
        return eval_f_grad(problem, v)

    monkeypatch.setattr(inner, "cholesky_factor", recorded_factor)
    monkeypatch.setattr(varpro._GapSafeScreen, "hessp", recorded_hessp)
    monkeypatch.setattr(varpro, "eval_f_grad", spy)
    res = solve_varpro(prob, OuterConfig())
    assert res.trace.aux["cg_steps"] and gathers and len(refs) >= res.trace.evals
    assert alive == [0] * len(alive) and len(alive) >= res.trace.evals
    assert all(ref() is None for ref in refs + gathers)


def test_a_screened_result_holds_no_factor():
    # the screen takes the solve off each evaluation's inner solution, so
    # the result's, from the group dual's factored route, carries none
    _, prob = _screened_group_lasso(0)
    res = solve_varpro(prob, OuterConfig())
    assert res.trace.aux["cg_steps"] and res.inner.method == "direct"
    assert res.inner.solve is None
    assert eval_f_grad(prob, res.v)[2].solve is not None


def test_a_cg_inner_solve_keeps_the_lbfgs_direction(monkeypatch):
    # past DIRECT_SIZE_LIMIT the group dual is solved by CG, which hands
    # back no factor: no Newton step, and the run is that of L-BFGS
    _, prob = _screened_group_lasso(0)
    monkeypatch.setattr(inner, "DIRECT_SIZE_LIMIT", 0)
    res = solve_varpro(prob, OuterConfig())
    assert res.trace.aux["cg_steps"] == [] and res.inner.method == "cg"
    monkeypatch.setattr(varpro._GapSafeScreen, "hessp", None)
    lbfgs = solve_varpro(prob, OuterConfig())
    assert "cg_steps" not in lbfgs.trace.aux
    assert lbfgs.trace.objectives == res.trace.objectives


@pytest.mark.parametrize("family", ["lasso", "group-lasso"])
def test_screened_families_take_newton_cg_steps_to_the_reference(family):
    # under lbfgs the screened quadratic L = Id families take Newton-CG
    # steps, each recorded with its Hessian products and ending, and reach
    # a long FISTA run's objective; gradient-descent-bb takes none
    for seed in range(3):
        prob = _run_problem(family, seed=str(seed))
        res = solve_varpro(prob, OuterConfig(seed=seed))
        steps = res.trace.aux["cg_steps"]
        # one per accepted step, and one whose line search ended the run
        assert 0 < len(steps) <= res.trace.n_records
        assert all(1 <= k <= optim.CG_STEPS and ending in (
            "forcing", "negative_curvature", "budget") for k, ending in steps)
        ref = run_ista(prob.A, prob.reg_groups, prob.loss.lam, prob.loss.y,
                       accel="fista", iters=20000)
        p_ref = nonsmooth_objective(prob, ref.x)
        assert nonsmooth_objective(prob, res.x) - p_ref <= 1e-9 * p_ref
        bb = solve_varpro(prob, OuterConfig(algorithm="gradient-descent-bb",
                                            max_iter=20, seed=seed))
        assert "cg_steps" not in bb.trace.aux


@pytest.mark.parametrize("family", ["tv-denoise", "tv-l1", "tv-inpaint",
                                    "sqrt-lasso", "overlap-group-lasso",
                                    "eval_f_grad_robust", "eval_multitask",
                                    "eval_lq_option2", "interpolation"])
def test_other_families_take_no_newton_cg_steps(family, rng):
    # only the screened group lasso carries a Hessian product
    solve = solve_varpro
    if family.startswith("eval"):
        prob, solve = _family_problems()[family]
    elif family == "interpolation":
        A = dense(rng.standard_normal((4, 8)))
        prob = VarProProblem(A, identity(8), trivial_groups(8),
                             BasisPursuitLoss(y=A.apply(rng.standard_normal(8))))
    else:
        prob = _run_problem(family, **({"height": "4", "width": "4"}
                                       if family.startswith("tv") else {}))
    res = solve(prob, OuterConfig(max_iter=5))
    assert "cg_steps" not in res.trace.aux
