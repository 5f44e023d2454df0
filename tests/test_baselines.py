import numpy as np
import pytest

from varprox.baselines import (lq_value, run_admm, run_irls, run_ista,
                               run_primal_dual, run_scaled_lasso)
from varprox.groups import GroupStructure, group_sq_norms, trivial_groups
from varprox.linops import dense, grad2d, identity, tv_group_structure
from varprox.problems import (gen_gaussian_instance, lambda_max,
                              pixel_channel_groups)
from varprox.varpro import (OuterConfig, QuadraticLoss, RobustLoss,
                            VarProProblem, nonsmooth_objective, solve_varpro)


def test_ista_one_dim_lasso():
    A = dense([[1.0]])
    tr = run_ista(A, trivial_groups(1), 1.0, np.array([2.0]), iters=1000)
    assert abs(tr.x[0] - 1.0) < 1e-8


def test_ista_zero_above_lambda_max(rng):
    inst = gen_gaussian_instance(10, 30, s=3, noise_std=0.2, seed=0)
    lam = 1.05 * lambda_max(inst.A, inst.y, "lasso")
    tr = run_ista(inst.A, inst.groups, lam, inst.y, accel="fista", iters=2000)
    assert np.abs(tr.x).max() == 0.0


def test_ista_monotone_at_safe_step(rng):
    inst = gen_gaussian_instance(12, 30, s=4, noise_std=0.1, seed=1)
    lam = 0.2 * lambda_max(inst.A, inst.y, "lasso")
    tr = run_ista(inst.A, inst.groups, lam, inst.y, iters=500)
    assert np.all(np.diff(np.asarray(tr.objectives)) <= 1e-12)


def test_fista_beats_ista(rng):
    inst = gen_gaussian_instance(15, 45, s=4, noise_std=0.1, seed=2)
    lam = 0.1 * lambda_max(inst.A, inst.y, "lasso")
    plain = run_ista(inst.A, inst.groups, lam, inst.y, iters=500)
    fast = run_ista(inst.A, inst.groups, lam, inst.y, accel="fista", iters=500)
    assert fast.final_objective <= plain.final_objective + 1e-12


def test_admm_tv_denoise_matches_varpro(rng):
    h, w, c = 8, 8, 3
    n = h * w * c
    L = grad2d(h, w, c)
    gs = tv_group_structure(h, w, c)
    img = np.zeros((c, h, w))
    img[:, :4, :] = 1.0
    y = img.ravel() + 0.1 * rng.standard_normal(n)
    lam = 0.3
    prob = VarProProblem(identity(n), L, gs, QuadraticLoss(y=y, lam=lam))
    res = solve_varpro(prob, OuterConfig(max_iter=600, grad_tol=1e-12, seed=0))
    tr = run_admm(identity(n), L, gs, lam, y, tau=1.0, iters=10000)
    f_vp = nonsmooth_objective(prob, res.x)
    f_ad = nonsmooth_objective(prob, tr.x)
    assert abs(f_vp - f_ad) / f_vp < 1e-4
    # primal and dual residuals decrease below 1e-6
    assert tr.grad_norms[-1] < 1e-6
    assert tr.aux["dual_residual"][-1] < 1e-6
    # fixed point carries L x = z
    assert np.abs(tr.aux["z"] - L.apply(tr.x)).max() < 1e-6


def test_admm_z_update_is_shrinkage(rng):
    # one ADMM pass from a controlled state reproduces the blockwise
    # shrinkage of (L x - psi / tau)
    from varprox.groups import group_soft_threshold
    n = 16
    L = grad2d(4, 4)
    gs = tv_group_structure(4, 4)
    y = rng.uniform(0, 1, n)
    tr = run_admm(identity(n), L, gs, 0.5, y, tau=2.0, iters=1)
    x1 = tr.x
    z1 = tr.aux["z"]
    assert np.allclose(z1, group_soft_threshold(L.apply(x1) - 0.0 / 2.0,
                                                1.0 / 2.0, gs), atol=1e-12)


@pytest.mark.parametrize("solver", ["admm", "primal-dual"])
def test_factoring_baselines_reject_a_system_that_is_not_positive_definite(
        solver):
    # A = 0 and L = 0 leave the ADMM system zero; a negative lam makes the
    # primal-dual system I + (tau / lam) A^T A indefinite
    n = 4
    L, gs, y = dense(np.zeros((n, n))), trivial_groups(n), np.ones(n)
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        if solver == "admm":
            run_admm(dense(np.zeros((n, n))), L, gs, 0.5, y, iters=1)
        else:
            run_primal_dual("quadratic", dense(4.0 * np.eye(n)), identity(n),
                            gs, -0.5, y, iters=1)


def test_primal_dual_tvl1_matches_varpro(rng):
    h, w, c = 4, 4, 3
    n = h * w * c
    L = grad2d(h, w, c)
    gs = tv_group_structure(h, w, c)
    gl = pixel_channel_groups(h * w, c)
    y = rng.uniform(0, 1, n)
    lam = 0.8
    prob = VarProProblem(identity(n), L, gs,
                         RobustLoss(y=y, lam=lam, loss_groups=gl))
    res = solve_varpro(prob, OuterConfig(max_iter=2000, grad_tol=1e-12, seed=0))
    tr = run_primal_dual("l1", identity(n), L, gs, lam, y, loss_groups=gl,
                         iters=60000)
    f_vp = nonsmooth_objective(prob, res.x)
    f_pd = nonsmooth_objective(prob, tr.x)
    assert abs(f_vp - f_pd) / f_vp < 1e-3


def test_irls_noiseless_recovery(rng):
    inst = gen_gaussian_instance(8, 32, s=1, noise_std=0.0, seed=3)
    tr = run_irls(inst.A, inst.y, inst.groups, q=0.66, mode="equality",
                  iters=200)
    rel = np.linalg.norm(tr.x - inst.x_true) / np.linalg.norm(inst.x_true)
    assert rel < 0.01


def test_lq_value_examples():
    def value(x, gs, q):
        return lq_value(group_sq_norms(np.array(x), gs), q)

    assert value([1.0, -2.0], trivial_groups(2), 1.0) == pytest.approx(3.0)
    assert value([8.0], trivial_groups(1), 2 / 3) == pytest.approx(6.0)
    assert value([3.0, 4.0], GroupStructure([[0, 1]], p=2),
                 2 / 3) == pytest.approx(1.5 * 5.0 ** (2 / 3))


def test_irls_weights_constant_for_q2(rng):
    # q = 2: weights (||x||^2 + eps)^0 = 1 regardless of the iterate
    x = rng.standard_normal(12)
    gs = trivial_groups(12)
    w = (group_sq_norms(x, gs) + 0.3) ** (2.0 / 2.0 - 1.0)
    assert np.allclose(w, 1.0)


def test_irls_at_q2_is_the_minimum_norm_solution(rng):
    # constant weights: the first step is already A^+ y, and the run ends
    A = rng.standard_normal((4, 8))
    y = rng.standard_normal(4)
    tr = run_irls(dense(A), y, trivial_groups(8), 2.0)
    assert np.allclose(tr.x, np.linalg.pinv(A) @ y, atol=1e-12)
    assert tr.objectives[-1] == pytest.approx(float(tr.x @ tr.x))


def test_scaled_lasso_zero_above_lambda_max(rng):
    inst = gen_gaussian_instance(12, 30, s=3, noise_std=0.2, seed=7)
    lam = 1.05 * lambda_max(inst.A, inst.y, "sqrt-lasso")
    tr = run_scaled_lasso(inst.A, inst.y, lam, outer_iters=5)
    assert np.linalg.norm(tr.x) < 1e-8


def test_scaled_lasso_matches_varpro_1d():
    A = dense([[1.0], [0.5]])
    y = np.array([2.0, 0.3])
    lam = 0.5 * lambda_max(A, y, "sqrt-lasso")
    m = 2
    gl = GroupStructure([range(m)], p=m)
    prob = VarProProblem(A, identity(1), trivial_groups(1),
                         RobustLoss(y=y, lam=lam * np.sqrt(m), loss_groups=gl))
    res = solve_varpro(prob, OuterConfig(max_iter=800, grad_tol=1e-13, seed=0))
    tr = run_scaled_lasso(A, y, lam, outer_iters=40)
    f_vp = nonsmooth_objective(prob, res.x)
    f_sl = nonsmooth_objective(prob, tr.x)
    assert abs(f_vp - f_sl) / f_vp < 1e-6


def test_scaled_lasso_eta_monotone(rng):
    inst = gen_gaussian_instance(15, 40, s=4, noise_std=0.3, seed=8)
    lam = 0.5 * lambda_max(inst.A, inst.y, "sqrt-lasso")
    tr = run_scaled_lasso(inst.A, inst.y, lam, outer_iters=20)
    etas = np.array(tr.aux["etas"])
    assert np.all(np.diff(etas) <= 1e-10)


def test_common_instance_concordance(rng):
    # group lasso: projected solver, accelerated proximal gradient, ADMM and
    # primal-dual all land on the same objective
    inst = gen_gaussian_instance(20, 60, s=9, group_size=3, noise_std=0.05,
                                 seed=3)
    lam = 0.1 * lambda_max(inst.A, inst.y, "group-lasso", inst.groups)
    prob = VarProProblem(inst.A, inst.L, inst.groups,
                         QuadraticLoss(y=inst.y, lam=lam))
    objs = []
    res = solve_varpro(prob, OuterConfig(max_iter=800, grad_tol=1e-12, seed=0))
    objs.append(nonsmooth_objective(prob, res.x))
    objs.append(nonsmooth_objective(
        prob, run_ista(inst.A, inst.groups, lam, inst.y, accel="fista",
                       iters=30000).x))
    objs.append(nonsmooth_objective(
        prob, run_admm(inst.A, inst.L, inst.groups, lam, inst.y, iters=20000).x))
    objs.append(nonsmooth_objective(
        prob, run_primal_dual("quadratic", inst.A, inst.L, inst.groups, lam,
                              inst.y, iters=30000).x))
    spread = (max(objs) - min(objs)) / min(objs)
    assert spread < 1e-5
