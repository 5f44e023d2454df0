import numpy as np
import pytest

from varprox.baselines import run_ista
from varprox.groups import trivial_groups
from varprox.mirror import (Entropy, entropy_grad, entropy_grad_inverse,
                            run_bpgd, soft_threshold)
from varprox.problems import gen_gaussian_instance, lambda_max


def test_entropy_grad_examples():
    e = Entropy("hyperbolic", 1.0)
    assert entropy_grad(e, np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
    q = Entropy("quadratic", 2.0)
    assert np.allclose(entropy_grad(q, np.array([1.0, 3.0])), [2.0, 6.0])


def test_mirror_round_trip(rng):
    for e in (Entropy("hyperbolic", 0.3), Entropy("hyperbolic", 1e-3),
              Entropy("quadratic", 7.0)):
        x = rng.standard_normal(200) * 2
        back = entropy_grad_inverse(e, entropy_grad(e, x))
        assert np.abs(back - x).max() < 1e-12


def test_soft_threshold_examples():
    assert soft_threshold(np.array([-3.0]), 1.0)[0] == -2.0
    assert soft_threshold(np.array([0.3]), 0.5)[0] == 0.0
    z = np.array([0.3, -1.2])
    assert np.array_equal(soft_threshold(z, 0.0), z)


def _quadratic_parts(A, y, lam):
    def grad_F(x):
        return A.adjoint(A.apply(x) - y) / lam

    def F_val(x):
        r = A.apply(x) - y
        return float(r @ r) / (2 * lam)

    return grad_F, F_val


def test_quadratic_entropy_bit_matches_proximal_gradient(rng):
    inst = gen_gaussian_instance(15, 40, s=4, noise_std=0.1, seed=1)
    lam = 0.3 * lambda_max(inst.A, inst.y, "lasso")
    n = 40
    grad_F, F_val = _quadratic_parts(inst.A, inst.y, lam)
    tau = 0.7
    x0 = np.full(n, 1.0 / n)
    bq = run_bpgd(grad_F, F_val, Entropy("quadratic", float(n)), tau, 1000, x0)
    ti = run_ista(inst.A, trivial_groups(n), lam, inst.y, step=tau / n,
                  iters=1000, x0=x0)
    assert np.array_equal(bq.x, ti.x)


def test_hyperbolic_descent_per_iteration(rng):
    inst = gen_gaussian_instance(10, 30, s=3, noise_std=0.1, seed=2)
    lam = 0.2 * lambda_max(inst.A, inst.y, "lasso")
    grad_F, F_val = _quadratic_parts(inst.A, inst.y, lam)
    M1 = np.abs(inst.A.gram()).max() / lam
    tr = run_bpgd(grad_F, F_val, Entropy("hyperbolic", 1.0 / 30), 1.0 / M1,
                  2000, np.full(30, 1.0 / 30))
    obj = np.asarray(tr.objectives)
    assert np.all(np.diff(obj) <= 1e-12)


def test_large_reg_zero_fixed_point(rng):
    inst = gen_gaussian_instance(10, 25, s=3, noise_std=0.1, seed=3)
    lam = 1.5 * lambda_max(inst.A, inst.y, "lasso")
    grad_F, F_val = _quadratic_parts(inst.A, inst.y, lam)
    M1 = np.abs(inst.A.gram()).max() / lam
    tr = run_bpgd(grad_F, F_val, Entropy("quadratic", 25.0), 1.0 / M1, 3000,
                  np.full(25, 1.0 / 25))
    assert np.abs(tr.x).max() < 1e-12
    # once at zero, zero stays
    tr2 = run_bpgd(grad_F, F_val, Entropy("quadratic", 25.0), 1.0 / M1, 5,
                   np.zeros(25))
    assert np.abs(tr2.x).max() == 0.0


def test_sublinear_value_bound_against_oracle(rng):
    # value gap bound Phi(x_k) - Phi(x*) <= M D_eta(x*, x0) / k along the run
    inst = gen_gaussian_instance(8, 16, s=2, noise_std=0.05, seed=4)
    lam = 0.3 * lambda_max(inst.A, inst.y, "lasso")
    n = 16
    grad_F, F_val = _quadratic_parts(inst.A, inst.y, lam)
    oracle = run_ista(inst.A, trivial_groups(n), lam, inst.y, accel="fista",
                      iters=100000)
    x_star = oracle.x
    phi_star = float(np.abs(x_star).sum()) + F_val(x_star)
    M1 = np.abs(inst.A.gram()).max() / lam
    e = Entropy("quadratic", float(n))
    x0 = np.full(n, 1.0 / n)
    tr = run_bpgd(grad_F, F_val, e, 1.0 / M1, 2000, x0)
    # the quadratic entropy's Bregman divergence D(x*, x0)
    D = 0.5 * n * float((x_star - x0) @ (x_star - x0))
    obj = np.asarray(tr.objectives)
    ks = np.arange(1, len(obj))
    assert np.all(obj[1:] - phi_star <= M1 * n * D / ks + 1e-9)


def test_sinh_overflow_guard():
    # a huge gradient pushes mirror coordinates past the overflow boundary
    def grad_F(x):
        return np.full_like(x, -1e6)

    def F_val(x):
        return float(1e6 * np.abs(x).sum())

    tr = run_bpgd(grad_F, F_val, Entropy("hyperbolic", 1.0), 10.0, 3,
                  np.ones(4))
    assert tr.flags.get("mirror_clamped") is True
    assert np.all(np.isfinite(tr.x))
