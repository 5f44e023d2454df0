import numpy as np
import pytest

from conftest import fd_gradient
from varprox.groups import contiguous_groups
from varprox.hadamard_flow import (QuadraticFlowProblem, calibrated_fixed_step,
                                   flow_gradient, flow_init, flow_objective,
                                   lipschitz_bounds,
                                   mirror_equivalence_residual, run_gd)
from varprox.linops import dense, fourier_system
from varprox.problems import gen_fourier_instance


def _scalar_problem():
    # F(x) = (x - 1)^2 / 2
    return QuadraticFlowProblem(A=dense([[1.0]]), y=np.array([1.0]), fscale=1.0)


def test_gd_step_example():
    prob = _scalar_problem()
    out, _, _ = run_gd(prob, np.array([1.0]), np.array([0.0]), 0.1, 1)
    assert out.u[0] == pytest.approx(0.9)
    assert out.v[0] == pytest.approx(0.1)


def test_symmetric_initialization_stays_symmetric(rng):
    A = dense(rng.standard_normal((3, 5)))
    prob = QuadraticFlowProblem(A=A, y=rng.standard_normal(3), fscale=1.0)
    u = rng.uniform(0.5, 1.5, 5)
    state, _, _ = run_gd(prob, u, u, 0.05, 10)
    assert np.array_equal(state.u, state.v)


def test_flow_gradient_fd(rng):
    A = dense(rng.standard_normal((4, 6)) / 2)
    gs = contiguous_groups(6, 2)
    prob = QuadraticFlowProblem(A=A, y=rng.standard_normal(4), fscale=0.8,
                                groups=gs, lam=1.3)
    u = rng.uniform(0.5, 1.5, 6)
    v = rng.uniform(0.5, 1.5, 3)
    gu, gv = flow_gradient(prob, u, v)
    fu = fd_gradient(lambda z: flow_objective(prob, z, v), u)
    fv = fd_gradient(lambda z: flow_objective(prob, u, z), v)
    assert np.abs(gu - fu).max() < 1e-6 * max(1, np.abs(fu).max())
    assert np.abs(gv - fv).max() < 1e-6 * max(1, np.abs(fv).max())


def test_bounds_formula_arithmetic():
    # G(0,0) = F(0) = 1/2 so B^2 = 1; certified K = 1 * (1 * 0.5 + 1) = 1.5
    # M_F = 1  ->  M_G = 2 (max(lam, K) + M_F B^2) = 5
    prob = _scalar_problem()
    u0 = np.array([0.0])
    v0 = np.array([0.0])
    b = lipschitz_bounds(prob, u0, v0)
    assert b.B == pytest.approx(1.0)
    assert b.M_F == pytest.approx(1.0)
    assert b.K == pytest.approx(1.5)
    assert b.M_G == pytest.approx(5.0)
    assert 0.0 < b.rho < 1.0


def test_normalized_columns_bound(rng):
    M = rng.standard_normal((6, 10))
    M /= np.linalg.norm(M, axis=0)[None, :]
    prob = QuadraticFlowProblem(A=dense(M), y=rng.standard_normal(6), fscale=1.0)
    b = lipschitz_bounds(prob, np.ones(10), 0.5 * np.ones(10))
    assert b.M_F <= 1.0 + 1e-12


def test_fourier_unit_lipschitz_claim():
    # with F0 = ||. - y||^2 / 2 the composite constant is the squared max
    # column norm, which is (m+1)/m for the low-pass system
    A = fourier_system(64, 300)
    prob = QuadraticFlowProblem(A=A, y=np.zeros(A.rows), fscale=1.0)
    b = lipschitz_bounds(prob, np.ones(300), 0.5 * np.ones(300))
    assert b.M_F == pytest.approx(65.0 / 64.0, rel=1e-12)
    assert b.M_F <= 1.02


def test_run_gd_descent_and_bounds(rng):
    inst = gen_fourier_instance(cutoff=2, grid=60, spikes=1, lam_frac=0.1,
                                seed=0, amplitude=2.0)
    prob = QuadraticFlowProblem(A=inst.A, y=inst.y, fscale=1.0 / inst.lam)
    sc = 1.0 / np.sqrt(60)
    u0, v0 = flow_init(60, 60, seed=1, u_range=(1.0 * sc, 1.5 * sc),
                       v_range=(0.25 * sc, 0.75 * sc))
    b = lipschitz_bounds(prob, u0, v0)
    state, diag, trace = run_gd(prob, u0, v0, "fixed-mg", 1500, bounds=b)
    G = np.asarray(diag.objective)
    gsq = np.asarray(diag.grad_sq)
    # per-iteration guaranteed decrease
    assert np.all(G[1:] <= G[:-1] - gsq[:-1] / (2 * b.M_G) + 1e-12)
    # tail gradient-sum bound
    tail = np.cumsum(gsq[::-1])[::-1]
    assert np.all(tail[:-1] <= 2 * b.M_G * (G[:-1] - G[-1]) + 1e-9)
    # min-gradient bound at every horizon
    mins = np.minimum.accumulate(gsq)
    T = np.arange(1, len(G))
    assert np.all(mins[:-1][T - 1 >= 0] * T <= 2 * b.M_G * (G[0] - G[1:]) + 1e-9)


def test_run_gd_contraction_and_surrogate(rng):
    inst = gen_fourier_instance(cutoff=2, grid=60, spikes=1, lam_frac=0.1,
                                seed=0, amplitude=2.0)
    prob = QuadraticFlowProblem(A=inst.A, y=inst.y, fscale=1.0 / inst.lam)
    sc = 1.0 / np.sqrt(60)
    u0, v0 = flow_init(60, 60, seed=1, u_range=(1.0 * sc, 1.5 * sc),
                       v_range=(0.25 * sc, 0.75 * sc))
    b = lipschitz_bounds(prob, u0, v0)
    state, diag, trace = run_gd(prob, u0, v0, "fixed-kappa", 800, bounds=b)
    gap = np.asarray(diag.uv_gap)
    # per-iteration balance-gap contraction at stepsize 1/(kappa M_G)
    assert np.all(gap[1:] <= b.rho * gap[:-1] + 1e-14)
    phi = np.asarray(diag.phi)
    phik = np.asarray(diag.phi_surrogate)
    assert np.all(phi - phik <= gap + 1e-12)
    assert np.all(phi - phik >= -1e-12)


@pytest.mark.parametrize("step", ["fixed-mg", "fixed-kappa"])
def test_run_gd_step_modes_require_bounds(step):
    prob = _scalar_problem()
    with pytest.raises(ValueError, match="requires bounds"):
        run_gd(prob, np.array([1.0]), np.array([0.5]), step, 1)
    with pytest.raises(ValueError, match="unknown step mode"):
        run_gd(prob, np.array([1.0]), np.array([0.5]), step.upper(), 1)
    # Barzilai-Borwein steps run on optim.minimize_gd_bb, not here
    with pytest.raises(ValueError, match="unknown step mode"):
        run_gd(prob, np.array([1.0]), np.array([0.5]), "bb", 1)


def test_calibrated_step_monotone(monkeypatch, rng):
    from varprox import hadamard_flow
    monkeypatch.setattr(hadamard_flow, "PROBE_ITERS", 100)
    inst = gen_fourier_instance(cutoff=2, grid=40, spikes=1, lam_frac=0.1, seed=0)
    prob = QuadraticFlowProblem(A=inst.A, y=inst.y, fscale=1.0 / inst.lam)
    u0, v0 = flow_init(40, 40, seed=1)
    tau = calibrated_fixed_step(prob, u0, v0, 10.0)
    _, diag, _ = run_gd(prob, u0, v0, tau, 300)
    G = np.asarray(diag.objective)
    assert np.all(G[1:] <= G[:-1] + 1e-12)


def test_mirror_conserved_quantity_lam_zero(rng):
    A = dense(rng.standard_normal((3, 8)) / 2)
    prob = QuadraticFlowProblem(A=A, y=rng.standard_normal(3), fscale=1.0,
                                lam=0.0)
    u0, v0 = flow_init(8, 8, seed=2, u_range=(1.0, 1.5), v_range=(0.25, 0.75))
    out = mirror_equivalence_residual(prob, u0, v0, 1e-4, 0.5)
    assert out["conserved_drift_per_time"] < 1e-3


def test_mirror_residual_scales_linearly():
    prob = _scalar_problem()
    u0 = np.array([0.9])
    v0 = np.array([0.3])
    residuals = []
    for j in range(4):
        out = mirror_equivalence_residual(prob, u0, v0, 1e-3 / 2 ** j, 1.0)
        residuals.append(out["residual"])
    for j in range(3):
        ratio = residuals[j] / residuals[j + 1]
        assert 1.7 <= ratio <= 2.3


def test_mirror_rejects_equal_magnitudes():
    prob = _scalar_problem()
    with pytest.raises(ValueError):
        mirror_equivalence_residual(prob, np.array([1.0]), np.array([-1.0]),
                                    1e-3, 1.0)
