"""The compact L-BFGS memory, the line search's noise-floor stop, the
certificate stop and the LAPACK Cholesky helpers."""

import numpy as np
import pytest
import scipy.linalg

from varprox import inner, optim
from varprox.baselines import run_irls
from varprox.groups import trivial_groups
from varprox.linops import dense
from varprox.optim import minimize_gd_bb, minimize_lbfgs

EPS = np.finfo(float).eps


def _floor(f):
    return optim.NOISE_FLOOR_ULPS * EPS * max(abs(f), 1.0)


def _two_loop(g, memory):
    """The L-BFGS two-loop recursion over pairs ``(s, y)``, oldest first:
    the reference for the compact memory's ``H g``."""
    q = g.copy()
    alphas = []
    for s, y in reversed(memory):
        a = np.dot(s, q) / np.dot(s, y)
        alphas.append(a)
        q -= a * y
    if memory:
        s, y = memory[-1]
        q *= np.dot(s, y) / np.dot(y, y)
    for (s, y), a in zip(memory, reversed(alphas)):
        q += (a - np.dot(y, q) / np.dot(s, y)) * s
    return q


def _check_direction(memory, pairs, rng):
    g = rng.standard_normal(7)
    d = memory.direction(g, np.linalg.norm(g))
    ref = -_two_loop(g, pairs)
    assert np.abs(d - ref).max() <= 1e-12 * np.abs(ref).max()
    assert memory.k == len(pairs)
    # storage grows with the pairs: never more rows than twice the pairs
    assert memory.pairs is None or len(memory.pairs) <= 2 * memory.k


def test_compact_direction_matches_the_two_loop_recursion(rng):
    # curvature pairs of an SPD quadratic, enough to wrap the memory
    # around three times; one pair in between has s.y < 0 and is refused
    n = 7                                       # as in _check_direction
    B = rng.standard_normal((n, n))
    hess = B @ B.T + np.eye(n)
    memory, pairs = optim._Memory(), []
    _check_direction(memory, pairs, rng)        # empty: -g
    for k in range(3 * optim.MEMORY + 2):
        s = rng.standard_normal(n)
        memory.update(s, hess @ s)
        pairs = (pairs + [(s, hess @ s)])[-optim.MEMORY:]
        _check_direction(memory, pairs, rng)    # k = 1 first
        if k == optim.MEMORY + 3:
            memory.update(s, -hess @ s)
            _check_direction(memory, pairs, rng)
    memory.clear()
    assert memory.k == 0 and memory.pairs is None
    pairs = []
    for _ in range(optim.MEMORY + 1):           # refilled past a wrap
        s = rng.standard_normal(n)
        memory.update(s, hess @ s)
        pairs = (pairs + [(s, hess @ s)])[-optim.MEMORY:]
        _check_direction(memory, pairs, rng)


@pytest.mark.parametrize("minimize", [minimize_lbfgs, minimize_gd_bb])
def test_no_trial_is_evaluated_under_the_noise_floor(monkeypatch, minimize):
    # half a squared norm, scaled and shifted so that no step lands on the
    # minimizer exactly and f stays away from 0; grad_tol = 0 runs the
    # descent down to the rounding level of f
    h = np.linspace(1.0, 30.0, 12)
    a = np.linspace(-1.0, 2.0, 12) / 3.0

    def fun(x):
        r = x - a
        return 0.5 * float(h @ r ** 2) + 1.0, h * r

    ratios = []         # predicted decrease of each evaluated trial / floor
    backtrack = optim._backtrack

    def spy(fun, x, f, g, d):
        slope = float(g @ d)
        t = 1.0

        def counted(xn):
            nonlocal t
            ratios.append(-t * slope / _floor(f))
            t *= optim.LS_BACKTRACK
            return fun(xn)

        return backtrack(counted, x, f, g, d)

    monkeypatch.setattr(optim, "_backtrack", spy)
    calls = 0

    def counted_fun(x):
        nonlocal calls
        calls += 1
        return fun(x)

    x, f, _, trace = minimize(counted_fun, np.zeros(12), 500, 0.0)
    # the run ends where no step can show a decrease above rounding
    assert trace.stop_reason == "noise_floor" and not trace.flags
    assert f - 1.0 <= _floor(f) and np.abs(x - a).max() < 1e-7
    assert calls == trace.evals == len(ratios) + 1
    assert min(ratios) >= 1.0
    accepted = trace.n_records - 1
    assert trace.backtracks == len(ratios) - accepted


@pytest.mark.parametrize("minimize", [minimize_lbfgs, minimize_gd_bb])
def test_flat_objective_stops_after_at_most_one_trial(minimize):
    # f is 1 at the start and one rounding unit above it elsewhere, so no
    # trial decreases it; the gradient predicts a decrease of 1.5 floors at
    # t = 1 (gd-bb's first step is 1 / max(|g|, 1) = 1 here too)
    n = 4
    g0 = np.full(n, np.sqrt(1.5 * _floor(1.0) / n))
    calls = 0

    def fun(x):
        nonlocal calls
        calls += 1
        return (1.0 + EPS if x.any() else 1.0), g0.copy()

    _, f, _, trace = minimize(fun, np.zeros(n), 100, 0.0)
    assert trace.stop_reason == "noise_floor"
    assert f == 1.0 and trace.n_records == 1
    assert calls == trace.evals <= 2
    assert trace.backtracks == trace.evals - 1


def test_zero_gradient_below_tolerance_is_converged():
    def fun(x):
        return float(x @ x), 2 * x

    _, _, _, trace = minimize_lbfgs(fun, np.zeros(3), 10, 0.0)
    assert trace.stop_reason == "converged"
    assert trace.evals == 1 and trace.backtracks == 0


def test_infinite_trials_end_on_a_failed_line_search():
    # a steep direction keeps every halving above the floor, and every
    # trial is outside the domain
    def fun(x):
        if x.any():
            return np.inf, np.zeros_like(x)
        return 0.0, np.full(x.shape, 1e3)

    x, _, _, trace = minimize_lbfgs(fun, np.zeros(5), 10, 1e-9)
    assert trace.stop_reason == "line_search_failed"
    assert not x.any()
    assert trace.evals == optim.LS_MAX_HALVINGS + 1
    assert trace.backtracks == optim.LS_MAX_HALVINGS


@pytest.mark.parametrize("minimize", [minimize_lbfgs, minimize_gd_bb])
def test_certify_is_asked_after_small_decreases_and_ends_the_run(minimize):
    # an ill-conditioned quadratic with minimum 1, whose certify returns the
    # exact gap f - 1: it is asked only after an accepted step that lowered
    # f by at most CHECK_REL relative, CHECK_EVALS or more evaluations after
    # the last ask, and the first gap at most GAP_TOL ends the run
    d = np.logspace(0, 3, 30)
    x0 = np.random.default_rng(0).standard_normal(30)
    values, asks = [], []

    def fun(x):
        values.append(1.0 + 0.5 * float(d @ (x * x)))
        return values[-1], d * x

    def certify():
        asks.append((len(values), values[-1]))
        return values[-1] - 1.0

    fun.certify = certify
    _, f, _, trace = minimize(fun, x0, 10000, 1e-30)
    assert trace.stop_reason == "certified" and trace.evals == len(values)
    assert f == asks[-1][1] and f - 1.0 <= optim.GAP_TOL < asks[-2][1] - 1.0
    objs = trace.objectives
    for (n0, _), (n1, _) in zip(asks, asks[1:]):
        assert n1 - n0 >= optim.CHECK_EVALS
    for _, value in asks:
        k = objs.index(value)
        assert objs[k - 1] - value <= optim.CHECK_REL * max(abs(objs[k - 1]), 1.0)
    certified = trace.evals
    del fun.certify
    _, _, _, trace = minimize(fun, x0, 10000, 1e-30)
    assert trace.stop_reason != "certified" and trace.evals > certified


def _quartic(x):
    """``sum (x_i^2 - 1)^2 / 4 + sum x_i / 10``: Hessian ``3 x^2 - 1``,
    negative near 0, positive near the minimizers close to +-1."""
    return (float(np.sum((x * x - 1.0) ** 2) / 4 + x.sum() / 10),
            x ** 3 - x + 0.1)


def test_newton_cg_solves_an_spd_quadratic_to_its_forcing_term(monkeypatch,
                                                               rng):
    # on 1 + x^T H x / 2 - b^T x with the exact product, each CG run ends on
    # the Eisenstat-Walker residual and the full steps reach the minimizer
    H, b = _spd(rng, 8), rng.standard_normal(8)

    def fun(x):
        return 1.0 + 0.5 * float(x @ H @ x) - float(b @ x), H @ x - b

    fun.hessp = lambda p: H @ p
    x, _, _, trace = minimize_lbfgs(fun, np.zeros(8), 50, 1e-10)
    steps = trace.aux["cg_steps"]
    assert trace.stop_reason in ("converged", "noise_floor")
    assert np.abs(x - np.linalg.solve(H, b)).max() < 1e-8
    # a CG iterate d has d^T H d = -g^T d: every full step is accepted
    assert steps and trace.backtracks == 0
    assert all(ending == "forcing" and 1 <= k <= 8 for k, ending in steps)
    # a small gradient's direction meets its tight forcing term after
    # several products; one product fewer is the budget, and does not
    g0 = 1e-6 * b
    gnorm = np.linalg.norm(g0)
    tol = min(0.5, np.sqrt(gnorm)) * gnorm
    d, k, ending = optim._newton_cg(fun.hessp, g0, gnorm)
    assert ending == "forcing" and np.linalg.norm(H @ d + g0) <= tol
    assert k > 1
    monkeypatch.setattr(optim, "CG_STEPS", k - 1)
    d, k_budget, ending = optim._newton_cg(fun.hessp, g0, gnorm)
    assert (k_budget, ending) == (k - 1, "budget")
    assert np.linalg.norm(H @ d + g0) > tol


def test_newton_cg_exits_on_negative_curvature():
    # at x = 0.1 every curvature is negative: the first CG step gives -g;
    # near the minimizer by -1 the Hessian is positive and CG ends on its
    # forcing term
    point = {}

    def fun(x):
        point["x"] = x
        return _quartic(x)

    fun.hessp = lambda p: (3 * point["x"] ** 2 - 1) * p
    x, _, g, trace = minimize_lbfgs(fun, np.full(3, 0.1), 100, 1e-10)
    steps = trace.aux["cg_steps"]
    assert steps[0] == (1, "negative_curvature")
    assert steps[-1][1] == "forcing"
    assert np.abs(x + 1).max() < 0.1 and np.abs(g).max() < 1e-8
    H, g = np.diag([1.0, -1.0]), np.array([1.0, 0.5])
    d, k, ending = optim._newton_cg(lambda p: -p, g, np.linalg.norm(g))
    assert (k, ending) == (1, "negative_curvature") and np.array_equal(d, -g)
    # positive curvature along -g, negative along the next CG direction:
    # the iterate so far, one step along -g
    d, k, ending = optim._newton_cg(lambda p: H @ p, g, np.linalg.norm(g))
    assert (k, ending) == (2, "negative_curvature")
    assert np.allclose(d, -(g @ g) / (g @ H @ g) * g, rtol=1e-15, atol=0)


def test_newton_cg_without_a_product_keeps_the_lbfgs_direction(monkeypatch):
    # a hessp that has no product at any point leaves the run bit for bit
    # that of L-BFGS, with no Newton step recorded; a NaN product ends CG on
    # its budget, and the direction that is no descent becomes -g
    x0 = np.linspace(-0.4, 0.3, 6)
    x, f, _, trace = minimize_lbfgs(_quartic, x0, 100, 1e-10)
    assert "cg_steps" not in trace.aux

    def without(x):
        return _quartic(x)

    without.hessp = lambda p: None
    xw, fw, _, tw = minimize_lbfgs(without, x0, 100, 1e-10)
    assert tw.aux["cg_steps"] == []
    assert np.array_equal(xw, x) and fw == f and tw.objectives == trace.objectives
    directions = []
    backtrack = optim._backtrack

    def spy(fun, x, f, g, d):
        directions.append((g.copy(), d.copy()))
        return backtrack(fun, x, f, g, d)

    def broken(x):
        return _quartic(x)

    broken.hessp = lambda p: np.full_like(p, np.nan)
    monkeypatch.setattr(optim, "_backtrack", spy)
    _, _, _, tb = minimize_lbfgs(broken, x0, 3, 1e-10)
    assert tb.aux["cg_steps"] == [(optim.CG_STEPS, "budget")] * len(directions)
    assert all(np.array_equal(d, -g) for g, d in directions)


def _spd(rng, n):
    B = rng.standard_normal((n, n + 3))
    return B @ B.T + 0.1 * np.eye(n)


@pytest.mark.parametrize("n", [1, 5, 32])
def test_cholesky_helpers_match_scipy_bitwise(monkeypatch, rng, n):
    M = _spd(rng, n)
    calls = []
    dpotrf = scipy.linalg.lapack.dpotrf

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return dpotrf(*args, **kwargs)

    # called through the module attribute, so a wrapper sees every call
    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", counted)
    fac = inner.cholesky_factor(M)
    assert calls == [(n, n)]
    c, lower = scipy.linalg.cho_factor(M)
    assert not lower and np.array_equal(fac, c)
    for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        z = inner.cholesky_solve(fac, b)
        assert z.shape == b.shape
        assert np.array_equal(z, scipy.linalg.cho_solve((c, lower), b))
    overwritten = M.copy(order="F")
    assert np.array_equal(inner.cholesky_factor(overwritten, overwrite=True), c)


def test_cholesky_factor_is_none_on_an_indefinite_matrix(rng):
    M = _spd(rng, 6)
    M[3, 3] = -1.0
    assert inner.cholesky_factor(M) is None
    assert inner.cholesky_factor(np.zeros((4, 4))) is None


def test_psd_solve_falls_back_on_a_singular_dense_matrix(rng):
    # rank 3 of 5: the jittered factor solves a consistent right-hand side
    B = rng.standard_normal((5, 3))
    M = B @ B.T
    b = M @ rng.standard_normal(5)
    z, fac = inner._psd_solve(M, b, "test system")
    assert np.abs(M @ z - b).max() < 1e-8 * np.abs(b).max()
    # the factor handed back is the jittered one that solved
    jittered = M + inner._jitter(M.diagonal()) * np.eye(5)
    upper = np.triu(fac)
    assert np.abs(upper.T @ upper - jittered).max() < 1e-12 * np.abs(M).max()
    assert np.array_equal(inner.cholesky_solve(fac, b), z)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_irls_rejects_a_non_finite_right_hand_side(rng, bad):
    A = dense(rng.standard_normal((4, 8)))
    Y = rng.standard_normal(4)
    Y[2] = bad
    with pytest.raises(ValueError):
        run_irls(A, Y, trivial_groups(8), 2 / 3, mode="equality")
    A_bad = dense(np.where(np.arange(32).reshape(4, 8) == 5, bad, 1.0))
    with pytest.raises(ValueError):
        run_irls(A_bad, rng.standard_normal(4), trivial_groups(8), 2 / 3,
                 mode="equality")
