"""Fixed-step gradient descent on the factored objective
``G(u, v) = lam (||u||^2 + ||v||^2) / 2 + F(u * v)`` for quadratic-composite
``F(x) = fscale ||A x - y||^2 / 2``, together with the certified stepsize
constants, the per-iteration descent/contraction diagnostics, and the
discrete check of the equivalent mirror-descent flow.  Barzilai-Borwein
steps on ``G`` run on the line-searched loop of :mod:`varprox.optim`.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .groups import (GroupStructure, _group_spectral_norms, extend,
                     group_dots, group_norm_12, trivial_groups)
from .trace import SolverTrace

__all__ = [
    "QuadraticFlowProblem", "FlowState", "LipschitzBounds", "FlowDiagnostics",
    "flow_objective", "flow_gradient", "lipschitz_bounds", "run_gd",
    "calibrated_fixed_step", "mirror_equivalence_residual", "flow_init",
]


@dataclass
class QuadraticFlowProblem:
    """Factored descent problem with a quadratic composite data term.

    ``lam`` weighs the quadratic penalty on the factors, so the run targets
    ``min_x lam ||x||_{1,2} + fscale ||A x - y||^2 / 2``.
    """

    A: object
    y: np.ndarray
    fscale: float = 1.0
    groups: GroupStructure | None = None
    lam: float = 1.0

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float).ravel()
        if self.groups is None:
            self.groups = trivial_groups(self.A.cols)

    def F(self, x):
        r = self.A.apply(x) - self.y
        return 0.5 * self.fscale * float(r @ r)

    def grad_F(self, x):
        return self.fscale * self.A.adjoint(self.A.apply(x) - self.y)

    def product(self, u, v):
        return u * extend(v, self.groups)


@dataclass
class FlowState:
    u: np.ndarray
    v: np.ndarray


@dataclass
class LipschitzBounds:
    """Constants governing the fixed-step theory.

    ``M_G = 2 (max(lam, K) + M_F B^2)`` bounds the gradient Lipschitz
    constant of ``G`` on the sublevel ball of squared radius
    ``B^2 = 2 G(u0, v0) / lam``; ``rho = 1 - lam / (kappa M_G)`` is the
    balance-gap contraction factor at stepsize ``1 / (kappa M_G)``.
    """

    M_F: float
    K: float
    B: float
    M_G: float
    kappa: float
    rho: float


@dataclass
class FlowDiagnostics:
    """Per-iteration quantities recorded along a descent run."""

    objective: list = field(default_factory=list)      # G(u_k, v_k)
    grad_sq: list = field(default_factory=list)        # ||grad G||^2
    uv_gap: list = field(default_factory=list)         # | ||u||^2 - ||v||^2 |
    phi: list = field(default_factory=list)            # F + lam ||x||_{1,2}
    phi_surrogate: list = field(default_factory=list)  # F + 2 lam ||x||_H^2


def flow_objective(problem, u, v):
    return (0.5 * problem.lam * (float(u @ u) + float(v @ v))
            + problem.F(problem.product(u, v)))


def flow_gradient(problem, u, v):
    """Gradient blocks ``(lam u + v * gF, lam v + (u_g . gF_g)_g)``."""
    gF = problem.grad_F(problem.product(u, v))
    gu = problem.lam * u + extend(v, problem.groups) * gF
    gv = problem.lam * v + group_dots(u, gF, problem.groups)
    return gu, gv


def lipschitz_bounds(problem, u0, v0):
    """Stepsize constants from the initial point.

    ``K`` bounds ``sup ||grad F||_{inf,2}`` over the sublevel ball, certified
    through ``max_g ||A_g||_2`` over the column blocks of ``A``.
    """
    if problem.lam <= 0:
        raise ValueError("bounds require lam > 0")
    colmax = float(_group_spectral_norms(problem.A, problem.groups).max())
    M_F = problem.fscale * colmax ** 2
    G0 = flow_objective(problem, u0, v0)
    B2 = 2.0 * G0 / problem.lam
    R = B2 / 2.0
    K = problem.fscale * colmax * (colmax * R + float(np.linalg.norm(problem.y)))
    M_G = 2.0 * (max(problem.lam, K) + M_F * B2)
    kappa = max(1.0, (problem.lam ** 2 + K ** 2) / (problem.lam * M_G))
    rho = 1.0 - problem.lam / (kappa * M_G)
    return LipschitzBounds(M_F=M_F, K=K, B=float(np.sqrt(B2)), M_G=M_G,
                           kappa=kappa, rho=rho)


def flow_init(n_full, n_groups, seed=0, u_range=(0.5, 1.5), v_range=(0.5, 1.5)):
    """Random factor initialization with independent streams so
    ``|u0| != |v0|``; pass separated ranges to keep ``u0^2 - v0^2`` one-signed
    (required for the aggregate balance-gap diagnostics)."""
    rng_u = np.random.default_rng(seed)
    rng_v = np.random.default_rng(seed + 104729)
    u0 = rng_u.uniform(*u_range, n_full)
    v0 = rng_v.uniform(*v_range, n_groups)
    return u0, v0


def _surrogate_pieces(problem, u, v, x):
    lam = problem.lam
    phi = problem.F(x) + lam * group_norm_12(x, problem.groups)
    if not problem.groups.is_trivial:
        return phi, np.nan
    denom = u * u + v * v
    ratio = np.divide(x * x, denom, out=np.zeros_like(x), where=denom > 0)
    return phi, problem.F(x) + 2.0 * lam * float(ratio.sum())


def run_gd(problem, u0, v0, step, iters, bounds=None, keep_diagnostics=True):
    """Fixed-step descent on the factored objective.

    ``step`` is a float, ``"fixed-mg"`` (``1/M_G``) or ``"fixed-kappa"``
    (``1/(kappa M_G)``); the two modes need ``bounds``.  Runs ``iters``
    steps and records ``iters + 1`` rows.  Adaptive steps on ``G`` go
    through :func:`varprox.optim.minimize_gd_bb` instead.
    """
    u = np.asarray(u0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    if isinstance(step, str):
        if step not in ("fixed-mg", "fixed-kappa"):
            raise ValueError(f"unknown step mode {step!r}")
        if bounds is None:
            raise ValueError(f"step mode {step!r} requires bounds")
        lip = bounds.kappa * bounds.M_G if step == "fixed-kappa" else bounds.M_G
        tau = 1.0 / lip
    else:
        tau = float(step)

    trace = SolverTrace(method="hadamard-gd-" + (step if isinstance(step, str)
                                                 else "fixed"))
    diag = FlowDiagnostics() if keep_diagnostics else None
    t0 = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        gu, gv = flow_gradient(problem, u, v)
        for k in range(iters + 1):
            Gk = flow_objective(problem, u, v)
            gsq = float(gu @ gu + gv @ gv)
            trace.record(k, Gk, np.sqrt(gsq), time.perf_counter() - t0)
            if keep_diagnostics:
                x = problem.product(u, v)
                phi, phi_k = _surrogate_pieces(problem, u, v, x)
                diag.objective.append(Gk)
                diag.grad_sq.append(gsq)
                diag.uv_gap.append(abs(float(u @ u) - float(v @ v)))
                diag.phi.append(phi)
                diag.phi_surrogate.append(phi_k)
            if k == iters:
                break
            u = u - tau * gu
            v = v - tau * gv
            gu, gv = flow_gradient(problem, u, v)
    trace.x = problem.product(u, v)
    return FlowState(u, v), diag, trace


# calibrated_fixed_step probes this many steps, halving at most this often
PROBE_ITERS = 300
MAX_HALVINGS = 12


def calibrated_fixed_step(problem, u0, v0, tau0):
    """Largest step of the form ``tau0 / 2^j`` (``j < MAX_HALVINGS``) whose
    ``PROBE_ITERS``-step probe run stays monotone.  The certified constants
    are loose along realistic trajectories; this picks a practical fixed
    step while keeping an explicit descent check."""
    tau = float(tau0)
    for _ in range(MAX_HALVINGS):
        with np.errstate(over="ignore", invalid="ignore"):
            _, diag, _ = run_gd(problem, u0, v0, tau, PROBE_ITERS,
                                keep_diagnostics=True)
        G = np.asarray(diag.objective)
        if np.all(np.isfinite(G)) and np.all(G[1:] <= G[:-1] + 1e-12):
            return tau
        tau *= 0.5
    return tau


def mirror_equivalence_residual(problem, u0, v0, tau, time_horizon):
    """Discrete residual of the time-rescaled mirror identity
    ``d/dt arcsinh(x / gamma(t)) = -2 grad F(x)`` along a small-step run.

    ``gamma(t) = 0.5 |u0^2 - v0^2| exp(-2 lam t)`` componentwise; all
    entries must be nonzero (equal-magnitude initializations are rejected).
    Also tracks the drift of ``u^2 - v^2`` against its exact exponential
    decay, reported per unit time.  Trivial groups only.
    """
    if not problem.groups.is_trivial:
        raise ValueError("mirror diagnostics require trivial groups")
    u = np.asarray(u0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    c = 0.5 * np.abs(u * u - v * v)
    if np.any(c == 0.0):
        raise ValueError("mirror map undefined: |u0| == |v0| on some entry")
    n_steps = int(round(time_horizon / tau))
    lam = problem.lam
    diff0 = u * u - v * v
    residual = 0.0
    drift = 0.0
    x = problem.product(u, v)
    eta = np.arcsinh(x / c)
    for k in range(n_steps):
        gF = problem.grad_F(x)
        gu = lam * u + v * gF
        gv = lam * v + u * gF
        u -= tau * gu
        v -= tau * gv
        x = u * v
        t_next = (k + 1) * tau
        gamma = c * np.exp(-2.0 * lam * t_next)
        eta_next = np.arcsinh(x / gamma)
        r = (eta_next - eta) / tau + 2.0 * gF
        residual = max(residual, float(np.abs(r).max()))
        decay = diff0 * np.exp(-2.0 * lam * t_next)
        drift = max(drift, float(np.abs((u * u - v * v) - decay).max()))
        eta = eta_next
    return {"residual": residual,
            "conserved_drift_per_time": drift / max(time_horizon, 1e-300),
            "steps": n_steps}
