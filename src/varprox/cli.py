"""Benchmark command line: configure a problem, run a solver suite, record
traces and plots; sweep recovery phase transitions; write reconstructions.

Subcommands: ``run`` | ``phase`` | ``reconstruct``, each driven by a
plain-text config of ``key = value`` sections (one ``[solver:NAME]`` block
per solver).  Exit codes: 0 on success, 1 on usage and configuration
errors, 2 when any solver fails.
"""

import argparse
import configparser
import contextlib
import os
import sys

import numpy as np

from . import baselines, problems, svgplot
from .groups import GroupStructure, trivial_groups
from .hadamard_flow import (QuadraticFlowProblem, flow_gradient, flow_init,
                            flow_objective, lipschitz_bounds, run_gd)
from .linops import IdentityOperator, grad2d, tv_group_structure
from .mirror import Entropy, run_bpgd
from .optim import minimize_gd_bb
from .varpro import (BasisPursuitLoss, OuterConfig, QuadraticLoss, RobustLoss,
                     VarProProblem, nonsmooth_objective, solve_lq_option2,
                     solve_varpro)

__all__ = ["main", "cmd_run", "cmd_phase", "cmd_reconstruct"]


class ConfigError(ValueError):
    pass


@contextlib.contextmanager
def _config_values(where):
    """Report a value read under ``where`` that does not parse, or that an
    instance generator rejects, as a :class:`ConfigError`."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"[{where}] {exc}") from exc


def _fraction(text):
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        return float(num) / float(den)
    return float(text)


def _parse_config(path):
    parser = configparser.ConfigParser(delimiters=("=",),
                                       inline_comment_prefixes=("#",))
    parser.optionxform = str.lower
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config {path}")
    return parser


def _synthetic_image(height, width, channels, seed):
    rng = np.random.default_rng(seed)
    img = np.zeros((channels, height, width))
    for _ in range(4):
        i0, i1 = np.sort(rng.integers(0, height + 1, 2))
        j0, j1 = np.sort(rng.integers(0, width + 1, 2))
        img[:, i0:i1, j0:j1] += rng.uniform(-0.5, 0.5, (channels, 1, 1))
    img -= img.min()
    peak = img.max()
    if peak > 0:
        img /= peak
    return img


def _image_problem(section, family):
    height = section.getint("height", 8)
    width = section.getint("width", 8)
    channels = section.getint("channels", 3)
    seed = section.getint("seed", 0)
    path = section.get("image", fallback=None)
    if path:
        img = problems.load_ppm(path) if path.endswith(".ppm") \
            else problems.load_pgm(path)
        if img.ndim == 2:
            img = img[:, :, None]
        img = np.moveaxis(img, 2, 0)
        channels, height, width = img.shape
    else:
        img = _synthetic_image(height, width, channels, seed)
    clean = img.reshape(-1)
    n = clean.size
    L = grad2d(height, width, channels)
    gs = tv_group_structure(height, width, channels)
    lam = section.getfloat("lambda", 0.2)
    rng = np.random.default_rng(seed + 1)
    if family == "tv-denoise":
        y = clean + section.getfloat("noise_std", 0.1) * rng.standard_normal(n)
        prob = VarProProblem(IdentityOperator(n), L, gs, QuadraticLoss(y=y, lam=lam))
    elif family == "tv-inpaint":
        keep = section.getfloat("keep_fraction", 0.3)
        A = problems.make_inpainting_mask(height, width, keep, seed=seed + 2,
                                          channels=channels)
        y = A.apply(clean)
        prob = VarProProblem(A, L, gs, QuadraticLoss(y=y, lam=lam))
    elif family == "tv-l1":
        hwc = np.moveaxis(img, 0, 2)
        noisy = problems.add_salt_pepper(hwc, section.getfloat("noise_fraction", 0.25),
                                         seed=seed + 3)
        if noisy.ndim == 2:
            noisy = noisy[:, :, None]
        y = np.moveaxis(noisy, 2, 0).reshape(-1)
        loss_groups = problems.pixel_channel_groups(height * width, channels)
        prob = VarProProblem(IdentityOperator(n), L, gs,
                             RobustLoss(y=y, lam=lam, loss_groups=loss_groups))
    else:
        raise ConfigError(f"unknown image family {family}")
    extras = {"shape": (height, width, channels), "clean": clean}
    return prob, extras


@_config_values("problem")
def build_problem(section):
    """Build a benchmark problem from a ``[problem]`` config section; a
    value that does not parse, or that a generator rejects, is a
    :class:`ConfigError`."""
    family = section.get("family", fallback=None)
    if family is None:
        raise ConfigError("problem section needs a family")
    seed = section.getint("seed", 0)
    if family in ("lasso", "group-lasso"):
        m = section.getint("m", 20)
        n = section.getint("n", 60)
        gsize = section.getint("group_size", 1 if family == "lasso" else 3)
        inst = problems.gen_gaussian_instance(
            m, n, s=section.getint("s", max(gsize, n // 8 // gsize * gsize)),
            group_size=gsize, noise_std=section.getfloat("noise_std", 0.05),
            seed=seed)
        lam_max = problems.lambda_max(inst.A, inst.y, "group-lasso", inst.groups)
        lam = section.getfloat("lambda", _fraction(section.get("lambda_frac", "0.1")) * lam_max)
        prob = VarProProblem(inst.A, inst.L, inst.groups,
                             QuadraticLoss(y=inst.y, lam=lam))
        return prob, {"instance": inst}
    if family == "overlap-group-lasso":
        m = section.getint("m", 30)
        n = section.getint("n", 300)
        inst = problems.gen_overlap_instance(m, n,
                                             overlap=section.getint("overlap", 5),
                                             noise_std=section.getfloat("noise_std", 0.05),
                                             seed=seed)
        lam_max = problems.lambda_max(inst.A, inst.y, "lasso")
        lam = section.getfloat("lambda", 0.1 * lam_max)
        prob = VarProProblem(inst.A, inst.L, inst.groups,
                             QuadraticLoss(y=inst.y, lam=lam))
        return prob, {"instance": inst}
    if family == "fourier":
        inst = problems.gen_fourier_instance(
            cutoff=section.getint("cutoff", 2), grid=section.getint("n", 300),
            spikes=section.getint("spikes", 1),
            lam_frac=_fraction(section.get("lambda_frac", "1/10")), seed=seed)
        prob = VarProProblem(inst.A, inst.L, inst.groups,
                             QuadraticLoss(y=inst.y, lam=inst.lam))
        return prob, {"instance": inst}
    if family == "sqrt-lasso":
        m = section.getint("m", 30)
        n = section.getint("n", 100)
        inst = problems.gen_gaussian_instance(m, n, s=section.getint("s", 5),
                                              noise_std=section.getfloat("noise_std", 0.1),
                                              seed=seed)
        lam_max = problems.lambda_max(inst.A, inst.y, "sqrt-lasso")
        lam = section.getfloat("lambda", 0.25 * lam_max)
        loss_groups = GroupStructure([range(m)], p=m)
        prob = VarProProblem(inst.A, inst.L, trivial_groups(n),
                             RobustLoss(y=inst.y, lam=lam * np.sqrt(m),
                                        loss_groups=loss_groups))
        return prob, {"instance": inst, "sqrt_lam": lam}
    if family in ("tv-denoise", "tv-inpaint", "tv-l1"):
        return _image_problem(section, family)
    raise ConfigError(f"unknown problem family {family}")


def _check_solvable(name, section, family, prob):
    """Raise ``ConfigError`` unless the ``[solver:NAME]`` ``section`` names a
    ``run`` method that solves the ``family`` problem ``prob``, with a known
    ``hadamard-gd`` step and numeric values that parse."""
    with _config_values(f"solver:{name}"):
        for key in ("iters", "max_iter", "seed", "outer_iters"):
            section.getint(key)
        for key in ("grad_tol", "tau", "entropy_c", "init_scale"):
            section.getfloat(key)
    method = section.get("method", name)
    quadratic = isinstance(prob.loss, QuadraticLoss)
    identity = quadratic and isinstance(prob.L, IdentityOperator)
    trivial = identity and prob.reg_groups.is_trivial
    solvable = {"varpro": True, "varpro-lbfgs": True, "varpro-gd-bb": True,
                "primal-dual": True, "ista": identity, "fista": identity,
                "ista-bb": identity, "hadamard-gd": identity,
                "bpgd-quadratic": trivial, "bpgd-hyperbolic": trivial,
                "admm": quadratic, "scaled-lasso": family == "sqrt-lasso"}
    if method not in solvable:
        raise ConfigError(f"unknown solver method {method}")
    if not solvable[method]:
        raise ConfigError(f"solver method {method} does not solve the "
                          f"{family} family")
    if (method == "hadamard-gd"
            and section.get("step", "fixed-mg") not in ("fixed-mg", "fixed-kappa", "bb")):
        raise ConfigError(f"hadamard-gd step {section['step']!r} is not "
                          "fixed-mg, fixed-kappa or bb")


def _run_solver(name, section, prob, extras):
    method = section.get("method", name)
    iters = section.getint("iters", 2000)
    loss = prob.loss
    if method in ("varpro", "varpro-lbfgs", "varpro-gd-bb"):
        cfg = OuterConfig(
            algorithm="gradient-descent-bb" if method.endswith("gd-bb") else "lbfgs",
            max_iter=section.getint("max_iter", 500),
            grad_tol=section.getfloat("grad_tol", 1e-9),
            seed=section.getint("seed", 0))
        res = solve_varpro(prob, cfg)
        trace = res.trace
        # report the original non-smooth objective at the recovered point
        trace.objectives[-1] = nonsmooth_objective(prob, res.x)
        trace.x = res.x
        return trace
    if method in ("ista", "fista", "ista-bb"):
        accel = {"ista": "none", "fista": "fista", "ista-bb": "bb"}[method]
        return baselines.run_ista(prob.A, prob.reg_groups, loss.lam, loss.y,
                                  accel=accel, iters=iters)
    if method == "admm":
        return baselines.run_admm(prob.A, prob.L, prob.reg_groups, loss.lam,
                                  loss.y, tau=section.getfloat("tau", 1.0),
                                  iters=iters)
    if method == "primal-dual":
        variant = "l1" if isinstance(loss, RobustLoss) else "quadratic"
        kwargs = {}
        if variant == "l1":
            kwargs["loss_groups"] = loss.loss_groups
        return baselines.run_primal_dual(variant, prob.A, prob.L,
                                         prob.reg_groups, loss.lam, loss.y,
                                         iters=iters, **kwargs)
    if method in ("bpgd-quadratic", "bpgd-hyperbolic"):
        A, lam, y = prob.A, loss.lam, loss.y
        n = A.cols
        ent = Entropy("quadratic", n) if method.endswith("quadratic") \
            else Entropy("hyperbolic", section.getfloat("entropy_c", 1.0 / n))
        AtA_max = np.abs(A.gram()).max()
        tau = section.getfloat("tau", lam / AtA_max)

        def grad_F(x):
            return A.adjoint(A.apply(x) - y) / lam

        def F_val(x):
            r = A.apply(x) - y
            return float(r @ r) / (2 * lam)

        x0 = np.full(n, 1.0 / n)
        return run_bpgd(grad_F, F_val, ent, tau, iters, x0)
    if method == "hadamard-gd":
        flow = QuadraticFlowProblem(A=prob.A, y=loss.y, fscale=1.0 / loss.lam,
                                    groups=prob.reg_groups, lam=1.0)
        scale = section.getfloat("init_scale", 1.0 / np.sqrt(prob.A.cols))
        u0, v0 = flow_init(prob.A.cols, prob.reg_groups.n_groups,
                           seed=section.getint("seed", 0),
                           u_range=(1.0 * scale, 1.5 * scale),
                           v_range=(0.25 * scale, 0.75 * scale))
        mode = section.get("step", "fixed-mg")
        if mode != "bb":
            return run_gd(flow, u0, v0, mode, iters,
                          bounds=lipschitz_bounds(flow, u0, v0),
                          keep_diagnostics=False)[2]
        n = u0.size

        def fun(z):
            u, v = z[:n], z[n:]
            return (flow_objective(flow, u, v),
                    np.concatenate(flow_gradient(flow, u, v)))

        z, _, _, trace = minimize_gd_bb(fun, np.concatenate([u0, v0]), iters,
                                        0.0, method_name="hadamard-gd-bb")
        trace.x = flow.product(z[:n], z[n:])
        return trace
    # scaled-lasso, the last method _check_solvable lets through
    return baselines.run_scaled_lasso(prob.A, loss.y, extras["sqrt_lam"],
                                      outer_iters=section.getint("outer_iters", 20))


def cmd_run(config, out_dir, seed=None):
    import time

    parser = config
    if "problem" not in parser:
        raise ConfigError("missing [problem] section")
    if seed is not None:
        parser["problem"]["seed"] = str(seed)
    prob, extras = build_problem(parser["problem"])
    solver_sections = [s for s in parser.sections() if s.startswith("solver:")]
    if not solver_sections:
        raise ConfigError("at least one [solver:NAME] section required")
    max_seconds = None
    if "budget" in parser:
        with _config_values("budget"):
            max_seconds = parser["budget"].getfloat("max_seconds", fallback=None)
        if max_seconds is not None and max_seconds <= 0:
            raise ConfigError("budget must be positive")
    for sec in solver_sections:
        _check_solvable(sec.split(":", 1)[1], parser[sec],
                        parser["problem"]["family"], prob)
    os.makedirs(out_dir, exist_ok=True)
    traces = {}
    failures = []
    t_start = time.perf_counter()
    for sec in solver_sections:
        name = sec.split(":", 1)[1]
        if max_seconds is not None and time.perf_counter() - t_start > max_seconds:
            print(f"wall-clock budget exhausted, skipping {name}",
                  file=sys.stderr)
            continue
        try:
            traces[name] = _run_solver(name, parser[sec], prob, extras)
        except Exception as exc:   # solver failure: record, continue
            failures.append((name, str(exc)))
            print(f"solver {name} failed: {exc}", file=sys.stderr)
    for name, trace in traces.items():
        trace.to_csv(os.path.join(out_dir, f"{name}.csv"))
        if trace.stop_reason:
            print(f"{name}: stopped on {trace.stop_reason} after "
                  f"{trace.evals} evaluations ({trace.backtracks} rejected "
                  "line-search trials)")
        else:
            print(f"{name}: ran {trace.n_records} records, no stop reason "
                  "recorded")
    if traces:
        finals = [min(t.objectives) for t in traces.values()]
        best = min(finals)
        floor = 1e-16
        panels = []
        for xaxis, xlabel in (("iters", "iteration"), ("seconds", "seconds")):
            curves = []
            for name, t in traces.items():
                xs = [v + (1 if xaxis == "iters" else 0) for v in getattr(t, xaxis)]
                ys = [max(o - best, floor) for o in t.objectives]
                curves.append((name, xs, ys))
            panels.append({"curves": curves, "xlabel": xlabel,
                           "ylabel": "objective error",
                           "title": f"error vs {xlabel}"})
        svgplot.multi_panel(os.path.join(out_dir, "convergence.svg"), panels)
    return 2 if failures else 0


def _phase_single(A_full, Y_full, m, n, T, q, method, restarts, seed, threshold,
                  x_true):
    A = type(A_full)(A_full.to_dense()[:m]) if m else None
    Y = Y_full[:m] if m else np.zeros((0, T))
    if m == 0:
        X = np.zeros((n, T))
    elif method == "varpro2":
        prob = VarProProblem(A, IdentityOperator(n), trivial_groups(n),
                             BasisPursuitLoss(y=Y))
        cfg = OuterConfig(max_iter=600, grad_tol=1e-10, seed=seed)
        res = solve_lq_option2(prob, cfg, restarts=restarts)
        if res.x is None:           # no finite evaluation: a failure, not x = 0
            return False
        X = res.x
        if X.ndim == 1:
            X = X[:, None]
    else:                           # irls
        trace = baselines.run_irls(A, Y, trivial_groups(n), q, mode="equality",
                                   iters=300)
        X = trace.x
        if X.ndim == 1:
            X = X[:, None]
    num = float(np.linalg.norm(X - x_true))
    den = max(float(np.linalg.norm(x_true)), 1e-300)
    return num / den < threshold


def cmd_phase(config, out_dir, seed=None, threads=1):
    if threads != 1:
        raise ConfigError(f"phase runs its trials serially, got threads={threads}")
    if "phase" not in config:
        raise ConfigError("missing [phase] section")
    sec = config["phase"]
    with _config_values("phase"):
        n = sec.getint("n", 64)
        s = sec.getint("s", 8)
        T = sec.getint("t", 1)
        q = _fraction(sec.get("q", "2/3"))
        trials = sec.getint("trials", 20)
        threshold = sec.getfloat("threshold", 0.01)
        restarts = sec.getint("restarts", 3)
        base_seed = seed if seed is not None else sec.getint("seed", 0)
        m_grid = [int(tok) for tok in
                  sec.get("m_grid", "8 16 24 32 40 48 56 64").split()]
    methods = sec.get("methods", "varpro2 irls").split()
    for method in methods:
        if method not in ("varpro2", "irls"):
            raise ConfigError(f"unknown phase method {method}")
    if "varpro2" in methods and q != 2 / 3:
        raise ConfigError(f"q = {sec.get('q')}: varpro2 solves q = 2/3 only; "
                          "set q = 2/3 or drop varpro2 from methods")
    if s > n:           # the instance generator's rule, checked before any cell
        raise ConfigError(f"s = {s} exceeds n = {n}")
    os.makedirs(out_dir, exist_ok=True)

    counts = {(m, method): 0 for m in m_grid for method in methods}
    for trial in range(trials):
        inst = problems.gen_gaussian_instance(max(m_grid), n, s, T=T,
                                              noise_std=0.0,
                                              seed=base_seed + 1000 * trial)
        Y = inst.y if inst.y.ndim == 2 else inst.y[:, None]
        Xt = inst.x_true if inst.x_true.ndim == 2 else inst.x_true[:, None]
        for m in m_grid:
            for method in methods:
                counts[(m, method)] += _phase_single(
                    inst.A, Y, m, n, T, q, method, restarts, base_seed + trial,
                    threshold, Xt)
    rows = sorted((m, method, counts[(m, method)])
                  for m in m_grid for method in methods)
    path = os.path.join(out_dir, "phase.csv")
    with open(path, "w") as fh:
        fh.write("m,method,successes,trials\n")
        for m, method, cnt in rows:
            fh.write(f"{m},{method},{cnt},{trials}\n")
    for method in methods:
        series = [counts[(m, method)] for m in m_grid]
        drops = sum(max(series[i] - series[i + 1], 0) for i in range(len(series) - 1))
        if drops > 0:
            print(f"warning: success counts for {method} not monotone in m "
                  f"(total inversion {drops})", file=sys.stderr)
    return 0


def cmd_reconstruct(config, out_dir, seed=None):
    if "reconstruct" not in config:
        raise ConfigError("missing [reconstruct] section")
    sec = config["reconstruct"]
    family = sec.get("task", "tv-denoise")
    if seed is not None:
        sec["seed"] = str(seed)
    with _config_values("reconstruct"):
        prob, extras = _image_problem(sec, family)
        cfg = OuterConfig(max_iter=sec.getint("max_iter", 300),
                          grad_tol=sec.getfloat("grad_tol", 1e-8),
                          seed=sec.getint("seed", 0))
    res = solve_varpro(prob, cfg)
    h, w, c = extras["shape"]
    os.makedirs(out_dir, exist_ok=True)
    recon = np.moveaxis(res.x.reshape(c, h, w), 0, 2)
    if c == 3:
        problems.save_ppm(os.path.join(out_dir, "reconstruction.ppm"), recon)
    else:
        problems.save_pgm(os.path.join(out_dir, "reconstruction.pgm"),
                          recon[:, :, 0])
    clean = np.moveaxis(extras["clean"].reshape(c, h, w), 0, 2)
    residual = np.sqrt(((recon - clean) ** 2).mean(axis=2))
    peak = residual.max()
    if peak > 0:
        residual = residual / peak
    problems.save_pgm(os.path.join(out_dir, "residual.pgm"), residual)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="varprox",
                                     description="solver benchmark harness")
    parser.add_argument("command", choices=["run", "phase", "reconstruct"])
    parser.add_argument("--config", required=True, help="config file path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:       # argparse exits 2 on a usage error, 0 on --help
        return 1 if exc.code else 0
    handler = {"run": cmd_run, "phase": cmd_phase,
               "reconstruct": cmd_reconstruct}[args.command]
    try:
        return handler(_parse_config(args.config), args.out, seed=args.seed)
    except (ConfigError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
