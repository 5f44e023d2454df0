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
import fnmatch
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
def _config_values(section):
    """Read the config ``section`` through the ``get(key, fallback, parse)``
    this yields: ``parse`` of the value of ``key``, or ``fallback`` without
    one.  A value that does not parse, an image file that does not load, or
    a value that a generator or config rejects is a :class:`ConfigError`
    naming the section; so is, once the block is done, a key of the
    section that no ``get`` read."""
    read = set()

    def get(key, fallback, parse):
        read.add(key)
        text = section.get(key)
        return fallback if text is None else parse(text)

    try:
        yield get
    except (ValueError, ZeroDivisionError, OSError) as exc:
        raise ConfigError(f"[{section.name}] {exc}") from exc
    unknown = sorted(set(section) - read)
    if unknown:
        raise ConfigError(f"[{section.name}] unknown key {unknown[0]} (known "
                          f"here: {', '.join(sorted(read))})")


def _check_sections(config, *known):
    """A section of ``config`` that matches none of the ``known`` patterns
    (``solver:*`` matches every ``[solver:NAME]``) is a
    :class:`ConfigError`."""
    for name in config.sections():
        if not any(fnmatch.fnmatchcase(name, k) for k in known):
            raise ConfigError(f"unknown section [{name}] (known here: "
                              f"{', '.join(known)})")


def _steps(text):
    """A step budget or another count, so not negative."""
    steps = int(text)
    if steps < 0:
        raise ValueError(f"a step budget is >= 0, got {steps}")
    return steps


def _fraction(text):
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        return float(num) / float(den)
    return float(text)


def _positive(key):
    """The parser of ``key``: a number or a fraction ``a/b``, positive and
    finite."""
    def parse(text):
        value = _fraction(text)
        if not 0 < value < np.inf:      # NaN fails too
            raise ValueError(f"{key} > 0 required (a finite value), got "
                             f"{value:g}")
        return value
    return parse


def _noise_std(text):
    """A noise level: a number, at least 0 and finite."""
    value = float(text)
    if not 0 <= value < np.inf:         # NaN fails too
        raise ValueError(f"noise_std >= 0 required (a finite value), got "
                         f"{value:g}")
    return value


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


def _image_problem(get, family):
    seed = get("seed", 0, int)
    path = get("image", None, str)
    if path:
        img = problems.load_ppm(path) if path.endswith(".ppm") \
            else problems.load_pgm(path)
        if img.ndim == 2:
            img = img[:, :, None]
        img = np.moveaxis(img, 2, 0)
        channels, height, width = img.shape
    else:
        height, width = get("height", 8, int), get("width", 8, int)
        channels = get("channels", 3, int)
        img = _synthetic_image(height, width, channels, seed)
    clean = img.reshape(-1)
    n = clean.size
    L = grad2d(height, width, channels)
    gs = tv_group_structure(height, width, channels)
    lam = get("lambda", 0.2, _positive("lambda"))
    rng = np.random.default_rng(seed + 1)
    if family == "tv-denoise":
        y = clean + get("noise_std", 0.1, _noise_std) * rng.standard_normal(n)
        prob = VarProProblem(IdentityOperator(n), L, gs, QuadraticLoss(y=y, lam=lam))
    elif family == "tv-inpaint":
        keep = get("keep_fraction", 0.3, float)
        A = problems.make_inpainting_mask(height, width, keep, seed=seed + 2,
                                          channels=channels)
        y = A.apply(clean)
        prob = VarProProblem(A, L, gs, QuadraticLoss(y=y, lam=lam))
    elif family == "tv-l1":
        hwc = np.moveaxis(img, 0, 2)
        noisy = problems.add_salt_pepper(hwc, get("noise_fraction", 0.25, float),
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


def build_problem(section):
    """Build a benchmark problem from a ``[problem]`` config section; a
    value that does not parse or that a generator rejects, and a key that
    the family does not read, are :class:`ConfigError`\\ s."""
    with _config_values(section) as get:
        family = get("family", None, str)
        if family is None:
            raise ConfigError("a family is required")
        seed = get("seed", 0, int)
        if family in ("lasso", "group-lasso"):
            m, n = get("m", 20, int), get("n", 60, int)
            gsize = get("group_size", 1 if family == "lasso" else 3, int)
            inst = problems.gen_gaussian_instance(
                m, n, s=get("s", max(gsize, n // 8 // gsize * gsize), int),
                group_size=gsize, noise_std=get("noise_std", 0.05, _noise_std),
                seed=seed)
            lam_max = problems.lambda_max(inst.A, inst.y, "group-lasso", inst.groups)
            frac = get("lambda_frac", 0.1, _positive("lambda_frac"))
            lam = get("lambda", frac * lam_max, _positive("lambda"))
        elif family == "overlap-group-lasso":
            m, n = get("m", 30, int), get("n", 300, int)
            inst = problems.gen_overlap_instance(
                m, n, overlap=get("overlap", 5, int),
                noise_std=get("noise_std", 0.05, _noise_std), seed=seed)
            lam_max = problems.lambda_max(inst.A, inst.y, "lasso")
            lam = get("lambda", 0.1 * lam_max, _positive("lambda"))
        elif family == "fourier":
            inst = problems.gen_fourier_instance(
                cutoff=get("cutoff", 2, int), grid=get("n", 300, int),
                spikes=get("spikes", 1, int),
                lam_frac=get("lambda_frac", 0.1, _positive("lambda_frac")),
                seed=seed)
            lam = inst.lam
        elif family == "sqrt-lasso":
            m, n = get("m", 30, int), get("n", 100, int)
            inst = problems.gen_gaussian_instance(
                m, n, s=get("s", 5, int),
                noise_std=get("noise_std", 0.1, _noise_std), seed=seed)
            lam_max = problems.lambda_max(inst.A, inst.y, "sqrt-lasso")
            lam = get("lambda", 0.25 * lam_max, _positive("lambda"))
            loss_groups = GroupStructure([range(m)], p=m)
            prob = VarProProblem(inst.A, inst.L, trivial_groups(n),
                                 RobustLoss(y=inst.y, lam=lam * np.sqrt(m),
                                            loss_groups=loss_groups))
            return prob, {"sqrt_lam": lam}
        elif family in ("tv-denoise", "tv-inpaint", "tv-l1"):
            return _image_problem(get, family)
        else:
            raise ConfigError(f"unknown problem family {family}")
        return VarProProblem(inst.A, inst.L, inst.groups,
                             QuadraticLoss(y=inst.y, lam=lam)), {}


def _solver_run(section, family, prob, extras):
    """The zero-argument run of the ``[solver:NAME]`` ``section`` on the
    ``family`` problem ``prob``, with every value read and every config
    built.  A method that does not solve the problem and an unknown
    ``hadamard-gd`` step are :class:`ConfigError`\\ s, as are the errors
    :func:`_config_values` reports."""
    with _config_values(section) as get:
        method = get("method", section.name.split(":", 1)[1], str)
        loss = prob.loss
        quadratic = isinstance(loss, QuadraticLoss)
        identity = quadratic and isinstance(prob.L, IdentityOperator)
        trivial = identity and prob.reg_groups.is_trivial
        solves = {"varpro": True, "varpro-lbfgs": True, "varpro-gd-bb": True,
                  "primal-dual": True, "ista": identity, "fista": identity,
                  "ista-bb": identity, "hadamard-gd": identity,
                  "bpgd-quadratic": trivial, "bpgd-hyperbolic": trivial,
                  "admm": quadratic, "scaled-lasso": family == "sqrt-lasso"}
        if method not in solves:
            raise ConfigError(f"unknown solver method {method}")
        if not solves[method]:
            raise ConfigError(f"solver method {method} does not solve the "
                              f"{family} family")
        if method.startswith("varpro"):
            cfg = OuterConfig(
                algorithm="gradient-descent-bb" if method.endswith("gd-bb") else "lbfgs",
                max_iter=get("max_iter", 500, int),
                grad_tol=get("grad_tol", 1e-9, float), seed=get("seed", 0, int))

            def run():
                res = solve_varpro(prob, cfg)
                # report the original non-smooth objective at the recovered point
                res.trace.objectives[-1] = nonsmooth_objective(prob, res.x)
                res.trace.x = res.x
                return res.trace
            return run
        if method == "scaled-lasso":
            outer_iters = get("outer_iters", 20, _steps)
            return lambda: baselines.run_scaled_lasso(
                prob.A, loss.y, extras["sqrt_lam"], outer_iters=outer_iters)
        iters = get("iters", 2000, _steps)
        if method in ("ista", "fista", "ista-bb"):
            accel = {"ista": "none", "fista": "fista", "ista-bb": "bb"}[method]
            return lambda: baselines.run_ista(prob.A, prob.reg_groups, loss.lam,
                                              loss.y, accel=accel, iters=iters)
        if method == "admm":
            tau = get("tau", 1.0, float)
            return lambda: baselines.run_admm(prob.A, prob.L, prob.reg_groups,
                                              loss.lam, loss.y, tau=tau, iters=iters)
        if method == "primal-dual":
            robust = isinstance(loss, RobustLoss)
            kwargs = {"loss_groups": loss.loss_groups} if robust else {}
            return lambda: baselines.run_primal_dual(
                "l1" if robust else "quadratic", prob.A, prob.L, prob.reg_groups,
                loss.lam, loss.y, iters=iters, **kwargs)
        if method.startswith("bpgd"):
            A, lam, y = prob.A, loss.lam, loss.y
            n = A.cols
            ent = Entropy("quadratic", n) if method.endswith("quadratic") \
                else Entropy("hyperbolic", get("entropy_c", 1.0 / n, float))
            tau = get("tau", lam / np.abs(A.gram()).max(), float)

            def grad_F(x):
                return A.adjoint(A.apply(x) - y) / lam

            def F_val(x):
                r = A.apply(x) - y
                return float(r @ r) / (2 * lam)

            x0 = np.full(n, 1.0 / n)
            return lambda: run_bpgd(grad_F, F_val, ent, tau, iters, x0)
        # hadamard-gd, the one method left
        mode = get("step", "fixed-mg", str)
        if mode not in ("fixed-mg", "fixed-kappa", "bb"):
            raise ConfigError(f"hadamard-gd step {mode!r} is not fixed-mg, "
                              "fixed-kappa or bb")
        flow = QuadraticFlowProblem(A=prob.A, y=loss.y, fscale=1.0 / loss.lam,
                                    groups=prob.reg_groups, lam=1.0)
        scale = get("init_scale", 1.0 / np.sqrt(prob.A.cols), float)
        u0, v0 = flow_init(prob.A.cols, prob.reg_groups.n_groups,
                           seed=get("seed", 0, int),
                           u_range=(1.0 * scale, 1.5 * scale),
                           v_range=(0.25 * scale, 0.75 * scale))
        if mode != "bb":
            return lambda: run_gd(flow, u0, v0, mode, iters,
                                  bounds=lipschitz_bounds(flow, u0, v0),
                                  keep_diagnostics=False)[2]
        n = u0.size

        def fun(z):
            u, v = z[:n], z[n:]
            return (flow_objective(flow, u, v),
                    np.concatenate(flow_gradient(flow, u, v)))

        def run():
            z, _, _, trace = minimize_gd_bb(fun, np.concatenate([u0, v0]), iters,
                                            0.0, method_name="hadamard-gd-bb")
            trace.x = flow.product(z[:n], z[n:])
            return trace
        return run


def cmd_run(config, out_dir, seed=None):
    import time

    _check_sections(config, "problem", "budget", "solver:*")
    if "problem" not in config:
        raise ConfigError("missing [problem] section")
    if seed is not None:
        config["problem"]["seed"] = str(seed)
    prob, extras = build_problem(config["problem"])
    solver_sections = [s for s in config.sections() if s.startswith("solver:")]
    if not solver_sections:
        raise ConfigError("at least one [solver:NAME] section required")
    max_seconds = None
    if "budget" in config:
        with _config_values(config["budget"]) as get:
            max_seconds = get("max_seconds", None, _positive("max_seconds"))
    runs = {sec.split(":", 1)[1]: _solver_run(config[sec], config["problem"]["family"],
                                              prob, extras)
            for sec in solver_sections}
    os.makedirs(out_dir, exist_ok=True)
    traces = {}
    failures = []
    t_start = time.perf_counter()
    for name, run in runs.items():
        if max_seconds is not None and time.perf_counter() - t_start > max_seconds:
            print(f"wall-clock budget exhausted, skipping {name}",
                  file=sys.stderr)
            continue
        try:
            traces[name] = run()
        except Exception as exc:   # solver failure: record, continue
            failures.append((name, str(exc)))
            print(f"solver {name} failed: {exc}", file=sys.stderr)
    for name, trace in traces.items():
        trace.to_csv(os.path.join(out_dir, f"{name}.csv"))
        if trace.stop_reason:
            checks = trace.aux.get("gap_checks")
            detail = "" if checks is None else (
                f"; {len(checks)} gap checks, "
                f"{sum(steps for steps, _, _ in checks)} dual steps")
            newton = trace.aux.get("cg_steps")
            if newton is not None:
                detail += (f"; {len(newton)} Newton-CG steps, "
                           f"{sum(steps for steps, _ in newton)} Hessian "
                           "products")
            print(f"{name}: stopped on {trace.stop_reason} after "
                  f"{trace.evals} evaluations ({trace.backtracks} rejected "
                  f"line-search trials{detail})")
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
        X = res.inner.x             # n-by-T, as Y is m-by-T
    else:                           # irls
        X = baselines.run_irls(A, Y, trivial_groups(n), q, mode="equality",
                               iters=300).x
    num = float(np.linalg.norm(X - x_true))
    den = max(float(np.linalg.norm(x_true)), 1e-300)
    return num / den < threshold


def cmd_phase(config, out_dir, seed=None, threads=1):
    if threads != 1:
        raise ConfigError(f"phase runs its trials serially, got threads={threads}")
    _check_sections(config, "phase")
    if "phase" not in config:
        raise ConfigError("missing [phase] section")
    with _config_values(config["phase"]) as get:
        n = get("n", 64, int)
        if n < 1:
            raise ValueError(f"n >= 1 required, got {n}")
        s = get("s", 8, _steps)
        T = get("t", 1, int)
        if T < 1:
            raise ValueError(f"t >= 1 required, got {T}")
        q = get("q", 2 / 3, _fraction)
        if not 0 < q <= 2:
            raise ValueError(f"0 < q <= 2 required, got {q:g}")
        trials = get("trials", 20, _steps)
        threshold = get("threshold", 0.01, float)
        if not 0 < threshold < np.inf:      # NaN fails too
            raise ValueError(f"a positive finite threshold is required, "
                             f"got {threshold:g}")
        restarts = get("restarts", 3, int)
        if restarts < 1:
            raise ValueError(f"restarts >= 1 required, got {restarts}")
        base_seed = get("seed", 0, int)     # read even when seed overrides it
        base_seed = base_seed if seed is None else seed
        m_grid = [_steps(tok) for tok in
                  get("m_grid", "8 16 24 32 40 48 56 64", str).split()]
        methods = get("methods", "varpro2 irls", str).split()
        if not m_grid or not methods:
            raise ValueError("m_grid and methods name at least one entry each")
    for method in methods:
        if method not in ("varpro2", "irls"):
            raise ConfigError(f"unknown phase method {method}")
    if "varpro2" in methods and q != 2 / 3:
        raise ConfigError(f"q = {q:g}: varpro2 solves q = 2/3 only; "
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
    _check_sections(config, "reconstruct")
    if "reconstruct" not in config:
        raise ConfigError("missing [reconstruct] section")
    if seed is not None:
        config["reconstruct"]["seed"] = str(seed)
    with _config_values(config["reconstruct"]) as get:
        prob, extras = _image_problem(get, get("task", "tv-denoise", str))
        cfg = OuterConfig(max_iter=get("max_iter", 300, int),
                          grad_tol=get("grad_tol", 1e-8, float),
                          seed=get("seed", 0, int))
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
