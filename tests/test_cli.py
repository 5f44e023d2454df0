import csv
import re
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest

from varprox import cli
from varprox.problems import load_pgm, load_ppm, save_ppm
from varprox.varpro import DUAL_STEPS


def _write(path, text):
    path.write_text(text)
    return str(path)


def _read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows


def test_run_two_solver_lasso(tmp_path):
    cfg = _write(tmp_path / "run.cfg", """
[problem]
family = lasso
m = 15
n = 40
s = 4
lambda_frac = 0.2
seed = 0

[solver:varpro]
method = varpro-lbfgs
max_iter = 200

[solver:fista]
method = fista
iters = 2000
""")
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", cfg, "--out", str(out)])
    assert rc == 0
    for name in ("varpro", "fista"):
        rows = _read_csv(out / f"{name}.csv")
        assert rows[0] == ["iter", "objective", "grad_norm", "seconds"]
        assert len(rows) > 2
    svg = out / "convergence.svg"
    tree = ET.parse(svg)          # well-formed XML
    assert tree.getroot().tag.endswith("svg")


def test_run_deterministic_modulo_wall_clock(tmp_path):
    cfg = _write(tmp_path / "run.cfg", """
[problem]
family = group-lasso
m = 12
n = 24
group_size = 3
s = 3
seed = 1

[solver:fista]
method = fista
iters = 500
""")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", cfg, "--out", str(out2)]) == 0
    r1 = _read_csv(out1 / "fista.csv")
    r2 = _read_csv(out2 / "fista.csv")
    assert [row[:3] for row in r1] == [row[:3] for row in r2]


def test_run_objective_column_monotone_for_ista(tmp_path):
    cfg = _write(tmp_path / "run.cfg", """
[problem]
family = lasso
m = 10
n = 25
s = 3
seed = 2

[solver:ista]
method = ista
iters = 400
""")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "ista.csv")
    objs = [float(r[1]) for r in rows[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))


def test_run_config_error_exit_code(tmp_path):
    cfg = _write(tmp_path / "bad.cfg", "[problem]\nfamily = nonsense\n\n[solver:x]\nmethod = fista\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert cli.main(["run", "--config", str(tmp_path / "missing.cfg"),
                     "--out", str(tmp_path / "o")]) == 1


def test_run_solver_failure_exit_code(tmp_path, monkeypatch):
    cfg = _write(tmp_path / "run.cfg", """
[problem]
family = lasso
m = 8
n = 16
s = 2
seed = 0

[solver:boom]
method = fista
iters = 50

[solver:good]
method = ista
iters = 50
""")

    import varprox.baselines as bl
    orig = bl.run_ista

    def sometimes_boom(*args, **kwargs):
        if kwargs.get("accel") == "fista":
            raise RuntimeError("synthetic failure")
        return orig(*args, **kwargs)

    monkeypatch.setattr(cli.baselines, "run_ista", sometimes_boom)
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert (out / "good.csv").exists()
    assert not (out / "boom.csv").exists()


def test_phase_full_rank_and_empty(tmp_path):
    cfg = _write(tmp_path / "phase.cfg", """
[phase]
n = 12
s = 2
t = 1
q = 2/3
trials = 4
m_grid = 0 12
methods = varpro2 irls
restarts = 1
seed = 0
""")
    out = tmp_path / "out"
    assert cli.main(["phase", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "phase.csv")
    assert rows[0] == ["m", "method", "successes", "trials"]
    table = {(r[0], r[1]): int(r[2]) for r in rows[1:]}
    # a square full-rank noiseless system is always recovered
    assert table[("12", "varpro2")] == 4
    assert table[("12", "irls")] == 4
    # no measurements, no recovery
    assert table[("0", "varpro2")] == 0
    assert table[("0", "irls")] == 0


def test_phase_scores_a_failed_solve_as_a_failure(tmp_path, monkeypatch):
    # a failed solve (x=None) used to become a zero estimate, whose relative
    # error 1 counts as recovered under any threshold above 1
    calls = []

    def no_answer(prob, cfg, restarts):
        calls.append(1)
        return SimpleNamespace(x=None, objective=np.inf)

    monkeypatch.setattr(cli, "solve_lq_option2", no_answer)
    cfg = _write(tmp_path / "phase.cfg", """
[phase]
n = 10
s = 2
trials = 2
m_grid = 6
methods = varpro2
threshold = 2
seed = 0
""")
    out = tmp_path / "out"
    assert cli.main(["phase", "--config", cfg, "--out", str(out)]) == 0
    assert len(calls) == 2
    assert _read_csv(out / "phase.csv")[1] == ["6", "varpro2", "0", "2"]


def test_phase_rejects_a_q_that_varpro2_does_not_solve(tmp_path):
    # varpro2 always solves q = 2/3; with another q the table would compare
    # IRLS at that q with varpro2 at 2/3
    text = """
[phase]
n = 10
s = 2
trials = 1
m_grid = 6
methods = {methods}
q = {q}
seed = 0
"""
    out = tmp_path / "out"
    bad = _write(tmp_path / "bad.cfg", text.format(methods="irls varpro2", q="1/2"))
    assert cli.main(["phase", "--config", bad, "--out", str(out)]) == 1
    assert not out.exists()
    irls = _write(tmp_path / "irls.cfg", text.format(methods="irls", q="1/2"))
    assert cli.main(["phase", "--config", irls, "--out", str(out)]) == 0
    ok = _write(tmp_path / "ok.cfg", text.format(methods="varpro2", q="2/3"))
    assert cli.main(["phase", "--config", ok, "--out", str(out)]) == 0


def test_phase_rejects_an_unknown_method_before_any_cell(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli.baselines, "run_irls",
                        lambda *args, **kwargs: calls.append(1))
    cfg = _write(tmp_path / "phase.cfg", """
[phase]
n = 10
s = 2
trials = 1
m_grid = 6
methods = irls foo
seed = 0
""")
    out = tmp_path / "out"
    assert cli.main(["phase", "--config", cfg, "--out", str(out)]) == 1
    assert calls == []
    assert not out.exists()


def test_cmd_phase_accepts_threads_1_only(tmp_path):
    config = cli._parse_config(_write(tmp_path / "phase.cfg", """
[phase]
n = 10
s = 2
trials = 1
m_grid = 6
methods = irls
"""))
    out = tmp_path / "out"
    with pytest.raises(cli.ConfigError):
        cli.cmd_phase(config, str(out), threads=2)
    assert not out.exists()
    assert cli.cmd_phase(config, str(out), threads=1) == 0


def test_usage_errors_exit_1_and_help_exits_0(tmp_path, capsys):
    # exit status 2 means a solver failed, so argparse's own 2 is not kept
    cfg = _write(tmp_path / "phase.cfg", "[phase]\nn = 10\nm_grid = 6\n")
    out = tmp_path / "out"
    assert cli.main(["run"]) == 1
    assert cli.main(["phase", "--config", cfg, "--out", str(out),
                     "--threads", "2"]) == 1
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["--help"]) == 0
    assert "usage: varprox" in capsys.readouterr().out


def test_run_prints_each_solver_stop_reason(tmp_path, capsys):
    cfg = _write(tmp_path / "run.cfg", """
[problem]
family = lasso
m = 10
n = 20

[solver:varpro]
method = varpro-lbfgs
max_iter = 3

[solver:fista]
iters = 5
""")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("varpro: stopped on max_iter after ")
    assert " evaluations (" in lines[0]
    assert lines[1] == "fista: ran 6 records, no stop reason recorded"


def test_run_reports_the_gap_checks_of_a_certified_stop(tmp_path, capsys):
    # a TV denoising run keeps the stop line's prefix and appends its gap
    # checks and their dual steps, as listed in the trace
    cfg = _write(tmp_path / "run.cfg", """
[problem]
family = tv-denoise

[solver:varpro]
method = varpro-lbfgs
""")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    [line] = capsys.readouterr().out.splitlines()
    assert line.startswith("varpro: stopped on certified after ")
    found = re.fullmatch(r".* evaluations \(\d+ rejected line-search trials; "
                         r"(\d+) gap checks, (\d+) dual steps\)", line)
    checks, steps = int(found[1]), int(found[2])
    assert 1 <= checks <= steps <= checks * DUAL_STEPS


def test_reconstruct_small_lambda_returns_input(tmp_path):
    cfg = _write(tmp_path / "rec.cfg", """
[reconstruct]
task = tv-denoise
height = 6
width = 6
channels = 3
lambda = 1e-8
noise_std = 0
seed = 0
max_iter = 200
""")
    out = tmp_path / "out"
    assert cli.main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
    recon = load_ppm(out / "reconstruction.ppm")
    # with vanishing regularization and no noise the output is the input,
    # up to 8-bit quantization
    section = cli._parse_config(cfg)["reconstruct"]
    img = cli._synthetic_image(6, 6, 3, 0)
    assert np.abs(np.moveaxis(img, 0, 2) - recon).max() < 1e-2
    assert (out / "residual.pgm").exists()
    load_pgm(out / "residual.pgm")


def test_reconstruct_huge_lambda_gives_channel_means(tmp_path):
    cfg = _write(tmp_path / "rec.cfg", """
[reconstruct]
task = tv-denoise
height = 5
width = 5
channels = 3
lambda = 1e4
noise_std = 0.05
seed = 1
max_iter = 300
""")
    out = tmp_path / "out"
    assert cli.main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
    recon = load_ppm(out / "reconstruction.ppm")
    for t in range(3):
        chan = recon[:, :, t]
        assert chan.max() - chan.min() < 2e-2


def test_reconstruct_inpaint_keeps_observed_pixels(tmp_path, rng):
    img = rng.uniform(0.2, 0.8, (6, 6, 3))
    src = tmp_path / "src.ppm"
    save_ppm(src, img)
    cfg = _write(tmp_path / "rec.cfg", f"""
[reconstruct]
task = tv-inpaint
image = {src}
keep_fraction = 0.5
lambda = 1e-4
seed = 0
max_iter = 300
""")
    out = tmp_path / "out"
    assert cli.main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
    recon = load_ppm(out / "reconstruction.ppm")
    from varprox.problems import make_inpainting_mask
    op = make_inpainting_mask(6, 6, 0.5, seed=2, channels=3)
    clean = np.moveaxis(load_ppm(src), 2, 0).ravel()
    rec = np.moveaxis(recon, 2, 0).ravel()
    kept_err = np.abs(op.apply(rec) - op.apply(clean)).max()
    assert kept_err < 2e-2


def test_fig4_recipe_emits_two_svgs(tmp_path):
    # fixed-step and spectral-step panels of the rate comparison
    for step, name in (("fixed-mg", "fixed"), ("bb", "bb")):
        cfg = _write(tmp_path / f"f4_{name}.cfg", f"""
[problem]
family = fourier
n = 60
cutoff = 2
spikes = 1
lambda_frac = 1/10
seed = 0

[solver:ista]
method = ista
iters = 300

[solver:hadamard]
method = hadamard-gd
step = {step}
iters = 300
""")
        out = tmp_path / f"out_{name}"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        ET.parse(out / "convergence.svg")
    assert (tmp_path / "out_fixed" / "convergence.svg").read_text() \
        != (tmp_path / "out_bb" / "convergence.svg").read_text()


def test_run_wall_clock_budget_skips_remaining(tmp_path):
    cfg = _write(tmp_path / "run.cfg", """
[problem]
family = lasso
m = 10
n = 20
s = 2
seed = 0

[budget]
max_seconds = 1e-9

[solver:first]
method = ista
iters = 50

[solver:second]
method = fista
iters = 50
""")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    # the budget is exhausted before any solver runs after the first check
    assert not (out / "second.csv").exists()


def test_budget_must_be_positive(tmp_path):
    cfg = _write(tmp_path / "run.cfg", """
[problem]
family = lasso
m = 8
n = 16
s = 2

[budget]
max_seconds = -1

[solver:a]
method = ista
iters = 10
""")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


FIG4_RECIPE = """
[problem]
family = fourier
n = 60
cutoff = 2
spikes = 1
lambda_frac = 1/10
seed = 0

[solver:ista]
method = ista
iters = 300

[solver:hadamard]
method = hadamard-gd
step = {step}
iters = 300
"""


def test_fig4_bb_run_is_monotone_and_says_why_it_stopped(tmp_path, capsys):
    finals = {}
    for step in ("fixed-mg", "bb"):
        cfg = _write(tmp_path / f"{step}.cfg", FIG4_RECIPE.format(step=step))
        out = tmp_path / step
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        finals[step] = [float(row[1])
                        for row in _read_csv(out / "hadamard.csv")[1:]]
    bb = finals["bb"]
    # the line search keeps every accepted Barzilai-Borwein step a descent
    assert all(b <= a for a, b in zip(bb, bb[1:]))
    assert bb[-1] <= finals["fixed-mg"][-1]
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "hadamard: stopped on ")


def test_bb_hadamard_reaches_varpro_on_the_group_lasso_example(tmp_path):
    cfg = _write(tmp_path / "run.cfg", """
[problem]
family = group-lasso
m = 20
n = 60
group_size = 3
lambda_frac = 0.1
seed = 0

[solver:varpro]
method = varpro-lbfgs
max_iter = 500

[solver:hadamard]
method = hadamard-gd
step = bb
iters = 2000
""")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    f_vp = float(_read_csv(out / "varpro.csv")[-1][1])
    f_hd = float(_read_csv(out / "hadamard.csv")[-1][1])
    assert abs(f_hd - f_vp) <= 1e-9 * abs(f_vp)


# problem sizes of the rejection test, one per family
SMALL_SIZES = {"sqrt-lasso": "m = 20\nn = 40", "tv-l1": "height = 4\nwidth = 4",
               "tv-denoise": "height = 4\nwidth = 4",
               "group-lasso": "m = 20\nn = 60", "lasso": "m = 20\nn = 60"}


@pytest.mark.parametrize("family,method", [
    ("sqrt-lasso", "fista"), ("sqrt-lasso", "admm"),
    ("sqrt-lasso", "bpgd-hyperbolic"), ("tv-l1", "admm"),
    ("tv-denoise", "bpgd-quadratic"), ("tv-denoise", "fista"),
    ("tv-denoise", "hadamard-gd"), ("group-lasso", "bpgd-quadratic"),
    ("lasso", "scaled-lasso")])
def test_run_rejects_a_baseline_on_a_problem_it_does_not_solve(
        tmp_path, capsys, family, method):
    cfg = _write(tmp_path / "run.cfg", f"""
[problem]
family = {family}
{SMALL_SIZES[family]}
seed = 0

[solver:base]
method = {method}
iters = 50
""")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert method in err and family in err
    assert not (out / "base.csv").exists()


def test_run_csv_cells_all_parse_as_floats(tmp_path):
    cfg = _write(tmp_path / "run.cfg", """
[problem]
family = sqrt-lasso
m = 30
n = 100
seed = 0

[solver:varpro]
method = varpro-lbfgs
max_iter = 500

[solver:scaled]
method = scaled-lasso
""")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    for name in ("varpro", "scaled"):
        for row in _read_csv(out / f"{name}.csv")[1:]:
            for cell in row:
                float(cell)


def test_run_checks_every_solver_section_before_the_first_solve(
        tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "solve_varpro",
                        lambda *args, **kwargs: calls.append(1))
    cfg = _write(tmp_path / "run.cfg", """
[problem]
family = tv-denoise
height = 12
width = 12
channels = 3

[solver:varpro]
method = varpro-lbfgs

[solver:fista]
method = fista
""")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert "fista does not solve the tv-denoise family" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def _stub_solves(monkeypatch):
    """Replace every solve ``varprox run``, ``phase`` and ``reconstruct``
    can start by a recorder; returns the list of recorded calls."""
    calls = []
    for owner, name in (
            (cli, "solve_varpro"), (cli, "solve_lq_option2"), (cli, "run_bpgd"),
            (cli, "run_gd"), (cli, "minimize_gd_bb"),
            (cli.baselines, "run_ista"), (cli.baselines, "run_admm"),
            (cli.baselines, "run_primal_dual"), (cli.baselines, "run_scaled_lasso"),
            (cli.baselines, "run_irls")):
        monkeypatch.setattr(owner, name, lambda *args, **kwargs: calls.append(1))
    return calls


LASSO_RUN = "[problem]\nfamily = lasso\n[solver:a]\nmethod = fista\n"


# values that do not parse, that a generator, file reader or solver config
# rejects, keys that nothing reads and sections that no command reads
@pytest.mark.parametrize("command, text, message", [
    ("run", "[problem]\nfamily = lasso\n[solver:a]\nmethod = ista\n"
     "iters = ten\n[solver:b]\nmethod = fista\n", "[solver:a] invalid literal"),
    ("run", "[problem]\nfamily = lasso\nm = ten\n[solver:a]\nmethod = fista\n",
     "[problem] invalid literal"),
    ("run", "[problem]\nfamily = lasso\nn = 16\ns = 40\n"
     "[solver:a]\nmethod = fista\n", "[problem] sparsity exceeds dimension"),
    ("phase", "[phase]\nn = ten\n", "[phase] invalid literal"),
    ("phase", "[phase]\nn = 16\ns = 40\n", "s = 40 exceeds n = 16"),
    ("reconstruct", "[reconstruct]\nheight = x\n", "[reconstruct] invalid literal"),
    ("run", "[problem]\nfamily = lasso\n[solver:a]\nmethod = varpro\n"
     "grad_tol = 0\n[solver:b]\nmethod = fista\n", "[solver:a] grad_tol > 0 required"),
    ("run", LASSO_RUN.replace("fista", "varpro\nmax_iter = -1"),
     "[solver:a] max_iter >= 0 required"),
    ("run", LASSO_RUN + "iters = -1\n", "[solver:a] a step budget is >= 0, got -1"),
    ("run", LASSO_RUN.replace("lasso", "lasso\nlambda_fraq = 0.2"),
     "[problem] unknown key lambda_fraq (known here: "),
    ("run", LASSO_RUN.replace("lasso", "fourier\nm = 20"), "[problem] unknown key m"),
    ("run", "[problem]\nfamily = tv-l1\nheight = 4\nwidth = 4\nnoise_std = 0.1\n"
     "[solver:a]\nmethod = varpro\n", "[problem] unknown key noise_std"),
    ("run", LASSO_RUN.replace("lasso", "tv-denoise\nimage = {image}\nheight = 4"),
     "[problem] unknown key height"),
    ("run", LASSO_RUN.replace("lasso", "tv-denoise\nimage = {image}.missing"),
     "[problem] [Errno 2] No such file"),
    ("run", LASSO_RUN + "[budget]\nmax_second = 1\n", "[budget] unknown key max_second"),
    ("phase", "[phase]\nn = 10\ns = 2\nm_grid = 6\nrestart = 2\n",
     "[phase] unknown key restart"),
    ("reconstruct", "[reconstruct]\nheight = 4\nwidth = 4\niters = 5\n",
     "[reconstruct] unknown key iters"),
    ("run", LASSO_RUN + "[solvers:b]\nmethod = ista\n",
     "unknown section [solvers:b] (known here: problem, budget, solver:*)"),
    ("phase", "[phase]\nn = 10\ns = 2\nm_grid = 6\n[phases]\ntrials = 2\n",
     "unknown section [phases]"),
    ("reconstruct", "[reconstruct]\nheight = 4\nwidth = 4\n[solver:a]\n"
     "method = varpro\n", "unknown section [solver:a]"),
    ("phase", "[phase]\nn = 10\ns = 2\nm_grid = 6\ntrials = -1\n",
     "[phase] a step budget is >= 0, got -1"),
    ("phase", "[phase]\nn = 10\ns = 2\nm_grid = -3 8\n",
     "[phase] a step budget is >= 0, got -3"),
    ("phase", "[phase]\nn = 10\ns = 2\nm_grid = 6\nrestarts = 0\n",
     "[phase] restarts >= 1 required, got 0"),
    ("phase", "[phase]\nn = 10\ns = 2\nm_grid =\n",
     "[phase] m_grid and methods name at least one entry each"),
    ("phase", "[phase]\nn = 10\ns = 2\nm_grid = 6\nmethods =\n",
     "[phase] m_grid and methods name at least one entry each"),
    ("phase", "[phase]\nn = 10\ns = 2\nm_grid = 6\nt = 0\n",
     "[phase] t >= 1 required, got 0"),
    ("phase", "[phase]\nn = 10\ns = -1\nm_grid = 6\n",
     "[phase] a step budget is >= 0, got -1"),
    ("phase", "[phase]\nn = 10\ns = 2\nm_grid = 6\nq = 3\nmethods = irls\n",
     "[phase] 0 < q <= 2 required, got 3"),
    ("phase", "[phase]\nn = 0\ns = 0\nm_grid = 4\ntrials = 1\n",
     "[phase] n >= 1 required, got 0"),
    ("phase", "[phase]\nn = 8\ns = 2\nm_grid = 4\ntrials = 1\nthreshold = -1\n",
     "[phase] a positive finite threshold is required, got -1"),
    ("phase", "[phase]\nn = 8\ns = 2\nm_grid = 4\ntrials = 1\nthreshold = nan\n",
     "[phase] a positive finite threshold is required, got nan"),
    ("phase", "[phase]\nn = 8\ns = 2\nm_grid = 4\ntrials = 1\nthreshold = inf\n",
     "[phase] a positive finite threshold is required, got inf"),
    ("run", LASSO_RUN.replace("fista", "varpro\ngrad_tol = inf"),
     "[solver:a] grad_tol > 0 required (a finite value), got inf"),
    ("run", LASSO_RUN.replace("fista", "varpro\ngrad_tol = nan"),
     "[solver:a] grad_tol > 0 required (a finite value), got nan"),
    ("run", LASSO_RUN.replace("lasso", "lasso\nlambda = nan"),
     "[problem] lambda > 0 required (a finite value), got nan"),
    ("run", LASSO_RUN.replace("lasso", "lasso\nlambda = inf"),
     "[problem] lambda > 0 required (a finite value), got inf"),
    ("run", LASSO_RUN.replace("lasso", "lasso\nlambda = 0"),
     "[problem] lambda > 0 required (a finite value), got 0"),
    ("run", LASSO_RUN.replace("lasso", "lasso\nlambda = -1"),
     "[problem] lambda > 0 required (a finite value), got -1"),
    ("run", LASSO_RUN.replace("lasso", "lasso\nlambda_frac = nan"),
     "[problem] lambda_frac > 0 required (a finite value), got nan"),
    ("run", LASSO_RUN.replace("lasso", "lasso\nnoise_std = nan"),
     "[problem] noise_std >= 0 required (a finite value), got nan"),
    ("run", LASSO_RUN + "[budget]\nmax_seconds = nan\n",
     "[budget] max_seconds > 0 required (a finite value), got nan"),
    ("reconstruct", "[reconstruct]\nheight = 4\nwidth = 4\nlambda = -0.5\n",
     "[reconstruct] lambda > 0 required (a finite value), got -0.5"),
    ("reconstruct", "[reconstruct]\nheight = 4\nwidth = 4\nnoise_std = nan\n",
     "[reconstruct] noise_std >= 0 required (a finite value), got nan"),
    ("reconstruct", "[reconstruct]\nheight = 4\nwidth = 4\ngrad_tol = inf\n",
     "[reconstruct] grad_tol > 0 required (a finite value), got inf"),
], ids=["solver-iters", "problem-m", "problem-s", "phase-n", "phase-s",
        "reconstruct-height", "solver-grad_tol", "solver-max_iter",
        "solver-negative-iters", "problem-key", "fourier-key", "tv-l1-key",
        "image-and-height", "image-missing", "budget-key", "phase-key",
        "reconstruct-key", "run-section", "phase-section", "reconstruct-section",
        "phase-trials", "phase-m_grid", "phase-restarts", "phase-empty-m_grid",
        "phase-empty-methods", "phase-t", "phase-negative-s", "phase-q",
        "phase-n-zero", "phase-negative-threshold", "phase-nan-threshold",
        "phase-inf-threshold", "solver-inf-grad_tol", "solver-nan-grad_tol",
        "problem-nan-lambda", "problem-inf-lambda", "problem-zero-lambda",
        "problem-negative-lambda", "problem-nan-lambda_frac",
        "problem-nan-noise_std", "budget-nan-max_seconds",
        "reconstruct-negative-lambda", "reconstruct-nan-noise_std",
        "reconstruct-inf-grad_tol"])
def test_a_value_that_does_not_parse_is_a_config_error_before_any_work(
        tmp_path, monkeypatch, capsys, command, text, message):
    calls = _stub_solves(monkeypatch)
    image = tmp_path / "img.ppm"
    save_ppm(image, np.full((4, 4, 3), 0.5))
    text = text.format(image=image)
    cfg = _write(tmp_path / "bad.cfg", text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("method,step", [("nope", "bb"),
                                         ("hadamard-gd", "0.01")])
def test_run_rejects_an_unknown_method_or_step(tmp_path, capsys, method, step):
    cfg = _write(tmp_path / "run.cfg", f"""
[problem]
family = lasso
m = 20
n = 60

[solver:h]
method = {method}
step = {step}
iters = 50
""")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_ista_bb_never_raises_its_objective_on_the_fig4_recipe(tmp_path):
    cfg = _write(tmp_path / "run.cfg", """
[problem]
family = fourier
n = 60
cutoff = 2
spikes = 1
lambda_frac = 1/10
seed = 0

[solver:ista]
method = ista
iters = 300

[solver:bb]
method = ista-bb
iters = 300
""")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    objs = {name: [float(row[1]) for row in _read_csv(out / f"{name}.csv")[1:]]
            for name in ("ista", "bb")}
    bb = objs["bb"]
    assert len(bb) == 301
    assert all(b <= a + 1e-12 * abs(a) for a, b in zip(bb, bb[1:]))
    assert bb[-1] <= objs["ista"][-1]


# one config per family; each method's best objective against varpro's
COMPARED = {"lasso": "m = 20\nn = 60",
            "overlap-group-lasso": "m = 20\nn = 60",
            "tv-l1": "height = 4\nwidth = 4\nchannels = 3"}


@pytest.mark.parametrize("family,method,rtol", [
    ("lasso", "admm", 1e-9), ("lasso", "primal-dual", 1e-9),
    ("lasso", "ista-bb", 1e-9), ("lasso", "bpgd-hyperbolic", 5e-7),
    ("lasso", "bpgd-quadratic", 4e-4),
    ("overlap-group-lasso", "admm", 1e-9),
    ("overlap-group-lasso", "primal-dual", 1e-9),
    ("tv-l1", "primal-dual", 1e-9)])
def test_run_method_reaches_varpro_objective(tmp_path, family, method, rtol):
    cfg = _write(tmp_path / "run.cfg", f"""
[problem]
family = {family}
{COMPARED[family]}
seed = 0

[solver:varpro]
method = varpro-lbfgs
max_iter = 500

[solver:base]
method = {method}
iters = 3000
""")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    best = {name: min(float(row[1]) for row in _read_csv(out / f"{name}.csv")[1:])
            for name in ("varpro", "base")}
    gap = (best["base"] - best["varpro"]) / abs(best["varpro"])
    assert -1e-9 <= gap <= rtol


@pytest.mark.parametrize("family,method,stray", [
    ("lasso", "varpro", "iters = 100"), ("lasso", "varpro-lbfgs", "iter = 5"),
    ("lasso", "varpro-gd-bb", "tau = 1"), ("lasso", "primal-dual", "tau = 1"),
    ("lasso", "ista", "iter = 5"), ("lasso", "fista", "iter = 5"),
    ("lasso", "ista-bb", "max_iter = 5"), ("lasso", "hadamard-gd", "grad_tol = 1e-6"),
    ("lasso", "bpgd-quadratic", "entropy_c = 0.1"),
    ("lasso", "bpgd-hyperbolic", "entropy = 0.1"), ("lasso", "admm", "rho = 1"),
    ("sqrt-lasso", "scaled-lasso", "iters = 5")])
def test_run_rejects_a_key_the_method_does_not_read(
        tmp_path, monkeypatch, capsys, family, method, stray):
    calls = _stub_solves(monkeypatch)
    text = f"""
[problem]
family = {family}
m = 20
n = 60

[solver:a]
method = {method}
"""
    config = cli._parse_config(_write(tmp_path / "good.cfg", text))
    prob, extras = cli.build_problem(config["problem"])
    assert callable(cli._solver_run(config["solver:a"], family, prob, extras))
    cfg = _write(tmp_path / "run.cfg", text + stray + "\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
    key = stray.split(" =")[0]
    assert capsys.readouterr().err.startswith(
        f"config error: [solver:a] unknown key {key} (known here: ")
    assert calls == [] and not out.exists()

