"""The README's examples run as written."""

import re
from pathlib import Path

from varprox import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading, lang, first_line=""):
    """The first ``lang`` code block after ``heading`` that starts with
    ``first_line``."""
    section = README[README.index(heading):]
    pattern = rf"```{lang}\n({re.escape(first_line)}.*?)```"
    return re.search(pattern, section, re.S).group(1)


def test_quick_start_runs(capsys):
    exec(_block("## Quick start", "python"), {})
    assert capsys.readouterr().out


def test_cli_bench_cfg_runs(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(_block("## CLI", "ini", "# bench.cfg"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "admm.csv", "convergence.svg", "fista.csv", "varpro.csv"]
