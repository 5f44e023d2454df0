"""Fast self-test of the benchmark on tiny sizes.

    python3 perfbench/selftest.py

Runs every workload at self-test sizes (group lasso 20x60, TV 4x4x3, a phase
cell with one trial), untraced and traced, and checks that

* every metric of BENCHMARK.json is printed with its unit, for every
  workload, and the last stdout line is the JSON result;
* the workloads match BENCHMARK.json, name and reason;
* spans nest inside their parents;
* the per-layer self times add up to the traced wall time;
* in a directory holding only BENCHMARK.json and the benchmark, the
  command fails without printing a result.

Exits 0 when every check passes.
"""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import bootstrap

bootstrap.prepare()

import run  # noqa: E402  (after the BLAS threads are pinned)
import tracing  # noqa: E402
import workloads  # noqa: E402

# Metrics printed on every untraced run besides the end-to-end ones.
SHOWN = {"solve_s": "s", "solve_wall_s": "s", "speed_scale": "ratio",
         "probe_fast_ms": "ms", "evals": "count", "outer_iters": "count",
         "steps": "count", "ref_steps": "count", "step_ms": "ms",
         "fail_rate": "ratio"}
# The per-layer self times that partition the traced wall time.
SELF_TIMES = ("linops.matvec_s", "linops.densify_s", "inner.assembly_s",
              "inner.factor_s", "varpro.envelope_s", "varpro.solver_s",
              "optim.self_s", "baselines.irls_s", "cli.self_s", "bench.self_s")


class Failures(list):
    def expect(self, ok, what):
        if not ok:
            self.append(what)
            print(f"FAIL {what}")


def run_tiny(name, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", name, "--tiny", "--seconds", "0.2",
                         "--trace", str(trace)])
    return code, buf.getvalue().splitlines()


def printed(lines, name, unit):
    return any(line.split()[:1] == [name] and f" {unit}" in line
               for line in lines)


def check_spans(fails, name, path, metrics):
    spans = []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            spans.append([rec["name"], rec["kind"], rec["start"], rec["end"],
                          rec["parent"], rec["info"]])
    for i, (_, _, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            _, _, p_start, p_end, _, _ = spans[parent]
            fails.expect(parent < i and p_start <= start <= end <= p_end,
                         f"{name}: span {i} does not nest in span {parent}")
    self_s, _ = tracing.partition(spans)
    wall = sum(s[3] - s[2] for s in spans if s[4] < 0)
    for total, what in ((sum(self_s), "span self times"),
                        (sum(metrics[m]["value"] for m in SELF_TIMES),
                         "per-layer self times")):
        fails.expect(math.isclose(total, wall, rel_tol=1e-6, abs_tol=1e-6),
                     f"{name}: {what} add to {total!r}, traced wall {wall!r}")
    fails.expect(math.isclose(wall, metrics["trace.solve_s"]["value"],
                              rel_tol=1e-9),
                 f"{name}: trace.solve_s is not the root spans' wall time")


def check_bare_directory(fails):
    """The command must fail, printing no result, without the sources."""
    bare = os.path.join(bootstrap.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bootstrap.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(bootstrap.ROOT, "BENCHMARK.json"), bare)
    with open(os.path.join(bare, "BENCHMARK.json")) as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run(command + ["--workload", "glasso-200x2000", "--seed",
                                     "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    fails.expect(proc.returncode != 0, "bare directory: exit status 0")
    fails.expect('"metrics"' not in proc.stdout,
                 "bare directory: a result was printed")
    shutil.rmtree(bare)


def main():
    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    fails = Failures()
    wls = workloads.make_workloads(tiny=True)
    fails.expect([(w["name"], w["why"]) for w in spec["workloads"]]
                 == [(w.name, w.why) for w in wls.values()],
                 "BENCHMARK.json workloads differ from make_workloads()")
    for name in wls:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, lines = run_tiny(name, trace)
            fails.expect(code == 0, f"{name} trace {trace}: exit status {code}")
            result = json.loads(lines[-1])
            fails.expect(sorted(result) == ["attempted", "correct", "failed",
                                            "metrics"],
                         f"{name} trace {trace}: result keys {sorted(result)}")
            fails.expect(result["correct"] and result["failed"] == 0
                         and result["attempted"] >= 1,
                         f"{name} trace {trace}: answers failed")
            metrics = result["metrics"]
            fails.expect(sorted(metrics) == sorted(m["name"] for m in declared),
                         f"{name} trace {trace}: metrics {sorted(metrics)}")
            for m in declared:
                got = metrics.get(m["name"], {})
                fails.expect(got.get("unit") == m["unit"]
                             and isinstance(got.get("value"), (int, float))
                             and printed(lines[:-1], m["name"], m["unit"]),
                             f"{name} trace {trace}: {m['name']} not printed "
                             f"in {m['unit']}")
            if trace == 0:
                shown = dict(SHOWN)
                if name.startswith("phase"):
                    shown["recovery_rate"] = "ratio"
                for metric, unit in shown.items():
                    fails.expect(printed(lines[:-1], metric, unit),
                                 f"{name}: {metric} not printed in {unit}")
            else:
                path = os.path.join(bootstrap.OUT, "tiny", f"{name}-seed0",
                                    f"spans-{name}-seed0.jsonl")
                check_spans(fails, name, path, metrics)
    check_bare_directory(fails)
    print(f"selftest: {len(fails)} failure(s)")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
