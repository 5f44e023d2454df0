"""varprox benchmark: one workload per run, timed end to end or traced.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced pass (spans written under ``perfbench/out/``).  Human
readable lines come first; the last line of stdout is the JSON result.  The
exit status is 1 when any answer fails its check.  See perfbench/README.md.
"""

import bootstrap

bootstrap.prepare()

# The imports below load numpy, so they follow prepare().
import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# The timed loop runs at least this many repetitions, so that its median
# shrugs off one repetition the speed probe scaled badly.
MIN_REPS = 3
# Set-up takes milliseconds, so after each solve it is repeated until both
# floors are met; the median over the run is reported.
SETUP_MIN_REPS = 10
SETUP_MIN_SECONDS = 0.2

END_TO_END_UNITS = {"setup_s": "s", "ref_step_ms": "ms", "peak_heap_mb": "MB"}


def environment():
    def blas(mod):
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (TypeError, KeyError):
            return "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        **{var: os.environ.get(var) for var in bootstrap.BLAS_VARS},
    }


class Tally:
    """Applies a workload's check to every answer and counts the outcomes."""

    def __init__(self, check):
        self.check = check
        self.attempted = 0
        self.failed = 0

    def __call__(self, inputs, outcome, counts=None):
        attempted, failed = self.check(inputs, outcome, counts)
        self.attempted += attempted
        self.failed += failed


def timed_loop(wl, seed, seconds, out_dir, check, speed):
    """Repeat until ``seconds`` have passed, at least ``MIN_REPS`` times:
    build fresh inputs, solve, then time more set-ups, each under the speed
    probe.
    Returns the scaled set-up times, per repetition the solve time unscaled
    and scaled and the set-up of its inputs (unscaled, scaled), the scales,
    and the last outcome."""
    clock = time.perf_counter
    setups, solves, scaled, own_setups, scales = [], [], [], [], []
    deadline = clock() + seconds
    outcome = None
    while len(solves) < MIN_REPS or clock() < deadline:
        inputs, t, scale = speed.timed(wl.setup, seed)
        setups.append(t * scale)
        own_setups.append((t, t * scale))
        outcome, t, scale = speed.timed(wl.solve, inputs, out_dir)
        check(inputs, outcome)
        solves.append(t)
        scaled.append(t * scale)
        scales.append(scale)
        n, t_end = 0, clock() + SETUP_MIN_SECONDS
        while n < SETUP_MIN_REPS or clock() < t_end:
            _, t, scale = speed.timed(wl.setup, seed)
            setups.append(t * scale)
            n += 1
    return setups, solves, scaled, own_setups, scales, outcome


def end_to_end(wl, seed, seconds, out_dir, check, speed, ref_steps):
    # Heap pass, which also warms caches before timing: counting wrappers
    # only, tracemalloc started once the inputs exist.
    inputs = wl.setup(seed)
    with tracing.Instruments(spans=False) as inst:
        tracemalloc.start()
        try:
            outcome = wl.solve(inputs, out_dir)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    check(inputs, outcome, inst.counts)
    counts = inst.counts

    setups, solves, scaled, own_setups, scales, outcome = timed_loop(
        wl, seed, seconds, out_dir, check, speed)
    if wl.solve_repeats_setup:      # count the set-up work once, in setup_s
        solves = [t - raw for t, (raw, _) in zip(solves, own_setups)]
        scaled = [t - s for t, (_, s) in zip(scaled, own_setups)]
    solve_s = statistics.median(scaled)
    steps = wl.steps(counts)

    metrics = {
        "setup_s": statistics.median(setups),
        "ref_step_ms": 1e3 * solve_s / ref_steps,
        "peak_heap_mb": peak / 1e6,
    }
    shown = {
        "solve_s": (solve_s, "s"),
        "solve_wall_s": (statistics.median(solves), "s"),
        "speed_scale": (statistics.median(scales), "ratio"),
        "probe_fast_ms": (1e3 * statistics.quantiles(speed.durations, n=10)[0],
                          "ms"),
        "evals": (counts["evals"], "count"),
        "outer_iters": (counts["iters"], "count"),
        "inf_evals": (counts["inf_evals"], "count"),
        "steps": (steps, "count"),
        "ref_steps": (ref_steps, "count"),
        "step_ms": (1e3 * solve_s / steps, "ms"),
        **wl.extra_metrics(outcome),
    }
    notes = {"setup_s": f"median of {len(setups)}, each scaled",
             "solve_s": f"median of {len(solves)} repetitions, each scaled",
             "solve_wall_s": "the same, unscaled",
             "speed_scale": f"{probe.REF_S:g} s / probe kernel time",
             "probe_fast_ms": f"first decile of {len(speed.durations)} "
                              "probe kernel runs",
             "ref_step_ms": "solve_s / ref_steps",
             "steps": wl.STEPS,
             "ref_steps": "steps stored with the references",
             "step_ms": "solve_s / steps"}
    samples = {"solve_wall_s": solves, "solve_s": scaled,
               "speed_scale": scales, "setup_s": setups,
               "probe_kernel_s": speed.durations}
    return metrics, shown, notes, samples


def traced(wl, seed, seconds, out_dir, check, speed):
    _, solves, _, _, _, _ = timed_loop(wl, seed, seconds, out_dir, check,
                                       speed)
    untraced = statistics.median(solves)
    inputs = wl.setup(seed)
    with tracing.Instruments(spans=True) as inst:
        with inst.span("bench.solve"):
            outcome = wl.solve(inputs, out_dir)
    check(inputs, outcome, inst.counts)
    spans = inst.spans
    path = os.path.join(out_dir, f"spans-{wl.name}-seed{seed}.jsonl")
    tracing.write_spans(spans, path, wl.name)
    wall = sum(s[3] - s[2] for s in spans if s[4] < 0)
    layers = tracing.layer_metrics(spans)
    layers["trace.solve_s"] = (wall, "s")
    layers["trace.untraced_solve_s"] = (untraced, "s")
    layers["trace.overhead_pct"] = (100.0 * (wall / untraced - 1.0), "%")
    metrics = {name: value for name, (value, _) in layers.items()}
    units = {name: unit for name, (_, unit) in layers.items()}
    notes = {"trace.untraced_solve_s": f"median of {len(solves)} untraced",
             "trace.overhead_pct": "traced vs untraced solve_s",
             "bench.self_s": f"{len(spans)} spans in {os.path.relpath(path, bootstrap.ROOT)}"}
    return metrics, units, notes, {"untraced_solve_s": solves}


def main(argv=None):
    parser = argparse.ArgumentParser(description="varprox benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.make_workloads()))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (perfbench/selftest.py)")
    args = parser.parse_args(argv)

    wl = workloads.make_workloads(tiny=args.tiny)[args.workload]
    seed = workloads.stored_seed(args.seed)
    out_dir = os.path.join(bootstrap.OUT, "tiny" if args.tiny else "",
                           f"{wl.name}-seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    # The committed references are for the full sizes only.
    cache = os.path.join(bootstrap.OUT, "tiny-references.json" if args.tiny
                         else "references-cache.json")
    stored = [] if args.tiny else [os.path.join(bootstrap.HERE, "references.json")]
    references = workloads.References(stored + [cache], cache)
    entries = references.lookup(wl, wl.instance_seeds(seed))
    ref_steps = sum(entry["steps"] for entry in entries.values())
    check = Tally(wl.checker(entries))
    speed = probe.Probe()
    env = environment()
    print(f"workload {wl.name} seed {args.seed} (instances of seed {seed}; "
          f"held-out seed {workloads.HELD_OUT_SEED}) seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        metrics, units, notes, samples = traced(wl, seed, args.seconds,
                                                out_dir, check, speed)
        shown = {}
    else:
        metrics, shown, notes, samples = end_to_end(wl, seed, args.seconds,
                                                    out_dir, check, speed,
                                                    ref_steps)
        units = END_TO_END_UNITS
    fail_rate = check.failed / check.attempted
    shown["fail_rate"] = (fail_rate, "ratio")
    notes["fail_rate"] = f"{check.failed} of {check.attempted} answers failed"
    rows = [(name, value, units[name]) for name, value in metrics.items()]
    rows += [(name, value, unit) for name, (value, unit) in shown.items()]
    for name, value, unit in rows:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:24s} {value:.6g} {unit}{note}")

    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    with open(os.path.join(out_dir, f"result-trace{args.trace}.json"), "w") as fh:
        json.dump({**result, "workload": wl.name, "seed": args.seed,
                   "instance_seed": seed,
                   "held_out_seed": workloads.HELD_OUT_SEED,
                   "seconds": args.seconds, "env": env,
                   "shown": {k: {"value": v, "unit": u}
                             for k, (v, u) in shown.items()},
                   "samples": samples}, fh, indent=1)
    print(json.dumps(result))
    return 0 if check.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
