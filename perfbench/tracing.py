"""Outside-in instrumentation of the varprox layers.

``Instruments`` replaces public callables of varprox, and the
``scipy.linalg`` factor/solve routines that ``inner.py`` reaches through the
module attribute, by wrappers; leaving the ``with`` block restores them.

* ``spans=False`` only counts evaluations, optimizer iterations, IRLS
  iterations and failed ``solve_lq_option2`` results.  The heap pass uses it: span records would
  themselves be measured as heap.
* ``spans=True`` also records one span per call, ``[name, kind, start, end,
  parent, info]``, kept in memory and written out by ``write_spans``.
  ``layer_metrics`` turns the spans into the per-layer metrics.

Spans inside the library are not recorded here; only calls that cross a
module boundary through an attribute lookup can be wrapped from outside.
"""

import contextlib
import json
import math
import time
from collections import defaultdict

import scipy.linalg

from varprox import baselines, cli, inner, linops, varpro

ERROR = "error"
INF = "inf"
FACTORIZATIONS = ("cho_factor", "solve", "lstsq")   # cho_solve only back-solves
MEMO = {"to_dense": "_dense", "gram": "_gram", "cogram": "_cogram"}


def _targets():
    """``(owner, attribute, span name, kind)`` for every wrapped callable:
    those the four workloads reach."""
    out = []
    for cls in vars(linops).values():
        if isinstance(cls, type) and issubclass(cls, linops.LinearOperator):
            for meth in ("apply", "adjoint"):
                if meth in vars(cls):
                    out.append((cls, meth, f"linops.{cls.__name__}.{meth}", "matvec"))
    for meth in MEMO:
        out.append((linops.LinearOperator, meth, f"linops.{meth}", "densify"))
    for name in inner.__all__:
        if name.startswith("solve_"):
            out.append((inner, name, f"inner.{name}", "inner"))
    if hasattr(varpro, "_option2_inner"):   # the two-factor path's inner solve
        out.append((varpro, "_option2_inner", "inner._option2_inner", "inner"))
    for name in ("cho_factor", "cho_solve", "solve", "lstsq"):
        out.append((scipy.linalg, name, f"scipy.linalg.{name}", "factor"))
    for name in varpro.__all__:
        if name.startswith("eval_"):
            out.append((varpro, name, f"varpro.{name}", "envelope"))
    out += [(varpro, "solve_varpro", "varpro.solve_varpro", "solver"),
            (cli, "solve_lq_option2", "varpro.solve_lq_option2", "solver"),
            (varpro, "minimize_lbfgs", "optim.minimize_lbfgs", "optim"),
            (baselines, "run_irls", "baselines.run_irls", "baselines"),
            (cli, "cmd_phase", "cli.cmd_phase", "cli")]
    return out


# Kinds the heap pass needs for its counts.
COUNTED = ("envelope", "optim", "solver", "baselines")


class Instruments:
    """Wraps the varprox callables while the ``with`` block runs."""

    def __init__(self, spans):
        self.record_spans = spans
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []

    def __enter__(self):
        for owner, attr, name, kind in _targets():
            if not self.record_spans and kind not in COUNTED:
                continue
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, kind, attr))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    @contextlib.contextmanager
    def span(self, name, kind="bench"):
        """Record a span around the block; yields the span record."""
        stack = self._stack
        rec = [name, kind, 0.0, 0.0, stack[-1] if stack else -1, None]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        try:
            yield rec
        except BaseException:
            rec[5] = self._failed(kind)
            raise
        finally:
            rec[3] = time.perf_counter()
            stack.pop()

    def _note(self, kind, attr, result):
        """Update the counts from a call's result; returns the span info."""
        counts = self.counts
        if kind == "envelope":
            counts["evals"] += 1
            if not math.isfinite(result[0]):
                counts["inf_evals"] += 1
                return INF
        elif kind == "optim":
            iters = len(result[3].iters) - 1
            counts["iters"] += iters
            return iters
        elif attr == "run_irls":
            counts["irls_iters"] += len(result.iters)
        elif attr == "solve_lq_option2":
            if result.x is None or not math.isfinite(result.objective):
                counts["lq2_failures"] += 1
                return ERROR
        elif kind == "inner":
            kkt = getattr(result, "kkt_residual", None)
            return None if kkt is None else float(kkt)
        return None

    def _failed(self, kind):
        if kind == "envelope":      # solve_varpro scores a raising evaluation as inf
            self.counts["evals"] += 1
            self.counts["inf_evals"] += 1
        return ERROR

    def _wrap(self, fn, name, kind, attr):
        if not self.record_spans:
            def counted(*args, **kwargs):
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    self._failed(kind)
                    raise
                self._note(kind, attr, result)
                return result
            return counted

        memo = MEMO.get(attr) if kind == "densify" else None

        def traced(*args, **kwargs):
            # A memoized densification returns at once: no span, so that
            # linops.densify_s counts only the calls that compute.
            if memo is not None and vars(args[0]).get(memo) is not None:
                return fn(*args, **kwargs)
            with self.span(name, kind) as rec:
                result = fn(*args, **kwargs)
            rec[5] = self._note(kind, attr, result)
            return result
        return traced


def write_spans(spans, path, workload):
    """One JSON object per line; times in seconds from the first span."""
    t0 = spans[0][2] if spans else 0.0
    with open(path, "w") as fh:
        for i, (name, kind, start, end, parent, info) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "kind": kind,
                                 "start": start - t0, "end": end - t0,
                                 "parent": parent, "workload": workload,
                                 "info": info}) + "\n")


def partition(spans):
    """Self time per span and the layer it is charged to.

    Every span's self time (its duration minus its children's) goes to
    exactly one layer, so the layers add up to the root spans' wall time.
    A span below a baseline solver is charged to ``baselines``; a matvec
    below a densification to ``densify``.
    """
    n = len(spans)
    self_s = [s[3] - s[2] for s in spans]
    layer = [None] * n
    for i, (name, kind, start, end, parent, info) in enumerate(spans):
        if parent >= 0:
            self_s[parent] -= end - start
            up = layer[parent]
            if up == "baselines" or (up == "densify" and kind == "matvec"):
                layer[i] = up
                continue
        layer[i] = kind
    return self_s, layer


def layer_metrics(spans):
    """The per-layer metrics (without the ``trace.*`` ones) from the spans."""
    self_s, layer = partition(spans)
    by_layer = defaultdict(float)
    count = defaultdict(int)
    for s, lay in zip(self_s, layer):
        by_layer[lay] += s
        count[lay] += 1
    # Parents precede their children, so one forward pass finds each span's
    # outermost inner-solve ancestor and whether an optimizer run encloses it.
    n = len(spans)
    top_inner = [-1] * n
    in_optim = [False] * n
    factorizations = defaultdict(int)
    wasted = set()
    for i, (name, kind, start, end, parent, info) in enumerate(spans):
        if parent >= 0:
            up = spans[parent][1]
            top_inner[i] = top_inner[parent] if top_inner[parent] >= 0 \
                else (parent if up == "inner" else -1)
            in_optim[i] = in_optim[parent] or up == "optim"
        top = top_inner[i]
        if layer[i] == "factor" and top >= 0:
            factorizations[top] += name.rsplit(".", 1)[1] in FACTORIZATIONS
            if info == ERROR or factorizations[top] > 1:
                wasted.add(top)     # a retry, jitter or fallback factorization
    solves = [i for i in range(n) if layer[i] == "inner" and top_inner[i] < 0]
    evals = [i for i in range(n) if layer[i] == "envelope"]
    optim = [i for i in range(n) if layer[i] == "optim"]
    iters = sum(spans[i][5] or 0 for i in optim)
    tried = sum(in_optim[i] for i in evals) - len(optim)
    kkts = [spans[i][5] for i in solves if isinstance(spans[i][5], float)]
    return {
        "linops.matvec_calls": (count["matvec"], "count"),
        "linops.matvec_s": (by_layer["matvec"], "s"),
        "linops.densify_s": (by_layer["densify"], "s"),
        "inner.solves": (len(solves), "count"),
        "inner.assembly_s": (by_layer["inner"], "s"),
        "inner.factor_s": (by_layer["factor"], "s"),
        "inner.factor_calls": (count["factor"], "count"),
        "inner.first_try_ratio": (1.0 - len(wasted) / len(solves) if solves
                                  else 1.0, "ratio"),
        "inner.kkt_max": (max(kkts, default=0.0), "1"),
        "varpro.evals": (len(evals), "count"),
        "varpro.envelope_s": (by_layer["envelope"], "s"),
        "varpro.inf_evals": (sum(spans[i][5] in (INF, ERROR) for i in evals),
                             "count"),
        "varpro.solver_s": (by_layer["solver"], "s"),
        "optim.iters": (iters, "count"),
        "optim.backtracks": (tried - iters, "count"),
        "optim.accept_ratio": (iters / tried if tried else 1.0, "ratio"),
        "optim.self_s": (by_layer["optim"], "s"),
        "baselines.irls_s": (by_layer["baselines"], "s"),
        "cli.self_s": (by_layer["cli"], "s"),
        "bench.self_s": (by_layer["bench"], "s"),
    }
