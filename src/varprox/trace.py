"""Per-iteration solver traces with a stable CSV schema."""

import csv
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SolverTrace"]

CSV_HEADER = ["iter", "objective", "grad_norm", "seconds"]


@dataclass
class SolverTrace:
    """Record of one solver run: per-iteration stats plus the final iterate.

    The ``grad_norm`` column stores whatever first-order residual is natural
    for the method (gradient norm for smooth solvers, a fixed-point or
    primal residual for splitting methods).  The descent loop of
    :mod:`varprox.optim` also sets ``stop_reason`` (``converged``,
    ``certified``, ``noise_floor``, ``stalled``, ``line_search_failed`` or
    ``max_iter``), ``evals`` (objective calls) and ``backtracks`` (rejected
    line-search trials); the other solvers leave them empty.  ``flags``
    marks solver-specific events (``mirror_clamped``, ``interpolated``).
    """

    method: str = ""
    iters: list = field(default_factory=list)
    objectives: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    x: np.ndarray | None = None
    aux: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    stop_reason: str = ""
    evals: int = 0
    backtracks: int = 0

    def record(self, it, objective, grad_norm, elapsed):
        self.iters.append(int(it))
        self.objectives.append(float(objective))
        self.grad_norms.append(float(grad_norm))
        self.seconds.append(float(elapsed))

    @property
    def final_objective(self):
        return self.objectives[-1] if self.objectives else float("nan")

    @property
    def n_records(self):
        return len(self.iters)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for row in zip(self.iters, self.objectives, self.grad_norms,
                           self.seconds):
                writer.writerow([row[0], repr(row[1]), repr(row[2]), repr(row[3])])

    def __repr__(self):
        tail = f", final={self.final_objective:.6g}" if self.objectives else ""
        return f"<SolverTrace {self.method} n={self.n_records}{tail}>"
