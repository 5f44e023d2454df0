"""Smooth over-parameterized solvers for non-smooth structured regression.

The library rewrites group-sparse, analysis (total variation), robust and
nonconvex-lq regularized regression through a smooth factorization of the
penalty, projects out the closed-form factor, and minimizes the remaining
differentiable objective with quasi-Newton steps.  Classical first-order
baselines (proximal gradient, ADMM, primal-dual splitting, IRLS, mirror
descent) are included for benchmarking, along with a small experiment CLI.
"""

from .groups import (GroupStructure, contiguous_groups, extend,
                     group_norm_12, soft_threshold, trivial_groups)
from .inner import (InnerConfig, InnerSolution, InnerSolveError,
                    solve_analysis_prox, solve_grouplasso_dual,
                    solve_multitask_nuclear, solve_overlap_woodbury,
                    solve_quadratic_general, solve_robust, solve_two_factor)
from .linops import (BlockExtractOperator, DenseOperator, Grad2DOperator,
                     IdentityOperator, LinearOperator, MaskOperator,
                     block_extract, dense, fourier_system, grad2d, identity,
                     tv_group_structure)
from .trace import SolverTrace
from .varpro import (BasisPursuitLoss, MultitaskLoss, OuterConfig,
                     QuadraticLoss, RobustLoss, VarProProblem, VarProResult,
                     eval_f_grad, eval_f_grad_robust, eval_lq_option2,
                     eval_lq_option3, eval_multitask, nonsmooth_objective,
                     solve_lq_option2, solve_varpro)

__version__ = "0.1.0"
