"""Process set-up shared by the benchmark's entry points.

``prepare()`` must run before numpy is imported: OpenBLAS reads its thread
count once, when it loads, and ``threadpoolctl`` is not available to change
it afterwards.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT = os.path.join(HERE, "out")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare():
    """Pin BLAS to one thread and put the checkout's ``src`` first on the
    path; exits with status 2 when the sources are missing."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before BLAS threads were pinned")
    for var in BLAS_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "varprox", "__init__.py")):
        print(f"error: no varprox sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
