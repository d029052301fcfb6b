"""Test-session settings, applied before any test module imports numpy.

One BLAS thread per process: the suite forks worker pools (criterion 7
runs 1, 2 and 4 workers), and forked workers that each start a full
OpenBLAS thread pool oversubscribe the cores. An explicit setting in the
environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
