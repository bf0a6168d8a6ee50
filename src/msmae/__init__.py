"""Multi-scale masked point cloud autoencoding on a minimal autodiff core."""

import os
import sys

# One BLAS thread, whatever the environment says: a second one changes the
# float order of some products, so a seeded run's bits would follow the core
# count, and it never pays at these sizes. Read once, when numpy loads, so a
# numpy loaded before this line keeps the count it read; training forks its
# gradient worker only at one thread, since two processes of several BLAS
# threads each crowd the CPUs the worker is there to use.
ONE_BLAS_THREAD = "numpy" not in sys.modules or os.environ.get("OPENBLAS_NUM_THREADS") == "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

__version__ = "0.1.0"
