"""Multi-scale masked point cloud autoencoding on a minimal autodiff core."""

import os

# One BLAS thread, whatever the environment says: a second one changes the
# float order of some products, so a seeded run's bits would follow the core
# count, and it never pays at these sizes. Read once, when numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

__version__ = "0.1.0"
