"""Single-convolutional-layer classifier for multichannel EEG-style epochs,
with preprocessing, training, metrics and frequency-domain probing."""

import os

# One BLAS thread makes the GEMM bytes independent of the CPU count. BLAS reads
# these once, when numpy loads: a caller who set any of them keeps all three as
# they are, and none of this has any effect if numpy was imported first.
_BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if not any(var in os.environ for var in _BLAS_THREADS):
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))

__version__ = "0.1.0"
