"""Single-convolutional-layer classifier for multichannel EEG-style epochs,
with preprocessing, training, metrics and frequency-domain probing."""

import os

# BLAS reads its thread counts once, when numpy loads, so EEGCNN_THREADS is
# applied here, before the submodules import numpy. It has no effect if numpy
# was imported before this package.
if "EEGCNN_THREADS" in os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["EEGCNN_THREADS"])

__version__ = "0.1.0"
