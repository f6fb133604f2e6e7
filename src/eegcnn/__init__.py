"""Single-convolutional-layer classifier for multichannel EEG-style epochs,
with preprocessing, training, metrics and frequency-domain probing."""

import os

# BLAS reads its thread counts once, when numpy loads, so EEGCNN_THREADS is
# applied here, before the submodules import numpy. It has no effect if numpy
# was imported before this package.
if "EEGCNN_THREADS" in os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["EEGCNN_THREADS"])

from .data import (
    DatasetSplit,
    Epoch,
    Manifest,
    ManifestEntry,
    SubjectRecording,
    epoch_recording,
    load_manifest,
    load_subject_csv,
    split_dataset,
)
from .model import ModelConfig, ModelParams, forward, backward, init_params, param_count
from .preprocess import apply_zero_phase, design_highpass, welch_psd_batch
from .train import TrainConfig, TrainHistory, adam_step, cross_entropy, train
from .metrics import ConfusionMatrix, MetricsReport, confusion, evaluate, roc_auc, scalar_metrics
from .interpret import (
    FilterResponseMap,
    ProbeSpec,
    SensitivityMap,
    conv_filter_response,
    gen_white_noise,
    pooling_sensitivity,
)
from .experiments import AblationReport, group_psd, run_sweep, sweep_configs
from .checkpoint import load_checkpoint, save_checkpoint

__version__ = "0.1.0"
